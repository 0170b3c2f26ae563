"""The benchmark's own correctness check, run as the benchmark runs it.

`perfbench/run.py --quick` runs every workload's op list once and checks
each report; `--selftest` checks that checker.  Both run from the
repository root in subprocesses, as documented in perfbench/NOTES.md.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("analyze", "verify_pass", "witness")


def _perfbench(*args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_quick_run_is_correct_on_every_workload():
    pytest.importorskip("scipy")  # perfbench/worker.py imports it
    proc = _perfbench("--workload", "all", "--quick")
    assert proc.returncode == 0, proc.stderr
    results, workload = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith("{"):
            results[workload] = json.loads(line)
    assert sorted(results) == sorted(WORKLOADS), proc.stdout
    for name, result in results.items():
        assert result["correct"] is True and result["failed"] == 0, (name, proc.stdout)


def test_benchmark_checker_selftest_passes():
    pytest.importorskip("scipy")
    proc = _perfbench("--selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
