"""The benchmark's own correctness check, run as the benchmark runs it.

`perfbench/run.py --quick` runs every workload's op list once and checks
each report; `--selftest` checks that checker.  Both run from the
repository root in subprocesses, as documented in perfbench/NOTES.md.
The analyze workload's compares also run in process: `perfbench/check.py`
and `perfbench/workloads.py` are read and executed in private namespaces,
so nothing is imported from or written next to them.
"""

import json
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import pytest

from qameans.cli import run

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


def _perfbench_module(name: str, **imports) -> types.ModuleType:
    """perfbench/<name>.py executed in a fresh module, which with imports
    (the modules it imports by name) is in sys.modules only meanwhile."""
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    with mock.patch.dict(sys.modules, {module.__name__: module, **imports}):
        exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def test_analyze_compares_follow_the_closed_form_order(tmp_path, capsys):
    """Each of analyze's 72 catalog compare command lines, on [0.1, 10] at
    the default grid 1025, gives check.py's relation from A/x + B in closed
    form, and an Incomparable report's witnesses are the interval's ends."""
    workloads = _perfbench_module("workloads", check=_perfbench_module("check"))
    catalog = workloads.CATALOG
    ops = [workloads._compare(f, g) for f in catalog for g in catalog if f != g]
    assert len(ops) == 72
    relations = set()
    for op in ops:
        out = tmp_path / "report.json"
        assert run([*op.argv, "--out", str(out)]) == 0, op.name
        report = json.loads(out.read_text())
        assert report["config"]["grid_points"] == 1025, op.name
        assert report["relation"] == op.expect["relation"], op.name
        if report["relation"] == "Incomparable":
            w = report["witness"]
            assert {w["le_fails_at"], w["ge_fails_at"]} == {workloads.LO, workloads.HI}
        relations.add(report["relation"])
    assert relations == {"LessOrEqual", "GreaterOrEqual", "Equal", "Incomparable"}
    assert capsys.readouterr().err == ""
