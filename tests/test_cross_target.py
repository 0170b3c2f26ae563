"""Reports across numpy's SIMD targets.

numpy picks its exp, log, log1p, expm1 and power kernels by the CPU it runs
on, and kernels of different targets may differ in the last bits, so a
report is byte-identical only for a given seed, numpy version and SIMD
target.  What must not move across targets is every decision: exit codes,
statuses, verdicts, relations, failure counts, witness presence and hull
vertex counts.  Every float may move by a few ulp.

A fixed corpus of CLI runs goes through three processes: the host's own
kernels, ``NPY_DISABLE_CPU_FEATURES=X86_V4`` (AVX2 kernels on an AVX-512
host) and ``X86_V4 X86_V3`` (the baseline kernels).  The variable acts on
that process only.  A setting the host refuses skips its comparison, named
in the skip reason.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# Floats of two targets' reports may differ by at most this many ulp of the
# larger magnitude.
MAX_ULPS = 4

CORPUS = [
    ["classify", "--gen", "power:3"],
    ["classify", "--gen", "power:-5"],
    ["classify", "--gen", "log"],
    ["compare", "--gen", "log", "--gen2", "power:0.5"],
    ["compare", "--gen", "exp", "--gen2", "power:3"],
    ["eval", "--gen", "power:3", "--vec", "1,7,2.5"],
    ["eval", "--gen", "exp", "--vec", "0.5,9"],
    ["eval", "--gen", "log", "--vec", "0.3,4,8"],
    ["envelope", "--gen", "power:3", "--grid", "1025"],
    ["envelope", "--gen", "power:3", "--grid", "1025", "--format", "csv"],
    ["envelope", "--gen", "log", "--kind", "concave", "--grid", "1025"],
    ["envelope", "--gen", "log", "--kind", "concave", "--grid", "1025", "--format", "csv"],
    ["envelope", "--gen", "log", "--kind", "convex", "--grid", "1025"],
] + [
    [*argv, "--seed", seed, "--trials", "800"]
    for seed in ("1", "2")
    for argv in (
        ["verify", "--check", "ij", "--gen", "log", "--gen2", "arith"],
        ["verify", "--check", "ij", "--gen", "arith", "--gen2", "log"],
        ["verify", "--check", "kedlaya", "--gen", "power:3", "--gen2", "arith"],
        ["verify", "--check", "maximality", "--gen", "power:3"],
        ["verify", "--check", "duality", "--gen", "log"],
        ["verify", "--check", "symmetry", "--gen", "exp"],
    )
]

# Runs the corpus given as argv[1] in this process and prints, as JSON, the
# features numpy reports enabled and each run's exit code and stdout.
RUNNER = """
import contextlib, io, json, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from qameans.cli import run
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    results.append([code, out.getvalue()])
print(json.dumps({"features": __cpu_features__, "results": results}))
"""


def _run_corpus(disabled):
    """The corpus's (exit code, stdout) pairs with the features in disabled
    turned off, or None with the reason when the host refuses that."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(CORPUS)],
                          env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        if disabled and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            return None, proc.stderr.strip().splitlines()[-1]
        pytest.fail(f"corpus run failed:\n{proc.stderr}")
    got = json.loads(proc.stdout)
    still_on = [f for f in disabled.split() if got["features"].get(f)]
    if still_on:
        return None, f"{' '.join(still_on)} still enabled: {proc.stderr.strip()}"
    return got["results"], None


@pytest.fixture(scope="module")
def host_reports():
    reports, _ = _run_corpus("")
    return reports


def _parse(report):
    """A report's structure: JSON as loaded; the CSV form as its comment's
    JSON, its column header and its rows of floats."""
    if not report.startswith("# "):
        return json.loads(report)
    comment, header, *rows = report.splitlines()
    return [json.loads(comment[2:]), header,
            [[float(c) for c in row.split(",")] for row in rows]]


def _ulps(a, b):
    """Distance of two floats in ulps of the larger magnitude; 0 for equal
    values, including two NaNs, and inf for unequal non-finite ones."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _differences(a, b, where="$"):
    """Where two parsed reports differ beyond MAX_ULPS: every key, string,
    int, bool and list length must be equal, and floats close."""
    if isinstance(a, float) and isinstance(b, float):
        ulps = _ulps(a, b)
        return [f"{where}: {a!r} vs {b!r} ({ulps:.3g} ulp)"] if ulps > MAX_ULPS else []
    if type(a) is not type(b):
        return [f"{where}: {a!r} vs {b!r}"]
    if isinstance(a, dict):
        if list(a) != list(b):
            return [f"{where}: keys {list(a)} vs {list(b)}"]
        return [d for k in a for d in _differences(a[k], b[k], f"{where}.{k}")]
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} vs {len(b)}"]
        return [d for k, (x, y) in enumerate(zip(a, b))
                for d in _differences(x, y, f"{where}[{k}]")]
    return [] if a == b else [f"{where}: {a!r} vs {b!r}"]


def test_corpus_covers_passes_failures_and_witnesses(host_reports):
    codes = [code for code, _ in host_reports]
    assert set(codes) == {0, 1}
    failed = [_parse(out) for code, out in host_reports if code == 1]
    assert all("witness" in json.dumps(rep) for rep in failed)


@pytest.mark.parametrize("disabled", ["X86_V4", "X86_V4 X86_V3"])
def test_reports_agree_across_simd_targets(host_reports, disabled):
    reports, refused = _run_corpus(disabled)
    if reports is None:
        pytest.skip(f"host refuses NPY_DISABLE_CPU_FEATURES={disabled!r}: {refused}")
    problems = []
    for argv, (code, out), (other_code, other_out) in zip(CORPUS, host_reports, reports):
        name = " ".join(argv)
        if code != other_code:
            problems.append(f"{name}: exit {code} vs {other_code}")
        else:
            problems += [f"{name}: {d}" for d in _differences(_parse(out), _parse(other_out))]
    assert problems == []
