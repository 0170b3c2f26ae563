"""Output checks for benchmark operations.

Every expected outcome here comes from the paper's theory or from a
closed-form formula computed with numpy, never from the program under test:

- classification verdicts follow the paper's table (power p >= 1 convex,
  p <= 1 concave, exp convex, log concave, affine generators give the
  arithmetic mean, which is both);
- the order of two means follows the sign of f''/f' - g''/g', which for the
  catalog generators is A/x + B in closed form;
- ``eval`` values are compared with the closed-form power or geometric mean;
- a counterexample is re-evaluated with numpy means and must still violate.

``check_op`` returns a list of problems; an empty list means the operation's
exit code, outcome and output are right.
"""

from __future__ import annotations

import json

import numpy as np

EVAL_RTOL = 1e-12

# Operations whose failure at the seed is a known defect of the program,
# with where it is recorded.  A run is `correct` when no other operation
# fails; failures of these still count in `failed` and `fail_ratio`.
KNOWN_DEFECTS = {
    "classify power:-5": (
        "ROADMAP item 1: rho() treats |f''| below 1e-8 * max|f''| as zero, "
        "so power:-5 on [0.1, 10] reads as a sign change and classifies as "
        "Neither instead of Concave"),
    "classify table:65537": (
        "found by this benchmark: a 65537-point table of power:3 gets f'' by "
        "central differences, whose roundoff breaks the 1e-8 concavity "
        "slack on rho, so it classifies as Neither instead of Convex"),
}


def power_exponent(spec: str) -> float | None:
    """Exponent p of a catalog generator in the power family (log is p = 0,
    affine generators are p = 1); None for exp."""
    if spec.startswith("power:"):
        return float(spec.split(":", 1)[1])
    if spec == "log":
        return 0.0
    if spec == "id" or spec.startswith("affine:"):
        return 1.0
    if spec == "exp":
        return None
    raise ValueError(f"no closed form for {spec!r}")


def expected_class(spec: str) -> str:
    """The paper's classification table."""
    p = power_exponent(spec)
    if p is None:
        return "Convex"
    if p == 1.0:
        return "ArithmeticBoth"
    return "Convex" if p > 1.0 else "Concave"


def _sigma(spec: str) -> tuple:
    """f''/f' as A/x + B: power p -> (p - 1)/x, log -> -1/x, exp -> 1."""
    p = power_exponent(spec)
    return (0.0, 1.0) if p is None else (p - 1.0, 0.0)


def expected_relation(f: str, g: str, lo: float, hi: float) -> str:
    """Order of QA_f and QA_g on [lo, hi] (lo > 0): QA_f <= QA_g exactly when
    f''/f' <= g''/g' everywhere.  The difference A/x + B is monotone in x,
    so its sign at the two ends decides."""
    (af, bf), (ag, bg) = _sigma(f), _sigma(g)
    a, b = af - ag, bf - bg
    if a == 0.0 and b == 0.0:
        return "Equal"
    ends = (a / lo + b, a / hi + b)
    if max(ends) <= 0.0:
        return "LessOrEqual"
    if min(ends) >= 0.0:
        return "GreaterOrEqual"
    return "Incomparable"


def closed_form_mean(spec: str, row) -> float:
    """Power mean of one tuple (geometric for log), independent of qameans."""
    p = power_exponent(spec)
    if p is None:
        raise ValueError("eval checks use power-family generators")
    row = np.asarray(row, dtype=float)
    if p == 0.0:
        return float(np.exp(np.mean(np.log(row))))
    return float(np.mean(row ** p) ** (1.0 / p))


def _geo(v) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(v, dtype=float)))))


def _arith(v) -> float:
    return float(np.mean(np.asarray(v, dtype=float)))


_MEANS = {"arith": _arith, "log": _geo}


def ij_violation(matrix, m_spec: str, n_spec: str) -> float:
    """N(row-wise M) - M(column-wise N) of an n-by-m matrix, with numpy means."""
    M, N = _MEANS[m_spec], _MEANS[n_spec]
    x = np.asarray(matrix, dtype=float)
    return N([M(row) for row in x]) - M([N(col) for col in x.T])


def kedlaya_violation(values, m_spec: str, n_spec: str) -> float:
    """N of running M-prefix means minus M of running N-prefix means."""
    M, N = _MEANS[m_spec], _MEANS[n_spec]
    v = np.asarray(values, dtype=float)
    prefixes = [v[:k] for k in range(1, len(v) + 1)]
    return N([M(p) for p in prefixes]) - M([N(p) for p in prefixes])


def _expect_rc(rc: int, want: int) -> list:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def _load_json(data: bytes):
    try:
        return json.loads(data), []
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]


def _check_envelope(expect: dict, rc: int, data: bytes) -> list:
    status = expect["status"]
    problems = _expect_rc(rc, 1 if status in ("NoneExists", "NonsmoothCase") else 0)
    if expect.get("format") == "csv" and status not in ("NoneExists", "NonsmoothCase"):
        lines = data.decode().splitlines()
        if not lines or not lines[0].startswith("# "):
            return problems + ["CSV report lacks its header line"]
        head = json.loads(lines[0][2:])
        if head.get("status") != status:
            problems.append(f"status {head.get('status')}, expected {status}")
        if len(lines) != expect["grid"] + 2:
            problems.append(f"{len(lines) - 2} CSV rows, expected {expect['grid']}")
        return problems
    report, bad = _load_json(data)
    if bad:
        return problems + bad
    if report.get("status") != status:
        problems.append(f"status {report.get('status')}, expected {status}")
    if "g" in report and len(report["g"]) != expect["grid"]:
        problems.append(f"{len(report['g'])} grid values, expected {expect['grid']}")
    return problems


def _check_verify(expect: dict, rc: int, report: dict) -> list:
    if expect["outcome"] == "pass":
        problems = _expect_rc(rc, 0)
        if report.get("failures") != 0:
            problems.append(f"failures {report.get('failures')}, expected 0")
        if not report.get("trials", 0) > 0:
            problems.append("no trials ran")
        return problems
    problems = _expect_rc(rc, 1)
    witness = report.get("witness")
    if not report.get("failures", 0) > 0 or witness is None:
        return problems + ["expected a failure with a witness"]
    tol = float(report.get("extra", {}).get("tol", 0.0))
    if "matrix" in witness:
        v = ij_violation(witness["matrix"], expect["M"], expect["N"])
    else:
        v = kedlaya_violation(witness["values"], expect["M"], expect["N"])
    if not v > tol:
        problems.append(f"witness does not violate when recomputed: {v!r} <= tol {tol!r}")
    return problems


def check_op(expect: dict, rc: int, data: bytes, rows=None) -> list:
    """Problems with one operation's result.

    `expect` holds the command and what theory says it should produce;
    `data` is the report as written; `rows` are the eval input rows.
    """
    kind = expect["kind"]
    if kind == "envelope":
        return _check_envelope(expect, rc, data)
    report, bad = _load_json(data)
    if bad:
        return bad
    if kind == "classify":
        problems = _expect_rc(rc, 0)
        if report.get("class") != expect["class"]:
            problems.append(f"class {report.get('class')}, expected {expect['class']}")
        return problems
    if kind == "compare":
        problems = _expect_rc(rc, 0)
        if report.get("relation") != expect["relation"]:
            problems.append(
                f"relation {report.get('relation')}, expected {expect['relation']}")
        return problems
    if kind == "verify":
        return _check_verify(expect, rc, report)
    if kind == "eval":
        problems = _expect_rc(rc, 0)
        got = np.asarray(report.get("values", []), dtype=float)
        want = np.array([closed_form_mean(expect["gen"], row) for row in rows])
        if got.shape != want.shape:
            return problems + [f"{got.size} values, expected {want.size}"]
        err = np.abs(got - want) / np.abs(want)
        if not np.all(err <= EVAL_RTOL):
            k = int(np.argmax(err))
            problems.append(f"row {k}: relative error {err[k]:.3e} > {EVAL_RTOL}")
        return problems
    raise ValueError(f"unknown op kind {kind!r}")
