"""Convexity classification of quasiarithmetic means.

The decisive test: an increasing generator with nowhere-vanishing second
derivative yields a convex mean exactly when the profile rho = f'/f'' is
positive and concave on the interval.  Concavity of the mean is the dual
statement, decided by running the identical test on the reflected
generator; this makes the convex/concave verdicts coherent by construction
rather than by numerical luck.  Generators with f'' identically zero give
the arithmetic mean, the unique member that is both convex and concave.

Two sampled cross-checks accompany the classification: domination of the
arithmetic mean (a cross-check of the envelope existence verdict) and a direct
midpoint Jensen test on random tuple pairs.  They, and every check in
:mod:`qameans.verify`, run through one driver, :func:`_sample_margins`: it
folds a margin function over groups of trials and keeps the worst margin,
the failure count and the failing trial with the lowest index, which is
the one a report names as its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSecondDerivative, SignChange, UsageError
from .generators import Generator, normalize, reflect_generator, rho
from .grids import WorkingInterval
from .means import MeanHandle, _qa_mean_batch

# Concavity slack for second differences of rho, relative to max |rho|.
CONC_TAU = 1e-8

# Slack for sampled mean comparisons, relative to the interval span.
MEAN_CMP_TOL = 1e-9

# Absolute slack for the midpoint Jensen test.
JENSEN_TOL = 1e-9


@dataclass(frozen=True)
class ConvexityClass:
    """Classification verdict with the evidence that produced it.

    value is one of Convex, Concave, ArithmeticBoth, Neither.  The verdict
    is about the working interval only; behavior outside it is not probed.
    """

    value: str
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"class": self.value, "evidence": self.evidence}


def _profile_pos_concave(values, interval: WorkingInterval) -> dict:
    """Decide positivity and concavity of a sampled profile.

    Returns a record with ok plus margins, or the failure reason and a
    concrete witness (nonpositive value, or a grid triple violating
    midpoint concavity).
    """
    xs = interval.grid()
    r = np.asarray(values, dtype=float)
    pos_margin = float(np.min(r))
    if pos_margin <= 0.0:
        k = int(np.argmin(r))
        return {
            "ok": False,
            "reason": "nonpositive-rho",
            "positivity_margin": pos_margin,
            "witness": {"x": float(xs[k]), "rho": float(r[k])},
        }

    d2 = r[:-2] - 2.0 * r[1:-1] + r[2:]
    delta_cc = CONC_TAU * float(np.max(np.abs(r)))
    conc_margin = delta_cc - float(np.max(d2))
    if conc_margin < 0.0:
        k = int(np.argmax(d2)) + 1
        return {
            "ok": False,
            "reason": "nonconcave-rho",
            "positivity_margin": pos_margin,
            "concavity_margin": conc_margin,
            "witness": {
                "triple_x": [float(xs[k - 1]), float(xs[k]), float(xs[k + 1])],
                "triple_rho": [float(r[k - 1]), float(r[k]), float(r[k + 1])],
                "second_difference": float(d2[k - 1]),
            },
        }
    return {
        "ok": True,
        "positivity_margin": pos_margin,
        "concavity_margin": conc_margin,
    }


def _positive_concave_test(gen: Generator) -> dict:
    """Run the positive-and-concave profile test on rho of a generator."""
    try:
        profile = rho(gen)
    except DegenerateSecondDerivative as exc:
        return {"ok": False, "reason": "degenerate", "detail": str(exc)}
    except SignChange as exc:
        return {"ok": False, "reason": "sign-change", "witness": exc.witness}
    return _profile_pos_concave(profile.values, gen.domain)


def classify(gen: Generator) -> ConvexityClass:
    """Classify the QA mean of gen as Convex, Concave, ArithmeticBoth, or Neither.

    Order of tests: degenerate f'' branch, then the positive-and-concave
    rho test on the normalized generator (Convex), then the same test on
    the reflected generator (Concave), else Neither with witnesses from
    both failed tests.
    """
    ngen = normalize(gen)
    primary = _positive_concave_test(ngen)
    if primary.get("reason") == "degenerate":
        return ConvexityClass(
            "ArithmeticBoth",
            {"branch": "f2-identically-zero", "detail": primary["detail"]},
        )
    if primary["ok"]:
        ev = {"branch": "rho-positive-concave"}
        ev.update({k: v for k, v in primary.items() if k != "ok"})
        return ConvexityClass("Convex", ev)

    dual = _positive_concave_test(normalize(reflect_generator(ngen)))
    if dual.get("ok"):
        ev = {"branch": "reflected-rho-positive-concave"}
        ev.update({k: v for k, v in dual.items() if k != "ok"})
        return ConvexityClass("Concave", ev)

    return ConvexityClass(
        "Neither",
        {
            "branch": "neither",
            "convex_test": {k: v for k, v in primary.items() if k != "ok"},
            "concave_test": {k: v for k, v in dual.items() if k != "ok"},
        },
    )


@dataclass(frozen=True)
class GateReport:
    """Sampled comparison of a QA mean against the arithmetic mean."""

    holds: bool
    direction: str  # "ge" or "le"
    trials: int
    n_max: int
    seed: int
    tol: float
    worst_margin: float
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "holds": self.holds,
            "direction": self.direction,
            "trials": self.trials,
            "n_max": self.n_max,
            "seed": self.seed,
            "tol": self.tol,
            "worst_margin": self.worst_margin,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _grouped_tuples(rng, trials: int, n_max: int, interval: WorkingInterval):
    """Random tuple sizes 2..n_max, yielded as (original indices, batch).

    The one rule for sample counts of every sampled check: trials >= 1 and
    n_max >= 2, else UsageError, raised at the call, before anything is
    drawn.  The batches are drawn lazily, one per size, between the draws
    a margin function makes from the same rng.
    """
    if trials < 1:
        raise UsageError(f"need trials >= 1, got {trials}")
    if n_max < 2:
        raise UsageError(f"need n_max >= 2, got {n_max}")
    sizes = rng.integers(2, n_max + 1, size=trials)

    def groups():
        for n in range(2, n_max + 1):
            idx = np.nonzero(sizes == n)[0]
            if len(idx) == 0:
                continue
            yield idx, rng.uniform(interval.lo, interval.hi, size=(len(idx), n))

    return groups()


def _sample_margins(groups, margin_fn, tol: float) -> tuple:
    """Fold a sampled inequality over groups of (trial indices, batch X).

    margin_fn(X) returns (margin, *arrays) with one entry per row; a row
    fails when its margin is below -tol.  Returns the worst margin, the
    failure count, the lowest failing trial index and that trial's row
    (X[j], margin[j], *arrays[j]), the last two None when nothing fails.
    groups may draw lazily from an rng that margin_fn also draws from.
    """
    worst = np.inf
    failures = 0
    witness_trial = None
    row = None
    for idx, X in groups:
        margin, *arrays = margin_fn(X)
        worst = min(worst, float(np.min(margin)))
        bad = np.nonzero(margin < -tol)[0]
        failures += len(bad)
        if len(bad) > 0:
            j = bad[np.argmin(idx[bad])]
            if witness_trial is None or idx[j] < witness_trial:
                witness_trial = int(idx[j])
                row = (X[j], margin[j], *(a[j] for a in arrays))
    return worst, failures, witness_trial, row


def dominates_arithmetic(gen: Generator, n_max: int, trials: int,
                         direction: str = "ge", seed: int = 0) -> GateReport:
    """Sampled test of QA_f >= A (direction "ge") or QA_f <= A ("le").

    Deterministic under the seed.  The worst margin is the minimum over
    trials of the claimed difference; a violation beyond the tolerance is
    returned as a witness tuple with both sides evaluated.
    """
    if direction not in ("ge", "le"):
        raise UsageError("direction must be 'ge' or 'le'")
    rng = np.random.default_rng(seed)
    tol = MEAN_CMP_TOL * gen.domain.span

    def margin(X):
        qa = _qa_mean_batch(gen, X)
        am = X.mean(axis=1)
        return (qa - am if direction == "ge" else am - qa), qa, am

    worst, _, trial, row = _sample_margins(
        _grouped_tuples(rng, trials, n_max, gen.domain), margin, tol)
    witness = None
    if trial is not None:
        x, mg, qa, am = row
        witness = {
            "values": [float(v) for v in x],
            "qa_mean": float(qa),
            "arith_mean": float(am),
            "margin": float(mg),
            "trial": trial,
        }
    return GateReport(witness is None, direction, trials, n_max, seed,
                      tol, worst, witness)


@dataclass(frozen=True)
class JensenReport:
    """Sampled midpoint convexity/concavity test for a mean."""

    passed: bool
    sense: str  # "convex" or "concave"
    trials: int
    n_max: int
    seed: int
    tol: float
    worst_margin: float
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "passed": self.passed,
            "sense": self.sense,
            "trials": self.trials,
            "n_max": self.n_max,
            "seed": self.seed,
            "tol": self.tol,
            "worst_margin": self.worst_margin,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def jensen_midpoint_check(mean: MeanHandle, n_max: int, trials: int,
                          sense: str = "convex", seed: int = 0) -> JensenReport:
    """Test M((x+y)/2) <= (M(x)+M(y))/2 (or >= for sense "concave").

    Random tuple pairs of each length 2..n_max; the margin is the slack of
    the claimed inequality, so negative margin beyond tolerance is a
    counterexample and is reported with both sides.
    """
    if sense not in ("convex", "concave"):
        raise UsageError("sense must be 'convex' or 'concave'")
    rng = np.random.default_rng(seed)
    interval = mean.domain

    def margin(X):
        Y = rng.uniform(interval.lo, interval.hi, size=X.shape)
        lhs = mean.batch(0.5 * (X + Y))
        rhs = 0.5 * (mean.batch(X) + mean.batch(Y))
        return (rhs - lhs if sense == "convex" else lhs - rhs), Y, lhs, rhs

    worst, _, trial, row = _sample_margins(
        _grouped_tuples(rng, trials, n_max, interval), margin, JENSEN_TOL)
    witness = None
    if trial is not None:
        x, mg, y, lhs, rhs = row
        witness = {
            "x": [float(v) for v in x],
            "y": [float(v) for v in y],
            "m_at_midpoint": float(lhs),
            "average_of_m": float(rhs),
            "margin": float(mg),
            "trial": trial,
        }
    return JensenReport(witness is None, sense, trials, n_max, seed,
                        JENSEN_TOL, worst, witness)
