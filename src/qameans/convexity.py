"""Convexity classification of quasiarithmetic means.

The decisive test: a generator with nowhere-vanishing second derivative
yields a convex mean exactly when the profile rho = f'/f'' is positive and
concave on the interval; f and -f give the same mean and the same rho, so
the test reads rho of the generator as given.  Concavity of the mean is
the dual statement: the reflected generator's profile is -rho(-x), so the
same test runs on -rho over the same grid; both senses read one profile,
which makes the convex/concave verdicts coherent by construction rather
than by numerical luck.  Generators with f'' identically zero give the
arithmetic mean, the unique member that is both convex and concave.  One
function, :func:`_profile_tests`, reads the profile in either sense;
classify and the envelopes of :mod:`qameans.envelope` take their verdicts
from its records.

Two sampled cross-checks accompany the classification: domination of the
arithmetic mean (a cross-check of the envelope existence verdict) and a direct
midpoint Jensen test on random tuple pairs.  They, and every check in
:mod:`qameans.verify`, run through one driver, :func:`_sample_margins`: it
folds a margin function over groups of trials, keeps the worst margin and
the failure count, and hands the failing trial with the lowest index to the
check's witness builder.  Every check returns a :class:`TrialReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DegenerateSecondDerivative, SignChange, UsageError
from .generators import Generator, rho
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

    Returns the margins, or the failure reason, its margins and a concrete
    witness (nonpositive value, or a grid triple violating midpoint
    concavity).
    """
    xs = interval.grid()
    r = np.asarray(values, dtype=float)
    pos_margin = float(np.min(r))
    if pos_margin <= 0.0:
        k = int(np.argmin(r))
        return {"reason": "nonpositive-rho", "positivity_margin": pos_margin,
                "witness": {"x": float(xs[k]), "rho": float(r[k])}}

    d2 = r[:-2] - 2.0 * r[1:-1] + r[2:]
    delta_cc = CONC_TAU * float(np.max(np.abs(r)))
    conc_margin = delta_cc - float(np.max(d2))
    if conc_margin < 0.0:
        k = int(np.argmax(d2)) + 1
        return {
            "reason": "nonconcave-rho",
            "positivity_margin": pos_margin,
            "concavity_margin": conc_margin,
            "witness": {
                "triple_x": [float(xs[k - 1]), float(xs[k]), float(xs[k + 1])],
                "triple_rho": [float(r[k - 1]), float(r[k]), float(r[k + 1])],
                "second_difference": float(d2[k - 1]),
            },
        }
    return {"positivity_margin": pos_margin, "concavity_margin": conc_margin}


def _profile_tests(gen: Generator, *senses: str) -> tuple:
    """The decisive test of gen's profile, in each sense asked for.

    Samples rho of gen once.  Returns (profile, detail, tests); tests
    yields one record per sense, lazily: "convex" tests rho and
    "concave" tests -rho for positivity and concavity, and a record passes
    exactly when it has no "reason" key.  If rho raises, profile is None,
    detail is its message, and every record's reason is "f2-identically-zero"
    (f'' vanishes on the whole grid) or "sign-change" (with rho's witness).
    """
    try:
        profile = rho(gen)
    except DegenerateSecondDerivative as exc:
        return None, str(exc), repeat({"reason": "f2-identically-zero"}, len(senses))
    except SignChange as exc:
        return None, str(exc), repeat({"reason": "sign-change", "witness": exc.witness},
                                      len(senses))
    return profile, None, (
        _profile_pos_concave(profile.values if sense == "convex" else -profile.values,
                             gen.domain)
        for sense in senses)


def classify(gen: Generator) -> ConvexityClass:
    """Classify the QA mean of gen as Convex, Concave, ArithmeticBoth, or Neither.

    The profile rho of the generator as given is computed once.  A
    degenerate f'' gives ArithmeticBoth; otherwise rho positive and concave
    gives Convex, and -rho positive and concave on the same grid (rho
    negative and convex, the profile of the reflected generator read back on
    the working interval) gives Concave; else Neither with witnesses from
    both failed tests, every witness x on the working interval.
    """
    _, detail, tests = _profile_tests(gen, "convex", "concave")
    convex = next(tests)
    if convex.get("reason") == "f2-identically-zero":
        return ConvexityClass(
            "ArithmeticBoth", {"branch": "f2-identically-zero", "detail": detail})
    if "reason" not in convex:
        return ConvexityClass("Convex", {"branch": "rho-positive-concave", **convex})
    concave = next(tests)
    if "reason" not in concave:
        return ConvexityClass("Concave", {"branch": "reflected-rho-positive-concave",
                                          **concave})
    return ConvexityClass("Neither", {"branch": "neither", "convex_test": convex,
                                      "concave_test": concave})


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


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one sampled check."""

    check: str
    trials: int
    failures: int
    worst_margin: float
    seed: int
    witness: dict | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.failures == 0) != (self.witness is None):
            raise UsageError("witness must be present exactly when failures > 0")

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.extra:
            out["extra"] = self.extra
        return out


def _sample_margins(groups, margin_fn, tol: float, witness_fn) -> tuple:
    """Fold a sampled inequality over groups of (trial indices, batch X).

    margin_fn(X) returns (margin, *arrays) with one entry per row; a row
    fails when its margin is below -tol.  Returns the worst margin, the
    failure count and the witness: witness_fn(trial, x, margin, *arrays)
    called once on the failing row with the lowest trial index, or None
    when nothing fails.  A witness reads its means from its row, and a shrink
    evaluates each point through margin_fn.  groups may draw lazily from an
    rng that margin_fn also draws from.
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
    return worst, failures, None if row is None else witness_fn(witness_trial, *row)


def dominates_arithmetic(gen: Generator, n_max: int, trials: int,
                         direction: str = "ge", seed: int = 0) -> TrialReport:
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

    worst, failures, witness = _sample_margins(
        _grouped_tuples(rng, trials, n_max, gen.domain), margin, tol,
        lambda trial, x, mg, qa, am: {
            "values": x.tolist(), "qa_mean": float(qa), "arith_mean": float(am),
            "margin": float(mg), "trial": trial})
    return TrialReport("dominates_arithmetic", trials, failures, worst, seed, witness,
                       extra={"direction": direction, "n_max": n_max, "tol": tol})


def jensen_midpoint_check(mean: MeanHandle, n_max: int, trials: int,
                          sense: str = "convex", seed: int = 0) -> TrialReport:
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

    worst, failures, witness = _sample_margins(
        _grouped_tuples(rng, trials, n_max, interval), margin, JENSEN_TOL,
        lambda trial, x, mg, y, lhs, rhs: {
            "x": x.tolist(), "y": y.tolist(), "m_at_midpoint": float(lhs),
            "average_of_m": float(rhs), "margin": float(mg), "trial": trial})
    return TrialReport("jensen_midpoint", trials, failures, worst, seed, witness,
                       extra={"sense": sense, "n_max": n_max, "tol": JENSEN_TOL})
