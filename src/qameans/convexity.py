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
function, :func:`_profile_tests`, decides every verdict on the profile,
read from a closed form's two end values (rho_ends) or a table's sample
(:func:`qameans.generators.rho`): degeneracy, a sign change, then
positivity and concavity in either sense; classify and the envelopes of
:mod:`qameans.envelope` take their verdicts from its records.

:func:`dominates_arithmetic` samples QA_f >= A (or <=).  Nothing calls it:
not the library, the CLI, the demos or the perfbench workloads.  It stays
only because perfbench/spans.py names it, and ROADMAP item 4's benchmark
change deletes both.  Jensen's inequality for QA_f is
:func:`qameans.verify.ingham_jessen_check` with M = A, N = QA_f
(convexity) or the two swapped (concavity).  Every sampled
check runs through one driver, :func:`_sample_margins`: it
folds a margin function over groups of trials, keeps the worst margin and
the failure count, and hands the failing trial with the lowest index to the
check's witness builder.  Every check returns a :class:`TrialReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import RangeError, UsageError
from .generators import Generator, rho
from .grids import ScalarGrid, WorkingInterval
from .means import QuasiArithmeticMean

# Floor deciding that f'' is identically zero on the grid: span * max|1/rho|,
# the largest relative change of f' across the interval, is at most this.
DEGENERATE_TAU = 1e-8

# Concavity slack for second differences of rho, relative to max |rho|.
CONC_TAU = 1e-8

# Slack for sampled mean comparisons, relative to the interval span.
MEAN_CMP_TOL = 1e-9

# Most trials of one sampled check, and most entries they draw (or, for
# running means, read).  The costliest entry, one of a 5x5 interchange matrix
# of ingham_jessen_check with arithmetic rows and log columns, peaks at about
# 38 bytes with its means' temporaries and the column-major copies they sum
# (960 bytes a trial by tracemalloc); the sweep, which holds all its shapes'
# matrices, peaks at 322 bytes a trial at max_dim 5, and symmetry and kedlaya
# tuples cost less an entry.  So a check at MAX_ENTRIES = 25 * MAX_TRIALS
# entries, the 5x5 check's at MAX_TRIALS trials, holds under 1 GB.
MAX_TRIALS = 10**6
MAX_ENTRIES = 25 * MAX_TRIALS


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


def _ends_pos(a: float, b: float, lo: float, hi: float) -> dict:
    """_profile_pos_concave of an affine profile from its values a at lo and
    b at hi: its sample's min is the first of them that is least, and it is
    concave with margin exactly 0."""
    if min(a, b) <= 0.0:
        x, r = (lo, a) if a <= b else (hi, b)
        return {"reason": "nonpositive-rho", "positivity_margin": r,
                "witness": {"x": x, "rho": r}}
    return {"positivity_margin": min(a, b), "concavity_margin": 0.0}


def _profile_tests(gen: Generator, *senses: str) -> tuple:
    """The decisive test of gen's profile, in each sense asked for.

    Returns (profile, detail, tests), tests yielding one record per sense,
    lazily: "convex" tests rho and "concave" tests -rho for positivity and
    concavity, and a record passes exactly when it has no "reason" key.

    Where gen.rho_ends() states two end values (closed forms), the records
    are read from them: an affine profile, concave with margin exactly 0, a
    failing record's witness an end of the interval, and profile is None.
    Else (tables) rho is sampled once (rho() refuses a zero or NaN value)
    and profile is that ScalarGrid.

    If span * max|1/rho| <= DEGENERATE_TAU (f'' vanishes on the whole grid)
    or some sampled rho is infinite or not of the sign at lo, profile is
    None, detail says why, and every record's reason is
    "f2-identically-zero" or "sign-change" (with a witness at the first such
    grid point).  End values of which only one is infinite are a closed
    form's rho overflowing on the interval: a RangeError.
    """
    ends = gen.rho_ends()
    if ends is None:
        r = rho(gen)
        least = float(np.abs(r).min())
    else:
        least = min(abs(ends[0]), abs(ends[1]))
    curvature = gen.domain.span / least
    if curvature <= DEGENERATE_TAU:
        detail = (f"{gen.spec_string()}: f'' vanishes on the whole grid "
                  f"(span * max |1/rho| = {curvature:.3e} <= {DEGENERATE_TAU:.3e})")
        return None, detail, repeat({"reason": "f2-identically-zero"}, len(senses))
    if ends is not None:
        (a, b), d = ends, gen.domain
        if abs(a) == np.inf or abs(b) == np.inf:  # not both: that is degenerate
            raise RangeError(f"{gen.spec_string()}: rho overflows on [{d.lo}, {d.hi}]: "
                             f"{a:.3e} at x = {d.lo!r} but {b:.3e} at x = {d.hi!r}")
        return None, None, (_ends_pos(a, b, *d.ends) if sense == "convex"
                            else _ends_pos(-a, -b, *d.ends) for sense in senses)
    one_signed = np.isfinite(r) & (np.sign(r) == np.sign(r[0]))
    if not one_signed.all():
        # first grid point whose rho is infinite (f'' = 0) or of the other sign
        k = int(np.argmin(one_signed))
        xs = gen.domain.grid()
        detail = (f"{gen.spec_string()}: rho is {r[0]:.3e} at x = {float(xs[0])!r} "
                  f"but {r[k]:.3e} at x = {float(xs[k])!r}")
        witness = {"x": float(xs[k]), "rho": float(r[k])}
        return None, detail, repeat({"reason": "sign-change", "witness": witness}, len(senses))
    profile = ScalarGrid(gen.domain, r)
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


def _check_trials(trials: int, least: int = 1, entries: int = 1) -> None:
    """The one rule for the sample of every sampled check: least <= trials
    <= MAX_TRIALS and trials * entries <= MAX_ENTRIES, entries being the most
    one trial draws or reads; else UsageError, raised before anything is
    drawn."""
    if trials < least:
        raise UsageError(f"need trials >= {least}, got {trials}")
    if trials > MAX_TRIALS:
        raise UsageError(f"need trials <= {MAX_TRIALS}, got {trials}")
    if trials * entries > MAX_ENTRIES:
        raise UsageError(f"need trials * entries per trial <= {MAX_ENTRIES}, "
                         f"got {trials} * {entries}")


def _grouped_tuples(rng, trials: int, n_max: int, interval: WorkingInterval):
    """Random tuple sizes 2..n_max, yielded as (original indices, batch).

    Needs trials and n_max entries a trial that _check_trials takes, and
    n_max >= 2, else UsageError, raised at the call, before anything is
    drawn.  The batches are drawn lazily, one per size drawn, in increasing
    size, between the draws a margin function makes from the same rng.
    """
    _check_trials(trials, entries=n_max)
    if n_max < 2:
        raise UsageError(f"need n_max >= 2, got {n_max}")
    sizes = rng.integers(2, n_max + 1, size=trials)

    def groups():
        # At most min(n_max, trials) sizes to look for, so a long n_max costs
        # nothing past the sizes drawn.
        for n in range(2, n_max + 1) if n_max <= trials else sorted(set(sizes.tolist())):
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
        """The fields in declaration order, less a None witness and an empty extra."""
        return {k: v for k, v in vars(self).items() if v is not None and v != {}}


def _sample_margins(groups, margin_fn, tol: float, witness_fn) -> tuple:
    """Fold a sampled inequality over groups of (trial indices, batch X,
    *rows), rows being per-row values evaluated beforehand, if any.

    margin_fn(X, *rows) returns (margin, *arrays) with one entry per row; a
    row fails when its margin is below -tol.  Returns the worst margin, the
    failure count and the witness: witness_fn(trial, x, margin, *arrays)
    called once on the failing row with the lowest trial index, or None
    when nothing fails.  A witness reads its means from its row, and a shrink
    evaluates its points through margin_fn in batches.  groups may draw
    lazily from an rng that margin_fn also draws from.
    """
    worst = np.inf
    failures = 0
    witness_trial = None
    row = None
    for idx, X, *rows in groups:
        margin, *arrays = margin_fn(X, *rows)
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
    tol, mean = MEAN_CMP_TOL * gen.domain.span, QuasiArithmeticMean(gen)

    def margin(X):
        qa = mean.batch(X)
        am = X.mean(axis=1)
        return (qa - am if direction == "ge" else am - qa), qa, am

    worst, failures, witness = _sample_margins(
        _grouped_tuples(rng, trials, n_max, gen.domain), margin, tol,
        lambda trial, x, mg, qa, am: {
            "values": x.tolist(), "qa_mean": float(qa), "arith_mean": float(am),
            "margin": float(mg), "trial": trial})
    return TrialReport("dominates_arithmetic", trials, failures, worst, seed, witness,
                       extra={"direction": direction, "n_max": n_max, "tol": tol})

