"""Quasiarithmetic, arithmetic, and power means, plus the comparison criterion.

A quasiarithmetic mean applies the generator f to the data, averages, and
inverts: QA_f(v) = f^{-1}((f(v_1) + ... + f(v_n)) / n).  Evaluation follows
that formula literally, with the generator's own inverse (closed form, or
interpolation of a table with its axes swapped), and clamps the result to
[min v, max v] so the last-bit error of the inverse cannot break
internality.  Entries outside the working interval, NaN included, raise
DomainError; a generator value, average or inverse of the average that is
not finite raises RangeError rather than returning a wrong mean.  The
interval test reads the batch's min and max, and seeks the entry to name
only when it fails.  The clamp reads each row's min and max from one
reduction over a column-major copy of the batch; where that could pick the
other sign of a zero extreme than numpy's row kernel (a batch of two or
more rows, on an interval holding 0, with a row whose extreme is 0), the
batch takes them from the row kernel, so every mean keeps the bits of a
clamp read from the row kernel.  A handle's running(X) holds in column k-1
the bits of batch(X[:, :k]): numpy sums a contiguous row of up to 7 entries
from left to right, from +0.0, as np.add.accumulate does, and a longer one
pairwise, so running takes a batch call per prefix on rows of 8 or more.

Mean handles wrap a callable mean with its working interval: the arithmetic
mean and the QA mean of a generator.  The power mean's handle is
QuasiArithmeticMean(PowerGenerator(p)); :func:`power_mean` is its closed
form, for cross-checks.

The comparison criterion: QA_f <= QA_g on the interval exactly when
f''/f' <= g''/g' pointwise.  :func:`compare` reads it from the two
profiles' end values for two closed forms, and samples the grid for a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError, UsageError
from .generators import (
    Generator,
    _check_domain,
    _finite_exponent,
    parse_generator,
    rho,
    rho_ends,
)
from .grids import WorkingInterval


def _one_vector(values) -> np.ndarray:
    """values as a (1, n) float array: one nonempty vector, of shape (n,) or
    (1, n), else UsageError."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise UsageError(f"a mean needs an (n,) or (1, n) array, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise UsageError("mean needs a nonempty vector of values")
    if arr.shape[0] != 1:
        raise UsageError("a mean takes a single vector per call; use batch for many")
    return arr


def _batch_rows(X) -> np.ndarray:
    """X as a C-contiguous (B, n) float array, n >= 1, else UsageError: numpy
    walks an axis-1 sum or min of a column-major view column by column, which
    would give a row other bits than the same row in a contiguous batch."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise UsageError(f"a batch of means needs a (B, n) array, got shape {X.shape}")
    if X.shape[1] == 0:
        raise UsageError("mean needs a nonempty vector of values")
    return np.ascontiguousarray(X)


def _checked_rows(domain: WorkingInterval, X) -> np.ndarray:
    """_batch_rows(X), whose entries lie in the working interval: the test
    reads the batch's min and max, and _check_domain, which names the first
    entry outside, runs only if it fails."""
    X = _batch_rows(X)
    if not (np.minimum.reduce(X, axis=None, initial=np.inf) >= domain.lo
            and np.maximum.reduce(X, axis=None, initial=-np.inf) <= domain.hi):
        _check_domain(domain, X)
    return X


def _averages(F: np.ndarray, running=False) -> np.ndarray:
    """Row averages, an axis-1 sum: numpy adds rows of 8 or more entries
    pairwise, which a column sum would not; running: each prefix's average."""
    if running:
        return (np.add.accumulate(F, axis=1) + 0.0) / np.arange(1, F.shape[1] + 1)
    return np.add.reduce(F, axis=1) / F.shape[1]


def _qa_mean_batch(gen: Generator, X, running=False) -> np.ndarray:
    """Row-wise QA mean of a (B, n) array: f, row average, f^{-1}, and a clamp
    to each row's min and max from _row_extremes, whose signed-zero rule gives
    the row kernel's bits; running: those of each prefix, for rows of up to 7."""
    X = _checked_rows(gen.domain, X)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        avg = _averages(np.asarray(gen.f(X), dtype=float), running)
        out = np.asarray(gen.finv(avg), dtype=float)
    if not (np.isfinite(avg).all() and np.isfinite(out).all()):
        raise RangeError(
            f"{gen.spec_string()}: generator values or the inverse of their average "
            f"are not finite on [{gen.domain.lo}, {gen.domain.hi}]"
        )
    lo, hi = _row_extremes(X, gen.domain, running)
    return np.minimum(np.maximum(out, lo), hi)


def _row_extremes(X: np.ndarray, domain: WorkingInterval, running=False) -> tuple:
    """Each row's min and max, reduced over a column-major copy of X: numpy's
    axis-1 kernel runs once per row, which costs most of a batch of short
    rows.  On two or more rows holding both zeros the column form may pick
    the other sign of zero than the row kernel, which would make a row's
    clamp depend on the rest of its batch.  So a batch with a row whose
    extreme is a zero takes its extremes from the row kernel; entries lie
    in the domain, so only an interval holding 0 can hold such a row.  For
    one row XT is a view, and the column reduction is the row kernel.
    running: each prefix's min and max, a zero one signed as for the prefix."""
    if running:
        lo, hi = np.minimum.accumulate(X, axis=1), np.maximum.accumulate(X, axis=1)
        if domain.lo <= 0.0 <= domain.hi:
            for j in np.flatnonzero(((lo == 0.0) | (hi == 0.0)).any(axis=0)):
                lo[:, j], hi[:, j] = _row_extremes(np.ascontiguousarray(X[:, :j + 1]), domain)
        return lo, hi
    XT = np.ascontiguousarray(X.T)
    lo, hi = np.minimum.reduce(XT), np.maximum.reduce(XT)
    if (len(X) > 1 and domain.lo <= 0.0 <= domain.hi
            and ((lo == 0.0) | (hi == 0.0)).any()):
        return X.min(axis=1), X.max(axis=1)
    return lo, hi


def _running(mean: MeanHandle, X, head) -> np.ndarray:
    """mean.running(X): head(X) while rows have at most 7 entries, else the reference."""
    X = _batch_rows(X)
    if X.shape[1] <= 7:
        try:
            return head(X)
        except DomainError:  # the reference names the first failing prefix's entry
            pass
    return MeanHandle.running(mean, X)


def qa_mean(gen: Generator, values) -> float:
    """QA_f of a nonempty vector with entries in the working interval."""
    return QuasiArithmeticMean(gen)(values)


def power_mean(p: float, values) -> float:
    """The p-th power mean; p = 0 is the geometric mean.

    Closed-form route, independent of the generator machinery, so the two
    can cross-check each other.  As every mean here, it is clamped to
    [min x, max x], so a constant row gives its value and no rounding leaves
    the row's range; a result that is not finite (|p| so large that p log x
    overflows) raises RangeError.
    """
    p = _finite_exponent("power mean", p)
    x = _one_vector(values)[0]
    bad = x[~(x > 0.0)]
    if bad.size:
        raise DomainError(f"power mean needs positive entries, got {float(bad[0])!r}")
    logs = np.log(x)
    spread = float(logs.max() - logs.min())
    with np.errstate(over="ignore", invalid="ignore"):
        # log M_p - log G = p Var(log x)/2 + O(p^2), and Var(log x) <= spread^2/4,
        # so |log M_p - log G| <= |p| spread^2/8 to first order (Hoeffding's lemma
        # makes it a bound at every p).  Below 2^-54, half an ulp, M_p rounds as G
        # does, which also spares t = p log x the lost digits of a subnormal p.
        if abs(p) * spread * spread / 8.0 < 2.0**-54:
            out = np.exp(np.mean(logs))
        else:
            # From t = p log x shifted by its maximum, so no power over- or
            # underflows; expm1/log1p keep the digits of t near 0 for small |p|.
            t = p * logs
            top = t.max()
            out = np.exp((top + np.log1p(np.mean(np.expm1(t - top)))) / p)
    if not np.isfinite(out):
        raise RangeError(f"power mean with p = {p!r} is not finite on these entries")
    return float(np.minimum(np.maximum(out, x.min()), x.max()))


class MeanHandle:
    """A mean together with the interval its arguments live on."""

    domain: WorkingInterval

    def __call__(self, values) -> float:
        """The mean of one nonempty vector; batch takes many rows at once."""
        return float(self.batch(_one_vector(values))[0])

    def batch(self, X: np.ndarray) -> np.ndarray:
        """The mean of each row of a (B, n) array, n >= 1, else UsageError."""
        raise NotImplementedError

    def running(self, X: np.ndarray) -> np.ndarray:
        """For a (B, n) array X, n >= 1 (else UsageError), column k-1 holds the
        bits of batch(X[:, :k]); the per-prefix loop is the reference."""
        return np.column_stack([self.batch(X[:, :k]) for k in range(1, X.shape[1] + 1)])

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        d = self.domain
        return f"<mean {self.spec_string()} on [{d.lo}, {d.hi}]>"


class ArithmeticMean(MeanHandle):
    def __init__(self, domain: WorkingInterval):
        self.domain = domain

    def batch(self, X):
        return self._finite_averages(X)

    def running(self, X):
        return _running(self, X, lambda P: self._finite_averages(P, running=True))

    def _finite_averages(self, X, running=False):
        """_averages, or RangeError if a row sum overflowed: none can while 2 n max|x| < inf."""
        X, d = _checked_rows(self.domain, X), self.domain
        if 2.0 * X.shape[1] * max(-d.lo, d.hi) < np.inf:
            return _averages(X, running)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _averages(X, running)
        if not np.isfinite(out).all():
            raise RangeError(f"arith: a sum of entries is not finite on [{d.lo}, {d.hi}]")
        return out

    def spec_string(self):
        return "arith"


class QuasiArithmeticMean(MeanHandle):
    def __init__(self, gen: Generator):
        self.gen = gen
        self.domain = gen.domain

    def batch(self, X):
        return _qa_mean_batch(self.gen, X)

    def running(self, X):
        return _running(self, X, lambda P: _qa_mean_batch(self.gen, P, running=True))

    def spec_string(self):
        return f"qa({self.gen.spec_string()})"


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the comparison of two means via f''/f' vs g''/g'."""

    relation: str  # LessOrEqual | GreaterOrEqual | Equal | Incomparable
    delta: float
    max_gap: float  # max of sigma_f - sigma_g, over the grid or its two ends
    min_gap: float  # min of sigma_f - sigma_g, likewise
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields in declaration order, less a None or empty witness."""
        return {k: v for k, v in vars(self).items() if v is not None and v != {}}


def _report(scale: float, xs, d, k_hi: int, k_lo: int) -> ComparisonReport:
    """The report on gaps d = sigma_f - sigma_g at the points xs, d[k_hi]
    the first largest and d[k_lo] the first least, with slack 1e-9 * scale;
    an Incomparable one names both points.  A gap that overflows, between
    two finite reciprocals, is a RangeError."""
    max_gap, min_gap = float(d[k_hi]), float(d[k_lo])
    if max(max_gap, -min_gap) == np.inf:
        x = float(xs[k_hi if max_gap == np.inf else k_lo])
        raise RangeError(f"1/rho_f - 1/rho_g overflows on [{float(xs[0])!r}, "
                         f"{float(xs[-1])!r}] at x = {x!r}")
    delta = 1e-9 * scale
    le, ge = max_gap <= delta, min_gap >= -delta
    if le or ge:
        relation = "Equal" if le and ge else "LessOrEqual" if le else "GreaterOrEqual"
        return ComparisonReport(relation, delta, max_gap, min_gap)
    return ComparisonReport("Incomparable", delta, max_gap, min_gap, {
        "le_fails_at": float(xs[k_hi]), "le_gap": max_gap,
        "ge_fails_at": float(xs[k_lo]), "ge_gap": min_gap})


def _overflow(gen: Generator, r: float, x: float) -> RangeError:
    d = gen.domain
    return RangeError(f"{gen.spec_string()}: 1/rho overflows on [{d.lo}, {d.hi}]: "
                      f"rho = {r:.3e} at x = {x!r}")


def _reciprocal_ends(gen: Generator, ends: tuple) -> tuple:
    """1/rho at lo and at hi from gen's end values; a RangeError naming the
    end of least |rho| when one overflows (a subnormal rho)."""
    (a, b), d = ends, gen.domain
    ra, rb = 1.0 / a, 1.0 / b
    if max(abs(ra), abs(rb)) == np.inf:
        raise _overflow(gen, *((a, d.lo) if abs(a) <= abs(b) else (b, d.hi)))
    return ra, rb


def _reciprocal(gen: Generator) -> tuple:
    """1/rho on the grid and its largest magnitude; a RangeError naming the
    first grid point of least |rho| when it overflows (a subnormal rho)."""
    r = rho(gen)
    with np.errstate(over="ignore"):  # refused below
        sig = 1.0 / r
    scale = float(np.max(np.abs(sig)))
    if scale == np.inf:
        k = int(np.argmin(np.abs(r)))
        raise _overflow(gen, float(r[k]), float(gen.domain.grid()[k]))
    return sig, scale


def compare(f: Generator, g: Generator) -> ComparisonReport:
    """Order QA_f against QA_g on the working interval.

    QA_f <= QA_g holds exactly when f''/f' <= g''/g' pointwise, that is
    1/rho_f <= 1/rho_g (0 where f'' = 0); the profile is invariant under
    negating the generator, so no normalization is needed.  The verdict
    is about the criterion at the grid's points, with slack 1e-9 times the
    larger max|f''/f'|: no absolute floor, so it scales with the interval.

    Two generators that state end values deciding their samples (rho_ends:
    closed forms) are read from those ends: each 1/rho is A/x + B, so the
    difference of two is monotone and its extremes sit at lo and hi, and an
    Incomparable report names those ends.  A pair with a table samples
    each profile by rho(), so a zero or NaN rho (an infinite f'') is a
    RangeError, as it is for classify.  A 1/rho that overflows, from a
    subnormal rho, or a gap between two that overflows is a RangeError on
    either route.
    """
    if f.domain != g.domain:
        raise UsageError("compare needs generators on the same working interval")
    ends_f, ends_g = rho_ends(f), rho_ends(g)
    if ends_f is not None and ends_g is not None:
        (f0, f1), (g0, g1) = _reciprocal_ends(f, ends_f), _reciprocal_ends(g, ends_g)
        d0, d1 = f0 - g0, f1 - g1
        return _report(max(abs(f0), abs(f1), abs(g0), abs(g1)), f.domain.ends, (d0, d1),
                       int(d1 > d0), int(d1 < d0))
    (sig_f, scale_f), (sig_g, scale_g) = _reciprocal(f), _reciprocal(g)
    with np.errstate(over="ignore"):  # refused in _report
        d = sig_f - sig_g
    return _report(max(scale_f, scale_g), f.domain.grid(), d,
                   int(np.argmax(d)), int(np.argmin(d)))


def parse_mean(spec: str, interval: WorkingInterval | None) -> MeanHandle:
    """Mean spec for the CLI: 'arith', or any generator spec for its QA mean.

    As in parse_generator, a table: spec carries its own grid; every other
    spec needs interval."""
    spec = spec.strip()
    if spec != "arith":
        return QuasiArithmeticMean(parse_generator(spec, interval))
    if interval is None:
        raise UsageError("mean spec 'arith' needs a working interval")
    return ArithmeticMean(interval)
