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
only when it fails.  numpy's axis-1 kernel costs a fixed time per row,
which is most of a batch of short rows, so the clamp reads each row's min
and max from one reduction over a column-major copy of the batch, and for
rows of up to 7 entries the same copy serves f and the row sums too.  numpy
sums a contiguous row of up to 7 entries from left to right, from +0.0, as
a column-by-column sum and np.add.accumulate do, and a longer one pairwise,
so longer rows and prefix sums keep the row kernel.  The column extremes
could pick the other sign of a zero extreme than the row kernel, so a row
whose min or max is 0 (on an interval holding 0) takes both from the row
kernel, on that row alone.  A row's route thus depends only on its length
and its own entries, never on its batch, and every mean keeps the bits of
a clamp read from the row kernel.  A handle's running(X) holds in column
k-1 the bits of batch(X[:, :k]), and takes a batch call per prefix on rows
of 8 or more.  A handle's batches(Xs) returns [batch(X) for X in Xs], bit
for bit, for a list of batches of any row lengths.  The QA mean evaluates
a list of more than one row length, rows of up to 7 entries and at most
_PADDED_MAX_CELLS padded cells in one pass of the same kernel: each row
is padded with its own first entry, and summed over and divided by its
own entries only.  Every other list, and one on which that pass raises,
takes one batch call per row length.

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
from itertools import accumulate

import numpy as np

from .errors import DomainError, QameansError, RangeError, UsageError
from .generators import (
    Generator,
    _check_domain,
    _finite_exponent,
    parse_generator,
    rho,
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


# Longest row that _averages sums over a column-major copy: numpy adds a
# row of 8 or more entries pairwise.
_SHORT_ROW = 7


def _averages(F: np.ndarray, running=False, lengths=None) -> np.ndarray:
    """Row averages of a (B, n) array F, C-contiguous unless it is the
    transpose of a column-major array; running: each prefix's average, an
    axis-1 np.add.accumulate.  numpy's axis-1 kernel adds a contiguous row
    of up to 7 entries left to right from +0.0, and a longer one pairwise,
    at a fixed cost per row.  So rows of up to 7 entries are summed over a
    column-major copy of F (none when F is the transpose of one), a column
    at a time from +0.0: the row kernel's bits, in one pass, whatever the
    number of rows.  Prefix sums keep the row kernel: over a column-major
    copy, a running mean took 2 to 17 % more at every batch size.

    lengths (a padded block of _padded_batches, n <= 7): the column sum
    skips row i's entries past lengths[i], so it adds the row's own entries
    in order from +0.0, and divides by lengths[i]."""
    n = F.shape[1]
    if running:
        return (np.add.accumulate(F, axis=1) + 0.0) / np.arange(1, n + 1)
    if n > _SHORT_ROW:
        return np.add.reduce(F, axis=1) / n
    if lengths is None:
        return np.add.reduce(np.ascontiguousarray(F.T), axis=0, initial=0.0) / n
    return np.add.reduce(np.ascontiguousarray(F.T), axis=0, initial=0.0,
                         where=np.arange(n, dtype=lengths.dtype)[:, None] < lengths) / lengths


def _qa_mean_batch(gen: Generator, X, running=False, lengths=None) -> np.ndarray:
    """Row-wise QA mean of a (B, n) array: f, row average, f^{-1}, and a clamp
    to each row's min and max from _row_extremes, whose signed-zero rule gives
    the row kernel's bits; running: those of each prefix, for rows of up to 7.
    Rows of up to 7 entries evaluate f on the column-major copy the extremes
    read, so _averages makes no copy of its own.  lengths: X is a padded
    block of _padded_batches, row i of lengths[i] entries."""
    X = _checked_rows(gen.domain, X)
    XT = None if running else np.ascontiguousarray(X.T)
    lo, hi = _row_extremes(X, XT, gen.domain, lengths)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if XT is not None and X.shape[1] <= _SHORT_ROW:
            avg = _averages(np.asarray(gen.f(XT), dtype=float).T, lengths=lengths)
        else:
            del XT  # no copy stays alive beside f's values
            avg = _averages(np.asarray(gen.f(X), dtype=float), running)
        out = np.asarray(gen.finv(avg), dtype=float)
    if not (np.isfinite(avg).all() and np.isfinite(out).all()):
        raise RangeError(
            f"{gen.spec_string()}: generator values or the inverse of their average "
            f"are not finite on [{gen.domain.lo}, {gen.domain.hi}]"
        )
    return np.minimum(np.maximum(out, lo), hi)


def _row_extremes(X: np.ndarray, XT: np.ndarray | None, domain: WorkingInterval,
                  lengths=None) -> tuple:
    """Each row's min and max, reduced over XT, the column-major copy of X
    that f also reads for rows of up to 7 entries: numpy's axis-1 kernel
    runs once per row, which costs most of a batch of short rows.  Where a
    row holds both zeros the column form may pick the other sign of zero
    than the row kernel.  So a row whose min or max is a zero takes both
    from the row kernel, on that row's own entries alone (its first
    lengths[i] in a padded block); entries lie in the domain, so only an
    interval holding 0 can hold such a row.  XT None: each prefix's min and
    max (running), a prefix's zero one from the row kernel on that prefix."""
    if XT is None:
        lo, hi = np.minimum.accumulate(X, axis=1), np.maximum.accumulate(X, axis=1)
        if domain.lo <= 0.0 <= domain.hi:
            for j in np.flatnonzero(((lo == 0.0) | (hi == 0.0)).any(axis=0)):
                P = np.ascontiguousarray(X[:, :j + 1])
                lo[:, j], hi[:, j] = P.min(axis=1), P.max(axis=1)
        return lo, hi
    lo, hi = np.minimum.reduce(XT), np.maximum.reduce(XT)
    if domain.lo <= 0.0 <= domain.hi:
        z = (lo == 0.0) | (hi == 0.0)
        if z.any() and lengths is None:
            lo[z], hi[z] = X[z].min(axis=1), X[z].max(axis=1)
        elif z.any():
            for n in np.unique(lengths[z]):
                r = z & (lengths == n)
                lo[r], hi[r] = X[r, :n].min(axis=1), X[r, :n].max(axis=1)
    return lo, hi


def _running(mean: MeanHandle, X, head) -> np.ndarray:
    """mean.running(X): head(X) on rows of up to _SHORT_ROW entries, else the reference."""
    X = _batch_rows(X)
    if X.shape[1] <= _SHORT_ROW:
        try:
            return head(X)
        except DomainError:  # the reference names the first failing prefix's entry
            pass
    return MeanHandle.running(mean, X)


# Most cells (rows times the longest row) of a padded block: past it one
# batch call per row length is as fast.  Timed on a 2-vCPU Xeon, against
# one call per length, on lists of 16 batches of rows of 2 to 5 entries and
# of 50 of 2 to 6: the padded pass of power:3 or a 1025-row table's QA mean
# is faster up to 9000-14000 cells, but that of log only up to 7000-9000
# (at 8000 cells in 16 batches, 104 against 99 us).  From 16384 cells
# (128 KiB) numpy maps each block afresh, which doubles the pass's time.
_PADDED_MAX_CELLS = 6144


def _by_length(Xs: list) -> dict:
    """Each row length -> the indices in Xs of its batches of that length,
    in order of first appearance; UsageError unless each is a (B, n) array,
    n >= 1.  The batch call on a group's rows converts them."""
    same = {}
    for i, X in enumerate(Xs):
        shape = X.shape if isinstance(X, np.ndarray) else np.shape(X)
        if len(shape) != 2 or not shape[1]:
            _batch_rows(X)  # raises the batch call's UsageError
        same.setdefault(shape[1], []).append(i)
    return same


def _stacked(Xs: list, idx: list) -> np.ndarray:
    """The rows of Xs[i] for each i of idx, in turn."""
    return Xs[idx[0]] if len(idx) == 1 else np.concatenate([Xs[i] for i in idx])


def _scatter(Xs: list, groups: list, means: list) -> list:
    """For each X of Xs, its rows' means, cut from the means of its group."""
    out = [None] * len(Xs)
    for idx, group_means in zip(groups, means):
        start = 0
        for i in idx:
            out[i], start = group_means[start:start + len(Xs[i])], start + len(Xs[i])
    return out


def _per_length(mean: MeanHandle, Xs: list, groups) -> list:
    """mean.batches(Xs), Xs grouped by _by_length: one batch call per row
    length, in order."""
    return _scatter(Xs, groups, [mean.batch(_stacked(Xs, idx)) for idx in groups])


def _padded_batches(mean: QuasiArithmeticMean, Xs) -> list:
    """mean.batches(Xs) by one _qa_mean_batch(gen, P, lengths=...) call
    when the rows of Xs are of more than one length, each of at most
    _SHORT_ROW entries, and fill a block P of at most _PADDED_MAX_CELLS
    cells.  P stacks the rows of each length in turn, padded to the longest
    with the row's own first entry, so the domain test and each row's
    extremes see only its own values; lengths holds each row's length.  Any
    other list, or one on which the kernel raises a QameansError, takes one
    batch call per row length, and so raises that route's error."""
    same = _by_length(Xs)
    groups = list(same.values())
    counts = [sum(len(Xs[i]) for i in idx) for idx in groups]
    n = max(same, default=0)
    if len(same) > 1 and n <= _SHORT_ROW and sum(counts) * n <= _PADDED_MAX_CELLS:
        P, start = np.empty((sum(counts), n)), 0
        for k, idx, rows in zip(same, groups, counts):
            B = np.asarray(_stacked(Xs, idx), dtype=float)
            P[start:start + rows, :k], P[start:start + rows, k:] = B, B[:, :1]
            start += rows
        lengths = np.repeat(np.array(list(same), dtype=np.uint8), counts)
        try:
            means = _qa_mean_batch(mean.gen, P, lengths=lengths)
        except QameansError:
            pass
        else:
            ends = list(accumulate(counts))
            return _scatter(Xs, groups, [means[a:b] for a, b in zip([0] + ends, ends)])
    return _per_length(mean, Xs, groups)


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

    def batches(self, Xs) -> list:
        """[batch(X) for X in Xs], each result's bits, for a list of (B, n)
        arrays of any n >= 1 (else UsageError), in one batch call per row
        length: a row's mean does not depend on its batch."""
        return _per_length(self, Xs, _by_length(Xs).values())

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

    def batches(self, Xs):
        return _padded_batches(self, Xs)

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

    Two generators that state end values (rho_ends: closed forms) are read
    from those ends: each 1/rho is A/x + B, so the difference of two is
    monotone and its extremes sit at lo and hi, and an Incomparable report
    names those ends.  A pair with a table samples
    each profile by rho(), so a zero or NaN rho (an infinite f'') is a
    RangeError, as it is for classify.  A 1/rho that overflows, from a
    subnormal rho, or a gap between two that overflows is a RangeError on
    either route.
    """
    if f.domain != g.domain:
        raise UsageError("compare needs generators on the same working interval")
    ends_f, ends_g = f.rho_ends(), g.rho_ends()
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
