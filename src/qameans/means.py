"""Quasiarithmetic, arithmetic, and power means, plus the comparison criterion.

A quasiarithmetic mean applies the generator f to the data, averages, and
inverts: QA_f(v) = f^{-1}((f(v_1) + ... + f(v_n)) / n).  Evaluation follows
that formula literally, with the generator's own inverse (closed form, or
interpolation of a table with its axes swapped), and clamps the result to
[min v, max v] so the last-bit error of the inverse cannot break
internality.  Entries outside the working interval, NaN included, raise
DomainError; a generator value or average that is not finite raises
RangeError rather than returning a wrong mean.

Mean handles wrap a callable mean with its working interval; the reflected
handle realizes v -> -M(-v), which swaps convexity with concavity.

The comparison criterion: QA_f <= QA_g on the interval exactly when
f''/f' <= g''/g' pointwise.  :func:`compare` decides this on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError, UsageError
from .generators import Generator, _check_domain, reflect_generator
from .grids import WorkingInterval


def _as_batch(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise UsageError("mean needs a nonempty vector of values")
    return arr


def _qa_mean_batch(gen: Generator, X: np.ndarray) -> np.ndarray:
    """Row-wise QA mean of a (B, n) array: f, row average, f^{-1}, clamp."""
    _check_domain(gen.domain, X)
    with np.errstate(over="ignore", invalid="ignore"):
        avg = np.asarray(gen.f(X), dtype=float).mean(axis=1)
    if not np.all(np.isfinite(avg)):
        raise RangeError(
            f"{gen.spec_string()}: generator values overflow on "
            f"[{gen.domain.lo}, {gen.domain.hi}]"
        )
    out = np.asarray(gen.finv(avg), dtype=float)
    return np.minimum(np.maximum(out, X.min(axis=1)), X.max(axis=1))


def qa_mean(gen: Generator, values) -> float:
    """QA_f of a nonempty vector with entries in the working interval."""
    X = _as_batch(values)
    if X.shape[0] != 1:
        raise UsageError("qa_mean takes a single vector; use a mean handle for batches")
    return float(_qa_mean_batch(gen, X)[0])


def _power_mean_batch(p: float, X: np.ndarray) -> np.ndarray:
    nonpositive = ~(X > 0.0)
    if np.any(nonpositive):
        bad = X[nonpositive]
        raise DomainError(f"power mean needs positive entries, got {float(np.ravel(bad)[0])!r}")
    if p == 0:
        return np.exp(np.mean(np.log(X), axis=1))
    if p == 1:
        return np.mean(X, axis=1)
    return np.mean(X ** p, axis=1) ** (1.0 / p)


def power_mean(p: float, values) -> float:
    """The p-th power mean; p = 0 is the geometric mean.

    Closed-form route, independent of the generator machinery, so the two
    can cross-check each other.
    """
    return float(_power_mean_batch(float(p), _as_batch(values))[0])


class MeanHandle:
    """A mean together with the interval its arguments live on."""

    domain: WorkingInterval

    def __call__(self, values) -> float:
        return float(self.batch(_as_batch(values))[0])

    def batch(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        d = self.domain
        return f"<mean {self.spec_string()} on [{d.lo}, {d.hi}]>"


class ArithmeticMean(MeanHandle):
    def __init__(self, domain: WorkingInterval):
        self.domain = domain

    def batch(self, X):
        return _check_domain(self.domain, X).mean(axis=1)

    def spec_string(self):
        return "arith"


class PowerMeanHandle(MeanHandle):
    def __init__(self, p: float, domain: WorkingInterval):
        if domain.lo <= 0:
            raise UsageError("power mean needs a positive working interval")
        self.p = float(p)
        self.domain = domain

    def batch(self, X):
        return _power_mean_batch(self.p, _check_domain(self.domain, X))

    def spec_string(self):
        return f"pmean:{self.p:g}"


class QuasiArithmeticMean(MeanHandle):
    def __init__(self, gen: Generator):
        self.gen = gen
        self.domain = gen.domain

    def batch(self, X):
        return _qa_mean_batch(self.gen, np.asarray(X, dtype=float))

    def spec_string(self):
        return f"qa({self.gen.spec_string()})"


class ReflectedMean(MeanHandle):
    """v -> -M(-v) on the mirror interval."""

    def __init__(self, inner: MeanHandle):
        self.inner = inner
        self.domain = inner.domain.reflected()

    def batch(self, X):
        return -self.inner.batch(-np.asarray(X, dtype=float))

    def spec_string(self):
        return f"reflected({self.inner.spec_string()})"


def reflect(mean: MeanHandle) -> MeanHandle:
    """The reflected mean v -> -M(-v).

    Reflecting twice returns a handle that evaluates identically to the
    original: wrappers unwrap, the arithmetic mean maps to itself on the
    mirror interval, and QA handles reflect their generator structurally.
    """
    if isinstance(mean, ReflectedMean):
        return mean.inner
    if isinstance(mean, ArithmeticMean):
        return ArithmeticMean(mean.domain.reflected())
    if isinstance(mean, QuasiArithmeticMean):
        return QuasiArithmeticMean(reflect_generator(mean.gen))
    return ReflectedMean(mean)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the grid comparison of two means via f''/f' vs g''/g'."""

    relation: str  # LessOrEqual | GreaterOrEqual | Equal | Incomparable
    delta: float
    max_gap: float  # max over grid of sigma_f - sigma_g
    min_gap: float  # min over grid of sigma_f - sigma_g
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "relation": self.relation,
            "delta": self.delta,
            "max_gap": self.max_gap,
            "min_gap": self.min_gap,
        }
        if self.witness:
            out["witness"] = self.witness
        return out


def compare(f: Generator, g: Generator) -> ComparisonReport:
    """Order QA_f against QA_g on the grid.

    QA_f <= QA_g holds exactly when f''/f' <= g''/g' pointwise, that is
    1/rho_f <= 1/rho_g (0 where f'' = 0); the profile is invariant under
    negating the generator, so no normalization is needed.  The verdict
    is about the sampled criterion on this grid.
    """
    if f.domain != g.domain:
        raise UsageError("compare needs generators on the same working interval")
    xs = f.domain.grid()
    sig_f = 1.0 / np.asarray(f.rho(xs), dtype=float)
    sig_g = 1.0 / np.asarray(g.rho(xs), dtype=float)
    scale = max(1.0, float(np.max(np.abs(sig_f))), float(np.max(np.abs(sig_g))))
    delta = 1e-9 * scale
    d = sig_f - sig_g
    max_gap = float(np.max(d))
    min_gap = float(np.min(d))
    if max_gap <= delta and min_gap >= -delta:
        return ComparisonReport("Equal", delta, max_gap, min_gap)
    if max_gap <= delta:
        return ComparisonReport("LessOrEqual", delta, max_gap, min_gap)
    if min_gap >= -delta:
        return ComparisonReport("GreaterOrEqual", delta, max_gap, min_gap)
    k_hi = int(np.argmax(d))
    k_lo = int(np.argmin(d))
    witness = {
        "le_fails_at": float(xs[k_hi]),
        "le_gap": float(d[k_hi]),
        "ge_fails_at": float(xs[k_lo]),
        "ge_gap": float(d[k_lo]),
    }
    return ComparisonReport("Incomparable", delta, max_gap, min_gap, witness)


def parse_mean(spec: str, interval: WorkingInterval) -> MeanHandle:
    """Mean spec for the CLI: 'arith', or any generator spec for its QA mean."""
    spec = spec.strip()
    if spec == "arith":
        return ArithmeticMean(interval)
    from .generators import parse_generator

    return QuasiArithmeticMean(parse_generator(spec, interval))
