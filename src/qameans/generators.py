"""Generator functions for quasiarithmetic means.

A generator is a continuous, strictly monotone function f on a working
interval, described by the facts the theory uses: f, its inverse f^{-1},
its derivative f', and its profile rho = f'/f'' (infinite where f'' = 0).
f'' is never needed on its own: where it is used, it is f'/rho.
Closed-form kinds (power:p, log, exp, affine:a:b, with id = affine:1:0)
return exact analytic values, invert in closed form and give rho in
closed form (x/(p-1), -x, 1, +inf); tabulated kinds interpolate a sampled
grid, invert by interpolating the same grid with the axes swapped, and
fill in f' and rho by central differences unless given.

:func:`rho` samples the profile on the grid and checks it; its sign,
positivity, and concavity drive the classification and envelope machinery
in the sibling modules.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateSecondDerivative,
    DomainError,
    NotMonotone,
    RangeError,
    SignChange,
    UsageError,
)
from .grids import ScalarGrid, WorkingInterval

# Relative floor deciding that f'' is identically zero on the grid, measured
# against max|f'| / (hi - lo) so the test is scale- and unit-consistent.
DEGENERATE_TAU = 1e-8


class Generator:
    """Base class: strictly monotone f with derivative oracles on a domain."""

    domain: WorkingInterval

    def f(self, x):
        raise NotImplementedError

    def finv(self, y):
        """Inverse of f: the x with f(x) = y, for y in the image of the domain."""
        raise NotImplementedError

    def f1(self, x):
        raise NotImplementedError

    def rho(self, x):
        """The profile f'/f'' at x, infinite where f'' = 0."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        d = self.domain
        return f"<{self.spec_string()} on [{d.lo}, {d.hi}] n={d.grid_points}>"

    def _validate_monotone(self):
        g1 = np.asarray(self.f1(self.domain.grid()), dtype=float)
        if not np.all(np.isfinite(g1)):
            raise NotMonotone(f"{self.spec_string()}: derivative not finite on grid")
        if not (np.all(g1 > 0.0) or np.all(g1 < 0.0)):
            raise NotMonotone(
                f"{self.spec_string()}: f' must be nonzero with one sign on the grid"
            )


class PowerGenerator(Generator):
    """f(x) = x**p on a positive interval, p != 0."""

    def __init__(self, p: float, domain: WorkingInterval):
        if p == 0:
            raise UsageError("power generator needs p != 0 (use the log kind for p = 0)")
        if domain.lo <= 0:
            raise UsageError("power generator needs lo > 0")
        self.p = float(p)
        self.domain = domain
        self._validate_monotone()

    def f(self, x):
        return np.asarray(x, dtype=float) ** self.p

    def finv(self, y):
        return np.asarray(y, dtype=float) ** (1.0 / self.p)

    def f1(self, x):
        x = np.asarray(x, dtype=float)
        return self.p * x ** (self.p - 1.0)

    def rho(self, x):
        with np.errstate(divide="ignore"):  # p = 1: f'' = 0, rho = +inf
            return np.asarray(x, dtype=float) / (self.p - 1.0)

    def spec_string(self):
        return f"power:{_shortest(self.p)}"


class LogGenerator(Generator):
    """f(x) = ln x on a positive interval (the p = 0 member of the power family)."""

    def __init__(self, domain: WorkingInterval):
        if domain.lo <= 0:
            raise UsageError("log generator needs lo > 0")
        self.domain = domain

    def f(self, x):
        return np.log(np.asarray(x, dtype=float))

    def finv(self, y):
        return np.exp(np.asarray(y, dtype=float))

    def f1(self, x):
        return 1.0 / np.asarray(x, dtype=float)

    def rho(self, x):
        return -np.asarray(x, dtype=float)

    def spec_string(self):
        return "log"


class ExpGenerator(Generator):
    """f(x) = e**x."""

    def __init__(self, domain: WorkingInterval):
        self.domain = domain

    def f(self, x):
        return np.exp(np.asarray(x, dtype=float))

    def finv(self, y):
        return np.log(np.asarray(y, dtype=float))

    def f1(self, x):
        return np.exp(np.asarray(x, dtype=float))

    def rho(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def spec_string(self):
        return "exp"


class AffineGenerator(Generator):
    """f(x) = a*x + b with a != 0; generates the arithmetic mean.

    a = 1, b = 0 is the identity, spelled ``id``.
    """

    def __init__(self, a: float, b: float, domain: WorkingInterval):
        if a == 0:
            raise UsageError("affine generator needs a != 0")
        self.a = float(a)
        self.b = float(b)
        self.domain = domain

    def f(self, x):
        return self.a * np.asarray(x, dtype=float) + self.b

    def finv(self, y):
        return (np.asarray(y, dtype=float) - self.b) / self.a

    def f1(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.a)

    def rho(self, x):
        return np.full_like(np.asarray(x, dtype=float), np.inf)

    def spec_string(self):
        if self.a == 1.0 and self.b == 0.0:
            return "id"
        return f"affine:{_shortest(self.a)}:{_shortest(self.b)}"


class AffineOfGenerator(Generator):
    """Value-space affine transform a*f + b of another generator.

    Generates the same mean as the inner generator; a = -1, b = 0 is the
    negation used by :func:`normalize`.
    """

    def __init__(self, inner: Generator, a: float, b: float):
        if a == 0:
            raise UsageError("affine transform needs a != 0")
        self.inner = inner
        self.a = float(a)
        self.b = float(b)
        self.domain = inner.domain

    def f(self, x):
        return self.a * self.inner.f(x) + self.b

    def finv(self, y):
        return self.inner.finv((np.asarray(y, dtype=float) - self.b) / self.a)

    def f1(self, x):
        return self.a * self.inner.f1(x)

    def rho(self, x):
        return self.inner.rho(x)

    def spec_string(self):
        return f"{_shortest(self.a)}*({self.inner.spec_string()})+{_shortest(self.b)}"


class ReflectedGenerator(Generator):
    """Argument-reflected generator x -> f(-x), living on the mirror interval."""

    def __init__(self, inner: Generator):
        self.inner = inner
        self.domain = inner.domain.reflected()

    def f(self, x):
        return self.inner.f(-np.asarray(x, dtype=float))

    def finv(self, y):
        return -self.inner.finv(y)

    def f1(self, x):
        return -self.inner.f1(-np.asarray(x, dtype=float))

    def rho(self, x):
        return -self.inner.rho(-np.asarray(x, dtype=float))

    def spec_string(self):
        return f"reflected({self.inner.spec_string()})"


class TabulatedGenerator(Generator):
    """Generator given by sampled values on the grid, interpolated linearly.

    The f' and rho grids may be supplied (when built from an exact
    construction, such as an envelope's hull m) or are otherwise filled in
    by central finite differences with the grid step, accurate to O(h^2) in
    the interior: f' directly, rho as f' over the second difference.  A
    supplied rho may be +-inf (f'' = 0) but not zero or NaN (UsageError
    naming the source).
    """

    def __init__(self, domain: WorkingInterval, values, f1_values=None,
                 rho_values=None, source: str = "<grid>"):
        self.domain = domain
        vals = np.array(values, dtype=float)
        if vals.shape != (domain.grid_points,):
            raise UsageError("tabulated values must match the grid")
        if not np.all(np.isfinite(vals)):
            raise RangeError("tabulated values must be finite")
        d = np.diff(vals)
        if not (np.all(d > 0.0) or np.all(d < 0.0)):
            raise NotMonotone("tabulated values must be strictly monotone")
        self.values = vals
        h = domain.step
        self.f1_values = (np.array(f1_values, dtype=float) if f1_values is not None
                          else _central_diff(vals, h))
        if rho_values is not None:
            self.rho_values = np.array(rho_values, dtype=float)
            if not np.all(np.abs(self.rho_values) > 0.0):
                raise UsageError(f"{source}: rho values must be nonzero and not NaN")
        else:
            with np.errstate(divide="ignore"):  # f'' = 0: rho is infinite
                self.rho_values = self.f1_values / _central_diff2(vals, h)
        self.source = source
        self._validate_monotone()

    def f(self, x):
        return np.interp(x, self.domain.grid(), self.values)

    def finv(self, y):
        # np.interp needs an increasing abscissa
        if self.values[0] < self.values[-1]:
            return np.interp(y, self.values, self.domain.grid())
        return np.interp(-np.asarray(y, dtype=float), -self.values, self.domain.grid())

    def f1(self, x):
        return np.interp(x, self.domain.grid(), self.f1_values)

    def rho(self, x):
        return np.interp(x, self.domain.grid(), self.rho_values)

    def spec_string(self):
        return f"table:{self.source}"


def _central_diff(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative by central differences, one-sided at the ends."""
    n = len(values)
    out = np.empty(n)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    if n >= 3:
        out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
        out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def _central_diff2(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative by central differences, one-sided at the ends."""
    n = len(values)
    out = np.empty(n)
    out[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    if n >= 4:
        out[0] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]) / (h * h)
        out[-1] = (2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]) / (h * h)
    else:
        out[0] = out[1]
        out[-1] = out[-2]
    return out


def _check_domain(domain: WorkingInterval, x) -> np.ndarray:
    """x as a float array, or DomainError if an entry (NaN included) is outside."""
    arr = np.asarray(x, dtype=float)
    inside = (arr >= domain.lo) & (arr <= domain.hi)
    if not np.all(inside):
        raise DomainError(
            f"value {float(arr[~inside][0])!r} outside working interval "
            f"[{domain.lo}, {domain.hi}]"
        )
    return arr


def _shortest(v: float) -> str:
    """The shortest decimal that reads back as v, without a trailing '.0'."""
    return repr(float(v)).removesuffix(".0")


def _scalar_or_array(result, x):
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(result)
    return np.asarray(result, dtype=float)


def eval_f(gen: Generator, x):
    """Evaluate f at x (scalar or array); x must lie in the working interval."""
    arr = _check_domain(gen.domain, x)
    return _scalar_or_array(gen.f(arr), x)


def eval_f1(gen: Generator, x):
    """Evaluate f' at x."""
    arr = _check_domain(gen.domain, x)
    return _scalar_or_array(gen.f1(arr), x)


def negate_generator(gen: Generator) -> Generator:
    """The generator -f, which produces the identical mean."""
    if isinstance(gen, AffineOfGenerator):
        return AffineOfGenerator(gen.inner, -gen.a, -gen.b)
    if isinstance(gen, AffineGenerator):
        return AffineGenerator(-gen.a, -gen.b, gen.domain)
    if isinstance(gen, TabulatedGenerator):
        return TabulatedGenerator(gen.domain, -gen.values, -gen.f1_values,
                                  gen.rho_values, source=gen.source)
    return AffineOfGenerator(gen, -1.0, 0.0)


def reflect_generator(gen: Generator) -> Generator:
    """The generator x -> f(-x) on the mirror interval.

    Double reflection unwraps structurally, so reflecting twice gives back
    the original object and downstream tests evaluate bit-identically.
    """
    if isinstance(gen, ReflectedGenerator):
        return gen.inner
    if isinstance(gen, AffineOfGenerator):
        return AffineOfGenerator(reflect_generator(gen.inner), gen.a, gen.b)
    return ReflectedGenerator(gen)


def normalize(gen: Generator) -> Generator:
    """Return gen unchanged if increasing, else its negation.

    The returned generator is increasing and produces the identical mean.
    Idempotent: normalizing twice gives the same object.
    """
    g1 = np.asarray(gen.f1(gen.domain.grid()), dtype=float)
    if np.all(g1 > 0.0):
        return gen
    if np.all(g1 < 0.0):
        return negate_generator(gen)
    raise NotMonotone(f"{gen.spec_string()}: f' changes sign on the grid")


def rho(gen: Generator) -> ScalarGrid:
    """The slope/curvature profile f'/f'' sampled on the grid.

    Reads the generator's own profile; f'' where needed is f'/rho.
    Requires an increasing generator with f' and f'' finite on the grid
    (else RangeError).  Raises DegenerateSecondDerivative when f'' is
    numerically zero everywhere (affine-equivalent generator, arithmetic
    mean) and SignChange unless f'' is strictly one-signed on the grid,
    with no floor relative to max|f''|.
    """
    xs = gen.domain.grid()
    g1 = np.asarray(gen.f1(xs), dtype=float)
    if not np.all(g1 > 0.0):
        raise UsageError("rho requires a normalized (increasing) generator")
    r = np.asarray(gen.rho(xs), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = g1 / r
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise RangeError(f"{gen.spec_string()}: f' or f'' is not finite on the grid")
    scale2 = float(np.max(np.abs(g2)))
    degenerate_floor = DEGENERATE_TAU * float(np.max(np.abs(g1))) / gen.domain.span
    if scale2 <= degenerate_floor:
        raise DegenerateSecondDerivative(
            f"{gen.spec_string()}: f'' vanishes on the whole grid "
            f"(max |f''| = {scale2:.3e} <= {degenerate_floor:.3e})"
        )
    if not (np.all(g2 > 0.0) or np.all(g2 < 0.0)):
        # first grid point whose f'' is zero or of the other sign
        k = int(np.argmax(~(g2 * np.sign(g2[0]) > 0.0)))
        raise SignChange(
            f"{gen.spec_string()}: f'' is {g2[0]:.3e} at x = {float(xs[0])!r} "
            f"but {g2[k]:.3e} at x = {float(xs[k])!r}",
            witness={"x": float(xs[k]), "f2": float(g2[k])})
    return ScalarGrid(gen.domain, r)


def invert_f(gen: Generator, y: float) -> float:
    """Solve f(x) = y on the working interval with the generator's inverse.

    The target must lie between f(lo) and f(hi); the result is clamped to
    [lo, hi] so the last-bit error of a closed-form inverse at an endpoint
    image cannot leave the interval.
    """
    lo, hi = gen.domain.lo, gen.domain.hi
    flo, fhi = float(gen.f(lo)), float(gen.f(hi))
    y = float(y)
    ylo, yhi = min(flo, fhi), max(flo, fhi)
    if not ylo <= y <= yhi:
        raise RangeError(f"target {y!r} outside generator range [{ylo!r}, {yhi!r}]")
    return min(max(float(gen.finv(y)), lo), hi)


def tabulate(gen: Generator) -> TabulatedGenerator:
    """Sample a generator (f, f' and rho) into a tabulated one."""
    xs = gen.domain.grid()
    return TabulatedGenerator(
        gen.domain,
        np.asarray(gen.f(xs), dtype=float),
        np.asarray(gen.f1(xs), dtype=float),
        np.asarray(gen.rho(xs), dtype=float),
        source=f"tabulated({gen.spec_string()})",
    )


def parse_generator(spec: str, interval: WorkingInterval | None = None) -> Generator:
    """Build a generator from its spec string.

    Grammar: ``power:<p>``, ``log``, ``exp``, ``id``, ``affine:<a>:<b>``,
    ``table:<path>``.  Table specs carry their own grid; the other kinds
    need an explicit working interval.
    """
    spec = spec.strip()
    if spec.startswith("table:"):
        return load_table(spec[len("table:"):])
    if interval is None:
        raise UsageError(f"generator spec {spec!r} needs a working interval")
    if spec == "log":
        return LogGenerator(interval)
    if spec == "exp":
        return ExpGenerator(interval)
    if spec == "id":
        return AffineGenerator(1.0, 0.0, interval)
    if spec.startswith("power:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad power spec {spec!r}") from None
        return PowerGenerator(p, interval)
    if spec.startswith("affine:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad affine spec {spec!r}, expected affine:<a>:<b>")
        try:
            a, b = float(parts[1]), float(parts[2])
        except ValueError:
            raise UsageError(f"bad affine spec {spec!r}") from None
        return AffineGenerator(a, b, interval)
    raise UsageError(f"unknown generator spec {spec!r}")


# A line opening with one of these is a data line under every skip rule of
# load_table, so the per-line tests run only on the few lines that do not.
_NUMBER_STARTS = frozenset("0123456789+-.")


def load_table(path: str) -> TabulatedGenerator:
    """Load a tabulated generator from a CSV file.

    The file must carry a uniformly spaced, strictly increasing ``x`` column
    and a strictly monotone value column.  With a header row, the value
    column is the one named ``f`` (falling back to ``g``, so envelope CSV
    output reloads directly); a ``g1``/``f1`` column, when present, is used
    as the first-derivative grid, and an ``m`` column (the profile f'/f''
    an envelope was built from) as the profile grid, so a reloaded envelope
    keeps its profile exactly.
    Without a header the first two columns are taken as x and f.

    Blank lines, lines whose cells are all empty, and lines whose first
    cell starts with '#' are skipped; the rest are parsed in one
    ``np.loadtxt`` call, whose values are bit-equal to ``float()`` of each
    cell.  A non-numeric cell or a row with a different number of cells
    raises UsageError naming the file.
    """
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines()
                 if line[:1] in _NUMBER_STARTS
                 or (line.replace(",", "").strip()
                     and not line.lstrip().startswith("#"))]
    if not lines:
        raise UsageError(f"{path}: empty table")

    header = None
    first = lines[0].split(",")
    try:
        [float(c) for c in first]
    except ValueError:
        header = [c.strip() for c in first]
        lines = lines[1:]
    if len(lines) < 3:
        raise UsageError(f"{path}: need at least 3 rows")

    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise UsageError(f"{path}: malformed data row: {exc}") from None
    ncols = data.shape[1]
    if header is not None and len(header) != ncols:
        raise UsageError(f"{path}: header has {len(header)} cells, data rows {ncols}")
    if ncols < 2:
        raise UsageError(f"{path}: need an x column and a value column")

    def col(*names, default=None):
        if header is not None:
            for name in names:
                if name in header:
                    return data[:, header.index(name)]
        return data[:, default] if default is not None else None

    xs = col("x", default=0)
    fs = col("f", "g", default=1)
    f1s = col("f1", "g1")
    ms = col("m")

    # Both x tests are written so that a NaN fails them.
    steps = np.diff(xs)
    if not np.all(steps > 0):
        raise UsageError(f"{path}: x column must be strictly increasing")
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    # Relative to the step, plus the rounding of the x values themselves.
    if not np.max(np.abs(steps - h)) <= 1e-9 * h + 4.0 * np.spacing(np.max(np.abs(xs))):
        raise UsageError(f"{path}: x column must be uniformly spaced")

    interval = WorkingInterval(float(xs[0]), float(xs[-1]), len(xs))
    return TabulatedGenerator(interval, fs, f1_values=f1s, rho_values=ms,
                              source=path)


def generator_kinds() -> list[str]:
    """Spec strings understood by :func:`parse_generator`."""
    return ["power:<p>", "log", "exp", "id", "affine:<a>:<b>", "table:<path>"]
