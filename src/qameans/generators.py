"""Generator functions for quasiarithmetic means.

A generator is a continuous, strictly monotone function f on a working
interval, described by the facts the theory uses: f, its inverse f^{-1},
and its profile rho = f'/f'' (infinite where f'' = 0); f', which each kind
also gives, only fills an envelope's g' grid.  No kind states a direction:
f and -f generate the same mean and have the same profile, so nothing the
theory decides depends on the sign of f.
Closed-form kinds (power:p, log, exp, affine:a:b, with id = affine:1:0)
return exact analytic values and invert in closed form, and each states
its profile once, as the pair ``sigma = (A, B)`` with f''/f' = 1/rho =
A/x + B: power (p - 1, 0), log (-1, 0), exp (0, 1) and affine (0, 0); a
reflection x -> f(-x) states (A, -B) of its inner kind.  The base class
derives ``rho(x)`` and ``rho_ends()`` from it: rho is x/A, or 1/B where A
= 0, or an infinity of B's sign where both are 0.  Each such profile is
one correctly rounded expression in x that only rises or only falls, and
the grid's ends are lo and hi exactly, so its two end values bound every
sample of it, in order: the profile is affine, concave with margin
exactly 0 and its own hull.  An end where x/A underflows to 0 states
none.  Tabulated kinds interpolate a sampled grid, invert by
interpolating the same grid with the axes swapped, and fill in f' and rho
by central differences unless given; they state no sigma and so no end
values, and their profiles are sampled and scanned.

A kind's ``rho_ends()`` alone decides whether its profile is read from
its two end values; :func:`rho` samples the profile on the grid and
refuses a zero or NaN value.  For the increasing one of f and -f, f'' has
the sign of rho, so the sign and size of rho decide the classification
and envelope verdicts, which :func:`qameans.convexity._profile_tests`
reads from the end values or from the sample.
"""

from __future__ import annotations

import copy
import math
import os
import re
import stat
import threading
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import DomainError, NotMonotone, RangeError, UsageError
from .grids import MAX_GRID_POINTS, WorkingInterval


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

    # (A, B) with f''/f' = A/x + B, exact in the kind's parameter; None for
    # a kind without one (tables), which gives rho itself.
    sigma: tuple | None = None

    def rho(self, x):
        """The profile f'/f'' at x, infinite where f'' = 0: x/A where A != 0,
        else 1/B, else an infinity of B's sign."""
        if self.sigma is None:
            raise NotImplementedError
        x = np.asarray(x, dtype=float)
        a, b = self.sigma
        if a != 0.0:
            with np.errstate(over="ignore"):  # a power within about x/1.8e308 of p = 1
                return x / a
        return np.full_like(x, 1.0 / b if b != 0.0 else math.copysign(math.inf, b))

    def rho_ends(self):
        """rho at lo and at hi, two nonzero floats of one sign between which
        every grid sample of rho lies, in order, or None when only the sample
        tells: a kind without sigma, or an end where x/A underflows to 0, an
        infinite f'' that rho() refuses.  They are rho's own float operations,
        so x/A overflows to inf as numpy's does."""
        if self.sigma is None:
            return None
        a, b = self.sigma
        if a == 0.0:
            r = 1.0 / b if b != 0.0 else math.copysign(math.inf, b)
            return r, r
        ends = float(self.domain.lo) / a, float(self.domain.hi) / a
        return None if 0.0 in ends else ends

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        d = self.domain
        return f"<{self.spec_string()} on [{d.lo}, {d.hi}] n={d.grid_points}>"


class PowerGenerator(Generator):
    """f(x) = x**p on a positive interval, p != 0.

    A p at which lo**p == hi**p in floats is a UsageError pointing to the
    log kind: f is then one float on the whole interval, as where |p| is
    so small that x**p rounds to 1 or x**p underflows to 0 at both ends,
    and its mean would be the row's minimum.  A p at which x**p only
    repeats values between the ends is accepted; reading small |p| without
    that quantization is ROADMAP item 10.
    """

    def __init__(self, p: float, domain: WorkingInterval):
        if p == 0:
            raise UsageError("power generator needs p != 0 (use the log kind for p = 0)")
        if domain.lo <= 0:
            raise UsageError("power generator needs lo > 0")
        self.p = p = _finite_exponent("power generator", p)
        self.sigma = (p - 1.0, 0.0)
        self.domain = domain
        lo, hi = float(domain.lo), float(domain.hi)
        try:
            ends = lo ** p, hi ** p
        except OverflowError:  # f is infinite at an end: refused where f is sampled
            return
        if ends[0] == ends[1]:
            raise UsageError(f"power generator needs x**p to differ at lo and hi, but "
                             f"x**{_shortest(p)} is {ends[0]!r} at both ends of "
                             f"[{lo!r}, {hi!r}] (use the log kind for p near 0)")

    def f(self, x):
        return np.asarray(x, dtype=float) ** self.p

    def finv(self, y):
        return np.asarray(y, dtype=float) ** (1.0 / self.p)

    def f1(self, x):
        x = np.asarray(x, dtype=float)
        return self.p * x ** (self.p - 1.0)

    def spec_string(self):
        return f"power:{_shortest(self.p)}"


class LogGenerator(Generator):
    """f(x) = ln x on a positive interval (the p = 0 member of the power family)."""

    sigma = (-1.0, 0.0)

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

    def spec_string(self):
        return "log"


class ExpGenerator(Generator):
    """f(x) = e**x."""

    sigma = (0.0, 1.0)

    def __init__(self, domain: WorkingInterval):
        self.domain = domain

    def f(self, x):
        return np.exp(np.asarray(x, dtype=float))

    def finv(self, y):
        return np.log(np.asarray(y, dtype=float))

    def f1(self, x):
        return np.exp(np.asarray(x, dtype=float))

    def spec_string(self):
        return "exp"


def _finite_exponent(kind: str, p: float) -> float:
    """p as a float, or UsageError unless it is finite."""
    p = float(p)
    if not abs(p) < np.inf:  # NaN fails it too
        raise UsageError(f"{kind} needs a finite exponent p, got p = {p!r}")
    return p


class AffineGenerator(Generator):
    """f(x) = a*x + b with finite a != 0 and finite b; generates the arithmetic mean.

    a = 1, b = 0 is the identity, spelled ``id``.
    """

    sigma = (0.0, 0.0)

    def __init__(self, a: float, b: float, domain: WorkingInterval):
        a, b = float(a), float(b)
        if not (0.0 < abs(a) < np.inf and abs(b) < np.inf):  # NaN fails it too
            raise UsageError(f"affine generator needs a != 0 and finite a and b, "
                             f"got a = {a!r}, b = {b!r}")
        self.a, self.b = a, b
        self.domain = domain

    def f(self, x):
        return self.a * np.asarray(x, dtype=float) + self.b

    def finv(self, y):
        return (np.asarray(y, dtype=float) - self.b) / self.a

    def f1(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.a)

    def spec_string(self):
        if self.a == 1.0 and self.b == 0.0:
            return "id"
        return f"affine:{_shortest(self.a)}:{_shortest(self.b)}"


class ReflectedGenerator(Generator):
    """Argument-reflected generator x -> f(-x), living on the mirror interval;
    f(-x)''/f(-x)' = A/x - B states its inner kind's (A, B) as (A, -B)."""

    def __init__(self, inner: Generator):
        self.inner = inner
        self.domain = inner.domain.reflected()
        if inner.sigma is not None:
            self.sigma = (inner.sigma[0], -inner.sigma[1])

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


# Below this many queries np.interp's binary search costs less than the
# numpy calls of TabulatedGenerator's index lookup, about 20 us a batch.
# Timed with fresh random queries on a 2-vCPU Xeon: the index lookup wins
# from about 400 queries on a 1025-point grid, 128 on 65537 points and
# 700 on 257 points.
_LOOKUP_MIN_QUERIES = 512


class TabulatedGenerator(Generator):
    """Generator given by sampled values on the grid, interpolated linearly.

    The f' and rho grids may be supplied (when built from an exact
    construction, such as an envelope's hull m) or are otherwise filled in
    by central finite differences with the grid step, accurate to O(h^2) in
    the interior: f' directly (an end whose one-sided estimate has the
    wrong sign takes its end cell's slope), rho as f' over the second
    difference.  A supplied rho may be +-inf (f'' = 0) but not zero or NaN
    (UsageError naming the source).  The direction is that of the values,
    and no attribute states it: finv reads it from the end values.  f' must
    be finite, nonzero and of the values' sign (NotMonotone naming the
    source).
    A column that is not one value per grid point is a UsageError.  The
    three columns, values, f1_values and rho_values, are the constructor's
    own read-only copies, so the lookup slopes computed from the values
    stay valid for the table's life, and copy.copy of a table shares them
    all.

    f, f1 and rho give np.interp(x, grid, column) to the bit.  At the
    table's own grid array, domain.grid(), that is the column itself.  f
    looks a batch of at least _LOOKUP_MIN_QUERIES queries inside [lo, hi]
    up by grid index when the values' slopes are all finite: j =
    floor((x - lo) / step), moved by one where grid[j] or grid[j + 1] shows
    x outside that bracket, then np.interp's slope[j] * (x - grid[j]) +
    values[j], or the value where x is a grid point.  Every other lookup,
    and f1 and rho off the grid, use np.interp, as does finv, since its
    abscissae, the values, are not a uniform grid.
    """

    def __init__(self, domain: WorkingInterval, values, f1_values=None,
                 rho_values=None, source: str = "<grid>"):
        self.domain = domain
        self.source = source
        vals = np.array(values, dtype=float)
        f1, r = (None if c is None else np.array(c, dtype=float)
                 for c in (f1_values, rho_values))
        for name, column in (("values", vals), ("f' values", f1), ("rho values", r)):
            if column is not None and column.shape != (domain.grid_points,):
                raise UsageError(f"tabulated {name} must match the grid")
        rising = _values_rise(self.spec_string(), vals)
        if r is not None and not np.all(np.abs(r) > 0.0):
            raise UsageError(f"{source}: rho values must be nonzero and not NaN")
        h = domain.step
        # Differences of finite values may overflow: the f' tests below
        # refuse such a derivative, and rho() such a profile.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if f1 is None:
                f1 = _central_diff(vals, h)
            if r is None:  # f'' = 0: rho is infinite
                r = f1 / _central_diff2(vals, h)
        _check_f1(self.spec_string(), f1, rising)
        for column in (vals, f1, r):
            column.flags.writeable = False
        self.values, self.f1_values, self.rho_values = vals, f1, r
        self._slopes = {}

    def f(self, x):
        return self._lookup(x)

    def finv(self, y):
        # np.interp needs an increasing abscissa
        if self.values[-1] > self.values[0]:
            return np.interp(y, self.values, self.domain.grid())
        return np.interp(-np.asarray(y, dtype=float), -self.values, self.domain.grid())

    def f1(self, x):
        grid = self.domain.grid()
        return self.f1_values if x is grid else np.interp(x, grid, self.f1_values)

    def rho(self, x):
        grid = self.domain.grid()
        return self.rho_values if x is grid else np.interp(x, grid, self.rho_values)

    def _lookup(self, x):
        """np.interp(x, grid, values) to the bit, by grid index or by
        np.interp as the class docstring says.  Finite values and slopes
        leave no NaN for np.interp to retry from the right end."""
        grid, values = self.domain.grid(), self.values
        if x is grid:  # np.interp gives values[j] where x == grid[j]
            return values
        x = np.asarray(x, dtype=float)
        if x.size < _LOOKUP_MIN_QUERIES or not (
                x.min() >= self.domain.lo and x.max() <= self.domain.hi):
            return np.interp(x, grid, values)
        if "values" not in self._slopes:
            # numpy's slope of bracket j, kept when all are finite, which
            # implies a strictly increasing grid and so a positive, finite
            # step.  The values are read-only, so they never go stale, and
            # copy.copy of the table shares this dict.
            with np.errstate(over="ignore", invalid="ignore"):
                slopes = np.diff(values) / np.diff(grid)
            slopes.flags.writeable = False
            self._slopes["values"] = slopes if np.isfinite(slopes).all() else None
        slopes = self._slopes["values"]
        if slopes is None:
            return np.interp(x, grid, values)
        q = x.reshape(-1)
        j = ((q - self.domain.lo) / self.domain.step).astype(np.intp)
        np.minimum(j, len(grid) - 2, out=j)
        left, right = grid[j], grid[j + 1]
        below, above = q < left, q > right
        if below.any() or above.any():  # x within rounding of a grid point
            j += above
            j -= below
            left, right = grid[j], grid[j + 1]
            if not ((left <= q).all() and (q <= right).all()):
                return np.interp(x, grid, values)
        out = slopes[j] * (q - left) + values[j]
        for k, edge in ((0, left), (1, right)):
            hit = q == edge
            if hit.any():
                out[hit] = values[j[hit] + k]
        return out.reshape(x.shape)

    def spec_string(self):
        return f"table:{self.source}"


def _values_rise(spec: str, values: np.ndarray) -> bool:
    """Whether a column of tabulated values rises: a RangeError naming spec
    unless they are finite, a NotMonotone unless strictly monotone."""
    if not np.all(np.isfinite(values)):
        raise RangeError(f"{spec}: tabulated values must be finite")
    with np.errstate(over="ignore"):  # an overflowed step is +-inf, of its sign
        d = np.diff(values)
    if not (np.all(d > 0.0) or np.all(d < 0.0)):
        raise NotMonotone(f"{spec}: tabulated values must be strictly monotone")
    return bool(d[0] > 0.0)


def _check_f1(spec: str, f1: np.ndarray, rising: bool) -> None:
    """A NotMonotone naming spec unless the f' column is finite, nonzero and
    of the values' sign (positive where they rise)."""
    if not np.all(np.isfinite(f1)):
        raise NotMonotone(f"{spec}: derivative not finite on grid")
    if not np.all(f1 > 0.0 if rising else f1 < 0.0):
        raise NotMonotone(f"{spec}: f' must be nonzero with the values' sign on the grid")


def _central_diff(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative by central differences, one-sided at the ends.  An
    end estimate without its end cell's sign, as where the values grow fast
    (v2 - v1 > 3 (v1 - v0) at lo), takes that cell's slope, the interpolant's f'."""
    out = np.empty(len(values))
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    for end, step in ((0, values[1] - values[0]), (-1, values[-1] - values[-2])):
        if np.sign(out[end]) != np.sign(step):
            out[end] = step / h
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


def reflect_generator(gen: Generator) -> Generator:
    """The generator x -> f(-x) on the mirror interval.

    Double reflection unwraps structurally, so reflecting twice gives back
    the original object and downstream tests evaluate bit-identically.
    """
    if isinstance(gen, ReflectedGenerator):
        return gen.inner
    return ReflectedGenerator(gen)


def rho(gen: Generator) -> np.ndarray:
    """The slope/curvature profile f'/f'' sampled on the grid, as an array;
    a table's is its own read-only rho column.

    Reads the generator's own profile and nothing else, whichever way f
    runs: f and -f share it, and for the increasing one of them f'' has the
    sign of rho and is zero exactly where rho is infinite.  A zero rho is an
    infinite f'' and a NaN one no profile, so either is a RangeError; every
    verdict on the profile is :func:`qameans.convexity._profile_tests`'s.
    """
    r = np.asarray(gen.rho(gen.domain.grid()), dtype=float)
    if not np.abs(r).min() > 0.0:  # NaN fails it too
        raise RangeError(f"{gen.spec_string()}: f'' is not finite on the grid")
    return r


def tabulate(gen: Generator) -> TabulatedGenerator:
    """Sample a generator into a tabulated one: f and f' by sampled_columns,
    then rho, so a bad f or f' is refused before rho is sampled."""
    return TabulatedGenerator(gen.domain, *sampled_columns(gen), gen.rho(gen.domain.grid()),
                              source=f"tabulated({gen.spec_string()})")


def sampled_columns(gen: Generator) -> tuple:
    """f and f' of gen on its grid, the values and f1_values of tabulate(gen),
    refused as that table refuses them, without sampling rho or building
    the table.  They are gen's own arrays (a table's own columns, for a
    table), which the table copies; a caller that keeps them copies them."""
    xs = gen.domain.grid()
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
        values = np.asarray(gen.f(xs), dtype=float)
        f1_values = np.asarray(gen.f1(xs), dtype=float)
    spec = f"table:tabulated({gen.spec_string()})"
    _check_f1(spec, f1_values, _values_rise(spec, values))
    return values, f1_values


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
# The first such line of a file's bytes, where the fast path's data begins.
_DATA_LINE = re.compile(rb"^[0-9+.-]", re.MULTILINE)

# load_table's fast path hands orjson at most this many bytes at a time, cut
# at a line end, which bounds its float list and byte copies.
_CHUNK_BYTES = 1 << 18
# The bytes of a JSON number and the blanks around it.  Deleting them from a
# chunk of data lines leaves its commas, its line ends and every other byte.
_CELL_BYTES = b"0123456789.eE+- \t\r"
# An integer -0 (or an exponent -0), which orjson reads as int 0, that is
# +0.0, where float() gives -0.0.
_INT_MINUS_ZERO = re.compile(rb"-0(?![.eE0-9])")


def _kept_lines(text: str) -> list:
    """The lines of text load_table reads: not blank, not all empty cells,
    and not opening with '#'."""
    return [line for line in text.splitlines()
            if line[:1] in _NUMBER_STARTS
            or (line.replace(",", "").strip()
                and not line.lstrip().startswith("#"))]


def _header(line: str):
    """The stripped cells of line when one of them is not a number, else None."""
    cells = line.split(",")
    try:
        [float(c) for c in cells]
    except ValueError:
        return [c.strip() for c in cells]
    return None


def _orjson_table(raw: bytes):
    """(header, data) of a table file's bytes, parsed by orjson chunk by
    chunk into one preallocated array; None for any file whose cells orjson
    might read otherwise than float(), or whose lines load_table might
    split or skip otherwise."""
    first = _DATA_LINE.search(raw)
    if first is None:
        return None
    start = first.start()
    try:
        kept = _kept_lines(raw[:start].decode())
    except UnicodeDecodeError:
        return None
    header = _header(kept[0]) if len(kept) == 1 else None
    if kept and header is None:
        return None
    end = len(raw) - raw.endswith(b"\n")
    # A lone \r ends a line for splitlines; orjson reads it as a blank.
    if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    line_end = raw.find(b"\n", start, end)
    cols = raw.count(b",", start, end if line_end < 0 else line_end) + 1
    # Line ends, counted by numpy a chunk at a time: a mask of the whole
    # file would hold as many bytes as the file.
    text = np.frombuffer(raw, np.uint8, end - start, start)
    rows = 1 + sum(int(np.count_nonzero(text[at:at + _CHUNK_BYTES] == 10))
                   for at in range(0, len(text), _CHUNK_BYTES))
    if cols < 2 or rows < 3:
        return None
    skeleton_row = b"," * (cols - 1) + b"\n"
    data = np.empty((rows, cols))
    row = 0
    while start < end:
        cut = end
        if end - start > _CHUNK_BYTES:
            cut = raw.rfind(b"\n", start, start + _CHUNK_BYTES)
            if cut < 0:
                return None
        chunk = raw[start:cut]
        skeleton = chunk.translate(None, _CELL_BYTES)
        n = skeleton.count(b"\n") + 1
        if skeleton != (skeleton_row * n)[:-1]:
            return None
        try:
            cells = orjson.loads(b"[" + chunk.replace(b"\n", b",") + b"]")
        except orjson.JSONDecodeError:
            return None
        block = np.array(cells, dtype=float)
        # An integer -0 parses to a zero cell, so a chunk without one has none.
        if not block.all() and _INT_MINUS_ZERO.search(chunk):
            return None
        data[row:row + n] = block.reshape(n, cols)
        row += n
        start = cut + 1
    return header, data


def _parse_table(raw: bytes, path: str):
    """(header, data) of a table file's bytes, by orjson when _orjson_table
    takes them, else by np.loadtxt on the kept lines; errors name path."""
    table = _orjson_table(raw)
    if table is not None:
        return table
    try:
        lines = _kept_lines(raw.decode())
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None
    if not lines:
        raise UsageError(f"{path}: empty table")
    header = _header(lines[0])
    if header is not None:
        lines = lines[1:]
    if len(lines) < 3:
        raise UsageError(f"{path}: need at least 3 rows")
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise UsageError(f"{path}: malformed data row: {exc}") from None
    return header, data


# The tables load_table checked, least recently used first and at most
# MAX_GRID_POINTS rows in all.  A load finds its entry by comparing the
# bytes of the entries of its file's size, never by hashing them, nor by
# path or timestamp.
_TABLES: list = []
_TABLES_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class _KeptTable:
    """A table file's bytes and the checked generator load_table made of
    them; every load of the bytes returns a copy.copy of it, named by the
    load's path and sharing its interval, read-only columns and lookup
    slopes."""

    raw: bytes
    table: TabulatedGenerator


def _kept_table(fh):
    """The kept table whose bytes equal the whole of fh, compared a chunk at
    a time in one buffer; None when fh is not a regular file or no kept
    table matches.  fh is read, and then sought back to its start, only if
    a kept table has its size."""
    st = os.fstat(fh.fileno())
    size = st.st_size if stat.S_ISREG(st.st_mode) else -1
    with _TABLES_LOCK:
        alike = [kept for kept in _TABLES if len(kept.raw) == size]
    if not alike:
        return None
    view = memoryview(bytearray(min(size, _CHUNK_BYTES)))
    at = 0
    while alike and (n := fh.readinto(view)):
        alike = [kept for kept in alike if kept.raw.startswith(view[:n], at)]
        at += n
    if alike and at == size:
        return alike[0]
    fh.seek(0)
    return None


def _checked_table(raw: bytes, path: str) -> TabulatedGenerator:
    """The generator of a table file's bytes, parsed and checked as
    load_table says; errors name path."""
    header, data = _parse_table(raw, path)
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

    # Each x test is written so that a NaN fails it: min and max of the
    # steps are NaN when a step is.  Once the x values increase, the
    # interior is finite when both ends are, and an infinite end is refused
    # before the spacing test, whose inf - inf would warn.
    steps = np.diff(xs)
    least, most = float(steps.min()), float(steps.max())
    if not least > 0:
        raise UsageError(f"{path}: x column must be strictly increasing")
    first, last = float(xs[0]), float(xs[-1])
    if not (abs(first) < np.inf and abs(last) < np.inf):
        raise UsageError(f"{path}: x column must be finite")
    h = (last - first) / (len(xs) - 1)
    # max |steps - h|, exactly: subtracting h is monotone under rounding.
    # The tolerance is relative to the step, plus the rounding of the x
    # values themselves.
    if not max(most - h, h - least) <= 1e-9 * h + 4.0 * np.spacing(max(abs(first), abs(last))):
        raise UsageError(f"{path}: x column must be uniformly spaced")

    interval = WorkingInterval(float(xs[0]), float(xs[-1]), len(xs))
    return TabulatedGenerator(interval, fs, f1_values=f1s, rho_values=ms, source=path)


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
    cell starts with '#' are skipped; the first kept line is the header
    when one of its cells is not a number.  The data lines are read by one
    of two paths, both bit-equal to ``float()`` of each cell:

    - orjson, when the lines before the first one opening with a digit,
      sign or '.' keep at most a header, every later byte is a digit,
      ``.eE+-``, a comma, a line end or a blank (space, tab, or the CR of
      a CRLF line end), every line holds the first one's number of cells,
      and every cell is a JSON number but no integer -0 (which orjson
      reads as +0.0).  It parses chunks of at most ``_CHUNK_BYTES`` cut at
      line ends into one preallocated array, so its extra memory is
      bounded by the chunk, not the file;
    - ``np.loadtxt`` on the kept lines otherwise: spellings JSON refuses
      (``.5``, ``5.``, ``+1``, ``inf``, ``nan``, ``1e400``), comment or
      blank lines among the data, and every malformed file.

    A byte that is not UTF-8, a non-numeric cell or a row with a different
    number of cells raises UsageError naming the file.

    A process keeps each table it checked together with the file's bytes:
    the interval, the three columns (values, f' and rho, read-only) and
    their lookup slopes, not the file's other columns.  A load whose file
    has the bytes of a kept table, found by comparing them exactly a chunk
    at a time, not by hash, path or timestamp, runs no parse and no check
    and holds no second copy of the file; any other load reads the file
    once, parses it and runs the x column and TabulatedGenerator checks.
    So the checks run once for each distinct set of bytes.  A table that
    fails a parse or a check is not kept, so every load of it checks again
    and names its own path.  The kept tables are dropped least recently
    used first once they hold more than ``grids.MAX_GRID_POINTS`` rows.
    Every call returns a new generator named by its own path, a copy.copy
    of the kept one: it shares the kept table's interval, read-only
    columns and lookup slopes, so a load holds no column of its own.
    """
    with open(path, "rb") as fh:
        kept = _kept_table(fh)
        if kept is None:
            raw = fh.read()
    if kept is None:
        kept = _KeptTable(raw, _checked_table(raw, path))
    with _TABLES_LOCK:
        if kept in _TABLES:  # else a new table, or one another thread dropped
            _TABLES.remove(kept)
        _TABLES.append(kept)
        rows = sum(t.table.domain.grid_points for t in _TABLES)
        while rows > MAX_GRID_POINTS:
            rows -= _TABLES.pop(0).table.domain.grid_points
    gen = copy.copy(kept.table)
    gen.source = path
    return gen


def generator_kinds() -> list[str]:
    """Spec strings understood by :func:`parse_generator`."""
    return ["power:<p>", "log", "exp", "id", "affine:<a>:<b>", "table:<path>"]
