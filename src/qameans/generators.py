"""Generator functions for quasiarithmetic means.

A generator is a continuous, strictly monotone function f on a working
interval, described by the facts the theory uses: f, its inverse f^{-1},
and its profile rho = f'/f'' (infinite where f'' = 0); f', which each kind
also gives, only fills an envelope's g' grid.  No kind states a direction:
f and -f generate the same mean and have the same profile, so nothing the
theory decides depends on the sign of f.
Closed-form kinds (power:p, log, exp, affine:a:b, with id = affine:1:0)
return exact analytic values, invert in closed form and give rho in
closed form (x/(p-1), -x, 1, +inf); tabulated kinds interpolate a sampled
grid, invert by interpolating the same grid with the axes swapped, and
fill in f' and rho by central differences unless given.

:func:`rho` samples the profile on the grid and checks it.  For the
increasing one of f and -f, f'' has the sign of rho, so the sign and size
of rho decide the classification and envelope machinery in the sibling
modules.
"""

from __future__ import annotations

import os
import re
import stat
import threading

import numpy as np
import orjson

from .errors import (
    DegenerateSecondDerivative,
    DomainError,
    NotMonotone,
    RangeError,
    SignChange,
    UsageError,
)
from .grids import MAX_GRID_POINTS, ScalarGrid, WorkingInterval

# Floor deciding that f'' is identically zero on the grid: span * max|1/rho|,
# the largest relative change of f' across the interval, is at most this.
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


class PowerGenerator(Generator):
    """f(x) = x**p on a positive interval, p != 0."""

    def __init__(self, p: float, domain: WorkingInterval):
        if p == 0:
            raise UsageError("power generator needs p != 0 (use the log kind for p = 0)")
        if domain.lo <= 0:
            raise UsageError("power generator needs lo > 0")
        self.p = _finite_exponent("power generator", p)
        self.domain = domain

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

    def rho(self, x):
        return np.full_like(np.asarray(x, dtype=float), np.inf)

    def spec_string(self):
        if self.a == 1.0 and self.b == 0.0:
            return "id"
        return f"affine:{_shortest(self.a)}:{_shortest(self.b)}"


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


# Below this many queries np.interp's binary search costs less than the
# numpy calls of TabulatedGenerator's index lookup, about 20 us a batch.
# Timed with fresh random queries on a 2-vCPU Xeon: the index lookup wins
# from about 400 queries on a 1025-point grid, 128 on 65537 points and
# 700 on 257 points.
_LOOKUP_MIN_QUERIES = 512
# Evenly spaced entries of a batch read to tell whether it is in monotone
# order, where np.interp's guessed search costs O(1) a query.
_ORDER_SAMPLES = 32


class TabulatedGenerator(Generator):
    """Generator given by sampled values on the grid, interpolated linearly.

    The f' and rho grids may be supplied (when built from an exact
    construction, such as an envelope's hull m) or are otherwise filled in
    by central finite differences with the grid step, accurate to O(h^2) in
    the interior: f' directly, rho as f' over the second difference.  A
    supplied rho may be +-inf (f'' = 0) but not zero or NaN (UsageError
    naming the source).  The direction is that of the values; f' must be
    finite, nonzero and of the values' sign (NotMonotone naming the source).

    f, f1 and rho give np.interp(x, grid, column) to the bit.  At the
    table's own grid array, domain.grid(), that is a copy of the column.  A
    batch of at least _LOOKUP_MIN_QUERIES queries, inside [lo, hi], not in
    monotone order (judged from _ORDER_SAMPLES evenly spaced entries), on a
    column whose slopes are all finite, is looked up by grid index: j =
    floor((x - lo) / step), moved by one where grid[j] or grid[j + 1] shows
    x outside that bracket, then np.interp's slope[j] * (x - grid[j]) +
    column[j], or the column value where x is a grid point.  np.interp is
    kept for every other batch: small ones, monotone ones (such as
    reflected-grid evaluations, where its guessed search costs O(1) a
    query), those with a query outside [lo, hi] or NaN, and columns with an
    infinite slope.  finv always uses np.interp, since its abscissae, the
    values, are not a uniform grid.
    """

    def __init__(self, domain: WorkingInterval, values, f1_values=None,
                 rho_values=None, source: str = "<grid>"):
        self.domain = domain
        self.source = source
        vals = np.array(values, dtype=float)
        if vals.shape != (domain.grid_points,):
            raise UsageError("tabulated values must match the grid")
        if not np.all(np.isfinite(vals)):
            raise RangeError(f"{self.spec_string()}: tabulated values must be finite")
        d = np.diff(vals)
        if not (np.all(d > 0.0) or np.all(d < 0.0)):
            raise NotMonotone(
                f"{self.spec_string()}: tabulated values must be strictly monotone")
        self.values = vals
        self.increasing = bool(d[0] > 0.0)
        self._slopes = {}
        h = domain.step
        if rho_values is not None:
            self.rho_values = np.array(rho_values, dtype=float)
            if not np.all(np.abs(self.rho_values) > 0.0):
                raise UsageError(f"{source}: rho values must be nonzero and not NaN")
        # Differences of finite values may overflow: the f' tests below
        # refuse such a derivative, and rho() such a profile.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.f1_values = (np.array(f1_values, dtype=float) if f1_values is not None
                              else _central_diff(vals, h))
            if rho_values is None:  # f'' = 0: rho is infinite
                self.rho_values = self.f1_values / _central_diff2(vals, h)
        f1 = self.f1_values
        if not np.all(np.isfinite(f1)):
            raise NotMonotone(f"{self.spec_string()}: derivative not finite on grid")
        if not np.all(f1 > 0.0 if self.increasing else f1 < 0.0):
            raise NotMonotone(
                f"{self.spec_string()}: f' must be nonzero with the values' sign on the grid")

    def f(self, x):
        return self._lookup(x, "values")

    def finv(self, y):
        # np.interp needs an increasing abscissa
        if self.increasing:
            return np.interp(y, self.values, self.domain.grid())
        return np.interp(-np.asarray(y, dtype=float), -self.values, self.domain.grid())

    def f1(self, x):
        return self._lookup(x, "f1_values")

    def rho(self, x):
        return self._lookup(x, "rho_values")

    def _lookup(self, x, name: str):
        """np.interp(x, grid, column) to the bit, for the column called name,
        by grid index or by np.interp as the class docstring says.  Finite
        values and slopes leave no NaN for np.interp to retry from the
        right end."""
        grid, column = self.domain.grid(), getattr(self, name)
        if x is grid:  # np.interp gives column[j] where x == grid[j]
            return column.copy()
        x = np.asarray(x, dtype=float)
        if x.size < _LOOKUP_MIN_QUERIES:
            return np.interp(x, grid, column)
        q = x.reshape(-1)
        sample = q[::q.size // _ORDER_SAMPLES].tolist()
        ordered = sorted(sample)
        if (sample == ordered or sample[::-1] == ordered
                or not (q.min() >= self.domain.lo and q.max() <= self.domain.hi)):
            return np.interp(x, grid, column)
        if name not in self._slopes:
            # numpy's slope of bracket j, kept when all are finite, which
            # implies a strictly increasing grid and so a positive, finite step
            with np.errstate(over="ignore", invalid="ignore"):
                slopes = np.diff(column) / np.diff(grid)
            self._slopes[name] = slopes if np.isfinite(slopes).all() else None
        slopes = self._slopes[name]
        if slopes is None:
            return np.interp(x, grid, column)
        j = ((q - self.domain.lo) / self.domain.step).astype(np.intp)
        np.minimum(j, len(grid) - 2, out=j)
        left, right = grid[j], grid[j + 1]
        below, above = q < left, q > right
        if below.any() or above.any():  # x within rounding of a grid point
            j += above
            j -= below
            left, right = grid[j], grid[j + 1]
            if not ((left <= q).all() and (q <= right).all()):
                return np.interp(x, grid, column)
        out = slopes[j] * (q - left) + column[j]
        for k, edge in ((0, left), (1, right)):
            hit = q == edge
            if hit.any():
                out[hit] = column[j[hit] + k]
        return out.reshape(x.shape)

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


def reflect_generator(gen: Generator) -> Generator:
    """The generator x -> f(-x) on the mirror interval.

    Double reflection unwraps structurally, so reflecting twice gives back
    the original object and downstream tests evaluate bit-identically.
    """
    if isinstance(gen, ReflectedGenerator):
        return gen.inner
    return ReflectedGenerator(gen)


def rho(gen: Generator) -> ScalarGrid:
    """The slope/curvature profile f'/f'' sampled on the grid.

    Reads the generator's own profile and nothing else, whichever way f
    runs: f and -f share it, and for the increasing one of them f'' has the
    sign of rho and is zero exactly where rho is infinite.
    Requires rho nonzero and not NaN (a zero rho is an infinite f'':
    RangeError).  Raises DegenerateSecondDerivative when
    span * max|1/rho| <= DEGENERATE_TAU
    (f'' numerically zero everywhere: the arithmetic mean), and SignChange
    unless every rho is finite with the sign of rho at lo.
    """
    xs = gen.domain.grid()
    r = np.asarray(gen.rho(xs), dtype=float)
    if not np.all(np.abs(r) > 0.0):  # NaN fails it too
        raise RangeError(f"{gen.spec_string()}: f'' is not finite on the grid")
    curvature = gen.domain.span / float(np.min(np.abs(r)))
    if curvature <= DEGENERATE_TAU:
        raise DegenerateSecondDerivative(
            f"{gen.spec_string()}: f'' vanishes on the whole grid "
            f"(span * max |1/rho| = {curvature:.3e} <= {DEGENERATE_TAU:.3e})"
        )
    one_signed = np.isfinite(r) & (np.sign(r) == np.sign(r[0]))
    if not np.all(one_signed):
        # first grid point whose rho is infinite (f'' = 0) or of the other sign
        k = int(np.argmin(one_signed))
        raise SignChange(
            f"{gen.spec_string()}: rho is {r[0]:.3e} at x = {float(xs[0])!r} "
            f"but {r[k]:.3e} at x = {float(xs[k])!r}",
            witness={"x": float(xs[k]), "rho": float(r[k])})
    return ScalarGrid(gen.domain, r)


def tabulate(gen: Generator) -> TabulatedGenerator:
    """Sample a generator (f, f' and rho) into a tabulated one."""
    xs = gen.domain.grid()
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
        values, f1_values = gen.f(xs), gen.f1(xs)
    return TabulatedGenerator(gen.domain, values, f1_values, gen.rho(xs),
                              source=f"tabulated({gen.spec_string()})")


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


# The parses of _read_table, each keyed by the file bytes it was parsed from,
# least recently used first and at most MAX_GRID_POINTS rows in all.  A load
# finds its entry by comparing bytes, not by path or timestamp.  The arrays
# are read-only.
_TABLES: dict = {}
_TABLES_LOCK = threading.Lock()


def _kept_bytes(fh):
    """The kept key equal to the whole of fh, compared a chunk at a time in
    one buffer; None when fh is not a regular file or no key matches.  fh
    is read, and then sought back to its start, only if a key has its size."""
    st = os.fstat(fh.fileno())
    size = st.st_size if stat.S_ISREG(st.st_mode) else -1
    with _TABLES_LOCK:
        alike = [raw for raw in _TABLES if len(raw) == size]
    if not alike:
        return None
    view = memoryview(bytearray(min(size, _CHUNK_BYTES)))
    at = 0
    while alike and (n := fh.readinto(view)):
        alike = [raw for raw in alike if raw.startswith(view[:n], at)]
        at += n
    if alike and at == size:
        return alike[0]
    fh.seek(0)
    return None


def _read_table(path: str):
    """(header, data) of a table file: the kept parse of the same bytes when
    there is one, else a new parse, which is kept unless it fails.  Entries
    least recently used go first once the kept rows exceed MAX_GRID_POINTS."""
    with open(path, "rb") as fh:
        raw = _kept_bytes(fh)
        if raw is None:
            raw = fh.read()
    with _TABLES_LOCK:
        table = _TABLES.pop(raw, None)
    if table is None:
        table = _parse_table(raw, path)
        table[1].flags.writeable = False
    with _TABLES_LOCK:
        _TABLES[raw] = table
        rows = sum(data.shape[0] for _, data in _TABLES.values())
        while rows > MAX_GRID_POINTS:
            rows -= _TABLES.pop(next(iter(_TABLES)))[1].shape[0]
    return table


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

    A process keeps each table it parsed together with the file's bytes.
    A load whose file has the bytes of a kept table, found by comparing
    them exactly a chunk at a time, not by path or timestamp, reuses that
    parse and holds no second copy of the file; any other load reads the
    file once and parses it.  A failed parse is not kept.  The kept tables
    are dropped least recently used first once they hold more than
    ``grids.MAX_GRID_POINTS`` rows.
    Every call runs the x column checks, names its own path in errors, and
    returns a new generator holding its own copies of the columns.
    """
    header, data = _read_table(path)
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
    return TabulatedGenerator(interval, fs, f1_values=f1s, rho_values=ms,
                              source=path)


def generator_kinds() -> list[str]:
    """Spec strings understood by :func:`parse_generator`."""
    return ["power:<p>", "log", "exp", "id", "affine:<a>:<b>", "table:<path>"]
