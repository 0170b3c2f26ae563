"""Independent reference computations used to freeze expected test values.

Everything in this module is deliberately redundant with the package under
test: brute-force enumeration, rational arithmetic, and closed-form calculus
worked out by hand. Tests compare package output against these oracles so
that a bug in the package cannot silently agree with itself.
"""

import csv
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np

from qameans.errors import DomainError, RangeError


def frac_interp(vx, vy, x):
    """Evaluate the piecewise-linear function through (vx, vy) at x, exactly.

    vx must be strictly increasing and bracket x. All arithmetic is done in
    Fraction, so the result is the mathematical value with no rounding.
    """
    vx = [Fraction(v) for v in vx]
    vy = [Fraction(v) for v in vy]
    x = Fraction(x)
    if x <= vx[0]:
        return vy[0]
    if x >= vx[-1]:
        return vy[-1]
    for i in range(len(vx) - 1):
        if vx[i] <= x <= vx[i + 1]:
            t = (x - vx[i]) / (vx[i + 1] - vx[i])
            return vy[i] + t * (vy[i + 1] - vy[i])
    raise AssertionError("unreachable: x inside range but no bracket found")


def _slopes(vx, vy):
    return [
        (vy[i + 1] - vy[i]) / (vx[i + 1] - vx[i]) for i in range(len(vx) - 1)
    ]


def exhaustive_upper_hull(xs, ys):
    """Least concave majorant of the samples, by exhaustive subset search.

    Enumerates every subset of sample points that contains both endpoints,
    keeps the subsets whose polyline is concave (nonincreasing slopes) and
    dominates every sample, and returns the pointwise minimum over the kept
    polylines, evaluated at each xs, as a list of Fractions.

    Exponential in len(xs); intended for grids of at most ~12 points.
    """
    n = len(xs)
    fx = [Fraction(v) for v in xs]
    fy = [Fraction(v) for v in ys]
    interior = range(1, n - 1)
    best = [None] * n
    for k in range(0, n - 1):
        for chosen in combinations(interior, k):
            idx = (0,) + chosen + (n - 1,)
            vx = [fx[i] for i in idx]
            vy = [fy[i] for i in idx]
            sl = _slopes(vx, vy)
            if any(sl[i + 1] > sl[i] for i in range(len(sl) - 1)):
                continue
            vals = [frac_interp(vx, vy, fx[i]) for i in range(n)]
            if any(vals[i] < fy[i] for i in range(n)):
                continue
            if best[0] is None:
                best = vals
            else:
                best = [min(a, b) for a, b in zip(best, vals)]
    assert best[0] is not None, "the full sample set is always admissible"
    return best


def exhaustive_lower_hull(xs, ys):
    """Greatest convex minorant, via the upper hull of the negated samples."""
    neg = exhaustive_upper_hull(xs, [-Fraction(v) for v in ys])
    return [-v for v in neg]


def polyline_values_exact(vertices, xs):
    """Evaluate a hull's vertex list at the points xs, in exact arithmetic."""
    vx = [v[0] for v in vertices]
    vy = [v[1] for v in vertices]
    return [frac_interp(vx, vy, x) for x in xs]


def fd_first(values, step):
    """Central first difference, second-order one-sided at the ends."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * step)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * step)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * step)
    return out


def fd_second(values, step):
    """Central second difference, copied inward at the ends."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (step * step)
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def fd_curvature_ratio(g_values, step):
    """g'/g'' computed purely from tabulated g by finite differences.

    Independent of the package's stored derivative grids; used to check a
    reconstructed generator against the profile it was built from.
    """
    g1 = fd_first(g_values, step)
    g2 = fd_second(g_values, step)
    return g1 / g2


def chord_profile_generator(xs):
    """Closed form for the generator whose curvature ratio is 4x - 3 on [1,3].

    Solving g'/g'' = 4x - 3 with g(1) = 0, g'(1) = 1:
        g'(x) = (4x - 3)^(1/4)
        g(x)  = ((4x - 3)^(5/4) - 1) / 5
    """
    t = 4.0 * np.asarray(xs, dtype=float) - 3.0
    g1 = t**0.25
    g = (t**1.25 - 1.0) / 5.0
    return g, g1


def concave_chord_profile_generator(xs):
    """Closed form for the generator with curvature ratio 3 - 4x on [1, 3].

    Solving g'/g'' = 3 - 4x with g(1) = 0, g'(1) = 1:
        g'(x) = (4x - 3)^(-1/4)
        g(x)  = ((4x - 3)^(3/4) - 1) / 3
    """
    t = 4.0 * np.asarray(xs, dtype=float) - 3.0
    g1 = t**-0.25
    g = (t**0.75 - 1.0) / 3.0
    return g, g1


def constant_profile_generator(xs, lo, c):
    """Closed form for constant curvature ratio c: g(x) = c*(e^((x-lo)/c) - 1)."""
    x = np.asarray(xs, dtype=float)
    g1 = np.exp((x - lo) / c)
    g = c * (g1 - 1.0)
    return g, g1


def kinked_square_envelope_mean(values):
    """Convex-envelope QA mean of f = x^2, plus (x - 1)^2 past 1, on [0.1, 3].

    f is C^1 but not C^2: its profile f'/f'' is x on [0.1, 1] and x - 1/2
    past 1.  The least concave majorant of that profile is the hull
    (0.1, 0.1)-(1, 1)-(3, 2.5), i.e. m = x, then 1/4 + 3x/4.  Solving
    g'/g'' = m with g(0.1) = 0, g'(0.1) = 1:
        g'(x) = 10x,                      g(x) = 5(x^2 - 1/100)     on [0.1, 1]
        g'(x) = 10(1/4 + 3x/4)^(4/3),    g(x) = 99/20 + (40/7)((1/4 + 3x/4)^(7/3) - 1)
    past 1, and the mean is g^{-1} of the average of g over the values.
    """
    x = np.asarray(values, dtype=float)
    g = np.where(x <= 1.0, 5.0 * (x * x - 0.01),
                 4.95 + 40.0 / 7.0 * ((0.25 + 0.75 * x) ** (7.0 / 3.0) - 1.0))
    y = float(np.mean(g))
    if y <= 4.95:
        return (y / 5.0 + 0.01) ** 0.5
    return ((1.0 + (y - 4.95) * 7.0 / 40.0) ** (3.0 / 7.0) - 0.25) / 0.75


def running_trapezoid(y, x):
    """Trapezoid integral of y from x[0] to each x[i], one interval at a time.

    A plain loop over Python floats, adding each panel to the running total
    in grid order.
    """
    out, acc = [0.0], 0.0
    for i in range(1, len(x)):
        acc += (x[i] - x[i - 1]) * (y[i] + y[i - 1]) / 2.0
        out.append(acc)
    return np.array(out)


def brute_qa_mean(fvals_fn, inv_fn, values):
    """Quasiarithmetic mean from user-supplied f and f^{-1} callables."""
    arr = np.asarray(values, dtype=float)
    return inv_fn(float(np.mean(fvals_fn(arr))))


def domain_checked(domain, X):
    """X as a float array, or DomainError naming its first entry, NaN
    included, outside the working interval, found by one masked test."""
    arr = np.asarray(X, dtype=float)
    inside = (arr >= domain.lo) & (arr <= domain.hi)
    if not np.all(inside):
        raise DomainError(
            f"value {float(arr[~inside][0])!r} outside working interval "
            f"[{domain.lo}, {domain.hi}]"
        )
    return arr


def reference_qa_mean_batch(gen, X):
    """Row-wise QA mean of a (B, n) array as the means layer first wrote it:
    a masked interval test, f, ndarray.mean, f^{-1}, and a clamp to the rows'
    min and max, reduced again for it."""
    X = domain_checked(gen.domain, X)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        avg = np.asarray(gen.f(X), dtype=float).mean(axis=1)
        out = np.asarray(gen.finv(avg), dtype=float)
    if not (np.isfinite(avg).all() and np.isfinite(out).all()):
        raise RangeError(
            f"{gen.spec_string()}: generator values or the inverse of their average "
            f"are not finite on [{gen.domain.lo}, {gen.domain.hi}]"
        )
    return np.minimum(np.maximum(out, X.min(axis=1)), X.max(axis=1))


def reference_arithmetic_batch(domain, X):
    """Row-wise arithmetic mean: a masked interval test, then ndarray.mean."""
    return domain_checked(domain, X).mean(axis=1)


def reference_power_batch(p, domain, X):
    """Row-wise p-th power mean, p != 0, after a masked interval test on a
    positive interval: from t = p log x shifted by its row maximum, or the
    geometric mean where |p| (max log x - min log x)^2 / 8 < 2^-54, and a
    clamp to the rows' min and max."""
    X = domain_checked(domain, X)
    logs = np.log(X)
    t = p * logs
    top = t.max(axis=1)
    out = np.exp((top + np.log1p(np.mean(np.expm1(t - top[:, None]), axis=1))) / p)
    spread = logs.max(axis=1) - logs.min(axis=1)
    out = np.where(abs(p) * spread * spread / 8.0 < 2.0**-54, np.exp(logs.mean(axis=1)), out)
    return np.minimum(np.maximum(out, X.min(axis=1)), X.max(axis=1))


def decimal_power_mean(p, values):
    """The p-th power mean (sum x**p / n)**(1/p), p != 0, of the floats'
    exact decimal values in 60-digit arithmetic, whose exponent range holds
    every power of a double the tests take."""
    with localcontext() as ctx:
        ctx.prec = 60
        q = Decimal(p)
        mean = sum(Decimal(v) ** q for v in values) / len(values)
        return float(mean ** (1 / q))


def bisection_qa_mean(f, X, iters=100):
    """Row-wise QA mean of a (B, n) array by bisection on the monotone f.

    Uses only f itself, never a generator's inverse: each row's root of
    f(x) = mean(f(row)) is bracketed by the row's min and max and halved
    `iters` times, which lands below one ulp for any float bracket.
    """
    X = np.asarray(X, dtype=float)
    a = X.min(axis=1)
    b = X.max(axis=1)
    target = np.mean(f(X), axis=1)
    increasing = f(b) > f(a)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        go_right = (f(mid) < target) == increasing
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
    return 0.5 * (a + b)


def indented_json(obj):
    """The report text the package's JSON writer must reproduce byte for byte."""
    return json.dumps(obj, indent=2)


def per_cell_float_text(table, row_sep, spell):
    """Floats written one spell(float(v)) per cell, cells of a row joined by
    ',' and rows by row_sep; a 1-D table is one cell per row."""
    rows = [[v] for v in table] if np.ndim(table) == 1 else table
    return row_sep.join(",".join(spell(float(v)) for v in row) for row in rows)


def rowwise_envelope_csv(result, config):
    """Envelope CSV written row by row, one repr(float(v)) per cell."""
    xs = result.interval.grid()
    cols = [("x", list(xs))]
    if result.rho is not None:
        cols.append(("rho", list(result.rho.values)))
    if result.m is not None:
        cols.append(("m", list(result.m(xs))))
    cols.append(("g", list(result.g)))
    cols.append(("g1", list(result.g1)))
    out = ["# " + json.dumps({"config": config, "status": result.status,
                              "direction": result.direction}) + "\n"]
    out.append(",".join(name for name, _ in cols) + "\n")
    for k in range(len(xs)):
        out.append(",".join(repr(float(vals[k])) for _, vals in cols) + "\n")
    return "".join(out)


def numpy_scalar_monotone_chain(xs, ys, upper):
    """Monotone-chain hull scanned over numpy scalars, as zip over arrays gives."""
    stack = []
    for x, y in zip(xs, ys):
        while len(stack) >= 2:
            x0, y0 = stack[-2]
            x1, y1 = stack[-1]
            cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
            if (cross >= 0.0) if upper else (cross <= 0.0):
                stack.pop()
            else:
                break
        stack.append((float(x), float(y)))
    return tuple(stack)


def float_cell_table(path):
    """Header and data of a table CSV, by csv.reader and float() per cell.

    Skips blank rows, rows of empty cells and rows whose first cell starts
    with '#'; the first kept row is the header when a cell is not a number.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh)
                if row and any(c.strip() for c in row)
                and not row[0].lstrip().startswith("#")]
    header = None
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    return header, np.array([[float(c) for c in row] for row in rows])


def sequential_shrink(sides, arr0, sides0, floor):
    """The witness shrink as a plain coordinate-by-coordinate scan.

    Coordinate-wise bisection toward the grand mean; a move is kept only if
    the violation lhs - rhs of sides(point) stays at or above the floor, so
    the shrunk witness still re-verifies with a definite margin.  A pass that
    has kept no move stops past the previous pass's last kept one, whose
    later trials it would repeat.  sides takes one point and returns its
    (lhs, rhs).  Returns the shrunk point and its sides: those of the last
    kept move, or sides0, arr0's own, if none was kept.
    """
    arr = arr0.astype(float).copy()
    target = float(arr.mean())
    kept, last = sides0, arr.size
    for _ in range(40):
        moved = False
        for i in range(arr.size):
            if i > last and not moved:
                break
            trial = arr.copy()
            trial[i] = 0.5 * (trial[i] + target)
            if abs(trial[i] - arr[i]) <= 1e-15 * (1.0 + abs(arr[i])):
                continue
            trial_sides = sides(trial)
            if trial_sides[0] - trial_sides[1] >= floor:
                arr, kept, last = trial, trial_sides, i
                moved = True
        if not moved:
            break
    return arr, kept


def _interchange_sides(M, N, X):
    """lhs = N(M of each row) and rhs = M(N of each column) of a
    (trials, n, m) batch of matrices, by four mean calls."""
    trials, n, m = X.shape
    lhs = N.batch(M.batch(X.reshape(-1, m)).reshape(trials, n))
    rhs = M.batch(N.batch(np.swapaxes(X, 1, 2).reshape(-1, n)).reshape(trials, m))
    return lhs, rhs


def per_shape_interchange(M, N, draws, per, tol):
    """The sampled interchange inequality, one (seed, m, n) draw after the
    other: per matrices drawn from the draw's own seed, trial k of draw i
    counting as trial i * per + k.  Returns the worst margin rhs - lhs, the
    failures (margin below -tol) and the witness of the lowest failing
    trial, shrunk by sequential_shrink one matrix at a time, or None."""
    worst, failures, first = np.inf, 0, None
    for i, (seed, m, n) in enumerate(draws):
        X = np.random.default_rng(seed).uniform(M.domain.lo, M.domain.hi, size=(per, n, m))
        lhs, rhs = _interchange_sides(M, N, X)
        margin = rhs - lhs
        worst = min(worst, float(margin.min()))
        bad = np.flatnonzero(margin < -tol)
        failures += len(bad)
        if first is None and len(bad):
            k = int(bad[0])
            first = (k, X[k], float(margin[k]), lhs[k], rhs[k])
    if first is None:
        return worst, failures, None
    k, x0, margin, lhs, rhs = first

    def sides(point):
        return tuple(side[0] for side in _interchange_sides(M, N, point.reshape(1, *x0.shape)))
    shrunk, (lhs, rhs) = sequential_shrink(sides, x0.ravel(), (lhs, rhs),
                                           max(2.0 * tol, -0.5 * margin))
    return worst, failures, {"matrix": shrunk.reshape(x0.shape).tolist(), "lhs": float(lhs),
                             "rhs": float(rhs), "violation": float(lhs - rhs), "trial": k}
