"""Convex and concave envelopes of quasiarithmetic means.

The construction runs entirely through the profile rho = f'/f'': the
convex QA envelope of QA_f is QA_g where g'/g'' is the least concave
majorant (upper hull) of rho, and the concave envelope dually uses the
greatest convex minorant (lower hull).  An affine profile (every
closed-form kind, see Generator.rho_ends) is its own hull, the chord
through its two end values; any other sampled profile's hull is computed by
Andrew's monotone-chain scan on floats.  The generator g is recovered from
its profile m on the grid by two running trapezoid sums, since
g'/g'' = m is equivalent to (ln g')' = 1/m:

    g'(x) = exp( integral_lo^x dt / m(t) ),    g(x) = integral_lo^x g'(t) dt,

anchored at g(lo) = 0, g'(lo) = 1 (any anchor gives the same mean).  The
result's generator carries g, g' and m itself as its profile, so its rho
is the hull to the bit; every result samples its published g and g' from
its one generator, negated if they fall (see EnvelopeResult).

An envelope in a given direction exists only when the mean sits on the
right side of the arithmetic mean; for increasing f, QA_f >= A exactly when
f is convex (Jensen), so the sign of rho decides, and a refusal returns a
re-verified violating grid pair: the grid's two ends, else the pair
flanking the wrong-signed run of f's second differences around the worst
one, for every kind.  Sign, degeneracy and extremality are read from one
record of :func:`qameans.convexity._profile_tests`, as classify's are, so a
closed form's refusal that its ends confirm builds no grid; a result that
publishes the profile (its rho column) samples it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .convexity import MEAN_CMP_TOL, _profile_tests
from .errors import NonpositiveM, RangeError, SignChange, UsageError
from .generators import (
    Generator,
    TabulatedGenerator,
    reflect_generator,
    rho,
    sampled_columns,
)
from .grids import ScalarGrid, WorkingInterval
from .means import ArithmeticMean, MeanHandle, QuasiArithmeticMean


@dataclass(frozen=True)
class PiecewiseLinearHull:
    """Upper (concave) or lower (convex) hull of sampled points.

    Vertices are strictly increasing in x and span the whole interval.  A
    scanned list drops an interior vertex whose rounded turn test reads
    collinear, so it is minimal only up to the rounding of that test (a
    table of an affine profile can keep a dozen vertices at grid 65537; see
    ROADMAP item 2).  The vertex coordinates are also kept as two read-only
    arrays, built once, which every evaluation interpolates.
    """

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise UsageError("hull needs at least two vertices")
        vx = np.array([v[0] for v in self.vertices])
        if not np.all(np.diff(vx) > 0):
            raise UsageError("hull vertices must be strictly increasing in x")
        vy = np.array([v[1] for v in self.vertices])
        vx.flags.writeable = vy.flags.writeable = False
        object.__setattr__(self, "_vx", vx)
        object.__setattr__(self, "_vy", vy)

    def __call__(self, x):
        return np.interp(x, self._vx, self._vy)

    def to_list(self) -> list:
        return [[float(x), float(y)] for x, y in self.vertices]


def _monotone_chain(xs: np.ndarray, ys: np.ndarray, upper: bool) -> tuple:
    """Hull of x-sorted float points by Andrew's monotone-chain scan.

    Returns the stack of (x, y) float pairs the scan leaves.  The cross
    product of the last two stack points with the incoming point decides the
    turn; popping on >= 0 (upper) or <= 0 (lower) also removes collinear
    interior vertices.  The scan runs on Python floats: numpy-scalar
    arithmetic per element is slower and gives the same IEEE results.
    """
    stack: list = []
    for x, y in zip(np.asarray(xs, dtype=float).tolist(),
                    np.asarray(ys, dtype=float).tolist()):
        while len(stack) >= 2:
            x0, y0 = stack[-2]
            x1, y1 = stack[-1]
            cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
            if (cross >= 0.0) if upper else (cross <= 0.0):
                stack.pop()
            else:
                break
        stack.append((x, y))
    return tuple(stack)


def concave_envelope_1d(samples: ScalarGrid) -> PiecewiseLinearHull:
    """Least concave piecewise-linear majorant of the samples (upper hull)."""
    xs = samples.interval.grid()
    return PiecewiseLinearHull(_monotone_chain(xs, samples.values, upper=True))


def convex_envelope_1d(samples: ScalarGrid) -> PiecewiseLinearHull:
    """Greatest convex piecewise-linear minorant of the samples (lower hull)."""
    xs = samples.interval.grid()
    return PiecewiseLinearHull(_monotone_chain(xs, samples.values, upper=False))


def _cumulative_trapezoid(y: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Trapezoid integral of y from xs[0] to each grid point, summed left to right."""
    return np.concatenate(([0.0], np.cumsum(np.diff(xs) * (y[1:] + y[:-1]) / 2.0)))


def reconstruct_generator(mvals, interval: WorkingInterval,
                          source: str = "<grid>") -> TabulatedGenerator:
    """Solve g'/g'' = m by the integrating-factor quadratures.

    mvals is the profile m on the interval's grid.  It must be nonzero with
    one sign: positive for an increasing convex generator, negative for an
    increasing concave one.  Returns the tabulated generator g anchored at
    g(lo) = 0, g'(lo) = 1, named by source, which carries m itself as its
    profile, so its rho is m to the bit.  An m that is not one value per
    grid point is a UsageError; a g or g' that overflows, a RangeError.
    """
    mvals = np.asarray(mvals, dtype=float)
    if mvals.shape != (interval.grid_points,):
        raise UsageError("profile m must match the grid")
    if not (np.all(mvals > 0.0) or np.all(mvals < 0.0)):
        raise NonpositiveM("profile m must have one nonzero sign on the grid")
    xs = interval.grid()
    with np.errstate(over="ignore"):  # TabulatedGenerator refuses an infinite g
        g1 = np.exp(_cumulative_trapezoid(1.0 / mvals, xs))
        g = _cumulative_trapezoid(g1, xs)
    return TabulatedGenerator(interval, g, g1, mvals, source=source)


@dataclass(eq=False)
class EnvelopeResult:
    """Outcome of a QA envelope computation.

    status is one of Envelope, AlreadyExtremal, ArithmeticEnvelope,
    NoneExists; NoneExists carries the violating grid pair in
    diagnostics["witness"].  g and g' on the grid are set from the rest,
    read-only: the generator's f and f' on the grid, checked as tabulate
    checks them (generators.sampled_columns), negated if they fall (-g
    generates the same mean); x and 1 for the arithmetic envelope, which
    has no generator; None for NoneExists.  Both are new arrays: sharing the
    generator's raised perfbench analyze's peak_rss_mb from 61.8 to 66.8 MB.
    """

    status: str
    direction: str  # "convex" or "concave"
    interval: WorkingInterval
    rho: ScalarGrid | None = None
    m: PiecewiseLinearHull | None = None
    g: np.ndarray | None = field(init=False)
    g1: np.ndarray | None = field(init=False)
    generator: Generator | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        g = g1 = None
        if self.generator is not None:
            g, g1 = sampled_columns(self.generator)
            g, g1 = (g.copy(), g1.copy()) if g[-1] > g[0] else (0.0 - g, -g1)
        elif self.status != "NoneExists":
            g, g1 = self.interval.grid(), np.ones(self.interval.grid_points)
        if g is not None:
            g.flags.writeable = g1.flags.writeable = False
        self.g, self.g1 = g, g1

    def mean_handle(self) -> MeanHandle:
        """The envelope mean itself, as an evaluable handle."""
        if self.status == "ArithmeticEnvelope":
            return ArithmeticMean(self.interval)
        if self.status in ("Envelope", "AlreadyExtremal"):
            return QuasiArithmeticMean(self.generator)
        raise UsageError(f"no envelope mean for status {self.status}")

    def to_dict(self) -> dict:
        """The report fields; g and g1 stay arrays, which cli._json_text writes as
        lists (json.dumps refuses an ndarray; pass it g.tolist())."""
        out = {
            "status": self.status,
            "direction": self.direction,
            "interval": asdict(self.interval),
            "diagnostics": self.diagnostics,
        }
        if self.m is not None:
            out["hull_vertices"] = self.m.to_list()
        if self.g is not None:
            out["g"] = self.g
            out["g1"] = self.g1
        return out


def _pair_witness(gen: Generator, direction: str) -> dict | None:
    """The first of _candidate_pairs whose QA_f(a, b) is on the wrong side of
    (a + b)/2 beyond MEAN_CMP_TOL * span, or None.  A pair whose mean is a
    RangeError is passed over, and the error raised if no later pair confirms."""
    tol, mean = MEAN_CMP_TOL * gen.domain.span, QuasiArithmeticMean(gen)
    error = None
    for pair in _candidate_pairs(gen, direction):
        try:
            qa = float(mean.batch(pair[None, :])[0])
        except RangeError as exc:  # f(a) + f(b) may overflow where f does not
            error = exc
            continue
        am = float(pair.mean())
        margin = am - qa if direction == "convex" else qa - am
        if margin > tol:
            return {"values": pair.tolist(), "qa_mean": qa, "arith_mean": am,
                    "margin": margin, "tol": tol}
    if error is not None:
        raise error
    return None


def _candidate_pairs(gen: Generator, direction: str):
    """Grid pairs (a, b) as arrays.  First the grid's ends, with no grid: a
    closed form's profile has one sign, so they are its witness.  Then, if f
    is finite at both ends (else their RangeError stands), the outer ends of
    the maximal run of negative second differences around the most negative:
    those of the increasing one of f and -f, negated for the concave
    direction, are negative where it bends the wrong way or 2 f overflows."""
    yield np.array(gen.domain.ends)
    xs = gen.domain.grid()
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(gen.f(xs), dtype=float)
        d2 = fx[:-2] - 2.0 * fx[1:-1] + fx[2:]
    if (direction == "concave") == (fx[-1] > fx[0]):
        d2 = -d2
    k = int(np.argmin(d2))
    if np.isfinite(fx[[0, -1]]).all() and d2[k] < 0.0:
        # d2[j] sits at grid point j + 1; the pair flanks the run around k
        ok = np.flatnonzero(d2 >= 0.0)
        j = int(np.searchsorted(ok, k))
        a = int(ok[j - 1]) + 1 if j > 0 else 0
        b = int(ok[j]) + 1 if j < len(ok) else len(xs) - 1
        if (a, b) != (0, len(xs) - 1):
            yield xs[[a, b]]


def _envelope_fields(gen: Generator, direction: str) -> dict:
    """The fields of gen's envelope in direction that EnvelopeResult takes
    besides direction and interval: status, rho, m, generator, diagnostics.

    Existence and extremality are read from the one profile test in this
    direction (rho for convex, -rho for concave): a wrong sign rules the
    envelope out, and a passing test makes the mean its own envelope.  A
    SignChange carries the test's witness, for a closed form an end of the
    interval.
    """
    profile, detail, (test,) = _profile_tests(gen, direction)
    interval = gen.domain
    reason = test.get("reason")
    if reason == "f2-identically-zero":
        return {"status": "ArithmeticEnvelope", "diagnostics": {"detail": detail}}
    if reason in ("sign-change", "nonpositive-rho"):
        witness = _pair_witness(gen, direction)
        if witness is None:
            cause = detail or (f"{gen.spec_string()}: the sign of f'' rules out "
                               f"a {direction} envelope")
            raise SignChange(f"{cause}; no grid pair confirms it beyond the "
                             f"comparison tolerance", test["witness"])
        return {"status": "NoneExists", "diagnostics": {"witness": witness}}

    if profile is None:  # decided from the end values, which its sample repeats
        # to the bit: the result publishes the sample, and its hull is the chord.
        profile = ScalarGrid(interval, rho(gen))
        hull = PiecewiseLinearHull(tuple(zip(interval.ends, profile.values[[0, -1]].tolist())))
    else:
        hull = (concave_envelope_1d(profile) if direction == "convex"
                else convex_envelope_1d(profile))

    if reason is None:
        # The mean is its own envelope: keep the exact generator for the mean handle.
        return {"status": "AlreadyExtremal", "rho": profile, "m": hull,
                "generator": gen, "diagnostics": {"profile_test": test}}

    # The hull is the result's profile: rho of the generator is m to the bit.
    gen_out = reconstruct_generator(hull(interval.grid()), interval,
                                    source=f"envelope({gen.spec_string()})")
    return {"status": "Envelope", "rho": profile, "m": hull, "generator": gen_out,
            "diagnostics": {"profile_test": test}}


def _qa_envelope(gen: Generator, direction: str) -> EnvelopeResult:
    return EnvelopeResult(direction=direction, interval=gen.domain,
                          **_envelope_fields(gen, direction))


def qa_convex_envelope(gen: Generator) -> EnvelopeResult:
    """Largest convex QA mean below QA_f on the working interval.

    Pipeline: rho of the generator as given; degenerate f'' gives the
    arithmetic mean; a rho that is not strictly positive on the grid means
    no convex QA minorant exists, and the result names a violating grid
    pair; a positive concave rho means QA_f is its own envelope; otherwise
    the upper hull of rho is taken and the envelope generator is
    reconstructed from it.
    """
    return _qa_envelope(gen, "convex")


def qa_concave_envelope(gen: Generator) -> EnvelopeResult:
    """Smallest concave QA mean above QA_f (direct route: lower hull of rho)."""
    return _qa_envelope(gen, "concave")


def qa_concave_envelope_via_reflection(gen: Generator) -> EnvelopeResult:
    """Concave envelope by the mirror route: reflect, convex-envelope, reflect.

    Cross-check for the direct route.  The returned result is expressed on
    the original interval: the hull transforms by (x, y) -> (-x, -y) and
    the envelope generator is the reflected mirror generator, so mean
    values are directly comparable with the direct route's.  The mirror
    envelope is kept as its fields, so only the returned result samples g.
    """
    renv = _envelope_fields(reflect_generator(gen), "convex")
    status, mirror = renv["status"], renv.get("generator")
    interval = gen.domain
    diag = {**renv["diagnostics"], "route": "reflected"}

    if status == "NoneExists":
        # The mirror pair (a, b) on -I is the pair (-b, -a) on I, and both
        # means change sign; the margin and tolerance carry over.
        w = dict(diag["witness"])
        a, b = w["values"]
        w.update(values=[-b, -a], qa_mean=-w["qa_mean"], arith_mean=-w["arith_mean"])
        diag["witness"] = w
    if mirror is None:  # NoneExists or ArithmeticEnvelope
        return EnvelopeResult(status, "concave", interval, diagnostics=diag)

    # Mirror the hull: if m-hat is the profile envelope on -I, the original
    # envelope generator satisfies g'/g'' = -m-hat(-x).
    verts = tuple((-x, -y) for x, y in reversed(renv["m"].vertices))
    hull = PiecewiseLinearHull(verts)
    return EnvelopeResult(
        status, "concave", interval,
        rho=ScalarGrid(interval, -renv["rho"].values[::-1]), m=hull,
        generator=reflect_generator(mirror), diagnostics=diag,
    )
