"""Convex and concave envelopes of quasiarithmetic means.

The construction runs entirely through the profile rho = f'/f'': the
convex QA envelope of QA_f is QA_g where g'/g'' is the least concave
majorant (upper hull) of rho, and the concave envelope dually uses the
greatest convex minorant (lower hull).  Hulls of the sampled profile are
computed by a monotone-chain scan; the generator g is recovered from its
profile m by two cumulative quadratures, since g'/g'' = m is equivalent
to (ln g')' = 1/m:

    g'(x) = exp( integral_lo^x dt / m(t) ),    g(x) = integral_lo^x g'(t) dt,

anchored at g(lo) = 0, g'(lo) = 1 (any anchor gives the same mean).  The
result's generator carries g, g' and m itself as its profile, so its rho
is the hull to the bit.

An envelope in a given direction exists only when the mean sits on the
right side of the arithmetic mean; for increasing f, QA_f >= A exactly when
f is convex (Jensen), so the sign of rho decides, and a refusal returns a
re-verified violating grid pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .convexity import MEAN_CMP_TOL, _profile_pos_concave
from .errors import (
    DegenerateSecondDerivative,
    NonpositiveM,
    RangeError,
    SignChange,
    UsageError,
)
from .generators import Generator, TabulatedGenerator, normalize, rho, tabulate
from .grids import ScalarGrid, WorkingInterval
from .means import ArithmeticMean, MeanHandle, QuasiArithmeticMean, _qa_mean_batch


@dataclass(frozen=True)
class PiecewiseLinearHull:
    """Upper (concave) or lower (convex) hull of sampled points.

    Vertices are strictly increasing in x, span the whole interval, and
    interior collinear vertices are dropped, so the vertex list is the
    canonical minimal one.  The vertex coordinates are also kept as two
    read-only arrays, built once, which every evaluation interpolates.
    """

    vertices: tuple
    orientation: str  # "upper" or "lower"

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise UsageError("hull needs at least two vertices")
        vx = np.array([v[0] for v in self.vertices])
        if not np.all(np.diff(vx) > 0):
            raise UsageError("hull vertices must be strictly increasing in x")
        if self.orientation not in ("upper", "lower"):
            raise UsageError("orientation must be 'upper' or 'lower'")
        vy = np.array([v[1] for v in self.vertices])
        vx.flags.writeable = vy.flags.writeable = False
        object.__setattr__(self, "_vx", vx)
        object.__setattr__(self, "_vy", vy)

    def __call__(self, x):
        return np.interp(x, self._vx, self._vy)

    def to_list(self) -> list:
        return [[float(x), float(y)] for x, y in self.vertices]


def _monotone_chain(xs: np.ndarray, ys: np.ndarray, upper: bool) -> tuple:
    """Hull of x-sorted points by a single stacked scan.

    The cross product of the last two stack points with the incoming point
    decides the turn; popping on >= 0 (upper) or <= 0 (lower) also removes
    collinear interior vertices.  The scan runs on plain floats: numpy-scalar
    arithmetic per element is slower and gives the same IEEE results.
    """
    stack: list = []
    for x, y in zip(xs.tolist(), ys.tolist()):
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
    return PiecewiseLinearHull(_monotone_chain(xs, samples.values, upper=True), "upper")


def convex_envelope_1d(samples: ScalarGrid) -> PiecewiseLinearHull:
    """Greatest convex piecewise-linear minorant of the samples (lower hull)."""
    xs = samples.interval.grid()
    return PiecewiseLinearHull(_monotone_chain(xs, samples.values, upper=False), "lower")


def _reconstruct_from_values(mvals: np.ndarray, interval: WorkingInterval):
    """Quadrature solve of g'/g'' = m for sign-constant m on the grid."""
    if np.any(mvals == 0.0) or (np.any(mvals > 0.0) and np.any(mvals < 0.0)):
        raise NonpositiveM("profile m must have one nonzero sign on the grid")
    xs = interval.grid()
    u = cumulative_trapezoid(1.0 / mvals, xs, initial=0.0)
    g1 = np.exp(u)
    g = cumulative_trapezoid(g1, xs, initial=0.0)
    return ScalarGrid(interval, g), ScalarGrid(interval, g1)


def reconstruct_generator(m: PiecewiseLinearHull, interval: WorkingInterval):
    """Solve g'/g'' = m by the integrating-factor quadratures.

    Requires m > 0 on the interval (the profile of an increasing convex
    generator); returns the grids (g, g1) anchored at g(lo) = 0,
    g'(lo) = 1.
    """
    mvals = np.asarray(m(interval.grid()), dtype=float)
    if np.any(mvals <= 0.0):
        k = int(np.argmin(mvals))
        raise NonpositiveM(
            f"m is not positive on the interval (m = {mvals[k]!r} "
            f"at x = {interval.grid()[k]!r})"
        )
    return _reconstruct_from_values(mvals, interval)


@dataclass
class EnvelopeResult:
    """Outcome of a QA envelope computation.

    status is one of Envelope, AlreadyExtremal, ArithmeticEnvelope,
    NoneExists.  Grids are present for the first three; NoneExists carries
    the violating grid pair in diagnostics["witness"].
    """

    status: str
    direction: str  # "convex" or "concave"
    interval: WorkingInterval
    rho: ScalarGrid | None = None
    m: PiecewiseLinearHull | None = None
    g: ScalarGrid | None = None
    g1: ScalarGrid | None = None
    generator: Generator | None = None
    diagnostics: dict = field(default_factory=dict)

    def mean_handle(self) -> MeanHandle:
        """The envelope mean itself, as an evaluable handle."""
        if self.status == "ArithmeticEnvelope":
            return ArithmeticMean(self.interval)
        if self.status in ("Envelope", "AlreadyExtremal"):
            return QuasiArithmeticMean(self.generator)
        raise UsageError(f"no envelope mean for status {self.status}")

    def to_dict(self, include_grids: bool = True) -> dict:
        out = {
            "status": self.status,
            "direction": self.direction,
            "interval": {
                "lo": self.interval.lo,
                "hi": self.interval.hi,
                "grid_points": self.interval.grid_points,
            },
            "diagnostics": self.diagnostics,
        }
        if self.m is not None:
            out["hull_vertices"] = self.m.to_list()
        if include_grids and self.g is not None:
            out["grid"] = self.interval.grid().tolist()
            out["g"] = self.g.values.tolist()
            out["g1"] = self.g1.values.tolist()
        return out


def _pair_witness(gen: Generator, direction: str) -> dict | None:
    """A grid pair (a, b) with QA_f(a, b) on the wrong side of (a + b)/2, or None.

    Second differences of f, negated for the concave direction, are negative
    where f bends the wrong way; the pair bounds the maximal run of them around
    the most negative.  Direct evaluation must confirm it beyond MEAN_CMP_TOL * span.
    """
    xs = gen.domain.grid()
    fx = np.asarray(gen.f(xs), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise RangeError(f"{gen.spec_string()}: generator values overflow on the grid")
    d2 = fx[:-2] - 2.0 * fx[1:-1] + fx[2:]
    if direction == "concave":
        d2 = -d2
    k = int(np.argmin(d2))
    if not d2[k] < 0.0:
        return None
    # d2[j] sits at grid point j + 1; the pair flanks the run around k
    ok = np.flatnonzero(d2 >= 0.0)
    j = int(np.searchsorted(ok, k))
    a = int(ok[j - 1]) + 1 if j > 0 else 0
    b = int(ok[j]) + 1 if j < len(ok) else len(xs) - 1
    pair = xs[[a, b]]
    qa = float(_qa_mean_batch(gen, pair[None, :])[0])
    am = float(pair.mean())
    margin = am - qa if direction == "convex" else qa - am
    tol = MEAN_CMP_TOL * gen.domain.span
    if not margin > tol:
        return None
    return {"values": pair.tolist(), "qa_mean": qa, "arith_mean": am,
            "margin": margin, "tol": tol}


def _qa_envelope(gen: Generator, direction: str) -> EnvelopeResult:
    ngen = normalize(gen)
    interval = ngen.domain
    xs = interval.grid()

    # Existence and extremality are read from rho for the convex direction
    # and from -rho for the concave one (rho negative and convex is the
    # concave counterpart of rho positive and concave): a wrong sign rules
    # the envelope out.
    try:
        profile = rho(ngen)
        oriented = profile.values if direction == "convex" else -profile.values
        if not np.min(oriented) > 0.0:
            raise SignChange(f"{ngen.spec_string()}: the sign of f'' rules out "
                             f"a {direction} envelope")
    except DegenerateSecondDerivative as exc:
        return EnvelopeResult(
            "ArithmeticEnvelope", direction, interval,
            g=ScalarGrid(interval, xs),
            g1=ScalarGrid(interval, np.ones_like(xs)),
            diagnostics={"detail": str(exc)},
        )
    except SignChange as exc:
        witness = _pair_witness(ngen, direction)
        if witness is None:
            raise SignChange(f"{exc}; no grid pair confirms it beyond the "
                             f"comparison tolerance", exc.witness) from exc
        return EnvelopeResult("NoneExists", direction, interval,
                              diagnostics={"witness": witness})

    already = _profile_pos_concave(oriented, interval)
    diag = {"profile_test": {k: v for k, v in already.items() if k != "ok"}}

    if already["ok"]:
        hull = (concave_envelope_1d(profile) if direction == "convex"
                else convex_envelope_1d(profile))
        gtab = tabulate(ngen)
        # The mean is its own envelope: keep the exact generator for the
        # mean handle and publish its sampled grids for serialization.
        return EnvelopeResult(
            "AlreadyExtremal", direction, interval,
            rho=profile, m=hull,
            g=ScalarGrid(interval, gtab.values),
            g1=ScalarGrid(interval, gtab.f1_values),
            generator=ngen, diagnostics=diag,
        )

    if direction == "convex":
        hull = concave_envelope_1d(profile)
        g, g1 = reconstruct_generator(hull, interval)
    else:
        hull = convex_envelope_1d(profile)
        g, g1 = _reconstruct_from_values(np.asarray(hull(xs), dtype=float), interval)

    # The hull is the result's profile: rho of the generator is m to the bit.
    gen_out = TabulatedGenerator(
        interval, g.values, g1.values, np.asarray(hull(xs), dtype=float),
        source=f"envelope({ngen.spec_string()})",
    )
    return EnvelopeResult(
        "Envelope", direction, interval,
        rho=profile, m=hull, g=g, g1=g1,
        generator=gen_out, diagnostics=diag,
    )


def qa_convex_envelope(gen: Generator) -> EnvelopeResult:
    """Largest convex QA mean below QA_f on the working interval.

    Pipeline: normalize; degenerate f'' gives the arithmetic mean; an f''
    that is not strictly positive on the grid means no convex QA minorant
    exists, and the result names a violating grid pair; a positive concave
    profile means QA_f is its own envelope; otherwise the upper hull of the
    profile is taken and the envelope generator is reconstructed from it.
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
    values are directly comparable with the direct route's.
    """
    from .generators import reflect_generator

    rgen = reflect_generator(gen)
    renv = _qa_envelope(rgen, "convex")
    interval = gen.domain
    xs = interval.grid()
    diag = dict(renv.diagnostics)
    diag["route"] = "reflected"

    if renv.status == "NoneExists":
        # The mirror pair (a, b) on -I is the pair (-b, -a) on I, and both
        # means change sign; the margin and tolerance carry over.
        w = dict(diag["witness"])
        a, b = w["values"]
        w.update(values=[-b, -a], qa_mean=-w["qa_mean"], arith_mean=-w["arith_mean"])
        diag["witness"] = w
        return EnvelopeResult(renv.status, "concave", interval, diagnostics=diag)
    if renv.status == "ArithmeticEnvelope":
        return EnvelopeResult(
            "ArithmeticEnvelope", "concave", interval,
            g=ScalarGrid(interval, xs),
            g1=ScalarGrid(interval, np.ones_like(xs)),
            diagnostics=diag,
        )

    # Mirror the hull: if m-hat is the profile envelope on -I, the original
    # envelope generator satisfies g'/g'' = -m-hat(-x).
    verts = tuple((-x, -y) for x, y in reversed(renv.m.vertices))
    hull = PiecewiseLinearHull(verts, "lower")
    gen_out = normalize(reflect_generator(renv.generator))
    gvals = np.asarray(gen_out.f(xs), dtype=float)
    g1vals = np.asarray(gen_out.f1(xs), dtype=float)
    return EnvelopeResult(
        renv.status, "concave", interval,
        rho=ScalarGrid(interval, -renv.rho.values[::-1]), m=hull,
        g=ScalarGrid(interval, gvals),
        g1=ScalarGrid(interval, g1vals),
        generator=gen_out, diagnostics=diag,
    )
