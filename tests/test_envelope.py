"""Hulls, generator reconstruction, and the QA envelope pipeline."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qameans import envelope
from qameans.cli import _json_text, run
from qameans.convexity import classify
from qameans.envelope import (
    PiecewiseLinearHull,
    _monotone_chain,
    concave_envelope_1d,
    convex_envelope_1d,
    qa_concave_envelope,
    qa_concave_envelope_via_reflection,
    qa_convex_envelope,
    reconstruct_generator,
)
from qameans.errors import NonpositiveM, RangeError, SignChange, UsageError
from qameans.generators import (
    ExpGenerator,
    LogGenerator,
    PowerGenerator,
    TabulatedGenerator,
    load_table,
    parse_generator,
    reflect_generator,
    rho,
    sampled_columns,
    tabulate,
)
from qameans.grids import ScalarGrid, WorkingInterval
from qameans.means import ArithmeticMean, QuasiArithmeticMean, qa_mean

from conftest import Negated, build_from_profile
from oracles import (
    chord_profile_generator,
    concave_chord_profile_generator,
    constant_profile_generator,
    fd_curvature_ratio,
    numpy_scalar_monotone_chain,
    running_trapezoid,
)

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------- hulls


def test_upper_hull_of_concave_samples_is_identity():
    ivs = WorkingInterval(1.0, 3.0, 33)
    samples = ScalarGrid(ivs, np.log(ivs.grid()))
    hull = concave_envelope_1d(samples)
    # strictly concave data: every grid point is a vertex, values unchanged
    assert len(hull.vertices) == 33
    assert np.array_equal(hull(ivs.grid()), samples.values)


def test_upper_hull_of_convex_samples_is_the_chord():
    ivs = WorkingInterval(1.0, 3.0, 257)
    xs = ivs.grid()
    hull = concave_envelope_1d(ScalarGrid(ivs, xs**2))
    assert hull.vertices == ((1.0, 1.0), (3.0, 9.0))


def test_hull_vertex_arrays_are_built_once():
    verts = ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0))
    a = PiecewiseLinearHull(verts)
    b = PiecewiseLinearHull(verts)
    x = np.array([0.0, 0.5, 1.5, 2.0])
    assert np.array_equal(a(x), [1.0, 2.0, 2.5, 2.0])
    assert a(x).tobytes() == np.interp(x, [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]).tobytes()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_upper_hull_of_tent_dip():
    ivs = WorkingInterval(0.0, 2.0, 3)
    hull = concave_envelope_1d(ScalarGrid(ivs, np.array([1.0, 0.0, 1.0])))
    # the dip is bridged by the constant chord
    assert hull.vertices == ((0.0, 1.0), (2.0, 1.0))


def test_lower_hull_mirrors_upper_hull():
    rng = np.random.default_rng(2)
    ivs = WorkingInterval(0.0, 1.0, 17)
    vals = rng.normal(size=17)
    lower = convex_envelope_1d(ScalarGrid(ivs, vals))
    upper = concave_envelope_1d(ScalarGrid(ivs, -vals))
    assert lower.vertices == tuple((x, -y) for x, y in upper.vertices)


def test_hull_dominates_and_has_monotone_slopes():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(3, 40))
        ivs = WorkingInterval(0.0, float(n - 1), n)
        vals = rng.uniform(-5.0, 5.0, size=n)
        hull = concave_envelope_1d(ScalarGrid(ivs, vals))
        xs = ivs.grid()
        hv = hull(xs)
        assert np.all(hv >= vals - 1e-12), f"trial {trial}: hull dips below data"
        vx = [v[0] for v in hull.vertices]
        vy = [v[1] for v in hull.vertices]
        slopes = np.diff(vy) / np.diff(vx)
        assert np.all(np.diff(slopes) <= 1e-12), f"trial {trial}: slopes increase"
        # vertices are sample points, endpoints included
        assert vx[0] == xs[0] and vx[-1] == xs[-1]
        for x, y in hull.vertices:
            k = int(round(x))
            assert xs[k] == x and vals[k] == y


def test_hull_is_extremal_at_every_interior_vertex():
    """Lowering any interior vertex breaks domination or concavity."""
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(4, 24))
        ivs = WorkingInterval(0.0, float(n - 1), n)
        vals = rng.uniform(-5.0, 5.0, size=n)
        hull = concave_envelope_1d(ScalarGrid(ivs, vals))
        if len(hull.vertices) < 3:
            continue
        xs = ivs.grid()
        eps = 1e-6 * (np.max(vals) - np.min(vals) + 1.0)
        for j in range(1, len(hull.vertices) - 1):
            vx = np.array([v[0] for v in hull.vertices])
            vy = np.array([v[1] for v in hull.vertices])
            vy[j] -= eps
            lowered = np.interp(xs, vx, vy)
            slopes = np.diff(vy) / np.diff(vx)
            broke_domination = np.any(lowered < vals - 1e-15)
            broke_concavity = np.any(np.diff(slopes) > 1e-15)
            assert broke_domination or broke_concavity
            checked += 1
    assert checked > 50


def test_hull_validation():
    with pytest.raises(UsageError):
        PiecewiseLinearHull(((0.0, 0.0),))
    with pytest.raises(UsageError):
        PiecewiseLinearHull(((1.0, 0.0), (0.0, 1.0)))
    hull = PiecewiseLinearHull(((0.0, 0.0), (2.0, 4.0)))
    assert hull(1.0) == 2.0
    assert hull.to_list() == [[0.0, 0.0], [2.0, 4.0]]


@st.composite
def scan_points(draw):
    """x-sorted points whose scan has long runs, runs cut short, or none."""
    n = draw(st.one_of(st.integers(3, 300), st.integers(3, 25000)))
    kind = draw(st.sampled_from(["x/2", "x/3", "x/-6", "convex", "concave",
                                 "kinked", "noisy", "nonfinite", "integer"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.linspace(0.1, 10.0, n)
    if kind == "x/2":  # exact: every cross is 0
        ys = xs / 2.0
    elif kind == "x/3":  # inexact: the crosses alternate in sign
        ys = xs / 3.0
    elif kind == "x/-6":
        ys = xs / -6.0
    elif kind == "convex":
        ys = (xs - rng.uniform(0.0, 11.0)) ** 2
    elif kind == "concave":
        ys = np.sqrt(xs)
    elif kind == "kinked":  # a run ends at the kink
        ys = xs / 3.0 + rng.choice([-1.0, 1.0]) * np.abs(xs - xs[rng.integers(n)])
    elif kind == "noisy":
        ys = xs / 3.0 + rng.normal(scale=rng.choice([1e-15, 1e-3, 1.0]), size=n)
    elif kind == "nonfinite":  # a NaN cross never pops
        ys = xs / 2.0
        ys[rng.integers(n, size=3)] = rng.choice([np.nan, np.inf, -np.inf], size=3)
    else:  # exact arithmetic: collinear points and ties
        xs = np.arange(n, dtype=float)
        ys = [3.0 * xs - 7.0, np.floor(xs * rng.integers(1, 4) / rng.integers(1, 8)),
              rng.integers(-2, 3, size=n).astype(float)][rng.integers(3)]
    return xs, ys


def _same_bits(a: tuple, b: tuple) -> bool:
    """Equal vertex tuples, a NaN equal to a NaN and -0.0 unequal to 0.0."""
    return np.array(a).tobytes() == np.array(b).tobytes()


@settings(max_examples=150)
@given(points=scan_points())
def test_scan_matches_numpy_scalar_scan(points):
    xs, ys = points
    for upper in (True, False):
        with np.errstate(over="ignore", invalid="ignore"):
            want = numpy_scalar_monotone_chain(xs, ys, upper)
        # the float scan overflows and makes NaNs silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _same_bits(_monotone_chain(xs, ys, upper), want)


CLOSED_FORMS = ["power:-5", "power:-2", "power:1.3", "power:3", "power:4", "power:20",
                "log", "exp"]


def _scanned_vertices(gen, route):
    """The float scan's hull of gen's sampled rho for the route; the mirror
    route scans the reflected generator's profile and maps its vertices back."""
    if route is not qa_concave_envelope_via_reflection:
        upper = route is qa_convex_envelope
        return [list(v) for v in numpy_scalar_monotone_chain(gen.domain.grid(), rho(gen),
                                                             upper)]
    mirror = reflect_generator(gen)
    hull = numpy_scalar_monotone_chain(mirror.domain.grid(), rho(mirror), True)
    return [[-x, -y] for x, y in reversed(hull)]


@pytest.mark.parametrize("grid_points", [257, 1025, 16385, 65537])
@pytest.mark.parametrize("spec", CLOSED_FORMS)
def test_closed_form_hull_is_the_chord_of_its_ends_and_a_table_is_scanned(spec, grid_points):
    """A closed form's affine profile is its own hull, the two end values,
    with concavity margin exactly 0, by every route; the tabulated same
    generator keeps the float scan of its rho column."""
    iv = WorkingInterval(0.1, 10.0, grid_points)
    gen = parse_generator(spec, iv)
    ends = [[0.1, float(gen.rho(0.1))], [10.0, float(gen.rho(10.0))]]
    table = tabulate(gen)
    found = 0
    for route in ROUTES:
        res = route(gen)
        if res.status == "NoneExists":
            continue
        found += 1
        assert res.status == "AlreadyExtremal"
        assert res.m.to_list() == ends
        assert res.diagnostics["profile_test"]["concavity_margin"] == 0.0
        tab = route(table)
        assert tab.status == "AlreadyExtremal"
        assert tab.m.to_list() == _scanned_vertices(table, route)
    # the convex route, or both concave routes
    assert found == (2 if classify(gen).value == "Concave" else 1)


# ------------------------------------------------------- reconstruction


def test_reconstruct_constant_profile(iv13):
    xs = iv13.grid()
    hull = PiecewiseLinearHull(((1.0, 2.0), (3.0, 2.0)))
    gen = reconstruct_generator(hull(xs), iv13)
    want_g, want_g1 = constant_profile_generator(xs, 1.0, 2.0)
    # the inner quadrature of a constant is exact, so g1 is tight
    assert np.max(np.abs(gen.f1_values - want_g1)) < 1e-12
    # the outer trapezoid carries the O(h^2) error
    assert np.max(np.abs(gen.values - want_g)) < 2e-5
    assert gen.values[0] == 0.0 and gen.f1_values[0] == 1.0


def test_reconstruct_chord_profile(iv13):
    xs = iv13.grid()
    hull = PiecewiseLinearHull(((1.0, 1.0), (3.0, 9.0)))
    gen = reconstruct_generator(hull(xs), iv13)
    want_g, want_g1 = chord_profile_generator(xs)
    assert np.max(np.abs(gen.f1_values - want_g1)) < 1e-5
    assert np.max(np.abs(gen.values - want_g)) < 1e-5


def test_reconstruct_negative_profile_internal(iv13):
    xs = iv13.grid()
    gen = reconstruct_generator(np.full_like(xs, -2.0), iv13)
    want_g1 = np.exp(-(xs - 1.0) / 2.0)
    assert np.max(np.abs(gen.f1_values - want_g1)) < 1e-12
    # g' stays positive and decays: an increasing concave generator
    assert np.all(np.diff(gen.values) > 0)


def test_reconstruct_rejects_sign_crossing_profile(iv13):
    xs = iv13.grid()
    hull = PiecewiseLinearHull(((1.0, -1.0), (3.0, 1.0)))
    with pytest.raises(NonpositiveM):
        reconstruct_generator(hull(xs), iv13)
    with pytest.raises(NonpositiveM):
        reconstruct_generator(xs - 2.0, iv13)


def test_reconstruct_refuses_a_profile_off_the_grid(iv13):
    with pytest.raises(UsageError, match="^profile m must match the grid$"):
        reconstruct_generator(np.ones(5), iv13)


@pytest.mark.parametrize("grid_points", [3, 1025, 65537])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_reconstruction_is_bit_equal_to_a_running_trapezoid_loop(grid_points, sign):
    ivs = WorkingInterval(0.1, 3.0, grid_points)
    xs = ivs.grid()
    m = sign * (1.5 + np.sin(6.0 * xs))
    gen = reconstruct_generator(m, ivs)
    want_g1 = np.exp(running_trapezoid((1.0 / m).tolist(), xs.tolist()))
    assert np.array_equal(gen.f1_values, want_g1)
    assert np.array_equal(gen.values, running_trapezoid(want_g1.tolist(), xs.tolist()))


def test_import_loads_no_scipy():
    code = ("import sys, qameans; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_reconstructed_profile_matches_by_finite_differences(iv13):
    """FD curvature ratio of the reconstructed g reproduces the profile."""
    xs = iv13.grid()
    hull = PiecewiseLinearHull(((1.0, 1.0), (3.0, 9.0)))
    gen = reconstruct_generator(hull(xs), iv13)
    ratio = fd_curvature_ratio(gen.values, iv13.step)
    want = 4.0 * xs - 3.0
    assert np.max(np.abs(ratio - want)[2:-2]) < 1e-3


# ------------------------------------------------- pipeline, convex side


def test_convex_envelope_of_exp_is_itself(iv):
    res = qa_convex_envelope(ExpGenerator(iv))
    assert res.status == "AlreadyExtremal"
    assert res.direction == "convex"
    # profile of e^x is identically 1
    assert np.max(np.abs(res.rho.values - 1.0)) < 1e-12
    mean = res.mean_handle()
    rng = np.random.default_rng(13)
    base = QuasiArithmeticMean(ExpGenerator(iv))
    for _ in range(50):
        v = rng.uniform(iv.lo, iv.hi, size=4)
        # tabulated interpolation is the only gap; O(h^2) in mean space
        assert mean(v) == pytest.approx(base(v), abs=1e-4)
    assert classify(res.generator).value == "Convex"


def test_convex_envelope_of_power3_is_itself(iv):
    res = qa_convex_envelope(PowerGenerator(3.0, iv))
    assert res.status == "AlreadyExtremal"
    # profile x/2 is linear, hence equal to its own upper hull
    assert np.max(np.abs(res.m(iv.grid()) - iv.grid() / 2.0)) < 1e-9


def test_convex_envelope_chord_case(rho_x2_gen, iv13):
    res = qa_convex_envelope(rho_x2_gen)
    assert res.status == "Envelope"
    # convex profile x^2: the least concave majorant is the exact chord
    assert res.m.vertices == ((1.0, 1.0), (3.0, 9.0))
    xs = iv13.grid()
    mvals = res.m(xs)
    assert np.max(np.abs(mvals - (4.0 * xs - 3.0))) < 1e-12
    want_g, want_g1 = chord_profile_generator(xs)
    assert np.max(np.abs(res.g - want_g)) < 1e-5
    assert np.max(np.abs(res.g1 - want_g1)) < 1e-5
    # the result is itself convex and idempotent under the envelope
    assert classify(res.generator).value == "Convex"
    again = qa_convex_envelope(res.generator)
    assert again.status == "AlreadyExtremal"


def test_convex_envelope_is_a_minorant(rho_x2_gen):
    """Envelope mean never exceeds the original mean on sampled tuples."""
    res = qa_convex_envelope(rho_x2_gen)
    env_mean = res.mean_handle()
    orig_mean = QuasiArithmeticMean(rho_x2_gen)
    rng = np.random.default_rng(23)
    iv = rho_x2_gen.domain
    for n in range(2, 6):
        X = rng.uniform(iv.lo, iv.hi, size=(2000, n))
        gap = orig_mean.batch(X) - env_mean.batch(X)
        assert float(np.min(gap)) > -1e-8


def test_convex_envelope_none_exists_for_log(iv):
    res = qa_convex_envelope(LogGenerator(iv))
    assert res.status == "NoneExists"
    w = res.diagnostics["witness"]
    # the witness really places the geometric mean below the arithmetic one
    vals = np.asarray(w["values"], dtype=float)
    qa = qa_mean(LogGenerator(iv), vals)
    assert qa == pytest.approx(w["qa_mean"], abs=1e-12)
    assert qa < float(np.mean(vals)) - w["tol"]
    with pytest.raises(UsageError):
        res.mean_handle()


def test_convex_envelope_of_identity_is_arithmetic(iv):
    res = qa_convex_envelope(parse_generator("id", iv))
    assert res.status == "ArithmeticEnvelope"
    assert isinstance(res.mean_handle(), ArithmeticMean)


def test_convex_envelope_nonsmooth_case(nonsmooth_cubic):
    """x^3 with f'' < 0 only on [-0.001, 0): no convex envelope exists.

    At 1025 points the one grid point below 0 is the left end, so every
    second difference of the values is positive (the smallest is 5.0e-6):
    the interpolant QA_f evaluates is convex, no grid pair can refute the
    ordering, and the contradiction with the tabulated f'' is an error.
    Finer grids put interior points in the sliver, and the pair around
    them re-verifies.
    """
    with pytest.raises(SignChange):
        qa_convex_envelope(nonsmooth_cubic)
    for n in (16385, 65537):
        ivn = WorkingInterval(-0.001, 10.0, n)
        xs = ivn.grid()
        gen = TabulatedGenerator(ivn, xs**3, 3.0 * xs**2, xs / 2.0, source="sliver")
        res = qa_convex_envelope(gen)
        assert res.status == "NoneExists"
        w = res.diagnostics["witness"]
        a, b = w["values"]
        assert a == -0.001 and a < 0.0 < b < 0.001
        qa = qa_mean(gen, [a, b])
        assert qa == w["qa_mean"]
        assert 0.5 * (a + b) - qa > w["tol"]
        with pytest.raises(UsageError):
            res.mean_handle()


def test_overflowing_generators_raise_range_error():
    """Values that overflow on the grid are an explicit error for an
    envelope, never a wrong grid: e**x is inf past x = 709.78, x**3 past
    5.6e102.  The classification reads rho alone, which stays finite."""
    exp = ExpGenerator(WorkingInterval(0.0, 720.0))
    cube = PowerGenerator(3.0, WorkingInterval(0.1, 1e120))
    with np.errstate(all="raise"):
        for gen in (exp, cube):
            assert classify(gen).value == "Convex"
            for fn in (qa_convex_envelope, qa_concave_envelope):
                with pytest.raises(RangeError):
                    fn(gen)


def test_harmonic_mean_is_its_own_concave_envelope_on_a_wide_interval():
    """power:-1 on [0.1, 1e120] once raised SignChange here."""
    gen = PowerGenerator(-1.0, WorkingInterval(0.1, 1e120))
    assert classify(gen).value == "Concave"
    assert qa_concave_envelope(gen).status == "AlreadyExtremal"


@pytest.mark.parametrize("spec, direction", [
    ("power:3", "concave"), ("exp", "concave"), ("log", "convex")])
def test_a_closed_forms_refusal_at_its_ends_builds_no_grid(monkeypatch, spec, direction):
    """A closed form's profile has one sign, so the interval's two ends are
    the witness, read with no grid even at 2^20 + 1 points, by the direct
    route and by the mirror route (on the reflected generator for convex)."""
    def refuse(self):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(WorkingInterval, "grid", refuse)
    gen = parse_generator(spec, WorkingInterval(0.1, 10.0, 2**20 + 1))
    direct = qa_concave_envelope if direction == "concave" else qa_convex_envelope
    mirror = gen if direction == "concave" else reflect_generator(gen)
    for route, g in ((direct, gen), (qa_concave_envelope_via_reflection, mirror)):
        res = route(g)
        assert res.status == "NoneExists"
        w = res.diagnostics["witness"]
        assert w["values"] == list(g.domain.ends) and w["margin"] > w["tol"]


def test_a_narrow_refusal_names_the_ends_by_both_concave_routes():
    """power:3 on [1, 1.000001] at 129 points: the ends confirm with margin
    2.5e-13.  The second differences there are rounding noise, and the runs
    they gave once named [1.000000046875, 1.000000140625] (margin 2.0e-15)
    and [1.0000004140625, 1.0000005] (1.8e-15), one per route, against a
    tolerance of 1.0e-15."""
    gen = PowerGenerator(3.0, WorkingInterval(1.0, 1.000001, 129))
    for route in (qa_concave_envelope, qa_concave_envelope_via_reflection):
        w = route(gen).diagnostics["witness"]
        assert w["values"] == [1.0, 1.000001]
        assert w["margin"] == pytest.approx(2.498e-13, rel=1e-3) and w["margin"] > w["tol"]


def test_an_end_pair_whose_sum_overflows_yields_to_the_run_pair():
    """exp on [709, 709.78]: e**709 and e**709.78 are finite but their sum
    is not, so the end pair's mean is a RangeError.  The run of wrong-signed
    second differences stops where 2 e**x overflows, and its pair confirms:
    every concave route refuses with it, tabulated too."""
    gen = parse_generator("exp", WorkingInterval(709.0, 709.78, 1025))
    for g in (gen, tabulate(gen)):
        for route in (qa_concave_envelope, qa_concave_envelope_via_reflection):
            res = route(g)
            assert res.status == "NoneExists"
            w = res.diagnostics["witness"]
            assert w["values"] == [709.0, 709.0898828125] and w["margin"] > 1e-3
    w = qa_convex_envelope(reflect_generator(gen)).diagnostics["witness"]
    assert w["values"] == [-709.0898828125, -709.0]


def test_refusal_needs_a_confirmed_pair():
    """x**p with p > 1 has no concave envelope.  At p = 1 + 1e-9 on [0.01, 4]
    f'' is 40 times the degenerate floor, but QA_p(0.01, 4) exceeds 2.005 by
    only 1.4e-9, inside the 4e-9 comparison tolerance, so no pair confirms
    the refusal and the call raises."""
    iv = WorkingInterval(0.01, 4.0)
    assert qa_concave_envelope(PowerGenerator(1.001, iv)).status == "NoneExists"
    with pytest.raises(SignChange, match="no grid pair"):
        qa_concave_envelope(PowerGenerator(1.0 + 1e-9, iv))


def test_a_closed_form_refusal_tries_the_grid_ends():
    """exp has no concave envelope.  On [0, 1e-5] its second differences
    at 1025 points are rounding noise and confirm no pair, so the grid's
    two ends are tried: QA_exp(0, 1e-5) exceeds the midpoint by 1.25e-11,
    beyond the 1e-14 tolerance.  At 5 points they are the sampled pair."""
    res = qa_concave_envelope(ExpGenerator(WorkingInterval(0.0, 1e-5)))
    assert res.status == "NoneExists"
    assert res.diagnostics["witness"]["values"] == [0.0, 1e-5]
    coarse = qa_concave_envelope(ExpGenerator(WorkingInterval(0.0, 1e-5, 5)))
    assert res.diagnostics == coarse.diagnostics


def test_a_closed_form_chord_starts_where_its_grid_does():
    """The chord's x values are WorkingInterval.ends: from lo = -0.0 it
    starts at 0.0, as the grid and a table's scanned hull do."""
    iv = WorkingInterval(-0.0, 1.0, 5)
    chord = qa_convex_envelope(ExpGenerator(iv)).m.to_list()
    assert chord == qa_convex_envelope(tabulate(ExpGenerator(iv))).m.to_list()
    assert not np.signbit(chord[0][0])


def test_already_extremal_keeps_kinked_profile(tent_profile_gen, iv13):
    res = qa_convex_envelope(tent_profile_gen)
    assert res.status == "AlreadyExtremal"
    xs = iv13.grid()
    tent = 2.0 - np.abs(xs - 2.0)
    # concave profile: the hull reproduces it (to interpolation noise)
    assert np.max(np.abs(res.m(xs) - tent)) < 1e-10
    # FD check of the stored g away from the kink at x = 2
    ratio = fd_curvature_ratio(res.g, iv13.step)
    away = np.abs(xs - 2.0) > 5.0 * iv13.step
    away[:2] = away[-2:] = False
    assert np.max(np.abs(ratio - tent)[away]) < 1e-3


# ------------------------------------------------ pipeline, concave side


def test_concave_envelope_of_log_is_itself(iv):
    res = qa_concave_envelope(LogGenerator(iv))
    assert res.status == "AlreadyExtremal"
    assert res.direction == "concave"
    assert classify(res.generator).value == "Concave"


def test_concave_envelope_none_exists_for_exp(iv):
    res = qa_concave_envelope(ExpGenerator(iv))
    assert res.status == "NoneExists"
    w = res.diagnostics["witness"]
    vals = np.asarray(w["values"], dtype=float)
    # the exp mean sits above the arithmetic mean at the witness
    assert qa_mean(ExpGenerator(iv), vals) > float(np.mean(vals))


def test_concave_envelope_chord_case(rho_neg_x2_gen, iv13):
    res = qa_concave_envelope(rho_neg_x2_gen)
    assert res.status == "Envelope"
    # convex minorant of -x^2 on [1, 3] is the chord through (1,-1), (3,-9)
    assert res.m.vertices == ((1.0, -1.0), (3.0, -9.0))
    xs = iv13.grid()
    assert np.max(np.abs(res.m(xs) - (3.0 - 4.0 * xs))) < 1e-12
    want_g, want_g1 = concave_chord_profile_generator(xs)
    assert np.max(np.abs(res.g - want_g)) < 1e-5
    assert np.max(np.abs(res.g1 - want_g1)) < 1e-5
    assert classify(res.generator).value == "Concave"


def test_concave_envelope_is_a_majorant(rho_neg_x2_gen):
    res = qa_concave_envelope(rho_neg_x2_gen)
    env_mean = res.mean_handle()
    orig_mean = QuasiArithmeticMean(rho_neg_x2_gen)
    rng = np.random.default_rng(29)
    iv = rho_neg_x2_gen.domain
    for n in range(2, 6):
        X = rng.uniform(iv.lo, iv.hi, size=(2000, n))
        gap = env_mean.batch(X) - orig_mean.batch(X)
        assert float(np.min(gap)) > -1e-8


def test_reflected_route_matches_direct_route(rho_neg_x2_gen, iv13, catalog):
    direct = qa_concave_envelope(rho_neg_x2_gen)
    mirrored = qa_concave_envelope_via_reflection(rho_neg_x2_gen)
    assert mirrored.status == direct.status == "Envelope"
    assert mirrored.diagnostics["route"] == "reflected"
    dv = np.array(direct.m.to_list())
    mv = np.array(mirrored.m.to_list())
    assert dv.shape == mv.shape
    assert np.max(np.abs(dv - mv)) < 1e-9
    # envelope means agree well inside the duality tolerance
    rng = np.random.default_rng(31)
    dm, mm = direct.mean_handle(), mirrored.mean_handle()
    X = rng.uniform(iv13.lo, iv13.hi, size=(2000, 4))
    assert np.max(np.abs(dm.batch(X) - mm.batch(X))) < 1e-6


@pytest.mark.parametrize("spec", ["exp", "power:3", "cubic-table"])
def test_reflected_route_witness_lies_on_the_working_interval(iv, spec):
    """The mirror route's refusal names the direct route's pair, on I."""
    if spec == "cubic-table":
        # (x - 5)^3 + x is convex only past 5: the pair flanks [5, 10]
        xs = iv.grid()
        gen = TabulatedGenerator(iv, (xs - 5.0) ** 3 + xs, source=spec)
    else:
        gen = parse_generator(spec, iv)
    direct = qa_concave_envelope(gen).diagnostics["witness"]
    mirrored = qa_concave_envelope_via_reflection(gen)
    assert mirrored.status == "NoneExists"
    w = mirrored.diagnostics["witness"]
    assert w["values"] == pytest.approx(direct["values"], rel=1e-14)
    assert all(iv.lo <= v <= iv.hi for v in w["values"])
    for key in ("qa_mean", "arith_mean", "margin"):
        assert w[key] == pytest.approx(direct[key], rel=1e-9)
    qa = qa_mean(gen, w["values"])
    assert qa == pytest.approx(w["qa_mean"], rel=1e-12)
    assert qa - float(np.mean(w["values"])) > w["tol"]


def test_reflected_route_statuses_match_direct(catalog, nonsmooth_cubic):
    gens = list(catalog.values()) + [nonsmooth_cubic]
    for gen in gens:
        direct = qa_concave_envelope(gen)
        mirrored = qa_concave_envelope_via_reflection(gen)
        assert direct.status == mirrored.status, gen.spec_string()


@pytest.mark.parametrize("grid_points", [257, 1025, 65537])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_envelope_generator_profile_is_the_hull_to_the_bit(grid_points, sign):
    """rho of an Envelope result's generator is its hull m, bit for bit.

    The profile 1.5 + sin 6x on [0.1, 3] is positive and bends both ways, so
    its upper hull (convex direction) and, negated, its lower hull (concave
    direction) are strict envelopes at every grid.
    """
    ivs = WorkingInterval(0.1, 3.0, grid_points)
    xs = ivs.grid()
    gen = build_from_profile(sign * (1.5 + np.sin(6.0 * xs)), ivs, "sine")
    res = (qa_convex_envelope if sign > 0 else qa_concave_envelope)(gen)
    assert res.status == "Envelope"
    assert np.array_equal(rho(res.generator), res.m(xs))


# ------------------------------------------------------- published grids

ROUTES = (qa_convex_envelope, qa_concave_envelope, qa_concave_envelope_via_reflection)


def _bits(arr) -> bytes:
    return np.asarray(arr, dtype=float).tobytes()


def _assert_grid_rule(res):
    """g and g1 are read-only samples of a rising g: +-tabulate(generator),
    x and 1 with no generator, None for NoneExists."""
    if res.status == "NoneExists":
        assert res.g is None and res.g1 is None
        return
    assert not res.g.flags.writeable and not res.g1.flags.writeable
    assert np.all(np.diff(res.g) > 0.0) and np.all(res.g1 > 0.0)
    if res.generator is None:
        assert res.status == "ArithmeticEnvelope"
        want = res.interval.grid(), np.ones(res.interval.grid_points)
    else:
        tab = tabulate(res.generator)
        rises = tab.values[-1] > tab.values[0]
        want = ((tab.values, tab.f1_values) if rises
                else (0.0 - tab.values, -tab.f1_values))
    assert _bits(res.g) == _bits(want[0]) and _bits(res.g1) == _bits(want[1])


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("name", ["power:3", "power:-1", "log", "exp"])
def test_closed_form_grids_follow_the_rule(catalog, name, negated):
    gen = Negated(catalog[name]) if negated else catalog[name]
    statuses = set()
    for route in ROUTES:
        res = route(gen)
        statuses.add(res.status)
        _assert_grid_rule(res)
    assert statuses == {"AlreadyExtremal", "NoneExists"}


@pytest.mark.parametrize("spec, kind", [("power:3", "convex"), ("log", "concave")])
def test_reloaded_envelope_csv_grids_follow_the_rule(tmp_path, capsys, spec, kind):
    path = tmp_path / "env.csv"
    assert run(["envelope", "--gen", spec, "--kind", kind, "--format", "csv",
                "--out", str(path)]) == 0
    table = load_table(str(path))
    routes = ROUTES[:1] if kind == "convex" else ROUTES[1:]
    for route in routes:
        res = route(table)
        assert res.status == "AlreadyExtremal"
        _assert_grid_rule(res)


def test_envelope_grids_are_the_reconstructed_table_to_the_bit(rho_x2_gen, rho_neg_x2_gen):
    for res in (qa_convex_envelope(rho_x2_gen), qa_concave_envelope(rho_neg_x2_gen),
                qa_concave_envelope_via_reflection(rho_neg_x2_gen)):
        assert res.status == "Envelope"
        _assert_grid_rule(res)
    for res in (qa_convex_envelope(rho_x2_gen), qa_concave_envelope(rho_neg_x2_gen)):
        assert _bits(res.g) == _bits(res.generator.values)
        assert _bits(res.g1) == _bits(res.generator.f1_values)


@pytest.mark.parametrize("spec, direction", [
    ("log", "concave"), ("power:3", "convex"), ("power:-5", "concave"), ("exp", "convex")])
def test_an_extremal_result_samples_g_without_building_a_table(monkeypatch, spec, direction):
    """An AlreadyExtremal result's g and g' are the generator's f and f',
    bit-equal to tabulate's columns (negated if they fall), sampled without
    a table, by every route."""
    gen = parse_generator(spec, WorkingInterval(0.1, 10.0, 65537))
    tab = tabulate(gen)
    sign = 1.0 if tab.values[-1] > tab.values[0] else -1.0

    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(TabulatedGenerator, "__init__", refuse)
    routes = ([qa_concave_envelope, qa_concave_envelope_via_reflection]
              if direction == "concave" else [qa_convex_envelope])
    for route in routes:
        res = route(gen)
        assert res.status == "AlreadyExtremal"
        assert _bits(res.g) == _bits(0.0 + sign * tab.values)
        assert _bits(res.g1) == _bits(sign * tab.f1_values)
        assert not (res.g.flags.writeable or res.g1.flags.writeable)


@pytest.mark.parametrize("name, status", [
    ("log", "AlreadyExtremal"), ("rho_neg_x2", "Envelope"), ("power:3", "NoneExists"),
    ("id", "ArithmeticEnvelope")])
def test_the_reflected_route_samples_only_the_result_it_returns(
        monkeypatch, catalog, rho_neg_x2_gen, name, status):
    """The mirror envelope is kept as its fields, not as a result of its own,
    so the reflected route samples the returned generator once, or nothing."""
    seen = []
    monkeypatch.setattr(envelope, "sampled_columns",
                        lambda gen: seen.append(gen) or sampled_columns(gen))
    res = qa_concave_envelope_via_reflection(
        rho_neg_x2_gen if name == "rho_neg_x2" else catalog[name])
    assert res.status == status
    assert len(seen) == (res.generator is not None)
    assert all(gen is res.generator for gen in seen)


@pytest.mark.parametrize("spec", ["id", "affine:-2:3"])
def test_arithmetic_envelope_grids_are_x_and_one(iv, spec):
    gen = parse_generator(spec, iv)
    for route in ROUTES:
        res = route(gen)
        assert res.status == "ArithmeticEnvelope" and res.generator is None
        _assert_grid_rule(res)
        assert _bits(res.g) == _bits(iv.grid()) and np.all(res.g1 == 1.0)


# ------------------------------------------------------------ reporting


def test_envelope_to_dict_and_determinism(rho_x2_gen):
    a = qa_convex_envelope(rho_x2_gen).to_dict()
    b = qa_convex_envelope(rho_x2_gen).to_dict()
    assert b"".join(_json_text(a)) == b"".join(_json_text(b))
    assert a["status"] == "Envelope"
    assert a["hull_vertices"] == [[1.0, 1.0], [3.0, 9.0]]
    assert len(a["g"]) == rho_x2_gen.domain.grid_points
