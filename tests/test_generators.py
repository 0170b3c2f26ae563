"""Generator evaluation, curvature profile, negation, and parsing."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qameans import generators
from qameans.convexity import _profile_tests, classify
from qameans.envelope import qa_concave_envelope, qa_convex_envelope
from qameans.errors import (
    DomainError,
    NotMonotone,
    QameansError,
    RangeError,
    UsageError,
)
from qameans.generators import (
    AffineGenerator,
    ExpGenerator,
    Generator,
    LogGenerator,
    PowerGenerator,
    ReflectedGenerator,
    TabulatedGenerator,
    _check_domain,
    load_table,
    parse_generator,
    reflect_generator,
    rho,
    tabulate,
)
from qameans.grids import MAX_GRID_POINTS, ScalarGrid, WorkingInterval
from qameans.means import QuasiArithmeticMean, compare, qa_mean

from conftest import Negated, power_ends_equal
from oracles import fd_first, fd_second


def test_eval_closed_forms(iv):
    # hand values: 3^2 = 9, d/dx ln x at 4 is 0.25, affine has zero
    # curvature, so its profile f'/f'' is +inf
    assert PowerGenerator(2.0, iv).f(3.0) == 9.0
    assert LogGenerator(iv).f1(4.0) == 0.25
    assert AffineGenerator(2.0, 5.0, iv).rho(1.0) == np.inf
    assert ExpGenerator(iv).f(1.0) == pytest.approx(np.e, rel=1e-15)


def test_eval_vectorized(iv):
    xs = np.array([1.0, 2.0, 4.0])
    out = PowerGenerator(0.5, iv).f(xs)
    assert np.allclose(out, np.sqrt(xs), rtol=1e-15)


def test_eval_outside_domain_raises(iv):
    with pytest.raises(DomainError):
        _check_domain(iv, 0.05)
    with pytest.raises(DomainError):
        _check_domain(iv, np.array([1.0, 11.0]))


@pytest.mark.parametrize("a", [0.0, np.nan, np.inf, -np.inf])
def test_affine_kinds_reject_a_without_direction(iv, a):
    with pytest.raises(UsageError, match="needs a != 0 and finite a and b"):
        AffineGenerator(a, 1.0, iv)


@pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
def test_affine_kinds_reject_a_nonfinite_b(iv, b):
    """Every value of f would be NaN or infinite."""
    with pytest.raises(UsageError, match="needs a != 0 and finite a and b"):
        AffineGenerator(1.0, b, iv)


def test_power_generator_rejects_bad_arguments():
    with pytest.raises(UsageError):
        PowerGenerator(0.0, WorkingInterval(0.1, 10.0))
    with pytest.raises(UsageError):
        PowerGenerator(2.0, WorkingInterval(-1.0, 1.0))
    with pytest.raises(UsageError):
        LogGenerator(WorkingInterval(0.0, 1.0))


@pytest.mark.parametrize("grid_points", [3.5, True, 2, MAX_GRID_POINTS + 1])
def test_working_interval_rejects_bad_grid_sizes(grid_points):
    with pytest.raises(UsageError):
        WorkingInterval(0.1, 10.0, grid_points)


def test_working_interval_accepts_integer_grid_sizes():
    assert WorkingInterval(0.1, 10.0, MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
    assert WorkingInterval(0.1, 10.0, np.int64(5)).grid().shape == (5,)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7e308, 1.7e308),
                                    (np.float64(-1e308), np.float64(1e308))],
                         ids=["1e308", "1.7e308", "numpy-1e308"])
def test_working_interval_refuses_a_span_that_overflows(lo, hi):
    """hi - lo = inf once made every grid point after lo NaN."""
    with pytest.raises(UsageError, match=r"^need a finite span hi - lo, got \[-1"):
        WorkingInterval(lo, hi)


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (0.0, -0.0), (5.0, 1.0), (-1.0, -2.0)])
def test_working_interval_refuses_lo_not_below_hi(lo, hi):
    with pytest.raises(UsageError, match=f"^{re.escape(f'need lo < hi, got [{lo}, {hi}]')}$"):
        WorkingInterval(lo, hi)


@pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0),
                                    (0.0, np.inf), (np.nan, np.nan)])
def test_working_interval_refuses_a_nonfinite_end(lo, hi):
    with pytest.raises(UsageError, match="^interval endpoints must be finite$"):
        WorkingInterval(lo, hi)


def test_working_interval_accepts_the_widest_finite_span():
    top = np.finfo(float).max
    for iv in (WorkingInterval(-8.9e307, 8.9e307), WorkingInterval(-top / 2, top / 2)):
        xs = iv.grid()
        assert np.isfinite(iv.span) and np.isfinite(iv.step)
        assert (xs[0], xs[-1]) == (iv.lo, iv.hi) and np.all(np.diff(xs) > 0)
    assert WorkingInterval(-top / 2, top / 2).span == top


def test_working_interval_grid_is_built_once_and_read_only():
    iv = WorkingInterval(-0.3, 7.1, 1025)
    xs = iv.grid()
    assert np.array_equal(xs, np.linspace(-0.3, 7.1, 1025))
    assert xs.tobytes() == np.linspace(-0.3, 7.1, 1025).tobytes()
    assert iv.grid() is xs
    with pytest.raises(ValueError):
        xs[0] = 1.0
    ref = iv.reflected()
    assert ref.grid() is not xs
    assert ref.grid().tobytes() == np.linspace(-7.1, 0.3, 1025).tobytes()


def test_working_interval_grid_cache_leaves_identity_alone():
    a = WorkingInterval(0.1, 10.0, 65)
    b = WorkingInterval(0.1, 10.0, 65)
    a.grid()
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "WorkingInterval(lo=0.1, hi=10.0, grid_points=65)"
    assert {a: 1}[b] == 1


def test_derivative_grids_match_finite_differences(iv):
    """Reported f1 and f1/rho agree with central differences of reported f."""
    xs = iv.grid()
    h = iv.step
    for gen in (PowerGenerator(3.0, iv), LogGenerator(iv), ExpGenerator(iv)):
        f = gen.f(xs)
        f1 = gen.f1(xs)
        f2 = f1 / gen.rho(xs)
        # O(h^2) stencils; pointwise relative bound since log is steep at lo
        rel1 = np.abs(fd_first(f, h) - f1)[2:-2] / np.abs(f1)[2:-2]
        rel2 = np.abs(fd_second(f, h) - f2)[2:-2] / np.abs(f2)[2:-2]
        assert np.max(rel1) < 1e-2
        assert np.max(rel2) < 1e-2


def test_tabulated_rejects_nonmonotone():
    ivq = WorkingInterval(-1.0, 1.0)
    xs = ivq.grid()
    with pytest.raises(NotMonotone):
        # x^2 is not injective through the origin
        TabulatedGenerator(ivq, xs**2, source="parabola")


def test_opposite_sign_f1_column_is_refused(tmp_path):
    """x**3 on [0.1, 10] with g1 = -3x**2: the column contradicts the values,
    and trusting it would classify the mean Concave."""
    xs = np.linspace(0.1, 10.0, 1025).tolist()
    path = tmp_path / "wrong-g1.csv"
    path.write_text("x,f,g1\n" + "".join(f"{x!r},{x**3!r},{-3*x*x!r}\n" for x in xs))
    with pytest.raises(NotMonotone, match="wrong-g1.csv"):
        load_table(str(path))


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_tabulated_f1_must_be_finite_and_nonzero(iv, bad):
    xs = iv.grid()
    f1 = 3.0 * xs ** 2
    f1[9] = bad
    with pytest.raises(NotMonotone, match="my-source"):
        TabulatedGenerator(iv, xs ** 3, f1, source="my-source")


@st.composite
def composed_generators(draw):
    """power p, log, exp or affine a on a positive interval, then up to three
    reflect, negate (-f) or tabulate steps."""
    lo = draw(st.floats(0.1, 5.0))
    iv = WorkingInterval(lo, lo + draw(st.floats(0.1, 10.0)), 65)
    nonzero = st.floats(0.05, 5.0).flatmap(lambda v: st.sampled_from((v, -v)))
    offset = st.floats(-5.0, 5.0)
    kind = draw(st.sampled_from(("power", "log", "exp", "affine")))
    if kind == "power":
        gen = PowerGenerator(draw(nonzero), iv)
    elif kind == "log":
        gen = LogGenerator(iv)
    elif kind == "exp":
        gen = ExpGenerator(iv)
    else:
        gen = AffineGenerator(draw(nonzero), draw(offset), iv)
    steps = st.sampled_from(("reflect", "negate", "tabulate"))
    for step in draw(st.lists(steps, max_size=3)):
        if step == "reflect":
            gen = reflect_generator(gen)
        elif step == "negate":
            gen = Negated(gen)
        else:
            gen = tabulate(gen)
    return gen


def _outcome(fn, gen):
    """fn(gen), or the type and witness of the error it raises."""
    try:
        return fn(gen)
    except QameansError as exc:
        return type(exc), getattr(exc, "witness", None)


def _envelope_facts(env):
    if isinstance(env, tuple):
        return env
    d = env.to_dict()
    return (d["status"], d.get("hull_vertices"), d["diagnostics"].get("witness"),
            None if env.g is None else (env.g.tolist(), env.g1.tolist()))


@given(composed_generators(), st.data())
def test_negation_changes_no_fact_the_theory_uses(gen, data):
    """f and -f have one profile and one mean, so nothing reads a direction:
    rho, classify, compare, both envelopes (status, hull, witness and the
    published rising g and g') and the means of drawn rows agree."""
    neg = Negated(gen)
    d = gen.domain
    r, rn = _outcome(rho, gen), _outcome(rho, neg)
    assert (np.array_equal(r, rn) if isinstance(r, np.ndarray) else r == rn)
    # a report that names its generator names it as given
    verdicts = [_outcome(classify, g) for g in (gen, neg)]
    verdicts = [json.dumps(v.to_dict()).replace(g.spec_string(), "<f>")
                if hasattr(v, "to_dict") else v for v, g in zip(verdicts, (gen, neg))]
    assert verdicts[0] == verdicts[1]
    cube = (PowerGenerator(3.0, d) if d.lo > 0
            else reflect_generator(PowerGenerator(3.0, d.reflected())))
    assert compare(gen, cube) == compare(neg, cube)
    for envelope in (qa_convex_envelope, qa_concave_envelope):
        assert (_envelope_facts(_outcome(envelope, gen))
                == _envelope_facts(_outcome(envelope, neg)))
    n = data.draw(st.integers(1, 5))
    t = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                                    min_size=1, max_size=4)))
    X = np.clip(d.lo + t * d.span, d.lo, d.hi)
    means = [_outcome(lambda g: QuasiArithmeticMean(g).batch(X), g) for g in (gen, neg)]
    assert (np.array_equal(*means) if isinstance(means[0], np.ndarray)
            else means[0][0] is means[1][0])


@settings(max_examples=400)
@given(p=st.one_of(st.floats(-400.0, 400.0), st.floats(-1e6, 1e6)).filter(lambda p: p != 0),
       lo_exp=st.floats(-300.0, 300.0), decades=st.floats(1e-3, 600.0),
       grid_points=st.integers(3, 257))
def test_power_is_built_on_every_positive_interval(p, lo_exp, decades, grid_points):
    """power:p evaluates x**p at the two ends only, so no interval refuses
    it where f' over- or underflows; it is refused, pointing to log, exactly
    where x**p is one float at both ends."""
    lo, hi = 10.0 ** lo_exp, 10.0 ** min(lo_exp + decades, 300.0)
    assume(lo < hi)
    iv = WorkingInterval(lo, hi, grid_points)
    if power_ends_equal(p, lo, hi):
        with pytest.raises(UsageError, match=r"at both ends .*use the log kind"):
            PowerGenerator(p, iv)
    else:
        assert parse_generator(PowerGenerator(p, iv).spec_string(), iv).p == p


@pytest.mark.parametrize("p, lo, hi, value", [
    ("1e-300", 0.1, 10.0, "1.0"), ("5e-324", 2.0, 3.0, "1.0"), ("-1e-17", 1.0, 10.0, "1.0"),
    ("1e-16", 5.0, 6.0, "1.0000000000000002"), ("20", 1e-20, 1e-17, "0.0"),
    ("-20", 1e17, 1e19, "0.0")])
def test_power_whose_ends_are_one_float_is_refused_pointing_to_log(p, lo, hi, value):
    """x**p rounding to one value at lo and hi would make every mean the
    row's minimum: eval --gen power:1e-300 --vec 2,3 printed 2.0."""
    assert power_ends_equal(float(p), lo, hi)
    with pytest.raises(UsageError) as info:
        parse_generator(f"power:{p}", WorkingInterval(lo, hi))
    assert str(info.value) == (
        f"power generator needs x**p to differ at lo and hi, but x**{p} is "
        f"{value} at both ends of [{lo!r}, {hi!r}] (use the log kind for p near 0)")


@pytest.mark.parametrize("p, lo, hi", [(1e-15, 0.1, 10.0), (1e-16, 1.0, 10.0),
                                       (20.0, 1e-20, 1e-15), (400.0, 1e10, 1e300)])
def test_power_whose_ends_differ_in_floats_is_built(p, lo, hi):
    """Ends that differ, or overflow, leave p to the grid's own tests."""
    assert PowerGenerator(p, WorkingInterval(lo, hi)).p == p


def test_rho_ignores_an_underflowing_f1():
    """e**x on [-800, -700] underflows to 0, but its profile is 1 there."""
    iv = WorkingInterval(-800.0, -700.0)
    assert ExpGenerator(iv).f1(-800.0) == 0.0
    assert np.array_equal(rho(ExpGenerator(iv)), np.ones(iv.grid_points))


class _NoDerivative(ExpGenerator):
    def f1(self, x):
        raise AssertionError("f' was evaluated")


def test_rho_makes_no_f1_call(iv):
    assert np.array_equal(rho(_NoDerivative(iv)), np.ones(iv.grid_points))
    assert rho(_NoDerivative(WorkingInterval(0.0, 1e4)))[0] == 1.0


def test_rho_of_a_table_shares_its_rho_column(tmp_path):
    """A table's rho column is read-only and its own, so rho() returns it."""
    tab = tabulate(PowerGenerator(3.0, WorkingInterval(0.1, 10.0, 65537)))
    assert rho(tab) is tab.rho_values
    xs = np.linspace(0.1, 10.0, 9)
    path = tmp_path / "cube.csv"
    path.write_text("x,f\n" + "".join(f"{x!r},{x ** 3!r}\n" for x in xs.tolist()))
    loaded = load_table(str(path))
    assert rho(loaded) is loaded.rho_values


def test_scalar_grid_refuses_a_wrong_length_or_a_nonfinite_value():
    iv = WorkingInterval(0.0, 1.0, 5)
    with pytest.raises(UsageError, match=re.escape("expected 5 values, got shape (4,)")):
        ScalarGrid(iv, np.ones(4))
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones(5)
        values[2] = bad
        with pytest.raises(UsageError, match="^grid values must all be finite$"):
            ScalarGrid(iv, values)


def test_scalar_grid_copies_what_it_cannot_keep(iv):
    """A writable array, or a read-only view of one, is copied."""
    writable = iv.grid() / 2.0
    view = writable[:]
    view.flags.writeable = False
    for values in (writable, view, list(writable)):
        grid = ScalarGrid(iv, values)
        assert not np.shares_memory(grid.values, writable)
        assert not grid.values.flags.writeable
        assert np.array_equal(grid.values, writable)


def test_rho_refuses_a_zero_or_nan_profile(iv):
    """rho = 0 is an infinite f''; NaN is no profile at all."""
    xs = iv.grid()
    for bad in (0.0, np.nan):
        column = xs / 2.0
        column[100] = bad

        class BadProfile(TabulatedGenerator):  # past the constructor's own check
            def rho(self, x):
                return column

        gen = BadProfile(iv, xs**3, 3.0 * xs**2, xs / 2.0, source="cube")
        with pytest.raises(RangeError, match="^table:cube: f'' is not finite on the grid$"):
            rho(gen)


def test_rho_closed_forms(iv):
    """Curvature ratio f'/f'' for power generators is x/(p-1), in closed form."""
    xs = iv.grid()
    # x**-1 falls, and rho reads it as given: x / -2
    for p in (-1.0, 0.5, 2.0, 3.0):
        assert np.array_equal(rho(PowerGenerator(p, iv)), xs / (p - 1.0))
    # ln x: f'/f'' = (1/x)/(-1/x^2) = -x
    assert np.array_equal(rho(LogGenerator(iv)), -xs)
    # e^x: ratio is identically 1
    assert np.array_equal(rho(ExpGenerator(iv)), np.ones_like(xs))


def test_rho_degenerate_second_derivative(iv):
    """rho of an affine generator is +inf everywhere, and the profile tests
    read that as f'' vanishing on the whole grid, in both senses."""
    for gen in (parse_generator("id", iv), AffineGenerator(3.0, -2.0, iv)):
        assert np.array_equal(rho(gen), np.full(iv.grid_points, np.inf))
        profile, detail, tests = _profile_tests(gen, "convex", "concave")
        assert profile is None
        assert detail == (f"{gen.spec_string()}: f'' vanishes on the whole grid "
                          f"(span * max |1/rho| = 0.000e+00 <= 1.000e-08)")
        assert list(tests) == [{"reason": "f2-identically-zero"}] * 2


def test_rho_sign_change_carries_witness(neither_cubic):
    profile, detail, tests = _profile_tests(neither_cubic, "convex", "concave")
    assert profile is None
    convex, concave = tests
    assert convex == concave and convex["reason"] == "sign-change"
    w = convex["witness"]
    assert detail == (f"table:cubic: rho is {-0.5:.3e} at x = -1.0 "
                      f"but {w['rho']:.3e} at x = {w['x']!r}")
    assert neither_cubic.domain.lo <= w["x"] <= neither_cubic.domain.hi
    # rho = x/2 is negative at lo = -1: the witness is the first grid point
    # where it is positive
    assert "rho" in w
    assert w["rho"] == w["x"] / 2.0 > 0.0
    assert w["x"] == float(neither_cubic.domain.grid()[410])


# Every kind that states an affine profile, with the generators that test it.
AFFINE_KINDS = {
    PowerGenerator: ["power:-5", "power:-2", "power:0.5", "power:1", "power:1.3",
                     "power:3", "power:20"],
    LogGenerator: ["log"],
    ExpGenerator: ["exp"],
    AffineGenerator: ["id", "affine:-2:3"],
}


def test_every_kind_stating_an_affine_profile_is_checked(iv, tmp_path):
    """The kinds whose parsed specs state sigma = (A, B) are those checked
    here, and so are their reflections; no class gives its own rho_ends, and
    only tables and the reflection, which mirrors a table's, give their own
    rho.  Tables and the base class state no sigma and so no end values."""
    path = tmp_path / "t.csv"
    path.write_text("x,f\n1,1\n2,4\n3,9\n")
    examples = {"power:<p>": "power:3", "affine:<a>:<b>": "affine:-2:3",
                "table:<path>": f"table:{path}"}
    gens = [parse_generator(examples.get(kind, kind), iv)
            for kind in generators.generator_kinds()]
    assert {type(g) for g in gens if g.sigma is not None} == set(AFFINE_KINDS)
    for g in gens:
        assert reflect_generator(g).sigma == (None if g.sigma is None
                                              else (g.sigma[0], -g.sigma[1]))
    classes = [cls for cls in vars(generators).values()
               if isinstance(cls, type) and issubclass(cls, Generator)]
    assert [cls for cls in classes if cls.rho_ends is not Generator.rho_ends] == []
    assert ({cls for cls in classes if cls.rho is not Generator.rho}
            == {TabulatedGenerator, ReflectedGenerator})
    table = tabulate(PowerGenerator(3.0, iv))
    assert table.rho_ends() is None and reflect_generator(table).rho_ends() is None


@pytest.mark.parametrize("spec", [s for specs in AFFINE_KINDS.values() for s in specs])
@pytest.mark.parametrize("lo, hi", [(0.1, 10.0), (1e-50, 1e50)])
def test_an_affine_profile_is_its_chord(spec, lo, hi):
    """rho at the midpoint is the mean of rho at the ends within 4 ulp, on
    the interval and on its mirror."""
    gen = parse_generator(spec, WorkingInterval(lo, hi))
    for g in (gen, reflect_generator(gen)):
        a, b = g.domain.lo, g.domain.hi
        assert g.rho_ends() == tuple(g.rho(np.array([a, b])).tolist())
        want = float(np.mean(g.rho(np.array([a, b]))))
        mid = float(g.rho(np.array([(a + b) / 2.0]))[0])
        assert mid == want or abs(mid - want) <= 4 * np.spacing(abs(want))


# (spec, lo, hi, ends of the direct kind, ends of its reflection) where the
# rules deriving rho_ends from sigma decide: an end where x/A underflows to 0
# states none, x/A may overflow at one end only, an A = 0 profile ignores an
# x end of 0.0, and B = -0.0 gives -inf.
EDGES = [
    ("power:4", 5e-324, 1.0, None, None),
    ("power:1.0000000000000002", 1.0, 1e300, (1.0 / 2.0**-52, np.inf),
     (-np.inf, -1.0 / 2.0**-52)),
    ("exp", -0.0, 1e-5, (1.0, 1.0), (-1.0, -1.0)),
    ("id", -1.0, 1.0, (np.inf, np.inf), (-np.inf, -np.inf)),
    ("affine:-2:3", -1.0, 1.0, (np.inf, np.inf), (-np.inf, -np.inf)),
]


@pytest.mark.parametrize("spec, lo, hi, ends, mirrored", EDGES)
def test_rho_ends_are_rho_at_the_ends_on_the_edges(spec, lo, hi, ends, mirrored):
    """rho_ends() is rho at lo and hi to the bit, or None where either is 0,
    on the interval and on its mirror."""
    gen = parse_generator(spec, WorkingInterval(lo, hi))
    for g, want in ((gen, ends), (reflect_generator(gen), mirrored)):
        at_ends = tuple(g.rho(np.array([g.domain.lo, g.domain.hi])).tolist())
        assert g.rho_ends() == (None if 0.0 in at_ends else at_ends) == want


def test_reflect_generator_values(iv):
    gen = ExpGenerator(iv)
    ref = reflect_generator(gen)
    assert ref.domain.lo == -iv.hi and ref.domain.hi == -iv.lo
    xs = ref.domain.grid()[::50]
    assert np.array_equal(ref.f(xs), gen.f(-xs))
    assert np.array_equal(ref.f1(xs), -gen.f1(-xs))
    assert np.array_equal(ref.rho(xs), -gen.rho(-xs))
    # double reflection unwraps to the original object
    assert reflect_generator(ref) is gen


def test_finv_closed_forms(iv):
    assert PowerGenerator(2.0, iv).finv(25.0) == pytest.approx(5.0, abs=1e-12)
    assert LogGenerator(iv).finv(0.0) == pytest.approx(1.0, abs=1e-12)


def test_finv_round_trip(iv):
    rng = np.random.default_rng(3)
    gens = [
        PowerGenerator(2.0, iv),
        PowerGenerator(-1.0, iv),
        LogGenerator(iv),
        ExpGenerator(iv),
        tabulate(LogGenerator(iv)),
    ]
    xs = rng.uniform(iv.lo, iv.hi, size=1000)
    for gen in gens:
        back = gen.finv(gen.f(xs))
        assert np.max(np.abs(back - xs)) < 1e-9 * iv.span


def test_nan_is_rejected(iv):
    with pytest.raises(DomainError):
        _check_domain(iv, np.nan)
    with pytest.raises(DomainError):
        qa_mean(LogGenerator(iv), [1.0, float("nan")])


def test_tabulate_round_trip(iv):
    gen = PowerGenerator(3.0, iv)
    tab = tabulate(gen)
    xs = iv.grid()
    assert np.array_equal(tab.values, gen.f(xs))
    assert np.array_equal(tab.f1_values, gen.f1(xs))
    # off-grid evaluation interpolates between exact samples
    mid = 0.5 * (xs[10] + xs[11])
    expected = 0.5 * (tab.values[10] + tab.values[11])
    assert tab.f(mid) == pytest.approx(expected, rel=1e-15)


def test_tabulated_fd_fallback_accuracy(iv13):
    """Derivatives filled by differences track the exact ones at O(h^2)."""
    xs = iv13.grid()
    tab = TabulatedGenerator(iv13, np.exp(xs), source="exp-values-only")
    assert np.max(np.abs(tab.f1_values - np.exp(xs))) < 1e-5 * np.e**3
    # rho of e^x is 1: f' over the second difference
    assert np.max(np.abs(tab.rho_values[1:-1] - 1.0)) < 1e-4


def test_parse_generator_grammar(iv):
    assert isinstance(parse_generator("power:2", iv), PowerGenerator)
    assert isinstance(parse_generator("log", iv), LogGenerator)
    assert isinstance(parse_generator("exp", iv), ExpGenerator)
    ident = parse_generator("id", iv)
    assert isinstance(ident, AffineGenerator) and (ident.a, ident.b) == (1.0, 0.0)
    assert ident.spec_string() == "id"
    aff = parse_generator("affine:2:-1", iv)
    assert isinstance(aff, AffineGenerator)
    assert aff.f(1.0) == 1.0


@pytest.mark.parametrize("p", [3.0, -5.0, 0.5, 1.000000001, 0.1, 1 / 3, -20.25, 1e-15])
def test_power_spec_string_round_trips(iv, p):
    gen = PowerGenerator(p, iv)
    assert parse_generator(gen.spec_string(), iv).p == p
    aff = AffineGenerator(p, -p / 7, iv)
    back = parse_generator(aff.spec_string(), iv)
    assert (back.a, back.b) == (aff.a, aff.b)


def test_catalog_spec_strings_print_as_written(iv):
    for spec in ("power:3", "power:-5", "power:0.5", "affine:2:1", "id", "log", "exp"):
        assert parse_generator(spec, iv).spec_string() == spec


def test_parse_generator_errors(iv):
    for bad in ("power:", "power:x", "affine:1", "affine:a:b", "cosh", ""):
        with pytest.raises(UsageError):
            parse_generator(bad, iv)
    with pytest.raises(UsageError):
        # non-table specs need an interval
        parse_generator("log", None)


def test_load_table_with_and_without_header(tmp_path):
    xs = np.linspace(1.0, 2.0, 11)
    path = tmp_path / "t.csv"
    rows = ["x,f"] + [f"{float(x)!r},{float(x*x)!r}" for x in xs]
    path.write_text("\n".join(rows) + "\n")
    tab = load_table(str(path))
    assert tab.domain.grid_points == 11
    assert tab.f(1.5) == pytest.approx(2.25, rel=1e-12)

    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(f"{float(x)!r},{float(x*x)!r}" for x in xs) + "\n")
    tab2 = load_table(str(bare))
    assert np.array_equal(tab2.values, tab.values)


def test_load_table_g_column_fallback_and_comments(tmp_path):
    xs = np.linspace(0.0, 1.0, 6)
    path = tmp_path / "g.csv"
    lines = ["# leading comment to skip", "x,g,g1"]
    lines += [f"{float(x)!r},{float(np.exp(x))!r},{float(np.exp(x))!r}" for x in xs]
    path.write_text("\n".join(lines) + "\n")
    tab = load_table(str(path))
    assert np.array_equal(tab.f1_values, tab.values)


def test_load_table_rejects_bad_grids(tmp_path):
    bad1 = tmp_path / "nonuniform.csv"
    bad1.write_text("x,f\n0,0\n1,1\n3,3\n")
    with pytest.raises(UsageError):
        load_table(str(bad1))
    # the same shape at a tiny scale: no absolute floor hides it
    tiny = tmp_path / "tiny-steps.csv"
    tiny.write_text("x,f\n0,0\n1e-12,1\n3e-12,3\n")
    with pytest.raises(UsageError, match="uniformly spaced"):
        load_table(str(tiny))
    bad2 = tmp_path / "decreasing-x.csv"
    bad2.write_text("x,f\n2,0\n1,1\n0,2\n")
    with pytest.raises(UsageError):
        load_table(str(bad2))
    bad3 = tmp_path / "nonmonotone-f.csv"
    bad3.write_text("x,f\n0,0\n1,2\n2,1\n")
    with pytest.raises(NotMonotone):
        load_table(str(bad3))
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(UsageError):
        load_table(str(empty))


# x columns and the verdict of load_table's x tests: the message it raises,
# or None when the table loads.  The two spacing cases sit just beyond and
# just within the tolerance 1e-9 * h + 4 * spacing(max |x|) at h = 1.
X_COLUMNS = {
    "nan inside": ("0 1 nan 3 4", "x column must be strictly increasing"),
    "-inf first": ("-inf 1 2 3 4", "x column must be finite"),
    "+inf last": ("0 1 2 3 inf", "x column must be finite"),
    "non-increasing step": ("0 1 1 3 4", "x column must be strictly increasing"),
    "steps beyond the tolerance": ("0 1.0000000011 2 3 4",
                                   "x column must be uniformly spaced"),
    "steps within the tolerance": ("0 1.0000000009 2 3 4", None),
}


@pytest.mark.parametrize("xs, message", X_COLUMNS.values(), ids=X_COLUMNS)
def test_load_table_x_column_verdicts(tmp_path, xs, message):
    path = tmp_path / "x.csv"
    path.write_text("x,f\n" + "".join(f"{x},{k}\n" for k, x in enumerate(xs.split())))
    if message is None:
        assert load_table(str(path)).domain.grid_points == 5
    else:
        with pytest.raises(UsageError) as info:
            load_table(str(path))
        assert str(info.value) == f"{path}: {message}"


MALFORMED_TABLES = {
    "non-numeric cell": "x,f\n0.1,1\n0.2,abc\n0.3,3\n0.4,4\n",
    "ragged row": "x,f\n0.1,1\n0.2,2,5\n0.3,3\n0.4,4\n",
    "more cells than header": "x,f\n0.1,1,1\n0.2,2,2\n0.3,3,3\n",
    "one column": "0.1\n0.2\n0.3\n",
}


@pytest.mark.parametrize("body", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES)
def test_load_table_malformed_rows_are_usage_errors(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(UsageError, match="bad.csv"):
        load_table(str(path))


def test_load_table_skips_blank_empty_and_comment_rows(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("# c\n\nx,f\n , ,\n0,1\n  # indented\n1,2\n\n2,4\n")
    assert np.array_equal(load_table(str(path)).values, [1.0, 2.0, 4.0])


@pytest.mark.parametrize("column", [0, 2], ids=["x", "m"])
def test_load_table_rejects_nan(tmp_path, column):
    """x**3 on [0.1, 10] with its profile m = x/2, 1025 rows, and one NaN
    in the x or the m column."""
    rows = [[repr(x), repr(x ** 3), repr(x / 2)]
            for x in np.linspace(0.1, 10.0, 1025).tolist()]
    rows[300][column] = "nan"
    path = tmp_path / "nan.csv"
    path.write_text("x,f,m\n" + "".join(",".join(r) + "\n" for r in rows))
    with pytest.raises(UsageError, match="nan.csv"):
        load_table(str(path))


def test_load_table_accepts_infinite_m(tmp_path):
    """rho = +inf means f'' = 0, so an infinite profile value is legal."""
    path = tmp_path / "affine.csv"
    path.write_text("x,f,m\n0,0,inf\n1,1,inf\n2,2,inf\n")
    assert np.all(np.isposinf(load_table(str(path)).rho_values))


@pytest.mark.parametrize("column, name", [("f1_values", "f' values"),
                                          ("rho_values", "rho values")])
def test_tabulated_refuses_a_column_off_the_grid(iv, column, name):
    """A supplied f' or rho column of the wrong length is refused before any
    arithmetic, as the values column is."""
    with pytest.raises(UsageError, match=f"^tabulated {name} must match the grid$"):
        TabulatedGenerator(iv, iv.grid() ** 3, **{column: np.ones(5)})


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_tabulated_rejects_zero_or_nan_rho(iv, bad):
    xs = iv.grid()
    r = xs / 2.0
    r[7] = bad
    with pytest.raises(UsageError, match="my-source"):
        TabulatedGenerator(iv, xs ** 3, 3.0 * xs ** 2, r, source="my-source")
