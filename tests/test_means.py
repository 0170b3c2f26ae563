"""Mean evaluation, power means, comparison, and its reversal under reflection."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qameans.errors import DomainError, RangeError, UsageError
from qameans.generators import (
    AffineGenerator,
    ExpGenerator,
    LogGenerator,
    PowerGenerator,
    TabulatedGenerator,
    load_table,
    parse_generator,
    reflect_generator,
    tabulate,
)
from qameans.grids import WorkingInterval
from qameans.means import (
    ArithmeticMean,
    ComparisonReport,
    QuasiArithmeticMean,
    compare,
    parse_mean,
    power_mean,
    qa_mean,
)

from conftest import OVERFLOWING_TABLE
from oracles import brute_qa_mean, decimal_power_mean


def test_qa_mean_hand_values(iv):
    # quadratic mean of 1 and 7: sqrt((1 + 49)/2) = 5
    assert qa_mean(PowerGenerator(2.0, iv), [1.0, 7.0]) == pytest.approx(5.0, abs=1e-12)
    # geometric mean of 1 and 4 is 2
    assert qa_mean(LogGenerator(iv), [1.0, 4.0]) == pytest.approx(2.0, abs=1e-12)
    # harmonic mean of 1 and 3: 2/(1 + 1/3) = 1.5
    assert qa_mean(PowerGenerator(-1.0, iv), [1.0, 3.0]) == pytest.approx(1.5, abs=1e-12)


def test_qa_mean_constant_tuple_is_exact(iv):
    for x in (0.1, 2.5, 10.0):
        assert qa_mean(ExpGenerator(iv), [x, x, x]) == x


def test_qa_mean_input_validation(iv):
    gen = LogGenerator(iv)
    with pytest.raises(UsageError):
        qa_mean(gen, [])
    with pytest.raises(DomainError):
        qa_mean(gen, [1.0, 11.0])


def test_mean_domain_checks_reject_nan(iv):
    with pytest.raises(DomainError):
        qa_mean(LogGenerator(iv), [1.0, np.nan])
    with pytest.raises(DomainError):
        ArithmeticMean(iv).batch(np.array([[np.nan, 2.0]]))


def test_power_mean_handle_checks_its_interval(iv):
    """The power mean's handle is the QA mean of the power generator."""
    with pytest.raises(DomainError):
        QuasiArithmeticMean(PowerGenerator(2.0, iv))([50.0, 60.0])
    with pytest.raises(DomainError):
        QuasiArithmeticMean(PowerGenerator(2.0, iv)).batch(np.array([[1.0, np.nan]]))


def test_power_mean_spec_string_keeps_every_digit(iv):
    assert (QuasiArithmeticMean(PowerGenerator(1.000000001, iv)).spec_string()
            == "qa(power:1.000000001)")
    assert QuasiArithmeticMean(PowerGenerator(2.0, iv)).spec_string() == "qa(power:2)"


def test_power_mean_rejects_nan():
    with pytest.raises(DomainError):
        power_mean(2.0, [1.0, np.nan])


def test_qa_mean_overflow_is_a_range_error():
    # exp(719) overflows; the true mean of (1, 719) is 718.307, not 719
    wide = WorkingInterval(0.0, 720.0)
    with pytest.raises(RangeError):
        qa_mean(ExpGenerator(wide), [1.0, 719.0])
    assert qa_mean(ExpGenerator(wide), [1.0, 700.0]) == pytest.approx(
        700.0 - np.log(2.0), rel=1e-15)


def test_qa_mean_whose_inverse_is_not_finite_is_a_range_error():
    """exp(-799.9) and exp(-799.7) underflow to 0, and log(0) = -inf; the
    clamp once turned it into -799.9 where the true mean is -799.795."""
    gen = ExpGenerator(WorkingInterval(-800.0, -700.0))
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        with pytest.raises(RangeError, match="inverse of their average are not finite"):
            qa_mean(gen, [-799.9, -799.7])
        with pytest.raises(RangeError, match="inverse of their average are not finite"):
            QuasiArithmeticMean(gen).batch(np.array([[-701.0, -700.0], [-799.9, -799.7]]))
        assert qa_mean(gen, [-701.0, -700.0]) == pytest.approx(
            -700.0 + np.log((1.0 + np.exp(-1.0)) / 2.0), rel=1e-15)


def test_qa_mean_against_direct_formula(iv):
    """QA evaluation agrees with the textbook f^{-1}(average of f)."""
    rng = np.random.default_rng(11)
    cases = [
        (PowerGenerator(3.0, iv), lambda v: v**3.0, lambda y: y ** (1.0 / 3.0)),
        (LogGenerator(iv), np.log, np.exp),
        (ExpGenerator(iv), np.exp, np.log),
    ]
    for gen, f, finv in cases:
        for _ in range(200):
            v = rng.uniform(iv.lo, iv.hi, size=rng.integers(2, 7))
            want = brute_qa_mean(f, finv, v)
            assert qa_mean(gen, v) == pytest.approx(want, abs=1e-10 * iv.span)


def test_qa_mean_internality_and_symmetry(iv):
    rng = np.random.default_rng(17)
    gens = [PowerGenerator(3.0, iv), LogGenerator(iv), tabulate(ExpGenerator(iv))]
    for gen in gens:
        for _ in range(500):
            v = rng.uniform(iv.lo, iv.hi, size=rng.integers(2, 7))
            m = qa_mean(gen, v)
            assert v.min() - 1e-12 <= m <= v.max() + 1e-12
        v = rng.uniform(iv.lo, iv.hi, size=6)
        p = rng.permutation(v)
        assert abs(qa_mean(gen, v) - qa_mean(gen, p)) < 1e-12


def test_power_mean_hand_values():
    assert power_mean(1.0, [1.0, 2.0, 3.0]) == pytest.approx(2.0, abs=1e-12)
    assert power_mean(0.0, [2.0, 8.0]) == pytest.approx(4.0, abs=1e-12)
    assert power_mean(-1.0, [1.0, 3.0]) == pytest.approx(1.5, abs=1e-12)
    assert power_mean(2.0, [1.0, 7.0]) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("p, values", [
    (2.0, [4.8e-300, 3.5e-298]),
    (-20.0, [1e20, 1e21]),
    (1.0, [1e308, 1e308]),
], ids=["squares-underflow", "negative-powers-underflow", "sum-overflows"])
def test_power_mean_is_accurate_at_extreme_scales(p, values):
    """Powers or their sum that leave the double range still give the mean,
    without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = power_mean(p, values)
    assert got == pytest.approx(decimal_power_mean(p, values), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [5e-324, -5e-324, 1e-310])
def test_power_mean_at_a_subnormal_exponent_is_the_geometric_mean(p):
    """Once power_mean(5e-324, [2, 3]) gave e and power_mean(1e-310, [2, 3])
    2.449489742783129.  So small a p is below what decimal_power_mean's 60
    digits resolve, so the geometric mean is the reference."""
    got = power_mean(p, [2.0, 3.0])
    assert got == power_mean(0.0, [2.0, 3.0])
    assert abs(got - math.sqrt(6.0)) <= math.ulp(math.sqrt(6.0))


@settings(max_examples=300)
@given(p=st.one_of(st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0]),
                   st.floats(-20.0, 20.0)),
       x=st.floats(1e-100, 1e100), n=st.integers(1, 5))
@example(p=2.0, x=3.0, n=1)
@example(p=0.0, x=7.0, n=3)
def test_power_mean_of_a_constant_row_is_its_value(p, x, n):
    """Reflexivity: once power_mean(2, [3]) gave 3.0000000000000004 and
    power_mean(0, [7, 7, 7]) gave 6.999999999999999."""
    assert power_mean(p, [x] * n) == x


@settings(max_examples=300)
@given(p=st.floats(allow_nan=False, allow_infinity=False),
       row=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=5))
@example(p=1e308, row=[3.0, 2.0])
@example(p=1e308, row=[10.0, 20.0])
@example(p=-1e308, row=[10.0, 20.0])
def test_power_mean_stays_in_its_row_or_raises_a_range_error(p, row):
    """Every mean lies within its row's [min, max], whatever p; where p log x
    overflows the mean is finite or a RangeError.  Once power_mean(1e308,
    [3, 2]) gave 3.0000000000000004, and power_mean(1e308, [10, 20]) NaN
    after two RuntimeWarnings."""
    try:
        got = power_mean(p, row)
    except RangeError as exc:
        assert "is not finite" in str(exc)
        return
    assert min(row) <= got <= max(row)


def test_power_mean_rejects_nonpositive():
    with pytest.raises(DomainError):
        power_mean(2.0, [1.0, -1.0])
    with pytest.raises(DomainError):
        power_mean(0.0, [0.0, 1.0])


def test_power_mean_matches_qa_mean(iv):
    rng = np.random.default_rng(23)
    for p in (-2.0, -1.0, 0.5, 2.0, 3.0):
        gen = PowerGenerator(p, iv)
        for _ in range(50):
            v = rng.uniform(iv.lo, iv.hi, size=5)
            assert power_mean(p, v) == pytest.approx(qa_mean(gen, v), rel=1e-11)
    for _ in range(50):
        v = rng.uniform(iv.lo, iv.hi, size=5)
        assert power_mean(0.0, v) == pytest.approx(
            qa_mean(LogGenerator(iv), v), rel=1e-11
        )


def test_power_mean_monotone_in_p(iv):
    """p-th power means increase with p on any fixed tuple."""
    rng = np.random.default_rng(29)
    ps = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
    for _ in range(200):
        v = rng.uniform(iv.lo, iv.hi, size=4)
        vals = [power_mean(p, v) for p in ps]
        assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))


def test_mean_handles_evaluate(iv):
    a = ArithmeticMean(iv)
    assert a([1.0, 2.0, 6.0]) == pytest.approx(3.0, abs=1e-15)
    p = QuasiArithmeticMean(PowerGenerator(2.0, iv))
    assert p([1.0, 7.0]) == pytest.approx(5.0, abs=1e-12)
    q = QuasiArithmeticMean(LogGenerator(iv))
    assert q([1.0, 4.0]) == pytest.approx(2.0, abs=1e-12)
    X = np.array([[1.0, 2.0], [4.0, 4.0]])
    assert np.allclose(a.batch(X), [1.5, 4.0], atol=1e-15)


def test_compare_power_family_order(iv):
    # power means are ordered by exponent
    r = compare(PowerGenerator(1.0, iv), PowerGenerator(2.0, iv))
    assert r.relation == "LessOrEqual"
    r = compare(LogGenerator(iv), PowerGenerator(1.0, iv))
    assert r.relation == "LessOrEqual"
    r = compare(PowerGenerator(3.0, iv), PowerGenerator(2.0, iv))
    assert r.relation == "GreaterOrEqual"


def test_compare_incomparable_carries_witnesses():
    # on [0.5, 4] the exp mean and the quadratic mean cross
    ivq = WorkingInterval(0.5, 4.0)
    r = compare(ExpGenerator(ivq), PowerGenerator(2.0, ivq))
    assert r.relation == "Incomparable"
    assert "le_fails_at" in r.witness and "ge_fails_at" in r.witness
    # gaps are the signed ratio difference at each failure point
    assert r.witness["le_gap"] > 0 and r.witness["ge_gap"] < 0


def test_compare_slack_has_no_absolute_floor():
    """On [1e10, 1e20] every |f''/f'| is below 2e-10, so a slack of at least
    1e-9 once read QA_2 < QA_3 as Equal; QA_2(1e10, 1e20) = 7.07e19 and
    QA_3 = 7.94e19.  Two arithmetic means have f''/f' = 0 and slack 0."""
    ivw = WorkingInterval(1e10, 1e20)
    assert compare(PowerGenerator(2.0, ivw), PowerGenerator(3.0, ivw)).relation == "LessOrEqual"
    r = compare(AffineGenerator(1.0, 0.0, ivw), AffineGenerator(-2.0, 3.0, ivw))
    assert (r.relation, r.delta) == ("Equal", 0.0)


COMPARE_SPECS = ("power:-5", "power:-1", "power:0.5", "power:2", "power:3", "log",
                 "id", "affine:-2:3")


@settings(max_examples=200)
@given(f=st.sampled_from(COMPARE_SPECS), g=st.sampled_from(COMPARE_SPECS),
       k=st.one_of(st.sampled_from([0, 10, -10, 30, -30, 60, -60]),
                   st.integers(-60, 60)))
def test_compare_relation_is_invariant_under_scaling_by_a_power_of_two(f, g, k):
    """These means are homogeneous, so x -> 2**k x keeps their order.  It is
    exact on the grid and scales every f''/f' by 2**-k, and the slack with
    it."""
    assume(f != g)
    scaled = WorkingInterval(0.1 * 2.0 ** k, 10.0 * 2.0 ** k)
    rel = compare(parse_generator(f, WorkingInterval(0.1, 10.0)),
                  parse_generator(g, WorkingInterval(0.1, 10.0))).relation
    assert compare(parse_generator(f, scaled), parse_generator(g, scaled)).relation == rel


def test_compare_refuses_an_infinite_second_derivative(tmp_path):
    """This table's second difference overflows at x = 2, so rho there is
    -0: an infinite f''.  compare samples rho() as classify does and
    refuses it, where it once reported Incomparable with NaN gaps after a
    numpy divide-by-zero warning."""
    path = tmp_path / "T.csv"
    path.write_text(OVERFLOWING_TABLE)
    table = load_table(str(path))
    with pytest.raises(RangeError, match=f"^table:{re.escape(str(path))}: f'' is not "
                                         f"finite on the grid$"):
        compare(table, LogGenerator(table.domain))
    with pytest.raises(RangeError, match="f'' is not finite on the grid"):
        compare(LogGenerator(table.domain), table)


def test_compare_refuses_a_reciprocal_profile_that_overflows():
    """1/rho of a subnormal rho overflows.  The sampled route (a table) names
    the first grid point of least |rho|, the end-value route (two closed
    forms) the end of least |rho|; neither warns."""
    iv = WorkingInterval(1.0, 2.0, 5)
    xs = iv.grid()
    table = TabulatedGenerator(iv, xs ** 2, 2.0 * xs, [1.0, 1e-310, 0.5, -1e-310, 1.0])
    with pytest.raises(RangeError) as info:
        compare(LogGenerator(iv), table)
    assert str(info.value) == ("table:<grid>: 1/rho overflows on [1.0, 2.0]: "
                               "rho = 1.000e-310 at x = 1.25")
    tiny = WorkingInterval(1e-310, 1.0)
    for f, g in ((PowerGenerator(3.0, tiny), LogGenerator(tiny)),
                 (LogGenerator(tiny), PowerGenerator(3.0, tiny))):
        with pytest.raises(RangeError) as info:
            compare(f, g)
        assert str(info.value) == (f"{f.spec_string()}: 1/rho overflows on [1e-310, 1.0]: "
                                   f"rho = {f.rho_ends()[0]:.3e} at x = 1e-310")
    line = TabulatedGenerator(tiny, tiny.grid(), np.ones(tiny.grid_points))
    with pytest.raises(RangeError, match=r"^power:3: .* at x = 1e-310$"):
        compare(PowerGenerator(3.0, tiny), line)


def test_compare_refuses_a_gap_that_overflows_between_two_tables():
    """1/rho is 1e308 and -1e308 at x = 1.25, each finite, and their gap is
    not: a RangeError naming the point, in either order, with no warning."""
    iv = WorkingInterval(1.0, 2.0, 5)
    xs = iv.grid()
    f, g = (TabulatedGenerator(iv, xs ** 2, 2.0 * xs, [1.0, r, 0.5, 0.5, 1.0])
            for r in (1e-308, -1e-308))
    for a, b in ((f, g), (g, f)):
        with pytest.raises(RangeError) as info:
            compare(a, b)
        assert str(info.value) == "1/rho_f - 1/rho_g overflows on [1.0, 2.0] at x = 1.25"


def test_compare_rejects_mismatched_domains(iv):
    other = WorkingInterval(1.0, 2.0)
    with pytest.raises(UsageError):
        compare(LogGenerator(iv), LogGenerator(other))


def test_compare_report_round_trips_to_dict(iv):
    r = compare(PowerGenerator(1.0, iv), PowerGenerator(2.0, iv))
    d = r.to_dict()
    assert d["relation"] == "LessOrEqual"
    assert isinstance(r, ComparisonReport)


def test_compare_is_sound_on_sampled_tuples(iv):
    """A LessOrEqual verdict means the means are ordered on random tuples."""
    rng = np.random.default_rng(37)
    pairs = [
        (LogGenerator(iv), PowerGenerator(1.0, iv)),
        (PowerGenerator(1.0, iv), PowerGenerator(2.0, iv)),
        (PowerGenerator(-1.0, iv), LogGenerator(iv)),
    ]
    for f, g in pairs:
        assert compare(f, g).relation == "LessOrEqual"
        for _ in range(500):
            v = rng.uniform(iv.lo, iv.hi, size=rng.integers(2, 6))
            assert qa_mean(f, v) <= qa_mean(g, v) + 1e-9 * iv.span


def test_reflection_reverses_comparison(iv):
    """If QA_f <= QA_g then the reflected means satisfy the reverse order."""
    rng = np.random.default_rng(41)
    f, g = LogGenerator(iv), PowerGenerator(2.0, iv)
    assert compare(f, g).relation == "LessOrEqual"
    rf = QuasiArithmeticMean(reflect_generator(f))
    rg = QuasiArithmeticMean(reflect_generator(g))
    for _ in range(500):
        v = rng.uniform(-iv.hi, -iv.lo, size=4)
        assert rf(v) >= rg(v) - 1e-9 * iv.span


def test_parse_mean(iv):
    assert isinstance(parse_mean("arith", iv), ArithmeticMean)
    m = parse_mean("power:2", iv)
    assert isinstance(m, QuasiArithmeticMean)
    assert m([1.0, 7.0]) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(UsageError, match="^mean spec 'arith' needs a working interval$"):
        parse_mean("arith", None)


@pytest.mark.xfail(strict=True,
                   reason="ArithmeticMean does not clamp to the row's [min, max]; "
                          "ROADMAP item 20 weighs folding it into the id mean")
def test_arith_of_a_constant_row_is_its_value(iv):
    """Every other mean clamps to the row's [min, max], so a constant row
    gives its value; 0.1 + 0.1 + 0.1 is 0.30000000000000004, so arith gives
    0.10000000000000002."""
    X = np.full((1, 3), 0.1)
    identity = QuasiArithmeticMean(parse_generator("id", iv))
    assert identity.batch(X).tolist() == [0.1]
    assert identity.running(X).tolist() == [[0.1, 0.1, 0.1]]
    assert ArithmeticMean(iv).batch(X).tolist() == [0.1]
    assert ArithmeticMean(iv).running(X).tolist() == [[0.1, 0.1, 0.1]]


def test_every_mean_handle_takes_one_vector_per_call(iv):
    """A call is one vector (or one row); many rows go through batch.  A 2-D
    input of several rows once returned the mean of its first row."""
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    for mean in (QuasiArithmeticMean(LogGenerator(iv)), ArithmeticMean(iv),
                 QuasiArithmeticMean(PowerGenerator(2.0, iv))):
        with pytest.raises(UsageError, match="single vector"):
            mean(rows)
        assert mean(rows[:1]) == mean(rows[0]) == mean.batch(rows)[0]
    with pytest.raises(UsageError, match="single vector"):
        qa_mean(LogGenerator(iv), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(UsageError, match="single vector"):
        power_mean(2.0, [[1.0, 2.0], [3.0, 4.0]])
    # A shape other than (n,) or (1, n) once met "nonempty vector", which
    # names the wrong fault.
    for call in (QuasiArithmeticMean(LogGenerator(iv)), lambda v: qa_mean(LogGenerator(iv), v),
                 lambda v: power_mean(2.0, v)):
        with pytest.raises(UsageError, match="nonempty vector"):
            call([])
        for values in (np.float64(3.0), np.ones((1, 2, 2)), np.ones((2, 2, 2))):
            with pytest.raises(UsageError, match=re.escape(f"got shape {values.shape}")):
                call(values)


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, float("1e400")])
def test_power_exponent_must_be_finite(iv, p):
    """A non-finite p is a usage error, with no numpy warning on the way,
    where it was a misleading NotMonotone or a silent NaN mean."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match="finite exponent"):
            PowerGenerator(p, iv)
        with pytest.raises(UsageError, match="finite exponent"):
            power_mean(p, [1.0, 7.0])
