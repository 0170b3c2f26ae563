"""Property tests: every generator's inverse, QA means against oracles, and
the paper's classification table with the envelope statuses it implies.

The examples are drawn by hypothesis under the derandomized profile that
conftest.py loads, so a run is reproducible.  Two floating-point facts set
the ranges below.  A generator value carries one ulp of rounding, which
x -> f^{-1}(y) magnifies by |f(x) / (x f'(x))|: that is 1/|p| for x**p, so
exponents closer to 0 than P_MIN cannot return x to 1e-12 through any
inverse (the log kind is the p -> 0 member).  Likewise an affine offset b
much larger than a*x cancels digits of x inside f itself, so offsets are
drawn on the scale of the slope.  For the table, exponents within P_MIN of
1 are left out too: there QA_p(a, b) and (a + b)/2 can differ by less than
the comparison tolerance MEAN_CMP_TOL * span, so no pair could confirm the
missing envelope; p = 1 itself is drawn.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qameans.convexity import classify, dominates_arithmetic
from qameans.envelope import qa_concave_envelope, qa_convex_envelope
from qameans.errors import UsageError
from qameans.generators import (
    AffineGenerator,
    ExpGenerator,
    LogGenerator,
    PowerGenerator,
    ReflectedGenerator,
    tabulate,
)
from qameans.grids import WorkingInterval
from qameans.means import power_mean, qa_mean

from conftest import Negated, power_ends_equal
from oracles import bisection_qa_mean

REL = 1e-12
P_MIN = 1e-3

IV = WorkingInterval(0.1, 10.0)
# Tables at a coarse and at the default resolution.
IV_TABLES = (WorkingInterval(0.1, 10.0, 257), IV)

xs_in = st.floats(IV.lo, IV.hi)
exponents = st.one_of(st.floats(-20.0, -P_MIN), st.floats(P_MIN, 20.0))
slopes = st.one_of(st.floats(-5.0, -0.5), st.floats(0.5, 5.0))
offsets = st.floats(-5.0, 5.0)
vectors = st.lists(xs_in, min_size=1, max_size=6)
table_exponents = st.one_of(st.floats(-20.0, -P_MIN), st.floats(P_MIN, 1.0 - P_MIN),
                            st.just(1.0), st.floats(1.0 + P_MIN, 20.0))
TABLE_INTERVALS = (IV, WorkingInterval(1e-3, 1e3), WorkingInterval(1e-6, 1e6),
                   WorkingInterval(0.5, 4.0))


def _closed_form(kind, p, iv=IV):
    if kind == "power":
        return PowerGenerator(p, iv)
    if kind == "log":
        return LogGenerator(iv)
    return ExpGenerator(iv)


kinds = st.sampled_from(["power", "log", "exp"])


def _assert_round_trip(gen, x):
    back = float(gen.finv(gen.f(x)))
    assert back == pytest.approx(x, rel=REL, abs=0.0)


@given(p=exponents, x=xs_in)
def test_power_finv_round_trip(p, x):
    _assert_round_trip(PowerGenerator(p, IV), x)


@given(x=xs_in)
def test_log_and_exp_finv_round_trip(x):
    _assert_round_trip(LogGenerator(IV), x)
    _assert_round_trip(ExpGenerator(IV), x)


@given(a=slopes, b=offsets, x=xs_in)
def test_affine_finv_round_trip(a, b, x):
    _assert_round_trip(AffineGenerator(a, b, IV), x)


@given(kind=kinds, p=exponents, x=xs_in)
def test_reflected_finv_round_trip(kind, p, x):
    gen = ReflectedGenerator(_closed_form(kind, p))
    _assert_round_trip(gen, -x)


@given(kind=kinds, p=exponents, negate=st.booleans(),
       iv=st.sampled_from(IV_TABLES), x=xs_in)
def test_table_finv_round_trip(kind, p, negate, iv, x):
    """Increasing and decreasing tables both invert their interpolant."""
    gen = _closed_form(kind, p, iv)
    table = tabulate(Negated(gen) if negate else gen)
    _assert_round_trip(table, x)


@given(p=exponents, v=vectors)
def test_power_qa_mean_matches_oracles(p, v):
    gen = PowerGenerator(p, IV)
    got = qa_mean(gen, v)
    assert got == pytest.approx(power_mean(p, v), rel=REL, abs=0.0)
    want = float(bisection_qa_mean(gen.f, [v])[0])
    assert got == pytest.approx(want, rel=REL, abs=0.0)


@given(v=vectors)
def test_log_and_exp_qa_mean_match_oracles(v):
    got = qa_mean(LogGenerator(IV), v)
    assert got == pytest.approx(power_mean(0.0, v), rel=REL, abs=0.0)
    for gen in (LogGenerator(IV), ExpGenerator(IV)):
        want = float(bisection_qa_mean(gen.f, [v])[0])
        assert qa_mean(gen, v) == pytest.approx(want, rel=REL, abs=0.0)


@given(kind=kinds, p=exponents, negate=st.booleans(),
       iv=st.sampled_from(IV_TABLES), v=vectors)
def test_table_qa_mean_matches_bisection(kind, p, negate, iv, v):
    gen = _closed_form(kind, p, iv)
    table = tabulate(Negated(gen) if negate else gen)
    want = float(bisection_qa_mean(table.f, [v])[0])
    assert qa_mean(table, v) == pytest.approx(want, rel=REL, abs=0.0)


@given(v=vectors)
def test_reflected_qa_mean_matches_bisection(v):
    """Reflection evaluates through the composed inverse."""
    ref = ReflectedGenerator(LogGenerator(IV))
    w = [-x for x in v]
    want = float(bisection_qa_mean(ref.f, [w])[0])
    assert qa_mean(ref, w) == pytest.approx(want, rel=REL, abs=0.0)
    assert qa_mean(ref, w) == pytest.approx(-power_mean(0.0, v), rel=REL, abs=0.0)


@given(p=table_exponents, iv=st.sampled_from(TABLE_INTERVALS))
def test_power_family_follows_the_paper_table(p, iv):
    """Class and both envelope statuses of x**p; refusals carry a pair that
    re-verifies, and sampled domination of A agrees with existence."""
    gen = PowerGenerator(p, iv)
    if p == 1.0:
        want = ("ArithmeticBoth", "ArithmeticEnvelope", "ArithmeticEnvelope")
    elif p > 1.0:
        want = ("Convex", "AlreadyExtremal", "NoneExists")
    else:
        want = ("Concave", "NoneExists", "AlreadyExtremal")
    envs = (qa_convex_envelope(gen), qa_concave_envelope(gen))
    assert (classify(gen).value, *(e.status for e in envs)) == want
    for env, side, sense in zip(envs, (1.0, -1.0), ("ge", "le")):
        exists = env.status != "NoneExists"
        if not exists:
            w = env.diagnostics["witness"]
            a, b = w["values"]
            assert iv.lo <= a < b <= iv.hi
            # convex: QA_p below the midpoint; concave: above it
            assert side * (0.5 * (a + b) - qa_mean(gen, [a, b])) > w["tol"]
        assert dominates_arithmetic(gen, 5, 300, sense).passed == exists


# The paper's table over whole ranges: any p in [-20, 20] but 0, on
# [10**lo_exp, 10**hi_exp] with exponents up to 100 in size.  hi >= 2 lo
# keeps span * max|1/rho| = |p - 1| (hi - lo) / lo >= P_MIN, far above the
# degeneracy floor, so only p = 1 is arithmetic; p within P_MIN of 1 is left
# out as in the table above.
wide_exponents = st.one_of(st.floats(-20.0, 1.0 - P_MIN), st.just(1.0),
                           st.floats(1.0 + P_MIN, 20.0)).filter(lambda p: p != 0.0)
decade_pairs = st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)).filter(
    lambda e: e[1] - e[0] >= np.log10(2.0))


@settings(max_examples=500)
@given(p=wide_exponents, decades=decade_pairs, grid_points=st.sampled_from([257, 1025]))
def test_power_family_follows_the_paper_table_at_every_scale(p, decades, grid_points):
    """The class is the paper's: p < 1 Concave, p > 1 Convex, p = 1
    ArithmeticBoth, also where f' over- or underflows at an end.  Where
    x**p is one float at both ends the generator is refused."""
    iv = WorkingInterval(10.0 ** decades[0], 10.0 ** decades[1], grid_points)
    if power_ends_equal(p, iv.lo, iv.hi):
        with pytest.raises(UsageError):
            PowerGenerator(p, iv)
        return
    want = "Concave" if p < 1.0 else "Convex" if p > 1.0 else "ArithmeticBoth"
    got = classify(PowerGenerator(p, iv))
    assert got.value == want
    if want != "ArithmeticBoth":  # rho = x/(p - 1) is affine: concave with margin 0
        assert got.evidence["concavity_margin"] == 0.0


@settings(max_examples=300)
@given(lo=st.floats(-1e4, 1e4), width=st.floats(1e-6, 1e4))
def test_exp_is_convex_on_intervals_up_to_1e4_wide(lo, width):
    got = classify(ExpGenerator(WorkingInterval(lo, lo + width)))
    assert got.value == "Convex"
    assert got.evidence["concavity_margin"] == 0.0


def test_bisection_oracle_hand_values():
    """The oracle itself reproduces textbook means."""
    X = np.array([[1.0, 7.0], [1.0, 4.0]])
    got = bisection_qa_mean(lambda x: x * x, X)
    assert got[0] == pytest.approx(5.0, rel=1e-15)
    assert bisection_qa_mean(np.log, X[1:])[0] == pytest.approx(2.0, rel=1e-15)
