"""Classification by the curvature-profile criterion and the sampled gates."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qameans.convexity import classify, dominates_arithmetic
from qameans.errors import RangeError, UsageError
from qameans.generators import (
    AffineGenerator,
    ExpGenerator,
    LogGenerator,
    PowerGenerator,
    TabulatedGenerator,
    parse_generator,
    reflect_generator,
)
from qameans.grids import WorkingInterval
from qameans.means import QuasiArithmeticMean

from conftest import assert_jensen_witness_reverifies, build_from_profile, jensen_check

# expected classes across the power family: Concave below p = 1 (log is
# the p = 0 member), ArithmeticBoth at p = 1, Convex above, exp Convex
POWER_TABLE = [
    ("power:-1", "Concave"),
    ("log", "Concave"),
    ("power:0.5", "Concave"),
    ("id", "ArithmeticBoth"),
    ("power:2", "Convex"),
    ("power:3", "Convex"),
    ("exp", "Convex"),
]


def test_classify_power_family(catalog):
    for name, want in POWER_TABLE:
        got = classify(catalog[name])
        assert got.value == want, f"{name}: expected {want}, got {got.value}"


@pytest.mark.parametrize("p, lo, hi", [
    (-1.0, 0.1, 1e120),
    (-1.0, 1e-3, 1e160),
    (-0.5, 1e-3, 1e160),
    (-5.0, 1e-50, 1e50),
])
def test_power_below_one_is_concave_on_wide_intervals(p, lo, hi):
    """p < 1 is concave at every scale.  These once classified Neither,
    because f'' = f'/rho underflowed to -0.0, or raised RangeError."""
    assert classify(PowerGenerator(p, WorkingInterval(lo, hi))).value == "Concave"


def test_classify_evidence_branches(catalog):
    assert classify(catalog["id"]).evidence["branch"] == "f2-identically-zero"
    got = classify(catalog["exp"])
    assert got.evidence["branch"] == "rho-positive-concave"
    assert got.evidence["positivity_margin"] > 0
    assert got.evidence["concavity_margin"] >= 0
    got = classify(catalog["log"])
    assert got.evidence["branch"] == "reflected-rho-positive-concave"


def test_classify_affine_wrappers_do_not_change_class(iv):
    assert classify(AffineGenerator(-2.0, 3.0, iv)).value == "ArithmeticBoth"


def test_classify_neither_cubic(neither_cubic):
    got = classify(neither_cubic)
    assert got.value == "Neither"
    # both one-sided tests must have failed, each leaving a reason
    assert got.evidence["convex_test"]["reason"] == "sign-change"
    assert got.evidence["concave_test"]["reason"] == "sign-change"


def test_classify_neither_convex_profile(rho_x2_gen):
    """Positive but convex profile: not convex (profile not concave), not
    concave (reflected profile not concave either)."""
    got = classify(rho_x2_gen)
    assert got.value == "Neither"
    assert got.evidence["convex_test"]["reason"] == "nonconcave-rho"
    w = got.evidence["convex_test"]["witness"]
    # witness pins a midpoint-convexity violation of the profile
    assert w["second_difference"] > 0
    assert len(w["triple_x"]) == 3


def _witness_xs(evidence):
    """Every grid point a classification's evidence names."""
    for test in (evidence.get("convex_test", {}), evidence.get("concave_test", {})):
        w = test.get("witness", {})
        yield from w.get("triple_x", [w["x"]] if "x" in w else [])


def test_classify_witnesses_lie_on_the_working_interval(iv, neither_cubic):
    """Both senses are read from one profile on the working interval, so a
    Neither verdict names no point of the mirror interval."""
    xs = iv.grid()
    cases = {
        # sign change of f'' at x = 5
        "cubic-table": TabulatedGenerator(iv, (xs - 5.0) ** 3 + xs, source="cubic"),
        # positive convex profile: nonconcave rho, then nonpositive -rho
        "convex-profile": build_from_profile(1.0 + (xs - 5.0) ** 2, iv, "bowl"),
        "neither-cubic": neither_cubic,
    }
    for name, gen in cases.items():
        got = classify(gen)
        assert got.value == "Neither", name
        found = list(_witness_xs(got.evidence))
        assert len(found) >= 2, name
        assert all(gen.domain.lo <= x <= gen.domain.hi for x in found), (name, found)


def test_classify_reflection_swaps_convex_and_concave(catalog, neither_cubic):
    swap = {"Convex": "Concave", "Concave": "Convex"}
    for gen in list(catalog.values()) + [neither_cubic]:
        before = classify(gen).value
        after = classify(reflect_generator(gen)).value
        assert after == swap.get(before, before)


def test_dominates_arithmetic_convex_side(catalog):
    rep = dominates_arithmetic(catalog["power:2"], n_max=5, trials=4000, seed=0)
    assert rep.passed and rep.witness is None
    assert rep.worst_margin > 0


def test_dominates_arithmetic_failure_witness(catalog, iv):
    rep = dominates_arithmetic(catalog["log"], n_max=5, trials=4000, seed=0)
    assert not rep.passed
    w = rep.witness
    # re-verify the witness by direct evaluation
    vals = np.asarray(w["values"], dtype=float)
    qa = QuasiArithmeticMean(catalog["log"])(vals)
    am = float(np.mean(vals))
    assert qa == pytest.approx(w["qa_mean"], abs=1e-12)
    assert am == pytest.approx(w["arith_mean"], abs=1e-12)
    assert qa - am < -rep.extra["tol"]


def test_dominates_arithmetic_direction_flip(catalog):
    rep = dominates_arithmetic(catalog["log"], n_max=5, trials=4000,
                               direction="le", seed=0)
    assert rep.passed
    rep = dominates_arithmetic(catalog["power:2"], n_max=5, trials=4000,
                               direction="le", seed=0)
    assert not rep.passed


def test_dominates_arithmetic_identity_is_tight(iv):
    # QA of the identity IS the arithmetic mean; margins sit at zero
    rep = dominates_arithmetic(parse_generator("id", iv), n_max=4, trials=2000, seed=1)
    assert rep.passed
    assert abs(rep.worst_margin) < 1e-9


def test_dominates_arithmetic_deterministic(catalog):
    a = dominates_arithmetic(catalog["power:3"], n_max=5, trials=3000, seed=7)
    b = dominates_arithmetic(catalog["power:3"], n_max=5, trials=3000, seed=7)
    assert a == b


@pytest.mark.parametrize("n_max, trials", [(5, 0), (5, -1), (1, 100)])
def test_sampled_gates_reject_bad_counts(catalog, n_max, trials):
    with pytest.raises(UsageError):
        dominates_arithmetic(catalog["power:3"], n_max=n_max, trials=trials)


def test_sampled_gates_reject_bad_direction(catalog):
    with pytest.raises(UsageError):
        dominates_arithmetic(catalog["log"], 5, 100, direction="gt")


# Jensen's inequality for a mean, with equal weights, is ingham_jessen_check
# on n-by-2 matrices through jensen_pairing (conftest.py): M = A, N = QA_f
# claims convexity of QA_f, and the swapped pair claims concavity.
JENSEN_SIZES = (2, 3, 4)


def test_jensen_midpoint_arithmetic_both_senses(catalog):
    for n in JENSEN_SIZES:
        for sense in ("convex", "concave"):
            rep = jensen_check(catalog["id"], sense, n, 3000, seed=0)
            assert rep.passed and abs(rep.worst_margin) < 1e-9, (n, sense)


def test_jensen_midpoint_convex_mean(catalog):
    gen = catalog["power:3"]
    for n in JENSEN_SIZES:
        assert jensen_check(gen, "convex", n, 3000, seed=0).passed
        rep = jensen_check(gen, "concave", n, 3000, seed=0)
        assert not rep.passed
        assert_jensen_witness_reverifies(gen, "concave", rep)


def test_jensen_agrees_with_classification(catalog):
    """Sampled Jensen's inequality matches the profile classification."""
    for name, want in POWER_TABLE:
        for n in JENSEN_SIZES:
            cvx = jensen_check(catalog[name], "convex", n, 2000, seed=3).passed
            ccv = jensen_check(catalog[name], "concave", n, 2000, seed=3).passed
            expected = {"Convex": (True, False), "Concave": (False, True)}.get(
                want, (True, True))
            assert (cvx, ccv) == expected, (name, n)


def test_jensen_neither_fails_both_senses(neither_cubic, rho_x2_gen):
    for gen in (neither_cubic, rho_x2_gen):
        for sense in ("convex", "concave"):
            for n in JENSEN_SIZES:
                rep = jensen_check(gen, sense, n, 20000, seed=0)
                assert not rep.passed, f"{gen.spec_string()} should fail {sense} at n={n}"


def _jensen_agrees_with_classify(gen, n):
    """gen's mean is Convex or Concave; Jensen's inequality in that sense
    passes on n-by-2 matrices, and in the other sense it fails with a
    witness that re-verifies."""
    want = classify(gen).value
    assert want in ("Convex", "Concave")
    right, wrong = ("convex", "concave") if want == "Convex" else ("concave", "convex")
    assert jensen_check(gen, right, n, 500, seed=1).passed
    rep = jensen_check(gen, wrong, n, 500, seed=1)
    assert not rep.passed
    assert_jensen_witness_reverifies(gen, wrong, rep)


def _scaled(spec, k):
    """spec on [0.1, 10] moved by x -> 2^k x, which is exact in binary."""
    return parse_generator(spec, WorkingInterval(0.1 * 2.0**k, 10.0 * 2.0**k))


SCALED_SPECS = [f"power:{p}" for p in (-5, -1, 0.5, 1.3, 2, 3, 5)] + ["log"]


@example(case=("power:5", 60), n=2)
@example(case=("power:-5", 60), n=2)
@example(case=("power:5", -60), n=2)
@example(case=("power:-5", -60), n=2)
@example(case=("log", -60), n=2)
@example(case=("log", 60), n=2)
@given(case=st.one_of(st.tuples(st.sampled_from(SCALED_SPECS), st.integers(-60, 60)),
                      st.just(("exp", 0))),
       n=st.integers(2, 4))
def test_jensen_pairings_agree_with_classify_at_every_scale(case, n):
    """Jensen's inequality, sampled through both ij pairings, agrees with
    classify under x -> 2^k x: the verdict's sense passes, and the other
    sense fails with a witness that re-verifies by single-vector means."""
    _jensen_agrees_with_classify(_scaled(*case), n)


def _item_1(reason, **kw):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 1: {reason}", **kw)


OVERFLOWS = "x**p overflows or underflows, and the mean raises RangeError"


@pytest.mark.parametrize("spec, k", [
    pytest.param("power:20", -60, marks=_item_1(
        "x**20 underflows to 0 at both ends, where the mean would be the row "
        "minimum, so the generator is refused", raises=UsageError)),
    pytest.param("power:20", 60, marks=_item_1(OVERFLOWS, raises=RangeError)),
    pytest.param("power:-20", 60, marks=_item_1(
        "x**-20 underflows to 0 at both ends, where the mean would be the row "
        "minimum, so the generator is refused", raises=UsageError)),
    pytest.param("power:-20", -60, marks=_item_1(OVERFLOWS, raises=RangeError)),
])
def test_jensen_pairings_agree_with_classify_at_the_power_ends(spec, k):
    _jensen_agrees_with_classify(_scaled(spec, k), 2)


def test_gate_agrees_with_classification(catalog):
    """Convex implies the mean dominates the arithmetic mean, and dually."""
    for name, want in POWER_TABLE:
        ge = dominates_arithmetic(catalog[name], n_max=4, trials=2000, seed=5)
        le = dominates_arithmetic(catalog[name], n_max=4, trials=2000,
                                  direction="le", seed=5)
        if want == "Convex":
            assert ge.passed and not le.passed
        elif want == "Concave":
            assert le.passed and not ge.passed
        else:
            assert ge.passed and le.passed


def test_classify_to_dict(catalog):
    d = classify(catalog["exp"]).to_dict()
    assert d["class"] == "Convex"
    assert "evidence" in d
