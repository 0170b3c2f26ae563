"""Classification by the curvature-profile criterion and the sampled gates."""

import numpy as np
import pytest

from qameans.convexity import (
    classify,
    dominates_arithmetic,
    jensen_midpoint_check,
)
from qameans.errors import UsageError
from qameans.generators import (
    AffineGenerator,
    AffineOfGenerator,
    ExpGenerator,
    LogGenerator,
    PowerGenerator,
    TabulatedGenerator,
    parse_generator,
    reflect_generator,
)
from qameans.grids import WorkingInterval
from qameans.means import ArithmeticMean, QuasiArithmeticMean

from conftest import build_from_profile

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


def test_classify_affine_wrappers_do_not_change_class(catalog, iv):
    assert classify(AffineGenerator(-2.0, 3.0, iv)).value == "ArithmeticBoth"
    wrapped = AffineOfGenerator(catalog["power:2"], -1.5, 4.0)
    assert classify(wrapped).value == "Convex"


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
        assert gen.domain.contains(found), (name, found)


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
    with pytest.raises(UsageError):
        jensen_midpoint_check(QuasiArithmeticMean(catalog["power:3"]),
                              n_max=n_max, trials=trials)


def test_sampled_gates_reject_bad_direction(catalog):
    with pytest.raises(UsageError):
        dominates_arithmetic(catalog["log"], 5, 100, direction="gt")
    with pytest.raises(UsageError):
        jensen_midpoint_check(QuasiArithmeticMean(catalog["log"]), 5, 100,
                              sense="both")


def test_jensen_midpoint_arithmetic_both_senses(iv):
    m = ArithmeticMean(iv)
    for sense in ("convex", "concave"):
        rep = jensen_midpoint_check(m, n_max=5, trials=3000, sense=sense, seed=0)
        assert rep.passed
        assert abs(rep.worst_margin) < 1e-9


def test_jensen_midpoint_convex_mean(catalog):
    m = QuasiArithmeticMean(catalog["power:3"])
    assert jensen_midpoint_check(m, n_max=5, trials=3000, sense="convex", seed=0).passed
    rep = jensen_midpoint_check(m, n_max=5, trials=3000, sense="concave", seed=0)
    assert not rep.passed
    w = rep.witness
    # re-verify: the concave claim lhs >= rhs really fails at the witness
    x = np.asarray(w["x"], dtype=float)
    y = np.asarray(w["y"], dtype=float)
    lhs = m(0.5 * (x + y))
    rhs = 0.5 * (m(x) + m(y))
    assert lhs == pytest.approx(w["m_at_midpoint"], abs=1e-12)
    assert rhs == pytest.approx(w["average_of_m"], abs=1e-12)
    assert lhs < rhs - rep.extra["tol"]


def test_jensen_agrees_with_classification(catalog):
    """Sampled midpoint convexity matches the profile classification."""
    for name, want in POWER_TABLE:
        m = QuasiArithmeticMean(catalog[name])
        cvx = jensen_midpoint_check(m, n_max=4, trials=2000, sense="convex", seed=3)
        ccv = jensen_midpoint_check(m, n_max=4, trials=2000, sense="concave", seed=3)
        if want == "Convex":
            assert cvx.passed and not ccv.passed
        elif want == "Concave":
            assert ccv.passed and not cvx.passed
        else:
            assert cvx.passed and ccv.passed


def test_jensen_neither_fails_both_senses(neither_cubic, rho_x2_gen):
    for gen in (neither_cubic, rho_x2_gen):
        m = QuasiArithmeticMean(gen)
        for sense in ("convex", "concave"):
            rep = jensen_midpoint_check(m, n_max=5, trials=20000, sense=sense, seed=0)
            assert not rep.passed, f"{gen.spec_string()} should fail {sense}"


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
