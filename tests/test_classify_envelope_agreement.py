"""classify and the envelopes read one profile test, so their verdicts agree.

QA_f is convex exactly when rho = f'/f'' is positive and concave, and then
it is its own convex envelope; the concave sense reads -rho the same way.
So on every input: Convex exactly when the convex envelope is
AlreadyExtremal, Concave exactly when the concave one is, ArithmeticBoth
exactly when both envelopes are the arithmetic mean, and an envelope that
keeps or rebuilds the mean publishes the very record classify reports for
that sense.  An envelope raises SignChange only for a refusal no grid pair
confirms: where rho changes sign (classify: Neither), or where rho has the
wrong sign for the sense (classify: Neither or the other sense), as for
x**p with p just above 1, whose mean lies within the comparison tolerance
of the arithmetic one.

Exponents are drawn with |p| >= P_MIN: as p -> 0, x**p rounds to 1 and the
sampled generator stops being strictly increasing, so an envelope that
tabulates it raises NotMonotone before the profile test is read.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qameans.convexity import classify
from qameans.envelope import (
    qa_concave_envelope,
    qa_concave_envelope_via_reflection,
    qa_convex_envelope,
)
from qameans.errors import SignChange
from qameans.generators import PowerGenerator, parse_generator
from qameans.grids import WorkingInterval

P_MIN = 1e-3
GRIDS = (257, 1025)
VERDICT = {"convex": "Convex", "concave": "Concave"}
OTHER = {"convex": "Concave", "concave": "Convex"}
ENVELOPES = {"convex": qa_convex_envelope, "concave": qa_concave_envelope}

exponents = st.one_of(st.floats(-20.0, -P_MIN), st.floats(P_MIN, 20.0))


def _status(fn, gen):
    """The envelope's status and result, or "SignChange" and None."""
    try:
        res = fn(gen)
    except SignChange:
        return "SignChange", None
    return res.status, res


def _classify_record(verdict, sense: str) -> dict:
    """classify's published test record for one sense, without its branch."""
    if verdict.value == "Neither":
        return verdict.evidence[f"{sense}_test"]
    assert verdict.value == VERDICT[sense], (verdict.value, sense)
    return {k: v for k, v in verdict.evidence.items() if k != "branch"}


def _assert_agree(gen):
    verdict = classify(gen)
    status, results = {}, {}
    for sense, fn in ENVELOPES.items():
        status[sense], results[sense] = _status(fn, gen)
    for sense in ENVELOPES:
        assert (verdict.value == VERDICT[sense]) == (status[sense] == "AlreadyExtremal")
        if status[sense] == "SignChange":
            assert verdict.value in ("Neither", OTHER[sense])
        if status[sense] in ("AlreadyExtremal", "Envelope"):
            assert (results[sense].diagnostics["profile_test"]
                    == _classify_record(verdict, sense))
    both_arithmetic = status["convex"] == status["concave"] == "ArithmeticEnvelope"
    assert (verdict.value == "ArithmeticBoth") == both_arithmetic
    # The reflected route reads the same test on the mirror generator.
    assert _status(qa_concave_envelope_via_reflection, gen)[0] == status["concave"]
    return verdict.value, status


@given(p=exponents)
def test_power_family_classify_agrees_with_envelopes(p):
    for n in GRIDS:
        _assert_agree(PowerGenerator(p, WorkingInterval(0.1, 10.0, n)))


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("spec", ["log", "exp", "id", "affine:-2:3", "power:1",
                                  "power:1.000000001"])
def test_catalog_classify_agrees_with_envelopes(spec, n):
    _assert_agree(parse_generator(spec, WorkingInterval(0.1, 10.0, n)))


def test_unconfirmed_wrong_sign_refusal_keeps_the_verdict():
    """x**(1 + 1e-9) on [0.1, 10] is Convex, and its concave envelope is a
    refusal that no grid pair confirms."""
    verdict, status = _assert_agree(PowerGenerator(1.000000001, WorkingInterval(0.1, 10.0)))
    assert verdict == "Convex"
    assert status == {"convex": "AlreadyExtremal", "concave": "SignChange"}


@pytest.mark.parametrize("fixture, expected", [
    ("rho_x2_gen", ("Neither", {"convex": "Envelope", "concave": "NoneExists"})),
    ("rho_neg_x2_gen", ("Neither", {"convex": "NoneExists", "concave": "Envelope"})),
    ("neither_cubic", ("Neither", {"convex": "NoneExists", "concave": "NoneExists"})),
    ("nonsmooth_cubic", ("Neither", {"convex": "SignChange", "concave": "NoneExists"})),
])
def test_fixtures_classify_agrees_with_envelopes(fixture, expected, request):
    assert _assert_agree(request.getfixturevalue(fixture)) == expected
