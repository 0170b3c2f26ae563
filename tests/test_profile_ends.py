"""A closed form's profile verdicts read from its two end values.

Every closed-form rho (x/(p-1), -x, 1, +inf and their reflections) is one
correctly rounded expression in x that only rises or only falls, and the
grid's ends are lo and hi exactly, so classify, compare and the envelopes
read their verdicts from rho_ends() where the end values decide them.  The
tests here pin that this end route gives the bytes of the sampled route,
and that it samples nothing.  Two closed forms always compare by their
ends: the difference of two reciprocals A/x + B runs one way.
"""

import json
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qameans import convexity
from qameans.convexity import classify
from qameans.envelope import (
    qa_concave_envelope,
    qa_concave_envelope_via_reflection,
    qa_convex_envelope,
)
from qameans.errors import QameansError, RangeError, SignChange
from qameans.generators import (
    AffineGenerator,
    ExpGenerator,
    Generator,
    LogGenerator,
    PowerGenerator,
    parse_generator,
    reflect_generator,
    rho,
    tabulate,
)
from qameans.grids import WorkingInterval
from qameans.means import compare

from conftest import Negated, power_ends_equal


@contextmanager
def sampled_route():
    """classify, compare and the envelopes as if no closed-form kind stated
    its end values: each profile is sampled on the grid.  Every generator
    these tests sample is a closed form, whose profile is affine, so a
    positive profile gets concavity margin 0 here, as the end route gives
    it; a nonpositive one fails as the sampled test says."""
    test = convexity._profile_pos_concave

    def affine_test(values, interval):
        least = float(np.min(values))
        if least <= 0.0:
            return test(values, interval)
        return {"positivity_margin": least, "concavity_margin": 0.0}

    with (mock.patch.object(Generator, "rho_ends", lambda self: None),
          mock.patch.object(convexity, "_profile_pos_concave", affine_test)):
        yield


def outcome(fn, *args):
    """The JSON bytes of fn(*args).to_dict(), or the error it raises."""
    try:
        return json.dumps(fn(*args).to_dict())
    except QameansError as exc:
        return f"{type(exc).__name__}: {exc}"


def both_routes(fn, *args):
    ends = outcome(fn, *args)
    with sampled_route():
        return ends, outcome(fn, *args)


GRIDS = (3, 4, 5, 1025, 65537)
# p near 1, where x/(p - 1) overflows on wide intervals
NEAR_ONE = (1.0 - 1e-15, 1.0 + 1e-15, 1.0)
exponents = st.one_of(st.floats(-20.0, 0.0, exclude_max=True),
                      st.floats(0.0, 20.0, exclude_min=True), st.sampled_from(NEAR_ONE))


@st.composite
def intervals(draw, grids=GRIDS):
    """(interval, positive): [10^-a, 10^b] with a, b <= 300, the paper's
    [0.1, 10] (where power and exp cross: Incomparable), [1e10, 1e10 + 1],
    or, for the kinds defined on the whole line, an interval reaching below
    0, one from lo = -0.0, or [-1e300, 1e300]."""
    n = draw(st.sampled_from(grids))
    shape = draw(st.sampled_from(["decades", "decades", "paper", "narrow",
                                  "negative", "zero", "wide"]))
    if shape == "paper":
        return WorkingInterval(0.1, 10.0, n), True
    if shape == "narrow":
        return WorkingInterval(1e10, 1e10 + 1.0, n), True
    if shape == "wide":
        return WorkingInterval(-1e300, 1e300, n), False
    lo, hi = sorted(10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(2))
    assume(lo < hi)
    if shape == "decades":
        return WorkingInterval(lo, hi, n), True
    if shape == "zero":
        return WorkingInterval(-0.0, hi, n), False
    return WorkingInterval(-hi, draw(st.sampled_from([-lo, lo])), n), False


POSITIVE_KINDS = ("power", "log", "exp", "id", "affine")
LINE_KINDS = ("exp", "id", "affine")


@st.composite
def closed_form(draw, kind, iv):
    if kind == "power":
        p = draw(exponents)
        assume(not power_ends_equal(p, iv.lo, iv.hi))  # refused, pointing to log
        gen = PowerGenerator(p, iv)
    elif kind == "log":
        gen = LogGenerator(iv)
    elif kind == "exp":
        gen = ExpGenerator(iv)
    elif kind == "id":
        gen = AffineGenerator(1.0, 0.0, iv)
    else:
        gen = AffineGenerator(draw(st.sampled_from([-3.0, -0.5, 0.25, 2.0])),
                              draw(st.floats(-5.0, 5.0)), iv)
    a, b = gen.rho_ends()
    # an overflowed profile is refused by the end route only (tested below)
    assume(np.isfinite(a) == np.isfinite(b))
    return Negated(gen) if draw(st.booleans()) else gen


@st.composite
def pairs(draw, grids=GRIDS):
    """Two closed forms of any two kinds on one interval, or both reflected
    onto its mirror."""
    iv, positive = draw(intervals(grids))
    kinds = POSITIVE_KINDS if positive else LINE_KINDS
    kind_f, kind_g = draw(st.sampled_from([(a, b) for a in kinds for b in kinds]))
    f, g = draw(closed_form(kind_f, iv)), draw(closed_form(kind_g, iv))
    if draw(st.booleans()):
        f, g = reflect_generator(f), reflect_generator(g)
    return f, g


@settings(max_examples=400)
@given(pair=pairs())
def test_classify_and_compare_read_the_sampled_bytes_from_the_ends(pair):
    """Byte-equal reports by both routes, for pairs whose reciprocals 1/rho
    run every way: opposite, constant, the same way, and pairs that come out
    Incomparable, whose witnesses the end route names at lo and hi."""
    f, g = pair
    for gen in pair:
        ends, sampled = both_routes(classify, gen)
        assert ends == sampled
    ends, sampled = both_routes(compare, f, g)
    assert ends == sampled


# On [0.1, 10] 1/rho is (p - 1)/x for power:p, -1/x for log, 1 for exp and 0
# for affine kinds: every pair of directions, and power against exp crosses.
CATALOG = ("power:3", "power:2", "power:0.5", "power:-1", "power:1", "log", "exp",
           "id", "affine:-2:3")


@pytest.mark.parametrize("n", GRIDS)
def test_every_catalog_pair_reads_the_sampled_bytes_from_the_ends(n):
    """Every ordered pair, direct and reflected, of every relation: the
    same-way and Incomparable pairs read from the ends as the rest do."""
    iv = WorkingInterval(0.1, 10.0, n)
    gens = [parse_generator(spec, iv) for spec in CATALOG]
    relations = set()
    for mirror in (lambda g: g, reflect_generator):
        for f in gens:
            for g in gens:
                ends, sampled = both_routes(compare, mirror(f), mirror(g))
                assert ends == sampled
                relations.add(json.loads(ends)["relation"])
    assert relations == {"Equal", "LessOrEqual", "GreaterOrEqual", "Incomparable"}


def envelope_outcome(fn, gen):
    """The status and diagnostics of fn(gen), or the error it raises with a
    SignChange's witness."""
    try:
        env = fn(gen)
    except QameansError as exc:
        return f"{type(exc).__name__}: {exc}", json.dumps(getattr(exc, "witness", None))
    return env.status, json.dumps(env.diagnostics)


@settings(max_examples=150)
@given(pair=pairs(grids=(3, 4, 5, 1025)))
def test_an_envelope_reads_the_sampled_status_and_diagnostics_from_the_ends(pair):
    gen = pair[0]
    for fn in (qa_convex_envelope, qa_concave_envelope, qa_concave_envelope_via_reflection):
        ends = envelope_outcome(fn, gen)
        with sampled_route():
            assert envelope_outcome(fn, gen) == ends


class TwoPointProfile(Generator):
    """A closed form whose rho takes at most two points: any grid sample of
    its profile fails the test that reads it."""

    def __init__(self, inner: Generator):
        self.inner = inner
        self.domain = inner.domain

    def f(self, x):
        return self.inner.f(x)

    def finv(self, y):
        return self.inner.finv(y)

    def f1(self, x):
        return self.inner.f1(x)

    def rho(self, x):
        x = np.asarray(x, dtype=float)
        if x.size > 2:
            raise AssertionError(f"rho sampled at {x.size} points")
        return self.inner.rho(x)

    def rho_ends(self):
        d = self.domain
        return tuple(self.rho(np.array([d.lo, d.hi])).tolist())

    def spec_string(self):
        return self.inner.spec_string()


CAP = WorkingInterval(0.1, 10.0, 2**20 + 1)
KINDS = {"power:3": "Convex", "power:0.5": "Concave", "power:-5": "Concave",
         "power:1": "ArithmeticBoth", "log": "Concave", "exp": "Convex",
         "id": "ArithmeticBoth", "affine:-2:3": "ArithmeticBoth"}
# (f, g, relation): the reciprocals sigma = 1/rho run opposite ways, or one
# is constant, or they run the same way (power:3 and power:2, log and
# power:0.5), or cross (power:3 and exp)
PAIRS = (("power:3", "log", "GreaterOrEqual"),
         ("log", "power:2", "LessOrEqual"),
         ("power:-1", "exp", "LessOrEqual"),
         ("id", "power:-1", "GreaterOrEqual"),
         ("exp", "id", "GreaterOrEqual"),
         ("affine:-2:3", "id", "Equal"),
         ("power:3", "power:2", "GreaterOrEqual"),
         ("log", "power:0.5", "LessOrEqual"),
         ("power:3", "exp", "Incomparable"))


def _no_grid(self):
    raise AssertionError(f"grid of {self} built")


@pytest.mark.parametrize("wrap", [lambda g: g, reflect_generator, Negated, TwoPointProfile],
                         ids=["plain", "reflected", "negated", "two-point-rho"])
def test_the_end_route_samples_nothing(monkeypatch, wrap):
    """At the cap grid, with every grid refused, classify of each closed-form
    kind and compare of pairs of every relation; a reflection swaps Convex
    and Concave, and the two one-sided relations.  An Incomparable report's
    witnesses name the interval's ends."""
    monkeypatch.setattr(WorkingInterval, "grid", _no_grid)
    swap = {"Convex": "Concave", "Concave": "Convex",
            "LessOrEqual": "GreaterOrEqual", "GreaterOrEqual": "LessOrEqual"}
    mirrored = (lambda v: swap.get(v, v)) if wrap is reflect_generator else (lambda v: v)
    for spec, want in KINDS.items():
        assert classify(wrap(parse_generator(spec, CAP))).value == mirrored(want)
    for f, g, want in PAIRS:
        f, g = wrap(parse_generator(f, CAP)), wrap(parse_generator(g, CAP))
        rep = compare(f, g)
        assert rep.relation == mirrored(want)
        if want == "Incomparable":
            ends = {f.domain.lo, f.domain.hi}
            assert {rep.witness["le_fails_at"], rep.witness["ge_fails_at"]} == ends


def test_an_envelope_that_ends_none_exists_samples_no_profile():
    iv = WorkingInterval(0.1, 10.0)
    assert qa_concave_envelope(TwoPointProfile(PowerGenerator(3.0, iv))).status == "NoneExists"
    assert qa_convex_envelope(TwoPointProfile(LogGenerator(iv))).status == "NoneExists"


def test_a_sign_change_names_its_witness_from_the_ends():
    """rho = x/(p - 1) is negative and least at hi, and x**p is so nearly
    linear that no grid pair confirms the missing convex envelope: the
    SignChange names hi and rho there without sampling rho."""
    gen = TwoPointProfile(PowerGenerator(0.999999999, WorkingInterval(0.1, 10.0)))
    with pytest.raises(SignChange, match="no grid pair confirms it") as info:
        qa_convex_envelope(gen)
    assert info.value.witness == {"x": 10.0, "rho": gen.rho_ends()[1]}


def test_a_sign_change_from_lo_minus_zero_names_the_grids_first_point():
    """On [-0.0, 1e-5] exp's profile has the wrong sign for a concave
    envelope; the end route's witness is the sampled one, x = 0.0, which
    linspace puts first, not lo's -0.0.  No pair of the 1025-point grid
    confirms the refusal; the grid's two ends, from 0.0, do."""
    gen = ExpGenerator(WorkingInterval(-0.0, 1e-5))
    witnesses = []
    for route in (nullcontext, sampled_route):
        with route():
            _, _, (test,) = convexity._profile_tests(gen, "concave")
            witnesses.append(json.dumps(test["witness"]))
            pair = qa_concave_envelope(gen).diagnostics["witness"]["values"]
            assert json.dumps(pair) == "[0.0, 1e-05]"
    assert witnesses == ['{"x": 0.0, "rho": -1.0}'] * 2


def test_a_same_way_pair_on_a_narrow_interval_reports_its_end_gaps():
    """power:3 against power:3.0000001 on [1e10, 1e10 + 1]: the difference
    of the reciprocals is one float at both ends, and the sampled max, by
    rounding from cancellation in 1/rho, sits at grid index 9.  The report
    was {"relation": "LessOrEqual", "delta": 2.0000000999999998e-19,
    "max_gap": -9.999999941149167e-18, "min_gap": -9.999999966998561e-18};
    its gaps are now both the ends' -9.999999966998561e-18."""
    iv = WorkingInterval(1e10, 1e10 + 1.0)
    f, g = PowerGenerator(3.0, iv), PowerGenerator(3.0000001, iv)
    d = 1.0 / rho(f) - 1.0 / rho(g)
    rep = compare(f, g)
    assert rep.max_gap == rep.min_gap == d[0] == d[-1] == -9.999999966998561e-18
    assert json.dumps(rep.to_dict()) == (
        '{"relation": "LessOrEqual", "delta": 2.0000000999999998e-19, '
        '"max_gap": -9.999999966998561e-18, "min_gap": -9.999999966998561e-18}')
    assert d.max() == -9.999999941149167e-18  # the old report's max_gap


@pytest.mark.parametrize("p", [1.0000000000000002, 0.9999999999999999])
def test_an_overflowed_profile_is_a_range_error_that_compare_answers(p):
    """rho = x/(p - 1) is finite at lo and infinite at hi: classify and the
    envelopes refuse it, compare orders it as the sampled route does."""
    gen = PowerGenerator(p, WorkingInterval(1.0, 1e300))
    for fn in (classify, qa_convex_envelope, qa_concave_envelope):
        with pytest.raises(QameansError, match="rho overflows on"):
            fn(gen)
    ends, sampled = both_routes(compare, gen, LogGenerator(gen.domain))
    assert ends == sampled and json.loads(ends)["relation"] != "Incomparable"


def test_a_power_whose_profile_underflows_at_lo_is_refused_by_its_sample():
    """x/(p - 1) = 5e-324/3 rounds to 0 at lo, an infinite f'': power:4
    states no end values there (read from them, the span would be divided
    by that 0), and rho() refuses the sample, as for every call here."""
    gen = PowerGenerator(4.0, WorkingInterval(5e-324, 1.0))
    log = LogGenerator(gen.domain)
    assert gen.rho_ends() is None
    for fn, args in ((classify, (gen,)), (compare, (gen, log)), (qa_convex_envelope, (gen,)),
                     (qa_concave_envelope, (gen,))):
        with pytest.raises(RangeError, match="^power:4: f'' is not finite on the grid$"):
            fn(*args)


def test_a_tabulated_closed_form_is_refused_at_the_ends_as_the_closed_form_is():
    """On [0, 1e-5] f's second differences are rounding noise, so no run of
    them confirms that tabulated exp has no concave envelope; the grid's two
    ends do, by the direct and the reflected route, as they do for exp."""
    gen = ExpGenerator(WorkingInterval(0.0, 1e-5))
    for g in (gen, tabulate(gen)):
        for fn in (qa_concave_envelope, qa_concave_envelope_via_reflection):
            env = fn(g)
            assert env.status == "NoneExists"
            assert json.dumps(env.diagnostics["witness"]["values"]) == "[0.0, 1e-05]"
