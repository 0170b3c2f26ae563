"""The paper's theorem on a generator that is C^1 but not C^2.

f = x^2 on [0.1, 1] and x^2 + (x - 1)^2 past 1, on [0.1, 3]: f'' jumps
from 2 to 4 at x = 1, so the profile f'/f'' jumps from 1 down to 1/2.
A convex or concave QA mean needs a C^2 generator, so this mean is
neither; its convex envelope exists, and the envelope's generator is C^2
again (its profile is the concave hull of f'/f'').  The table is built
from x and f only, so f' and the profile come from finite differences.
"""

import numpy as np
import pytest

from qameans.cli import run
from qameans.convexity import classify
from qameans.envelope import qa_convex_envelope
from qameans.generators import PowerGenerator, TabulatedGenerator, load_table
from qameans.grids import WorkingInterval
from qameans.verify import maximality_check

from conftest import assert_jensen_witness_reverifies, jensen_check
from oracles import kinked_square_envelope_mean

GRIDS = (257, 1025, 16385)
PAIR = (0.2, 2.9)


def _kinked_square(xs):
    return xs * xs + np.where(xs > 1.0, (xs - 1.0) ** 2, 0.0)


def _kinked_table(tmp_path, grid: int) -> str:
    xs = np.linspace(0.1, 3.0, grid)
    fs = _kinked_square(xs)
    path = tmp_path / f"kinked{grid}.csv"
    path.write_text("x,f\n" + "".join(f"{x!r},{f!r}\n"
                                      for x, f in zip(xs.tolist(), fs.tolist())))
    return str(path)


@pytest.fixture(scope="module")
def envelopes(tmp_path_factory):
    """(table path, table, convex envelope) per grid."""
    tmp = tmp_path_factory.mktemp("kinked")
    out = {}
    for grid in GRIDS:
        path = _kinked_table(tmp, grid)
        table = load_table(path)
        out[grid] = (path, table, qa_convex_envelope(table))
    return out


@pytest.mark.parametrize("grid", GRIDS)
def test_kinked_square_is_neither_with_an_envelope(envelopes, grid):
    _, table, env = envelopes[grid]
    verdict = classify(table)
    assert verdict.value == "Neither"
    assert verdict.evidence["convex_test"]["reason"] == "nonconcave-rho"
    assert env.status == "Envelope"
    assert maximality_check(table, env, 10, 100, seed=0).passed


@pytest.mark.parametrize("grid", GRIDS)
def test_kinked_square_envelope_csv_reloads_convex(envelopes, tmp_path, capsys, grid):
    path = envelopes[grid][0]
    out_path = tmp_path / "env.csv"
    assert run(["envelope", "--gen", f"table:{path}", "--kind", "convex",
                "--format", "csv", "--out", str(out_path)]) == 0
    assert classify(load_table(str(out_path))).value == "Convex"


def test_kinked_square_envelope_mean_converges(envelopes):
    exact = kinked_square_envelope_mean(PAIR)
    assert exact == pytest.approx(2.0897553921242866, rel=1e-15)
    errors = [abs(envelopes[grid][2].mean_handle()(list(PAIR)) - exact)
              for grid in GRIDS]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 2e-5


# The contrapositive of the theorem, sampled: a generator that is not C^2
# (the kinked square, or x + x^4, whose f'' vanishes at 0) has a mean that
# is not convex, and the convexity pairing of ingham_jessen_check finds an
# n-by-2 matrix [X Y] with QA((X + Y) / 2) > (QA(X) + QA(Y)) / 2.
CONTRA_IV = WorkingInterval(0.1, 3.0, 1025)
QUARTIC_IV = WorkingInterval(-0.5, 1.0, 1025)


def _convexity_checks(gen):
    return [(n, jensen_check(gen, "convex", n, 20000, seed=0)) for n in (2, 3, 4)]


@pytest.mark.parametrize("case", ["kinked-square", "x+x^4"])
def test_a_mean_whose_generator_is_not_c2_is_not_convex(case):
    if case == "kinked-square":  # f'' jumps from 2 to 4 at 1
        gen = TabulatedGenerator(CONTRA_IV, _kinked_square(CONTRA_IV.grid()))
    else:  # f'' = 12 x^2 vanishes at 0
        xs = QUARTIC_IV.grid()
        gen = TabulatedGenerator(QUARTIC_IV, xs + xs**4)
    for n, rep in _convexity_checks(gen):
        assert not rep.passed and rep.worst_margin < -1e-2, n
        assert_jensen_witness_reverifies(gen, "convex", rep)
        if case == "kinked-square":
            # The profile is x below 1 and x - 1/2 above, affine on each side,
            # so the mean is convex on each side and a violation crosses 1.
            # x + x^4's profile 1/(12 x^2) + x/3 is convex on each side of 0,
            # so its shrunk witness may stay on one side.
            x = np.array(rep.witness["matrix"])
            assert x.min() < 1.0 < x.max(), n


def test_a_c2_generator_on_the_same_grid_is_convex_to_its_resolution():
    xs = CONTRA_IV.grid()
    square = TabulatedGenerator(CONTRA_IV, xs * xs)
    assert all(rep.worst_margin > -1e-5 for _, rep in _convexity_checks(square))
    cubic = PowerGenerator(3.0, CONTRA_IV)
    assert all(rep.failures == 0 for _, rep in _convexity_checks(cubic))
