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
from qameans.generators import load_table
from qameans.verify import maximality_check

from oracles import kinked_square_envelope_mean

GRIDS = (257, 1025, 16385)
PAIR = (0.2, 2.9)


def _kinked_table(tmp_path, grid: int) -> str:
    xs = np.linspace(0.1, 3.0, grid)
    fs = xs * xs + np.where(xs > 1.0, (xs - 1.0) ** 2, 0.0)
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
