"""The column-wise report writers, the float hull scan and the numpy table
parse against the row-wise, numpy-scalar and float()-per-cell references.

Each fast path does the same IEEE arithmetic or the same formatting as its
reference, so the comparisons are exact: equal strings, equal vertex
tuples, bit-equal arrays.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qameans.cli import _envelope_csv, _json_text, run
from qameans.envelope import _monotone_chain, qa_convex_envelope
from qameans.generators import (
    LogGenerator,
    PowerGenerator,
    load_table,
    normalize,
    rho,
)
from qameans.grids import WorkingInterval

from conftest import build_from_profile
from oracles import (
    float_cell_table,
    indented_json,
    numpy_scalar_monotone_chain,
    rowwise_envelope_csv,
)

NAN, INF = float("nan"), float("inf")

floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.none() | st.booleans() | st.integers() | floats | st.text()
leaves = scalars | st.lists(floats) | st.lists(st.integers() | floats)
trees = st.recursive(
    leaves,
    lambda kids: (st.lists(kids) | st.tuples(kids, kids)
                  | st.dictionaries(st.text(), kids)),
    max_leaves=24,
)


@given(trees)
@example({"empty_list": [], "empty_dict": {}, "tuple": (1.5, NAN),
          "nested": [[-0.0, INF], [-INF], []], "mixed": [1, 2.5, True, None],
          "text": "é€\n\"q\""})
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == indented_json(obj)


@pytest.mark.parametrize("argv", [
    ["eval", "--gen", "log", "--vec", "1,7"],
    ["classify", "--gen", "power:3"],
    ["compare", "--gen", "power:2", "--gen2", "power:3"],
    ["envelope", "--gen", "power:3", "--grid", "257", "--trials", "500"],
    ["envelope", "--gen", "exp", "--kind", "concave", "--trials", "500"],
    ["verify", "--check", "kedlaya", "--gen", "log", "--trials", "200"],
])
def test_json_writer_matches_json_dumps_on_reports(tmp_path, argv):
    path = tmp_path / "report.json"
    assert run(argv + ["--out", str(path)]) in (0, 1)
    text = path.read_text()
    assert text == indented_json(json.loads(text)) + "\n"


def _extremal(n):
    return qa_convex_envelope(PowerGenerator(3.0, WorkingInterval(0.1, 10.0, n)))


def _envelope(n):
    iv = WorkingInterval(1.0, 3.0, n)
    return qa_convex_envelope(build_from_profile(iv.grid() ** 2, iv, "rho-x2"))


@pytest.mark.parametrize("n", [3, 1025])
@pytest.mark.parametrize("build, status", [(_extremal, "AlreadyExtremal"),
                                           (_envelope, "Envelope")])
def test_envelope_csv_matches_rowwise_writer(n, build, status):
    result = build(n)
    assert result.status == status
    config = {"command": "envelope", "grid_points": n, "seed": 0}
    assert _envelope_csv(result, config) == rowwise_envelope_csv(result, config)


@pytest.mark.parametrize("gen", [PowerGenerator(3.0, WorkingInterval(0.1, 10.0, 65537)),
                                 LogGenerator(WorkingInterval(0.1, 10.0, 65537))],
                         ids=["power:3", "log"])
@pytest.mark.parametrize("upper", [True, False])
def test_float_hull_scan_matches_numpy_scalar_scan(gen, upper):
    # rho is x/2 for power:3 and -x for log: every point is nearly collinear
    # with its neighbours, so each pop hinges on the last bits of the cross.
    profile = rho(normalize(gen))
    xs = profile.interval.grid()
    assert (_monotone_chain(xs, profile.values, upper)
            == numpy_scalar_monotone_chain(xs, profile.values, upper))


def test_load_table_is_bit_equal_to_float_per_cell(tmp_path):
    env = tmp_path / "env.csv"
    assert run(["envelope", "--gen", "power:3", "--grid", "1025", "--trials", "500",
                "--format", "csv", "--out", str(env)]) == 0
    header, data = float_cell_table(env)
    tab = load_table(str(env))
    g1 = data[:, header.index("g1")]
    assert np.array_equal(tab.values, data[:, header.index("g")])
    assert np.array_equal(tab.f1_values, g1)
    assert np.array_equal(tab.rho_values, data[:, header.index("m")])
    assert (tab.domain.lo, tab.domain.hi) == (data[0, 0], data[-1, 0])

    # Cells spelled in several ways float() takes, some padded with blanks.
    xs = ["0", " 0.25", "5e-1 ", "+0.75", "1.", "1.25E0", "1.5000000000000000001"]
    fs = ["-1e-300", "1E-1", " .25 ", "0.6666666666666666", "7", "8.5e+2", "1e300"]
    hand = tmp_path / "hand.csv"
    hand.write_text("\n".join(f"{x},{f}" for x, f in zip(xs, fs)) + "\n")
    _, data = float_cell_table(hand)
    assert np.array_equal(load_table(str(hand)).values, data[:, 1])
