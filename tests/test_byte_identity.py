"""The column-wise report writers, the orjson float formatter, the float
hull scan and the numpy table parse against the row-wise, per-cell repr,
numpy-scalar and float()-per-cell references.

Each fast path does the same IEEE arithmetic or the same formatting as its
reference, so the comparisons are exact: equal strings, equal vertex
tuples, bit-equal arrays.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qameans import cli
from qameans.cli import _envelope_csv, _float_text, _json_text, run
from qameans.envelope import _monotone_chain, qa_concave_envelope, qa_convex_envelope
from qameans.generators import (
    ExpGenerator,
    LogGenerator,
    PowerGenerator,
    load_table,
    rho,
)
from qameans.grids import WorkingInterval

from conftest import build_from_profile
from oracles import (
    float_cell_table,
    indented_json,
    numpy_scalar_monotone_chain,
    per_cell_float_text,
    rowwise_envelope_csv,
)

NAN, INF = float("nan"), float("inf")


def _text(blocks):
    """The text of a writer's ASCII byte blocks."""
    return b"".join(blocks).decode("ascii")


def _assert_same_text(got: str, want: str) -> None:
    """Require equal report texts; else fail naming the first differing line
    and both versions of it, which a multi-megabyte diff would take minutes
    to show."""
    if got == want:
        return
    a, b = got.split("\n"), want.split("\n")
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    end = "<end of text>"
    pytest.fail(f"line {k + 1} differs: got {a[k] if k < len(a) else end!r}, "
                f"want {b[k] if k < len(b) else end!r}", pytrace=False)


@pytest.mark.parametrize("got, want, line", [
    ("a\nb\nc", "a\nB\nc", "line 2 differs: got 'b', want 'B'"),
    ("a\nb", "a\nb\n", "line 3 differs: got '<end of text>', want ''"),
    ("a\nb\nc", "a\nb", "line 3 differs: got 'c', want '<end of text>'"),
])
def test_text_comparison_names_the_first_differing_line(got, want, line):
    _assert_same_text(want, want)
    with pytest.raises(pytest.fail.Exception, match=f"^{line}$"):
        _assert_same_text(got, want)

floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.none() | st.booleans() | st.integers() | floats | st.text()
leaves = scalars | st.lists(floats) | st.lists(st.integers() | floats)
trees = st.recursive(
    leaves,
    lambda kids: (st.lists(kids) | st.tuples(kids, kids)
                  | st.dictionaries(st.text(), kids)),
    max_leaves=24,
)


# The ends of the range where orjson's text is repr's, and the least subnormal.
EDGES = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 5e-324]
# Keys of top-level arrays, most of which json escapes.
ARRAY_KEYS = ["g", '"', "\\", "é", "a\nb"]
array_items = floats | st.sampled_from(EDGES + [NAN, INF, -INF, 0.0, -0.0])


@st.composite
def reports(draw):
    """A report: trees under text keys, and 0 to 3 1-D float arrays under
    ARRAY_KEYS placed between them, now and then after a nested dict that
    holds the first array's key."""
    items = list(draw(st.dictionaries(st.text(), trees, max_size=4)).items())
    keys = draw(st.lists(st.sampled_from(ARRAY_KEYS), max_size=3, unique=True))
    if keys and draw(st.booleans()):
        items.append(("nested", {keys[0]: draw(trees)}))
    items = [(k, v) for k, v in items if k not in keys]
    for key in keys:
        values = np.array(draw(st.lists(array_items, max_size=20)), dtype=float)
        items.insert(draw(st.integers(0, len(items))), (key, values))
    return dict(items)


# Reports orjson writes: no NaN or +-inf outside a top-level array, no
# non-ASCII or 0x7f, and nothing it refuses; a None is json's null too.
# Their odd floats, exponents -5 to -9, >= 16 and <= -300 and [1e-5, 1e-4),
# are respelled as repr spells them, in nested lists and dicts, beside
# strings and keys that end in such numbers.
ORJSON_ROUTE = [
    {"config": {"gen": "log", "gen2": None, "seed": 3}, "witness": None, "v": 1e-05},
    {"null": [None, "null", {"x": None}], "g": np.array([NAN, INF, -INF, 0.5]), "t": (None,)},
    {"config": {"lo": 1.2345e-05, "hi": 1.5e16, "grid_points": 1025, "seed": 0},
     "relation": "Equal", "delta": 2e-08, "max_gap": 3.3e-09, "min_gap": -7.7e-07},
    {"odd": [3.3e-06, [7.77e-07, {"b": 9.1e-08, "c 1e-05": -2.2e-09}], 1e-05],
     "big": [1e16, 1.7976931348623157e308, -4.4e300, 123456789012345678.0, 1e22],
     "tiny": [5e-324, -2.2250738585072014e-308, 1e-300, 2.5e-310],
     "positional": [9.999999999999999e-05, -1.23e-05, 5e-05, 0.0001, 1e-4 * (1 - 2**-52)],
     "holding 0.0000": [10.00001, -100.00001, 1.0000001e20, 1.00001e-07, 0.000100001],
     "plain": [0.5, -0.0, 0.0, 1e15, 9999999999999998.0, 2**63, -(2**63), 0, True, False],
     "text": "x 1e-05\n 1e16", "e": {}, "l": [[], {}], "t": (1.5e-06, 2)},
    {"a": np.array([1.5e-07, 0.5, 1e16]), "nested": {"a": [6e-06]}, "k": 7e-300,
     "b": np.array([]), "c": np.array([2.5e-05])},
]
# Reports json.dumps writes, one trigger each: NaN, inf or -inf alone and
# beside None, 0x7f and a non-ASCII character in a string, an int beyond 64
# bits, a numpy scalar, a lone surrogate and a key that is not a str.
FALLBACK_ROUTE = [
    {"gap": NAN, "v": 1e-05},
    {"config": {"hi": INF}},
    {"w": [{"lo": -INF}], "t": (1.5, 2)},
    {"witness": None, "gap": NAN, "v": 1e-05, "g": np.array([1e16, 0.5])},
    {"t": (None, [INF, -INF]), "x": None, "s": "null"},
    {"text": "a\x7fb", "v": 2e-08},
    {"text": "é", "v": 1e16},
    {"n": 2**64, "v": 1e-05},
    {"v": np.float64(1e-05), "w": [np.float64(0.5)]},
    {"text": "\ud800", "v": 3e-07},
    {1: 2.0, "v": 1e-05},
]


def _examples(test):
    for report in ORJSON_ROUTE + FALLBACK_ROUTE:
        test = example(report)(test)
    return test


@given(reports())
@_examples
@example({"g": np.array([]), "empty_list": [], "empty_dict": {}, "tuple": (1.5, NAN),
          "nested": [[-0.0, INF], [-INF], []], '"': np.array([0.5]),
          "mixed": [1, 2.5, True, None], "text": "é€\n\"q\"",
          "a\nb": np.array(EDGES + [-v for v in EDGES]
                           + [NAN, INF, -INF, 0.0, -0.0, 1.5, 2.0, 1e-5, 1e20, 7.25])})
@example({"inner": {"g": [1.0], "\\": {"é": 2}}, "g": np.array([2.5]), "x": None,
          "é": np.array([NAN, 0.25]), "\\": np.array([-0.0])})
def test_json_writer_matches_json_dumps(report):
    lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in report.items()}
    assert _text(_json_text(report)) == indented_json(lists)


class _CountingEncoder:
    """Stands in for cli._JSON, the fallback's encoder, and counts its calls."""

    calls = 0

    def encode(self, obj):
        self.calls += 1
        return json.dumps(obj, indent=2)


@pytest.mark.parametrize("report, orjson_writes", [
    *((r, True) for r in ORJSON_ROUTE), *((r, False) for r in FALLBACK_ROUTE)])
def test_json_writer_takes_orjson_unless_a_fallback_trigger_is_present(
        monkeypatch, report, orjson_writes):
    encoder = _CountingEncoder()
    monkeypatch.setattr(cli, "_JSON", encoder)
    lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in report.items()}
    assert _text(_json_text(report)) == indented_json(lists)
    assert encoder.calls == (0 if orjson_writes else 1)


# Row separators and spellings of the two report formats: JSON list items,
# CSV rows.
SPELLINGS = [(",\n  ", json.dumps), ("\n", repr)]


# Block sizes for _float_text: a few rows, so that hypothesis draws cross
# block edges, and the writer's own.  Its edge is crossed by the 65537-row
# CSV below, 8 blocks and one row.
BLOCK_SIZES = [1, 2, 3, cli._BLOCK_ROWS]
# Rows outside orjson's range at block 0's first and last row, next to each
# other across the edge of blocks of 3, and filling whole blocks of 1 and 2.
ODD_LIST = [1e-5, 0.5, 1e300, NAN, 2.5, 3.5, -INF]
ODD_TABLE = np.array([[1e-5, 1.0], [0.5, 0.25], [2.0, 1e300], [NAN, 3.0],
                      [4.0, 5.0], [6.0, -INF]])


def _assert_blocks_match_per_cell_spelling(columns, table):
    """_float_text of columns against the per-cell text of table, the same
    cells in rows."""
    for rows in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK_ROWS", rows)
            for row_sep, spell in SPELLINGS:
                blocks = list(_float_text(columns, row_sep, spell))
                _assert_same_text(_text(blocks), per_cell_float_text(table, row_sep, spell))
                # A block holds at most `rows` rows, with the separator that
                # opens every block but the first.
                assert all(b.count(row_sep.encode()) <= rows for b in blocks)


@given(st.lists(floats))
@example(EDGES)
@example([-v for v in EDGES] + [0.0, -0.0, NAN, INF, -INF])
@example(ODD_LIST)
@example([1e-5, NAN, INF, -1e20])
@example([0.5, -0.0, 1e15, 1e-4])
def test_float_text_matches_per_cell_spelling_on_lists(values):
    _assert_blocks_match_per_cell_spelling([values], values)


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2), elements=floats))
@example(np.array([EDGES[:2], EDGES[2:4], [EDGES[4], -0.0], [1.5, NAN], [-INF, 2.0]]))
@example(ODD_TABLE)
@example(np.array([[1e-5, 1.0], [NAN, 0.5], [2.0, 1e20]]))
@example(np.array([[0.5, 1.0, -2.0], [0.0, -0.0, 1e15], [3.25, 1e-4, 9999999999999998.0]]))
# One row longer than a block of 3.
@example(np.linspace(0.5, 4.0, 8).reshape(4, 2))
# Cells of 3 and 4 characters, so that row ends fall at every byte of a word.
@example(np.array([[1.0, 0.0, 2.0], [-0.0, 5.0, 1.0], [0.5, 10.0, 0.0], [3.0, -1.0, 7.0],
                   [0.0, 0.0, 0.0], [9.0, -2.5, 1.0]]))
def test_float_text_matches_per_cell_spelling_on_tables(table):
    _assert_blocks_match_per_cell_spelling(list(table.T), table)


# Cells orjson spells as repr does, of either sign, and the others: nonzero
# |v| < 1e-4, |v| >= 1e16, NaN, +-inf, and +-0, which it spells as repr does
# but which fail the block's min |v| test.
in_range = st.floats(1e-4, 9999999999999998.0) | st.floats(-9999999999999998.0, -1e-4)
odd_cells = (st.floats(-9.999999999999999e-05, 9.999999999999999e-05)
             | st.sampled_from([1e16, -1e16, 1e300, -1.7976931348623157e308,
                                NAN, INF, -INF, 0.0, -0.0]))


@st.composite
def column_lists(draw):
    """1 to 6 columns of up to 13 rows, most cells in orjson's range and a
    few odd ones at the first or last row of a block of 1, 2 or 3 rows or of
    the table; now and then the last column is a function of the first."""
    ncols, nrows = draw(st.integers(1, 6)), draw(st.integers(0, 13))
    table = np.array([[draw(in_range) for _ in range(ncols)] for _ in range(nrows)])
    table = table.reshape(nrows, ncols)
    edges = [r for r in range(nrows) if r % 3 != 1 or r == nrows - 1]
    for _ in range(draw(st.integers(0, 3)) if nrows else 0):
        table[draw(st.sampled_from(edges)), draw(st.integers(0, ncols - 1))] = draw(odd_cells)
    columns = list(table.T)
    if ncols > 1 and draw(st.booleans()):
        columns[-1] = np.negative
        table[:, -1] = -table[:, 0]
    return columns, table


@given(column_lists())
def test_float_text_matches_per_cell_spelling_on_column_lists(drawn):
    _assert_blocks_match_per_cell_spelling(*drawn)


@pytest.mark.parametrize("argv", [
    ["eval", "--gen", "log", "--vec", "1,7"],
    ["classify", "--gen", "power:3"],
    ["compare", "--gen", "power:2", "--gen2", "power:3"],
    ["envelope", "--gen", "power:3", "--grid", "257", "--trials", "500"],
    ["envelope", "--gen", "exp", "--kind", "concave", "--trials", "500"],
    ["verify", "--check", "kedlaya", "--gen", "log", "--trials", "200"],
    ["envelope", "--gen", "power:3", "--grid", "65537", "--trials", "500"],
    ["eval", "--gen", "log", "--lo", "1e-7", "--vec-file", "rows.csv"],
    ["eval", "--gen", "log", "--vec-file", "comments.csv"],
    ["verify", "--check", "ij", "--gen", "arith", "--gen2", "log", "--trials", "800"],
])
def test_json_writer_matches_json_dumps_on_reports(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    # Rows of two lengths, one of whose means lies below 1e-4.
    Path("rows.csv").write_text("1,7\n# a comment\n2,3,4\n1e-6,1e-5\n0.5,9\n")
    Path("comments.csv").write_text("# only\n\n# comments\n")
    path = tmp_path / "report.json"
    assert run(argv + ["--out", str(path)]) in (0, 1)
    text = path.read_text()
    _assert_same_text(text, indented_json(json.loads(text)) + "\n")


@pytest.mark.parametrize("argv", [
    ["envelope", "--gen", "power:3", "--grid", "65537"],
    ["envelope", "--gen", "power:3", "--grid", "65537", "--format", "csv"],
    ["classify", "--gen", "power:3"],
    ["compare", "--gen", "power:2", "--gen2", "log"],
], ids=["envelope json", "envelope csv", "classify", "compare"])
def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys, argv):
    path = tmp_path / "report"
    path.write_bytes(b"an older, longer file that --out must truncate" * 10**5)
    assert run(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert run(argv) == 0
    _assert_same_text(path.read_bytes().decode("ascii"), capsys.readouterr().out)


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
    assert _text(_envelope_csv(result, config)) == rowwise_envelope_csv(result, config)


def test_log_concave_envelope_csv_at_65537_matches_rowwise_writer():
    result = qa_concave_envelope(LogGenerator(WorkingInterval(0.1, 10.0, 65537)))
    config = {"command": "envelope", "grid_points": 65537, "seed": 0}
    text = _text(_envelope_csv(result, config))
    # One cell lies below 1e-4, where orjson writes 0.00002746544313380802,
    # so the equality below covers the rewrite of its row through repr.
    assert text.count("e-05") == 1 and ",2.746544313380802e-05," in text
    _assert_same_text(text, rowwise_envelope_csv(result, config))


# The 65537-row CSVs of log concave and power:3 convex against the row-wise
# writer on the same result; prints numpy's X86_V4 flag and the rows checked.
SIMD_CSV_COMPARISON = """
from numpy._core._multiarray_umath import __cpu_features__
from oracles import rowwise_envelope_csv
from qameans.cli import _envelope_csv
from qameans.envelope import qa_concave_envelope, qa_convex_envelope
from qameans.generators import LogGenerator, PowerGenerator
from qameans.grids import WorkingInterval

iv = WorkingInterval(0.1, 10.0, 65537)
rows = 0
for result in (qa_concave_envelope(LogGenerator(iv)),
               qa_convex_envelope(PowerGenerator(3.0, iv))):
    config = {"command": "envelope", "grid_points": 65537, "seed": 0}
    text = b"".join(_envelope_csv(result, config)).decode("ascii")
    assert text == rowwise_envelope_csv(result, config), result.status
    rows += text.count("\\n") - 2
print(bool(__cpu_features__.get("X86_V4")), rows)
"""


def test_envelope_csv_matches_rowwise_writer_on_avx2_kernels():
    """NPY_DISABLE_CPU_FEATURES=X86_V4 makes numpy use its AVX2 kernels in
    that process only.  The values may differ from the default target's;
    their spelling must still be repr's."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-c", SIMD_CSV_COMPARISON], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", str(2 * 65537)]


_G65537 = WorkingInterval(0.1, 10.0, 65537)

# Profiles on the benchmark's largest grid, as tables of them are scanned:
# - power:3 (rho = x/2), log (-x) and exp (constant) are affine, so almost
#   every point replaces the top of the stack;
# - power:-5 (x/(-6)) is affine too, but its crosses alternate in sign with
#   the rounding, so vertices come and go within a few points;
# - the bump profile 1 + (x - 5)^2/4 of perfbench's write_bump_table is
#   convex, so its upper hull is the chord and its lower hull every point;
# - sqrt is concave: every point is an upper vertex, none replaces the top.
SCAN_PROFILES = {
    "power:3": lambda: rho(PowerGenerator(3.0, _G65537)),
    "log": lambda: rho(LogGenerator(_G65537)),
    "power:-5": lambda: rho(PowerGenerator(-5.0, _G65537)),
    "exp": lambda: rho(ExpGenerator(_G65537)),
    "bump": lambda: 1.0 + (_G65537.grid() - 5.0) ** 2 / 4.0,
    "sqrt": lambda: np.sqrt(_G65537.grid()),
}


@pytest.mark.parametrize("name", list(SCAN_PROFILES))
@pytest.mark.parametrize("upper", [True, False])
def test_float_hull_scan_matches_numpy_scalar_scan(name, upper):
    # On the affine profiles each pop hinges on the last bits of a nearly
    # collinear cross.
    xs, ys = _G65537.grid(), SCAN_PROFILES[name]()
    assert _monotone_chain(xs, ys, upper) == numpy_scalar_monotone_chain(xs, ys, upper)


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
