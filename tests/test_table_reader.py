"""The table reader: its orjson fast path against the np.loadtxt path it
falls back to and against float() per cell (``oracles.float_cell_table``).

Every comparison is bit for bit, through ``.view(np.uint64)``, so the sign
of zero counts.  The np.loadtxt path is forced by making ``_orjson_table``
decline every file; what it gives, values or error, is what the reader gave
before the fast path existed.

The memo tests check that a load reuses a kept table, parsed and checked,
exactly when the file holds the kept table's bytes, that the reuse is bit
for bit a fresh parse and check, and that finding them copies no whole file.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qameans import generators
from qameans.cli import run
from qameans.errors import QameansError, UsageError
from qameans.generators import _CHUNK_BYTES, TabulatedGenerator, _orjson_table, load_table
from qameans.grids import WorkingInterval

from oracles import float_cell_table

# Spellings float() takes and a JSON number also is (orjson reads them).
JSON_SPELLINGS = (repr, "{:.17g}".format, "{:.17E}".format)
# Spellings of finite values that only float() takes.
LOOSE_SPELLINGS = (
    lambda v: repr(v).replace("0.", ".", 1),                 # .5, -.5
    lambda v: f"{v:.0f}." if v.is_integer() else repr(v),    # 5.
    lambda v: "+" + repr(v) if v >= 0 else repr(v),          # +1
)
# Cells worth drawing by themselves: zeros of both signs, integers past 2**53
# and 2**64, upper-case exponents, the non-finite spellings and overflow.
SPECIAL_CELLS = ("0", "-0", "0.0", "-0.0", "1E5", "-1E-5", str(2**53 + 1),
                 str(2**64 + 1), str(-2**64 - 1), "18446744073709551615",
                 "1e-400", "-1e-400", "inf", "-inf", "nan", "-nan", "1e400")
JSON_SPECIAL_CELLS = SPECIAL_CELLS[:11]
SKIPPED_LINES = ("", "  ", ",,", " , ,", "# comment, 1, 2", "  # indented", "#1,2")

finite = st.floats(allow_nan=False, allow_infinity=False)
blanks = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def cells(draw, json_only):
    """One cell's text: a float spelled by some rule, a raw integer, or a
    special cell, padded with blanks."""
    kind = draw(st.sampled_from(["float", "int", "special"]))
    if kind == "float":
        rules = JSON_SPELLINGS if json_only else JSON_SPELLINGS + LOOSE_SPELLINGS
        text = draw(st.sampled_from(rules))(draw(finite))
    elif kind == "int":
        text = str(draw(st.integers(-2**70, 2**70)))
    else:
        text = draw(st.sampled_from(JSON_SPECIAL_CELLS if json_only else SPECIAL_CELLS))
    return draw(blanks) + text + draw(blanks)


@st.composite
def table_texts(draw):
    """CSV text of a table: optional header, skipped lines before and after
    it, 3 to 8 data rows, LF or CRLF line ends.  Half the tables spell every
    cell as a JSON number and put no skipped line among the data, which the
    fast path takes unless a cell is an integer -0 or the first data line
    opens with a blank."""
    json_only = draw(st.booleans())
    cols = draw(st.integers(2, 5))
    rows = [[draw(cells(json_only)) for _ in range(cols)]
            for _ in range(draw(st.integers(3, 8)))]
    skipped = st.lists(st.sampled_from(SKIPPED_LINES), max_size=2)
    lines = draw(skipped)
    if draw(st.booleans()):
        lines += [",".join(f" c{k} " for k in range(cols))] + draw(skipped)
    lines += [",".join(row) for row in rows]
    if not json_only:
        at = draw(st.integers(len(lines) - len(rows) + 1, len(lines)))
        lines[at:at] = draw(skipped)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    fast = (json_only and not rows[0][0][0].isspace()
            and all(c.strip() != "-0" for row in rows for c in row))
    return text, fast


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _parse(path):
    """(header, data) of the file at path, as load_table parses its bytes."""
    return generators._parse_table(Path(path).read_bytes(), str(path))


def _outcome(read, path):
    """What read(path) gives, in comparable form: the error's type and
    message, or the arrays' bits."""
    try:
        got = read(path)
    except QameansError as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        header, data = got
        return header, data.shape, _bits(data).tobytes()
    arrays = ([got.domain.lo, got.domain.hi], got.values, got.f1_values, got.rho_values)
    return tuple(_bits(a).tobytes() for a in arrays)


def assert_reads_as_loadtxt_path(read, path):
    """read(path) gives the np.loadtxt path's values or error, and an
    error names the file; returns that outcome.  The np.loadtxt read starts
    from no kept parse, so it parses the file again."""
    fast = _outcome(read, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_orjson_table", lambda raw: None)
        mp.setattr(generators, "_TABLES", [])
        assert _outcome(read, path) == fast
    if isinstance(fast[0], type):
        assert str(path) in fast[1]
    return fast


def assert_bits_equal_oracle(path):
    header, data = _parse(path)
    want_header, want = float_cell_table(path)
    assert header == want_header
    assert data.shape == want.shape
    assert np.array_equal(_bits(data), _bits(want))


@given(table=table_texts())
@example(table=("x,f\n0,-0\n1,1\n2,2\n", False))
@example(table=("x,f\r\n0,1\r\n1,2\r\n2,3", True))
@example(table=("0,1\r,5\n1,2\r,6\n2,4\r,7\n", False))    # a lone CR ends a line
def test_reader_is_float_per_cell(tmp_path_factory, table):
    text, fast = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text.encode())
    outcome = assert_reads_as_loadtxt_path(_parse, str(path))
    if fast:
        assert _orjson_table(path.read_bytes()) is not None
    if not isinstance(outcome[0], type):
        assert_bits_equal_oracle(path)


# "1,2" makes the row ragged; null, true and [0.5] are JSON but no numbers.
BAD_CELLS = ("abc", "1e400", "-1e400", "1,2", "null", "true", "[0.5]")


@given(n=st.integers(3, 40), row=st.integers(1, 39), column=st.sampled_from(["x", "f"]),
       bad=st.sampled_from(BAD_CELLS), header=st.booleans(),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_malformed_table_errors_as_loadtxt_path(tmp_path_factory, n, row, column,
                                                bad, header, newline):
    """A non-numeric cell, a ragged row or an overflowing cell in the x or
    the f column, below the first data row, of a table the fast path would
    otherwise take."""
    xs = np.linspace(-1.0, 1.0, n).tolist()
    rows = [[repr(x), repr(x ** 3 + 2 * x)] for x in xs]
    rows[1 + row % (n - 1)][["x", "f"].index(column)] = bad
    lines = (["x,f"] if header else []) + [",".join(r) for r in rows]
    path = tmp_path_factory.getbasetemp() / "malformed.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    outcome = assert_reads_as_loadtxt_path(load_table, str(path))
    assert isinstance(outcome[0], type) and issubclass(outcome[0], QameansError)


@pytest.mark.parametrize("body", [b"x,f\n0,1\n1,2\n", b"0,1\n1,2\n"],
                         ids=["header", "no header"])
def test_a_table_of_two_rows_is_refused(tmp_path, body):
    path = tmp_path / "two.csv"
    path.write_bytes(body)
    with pytest.raises(UsageError) as info:
        load_table(str(path))
    assert str(info.value) == f"{path}: need at least 3 rows"


def test_a_line_longer_than_a_chunk_loads_through_loadtxt(tmp_path):
    """A data line longer than _CHUNK_BYTES leaves the fast path no line
    end to cut its chunk at, so np.loadtxt reads the file, and the blanks
    around a cell change no bit of the table."""
    rows = [b"0,1", b"1,2", b"2,4", b"3,8", b"4,16"]
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_bytes(b"\n".join(rows) + b"\n")
    rows[2] = b"2," + b" " * _CHUNK_BYTES + b"4"
    padded.write_bytes(b"\n".join(rows) + b"\n")
    assert _orjson_table(plain.read_bytes()) is not None
    assert _orjson_table(padded.read_bytes()) is None
    assert _outcome(load_table, str(padded)) == _outcome(load_table, str(plain))


@pytest.fixture(scope="module")
def envelope_csv(tmp_path_factory):
    """The 65537-row envelope CSV of power:3: about 6 MB, over 20 chunks."""
    path = tmp_path_factory.mktemp("envelope") / "env65537.csv"
    assert run(["envelope", "--gen", "power:3", "--grid", "65537",
                "--format", "csv", "--out", str(path)]) == 0
    return path


def _line_span(raw, where):
    """Start and end of the line that holds the first chunk edge, or of the
    last chunk's next-to-last line."""
    if where == "edge":
        at = generators._DATA_LINE.search(raw).start() + _CHUNK_BYTES
    else:
        at = raw.rfind(b"\n", 0, len(raw) - 1) - 1
    start = raw.rfind(b"\n", 0, at) + 1
    return start, raw.index(b"\n", at)


def _second_cell(text):
    """Mutation of a line: its second cell replaced by text."""
    return lambda line: b",".join([line.split(b",")[0], text] + line.split(b",")[2:])


# Each mutation of one line, and whether the file is then malformed.
MUTATIONS = {
    "ragged row": (lambda line: line + b",5", True),
    "non-numeric cell": (_second_cell(b"abc"), True),
    "comment line": (lambda line: b"# note\n" + line, False),
    "integer -0": (_second_cell(b"-0"), False),   # the oracle's cell is -0.0
}


@pytest.mark.parametrize("where", ["edge", "last"])
@pytest.mark.parametrize("mutation, malformed", MUTATIONS.values(), ids=MUTATIONS)
def test_chunk_boundaries(envelope_csv, tmp_path, where, mutation, malformed):
    raw = envelope_csv.read_bytes()
    start, end = _line_span(raw, where)
    path = tmp_path / "mutated.csv"
    path.write_bytes(raw[:start] + mutation(raw[start:end]) + raw[end:])
    outcome = assert_reads_as_loadtxt_path(_parse, str(path))
    assert isinstance(outcome[0], type) == malformed
    if not malformed:
        assert_bits_equal_oracle(path)


@pytest.mark.parametrize("argv", [
    ["--gen", "power:3", "--grid", "65537"],
    # x crosses an exact 0.0, so a zero cell alone does not decline the fast path
    ["--gen", "exp", "--lo", "-1", "--hi", "1", "--grid", "1025"],
], ids=["power:3 65537", "exp on [-1, 1]"])
def test_fast_path_reads_envelope_csv(tmp_path, monkeypatch, argv):
    path = tmp_path / "env.csv"
    assert run(["envelope", *argv, "--format", "csv", "--out", str(path)]) == 0
    header, want = float_cell_table(path)
    sizes = []
    real_loads = generators.orjson.loads

    def loads(text):
        sizes.append(len(text))
        return real_loads(text)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called: the fast path declined the file")

    monkeypatch.setattr(generators.orjson, "loads", loads)
    monkeypatch.setattr(generators.np, "loadtxt", refuse)
    tab = load_table(str(path))
    for got, name in [(tab.values, "g"), (tab.f1_values, "g1"), (tab.rho_values, "m")]:
        assert np.array_equal(_bits(got), _bits(want[:, header.index(name)]))
    assert (tab.domain.lo, tab.domain.hi) == (want[0, 0], want[-1, 0])
    # The chunks bound what one orjson call sees: "[" + chunk + "]".
    assert max(sizes) <= _CHUNK_BYTES + 2


def _write_cubic(path, n, shift=0.0):
    """A headed n-row table of x**3 + 2x + shift on [1, 2]; returns its bytes."""
    xs = np.linspace(1.0, 2.0, n).tolist()
    text = "x,f\n" + "".join(f"{x!r},{x ** 3 + 2 * x + shift!r}\n" for x in xs)
    path.write_text(text)
    return path.read_bytes()


def _kept_keys():
    """The bytes of each kept table, least recently used first."""
    return [kept.raw for kept in generators._TABLES]


def test_memo_sees_a_same_size_rewrite_within_one_timestamp(tmp_path):
    """A rewrite that keeps the file's size and modification time is read
    anew: the memo's key is the bytes, not what os.stat reports."""
    path = tmp_path / "t.csv"
    path.write_text("x,f\n0,1\n1,2\n2,3\n")
    stat = os.stat(path)
    assert list(load_table(str(path)).values) == [1.0, 2.0, 3.0]
    path.write_text("x,f\n0,1\n1,2\n2,4\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (stat.st_size,
                                                                  stat.st_mtime_ns)
    assert list(load_table(str(path)).values) == [1.0, 2.0, 4.0]


def test_loads_of_the_same_bytes_share_the_kept_tables_columns(tmp_path, monkeypatch):
    """Each load is the kept table under its own path: it shares the kept
    table's read-only columns, interval and lookup slopes."""
    path = tmp_path / "env.csv"
    assert run(["envelope", "--gen", "power:3", "--grid", "257",
                "--format", "csv", "--out", str(path)]) == 0
    first = load_table(str(path))
    parses = []
    parse = generators._parse_table
    monkeypatch.setattr(generators, "_parse_table",
                        lambda raw, p: parses.append(p) or parse(raw, p))
    second = load_table(str(path))
    assert parses == []
    assert second is not first
    kept, = generators._TABLES
    arrays = lambda tab: (tab.values, tab.f1_values, tab.rho_values)
    for a, b, data in zip(arrays(first), arrays(second), arrays(kept.table)):
        assert not data.flags.writeable
        assert np.array_equal(_bits(a), _bits(b))
        assert not a.flags.writeable and not b.flags.writeable
        assert np.shares_memory(a, data) and np.shares_memory(b, data)
    for tab in (first, second):  # the kept table's attributes, but its own source
        assert vars(tab).keys() == vars(kept.table).keys() and tab.source == str(path)
        assert all(v is vars(kept.table)[k] for k, v in vars(tab).items() if k != "source")
    # A write to a load's column is refused, so it can reach neither the
    # kept table nor another load, nor the lookup slopes: they are the kept
    # table's, computed once from its columns and shared read-only, as the
    # interval is.
    want = [_bits(a).copy() for a in arrays(second)]
    for a in arrays(first):
        with pytest.raises(ValueError):
            a[:] = 0.0
    queries = np.random.default_rng(0).uniform(first.domain.lo, first.domain.hi, 600)
    first.f(queries)
    assert first._slopes is second._slopes is kept.table._slopes
    assert not kept.table._slopes["values"].flags.writeable
    assert first.domain is second.domain and not first.domain.grid().flags.writeable
    want_f = _bits(np.interp(queries, kept.table.domain.grid(), kept.table.values))
    for tab in (second, load_table(str(path))):
        assert all(np.array_equal(_bits(a), w) for a, w in zip(arrays(tab), want))
        assert np.array_equal(_bits(tab.f(queries)), want_f)


def test_a_malformed_file_fixed_in_place_loads(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,f\n0,1\n1,abc\n2,3\n")
    with pytest.raises(QameansError, match="malformed data row"):
        load_table(str(path))
    assert _kept_keys() == []
    path.write_text("x,f\n0,1\n1,2\n2,3\n")
    assert list(load_table(str(path)).values) == [1.0, 2.0, 3.0]


def test_the_same_bytes_at_two_paths_keep_their_own_paths(tmp_path):
    raw = _write_cubic(tmp_path / "a.csv", 9)
    (tmp_path / "b.csv").write_bytes(raw)
    a, b = (load_table(str(tmp_path / name)) for name in ("a.csv", "b.csv"))
    assert _kept_keys() == [raw]
    assert (a.source, b.source) == (str(tmp_path / "a.csv"), str(tmp_path / "b.csv"))
    assert b.spec_string() == f"table:{tmp_path / 'b.csv'}"
    # A table that fails an x check is not kept, so every load checks it
    # again, and its error names that load's path.
    bad = b"x,f\n0,1\n2,2\n1,3\n"
    for name in ("c.csv", "d.csv"):
        (tmp_path / name).write_bytes(bad)
        with pytest.raises(QameansError, match=f"{tmp_path / name}: x column must be"):
            load_table(str(tmp_path / name))
    assert _kept_keys() == [raw]


@st.composite
def valid_tables(draw):
    """CSV text of a table that load_table takes, with the names of its
    columns: n rows on a uniform x grid, strictly monotone values in either
    direction, and f' and rho columns (f1, m) or neither, with a header in
    any column order or none.  Steps between values are within a factor 2 of
    each other, so the one-sided differences at the ends keep their sign."""
    n = draw(st.integers(3, 40))
    lo = draw(st.floats(-1e3, 1e3))
    xs = np.linspace(lo, lo + draw(st.sampled_from([1e-3, 1.0, 7.0, 1e3])), n)
    sign = draw(st.sampled_from([1.0, -1.0]))
    steps = draw(st.lists(st.floats(1.0, 2.0), min_size=n - 1, max_size=n - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    columns = {"x": xs, "f": sign * np.concatenate(([0.0], np.cumsum(steps))) * scale}
    if draw(st.booleans()):
        columns["f1"] = sign * np.array(draw(st.lists(
            st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        columns["m"] = np.array(draw(st.lists(
            st.floats(0.1, 10.0), min_size=n, max_size=n))) * draw(
            st.sampled_from([1.0, -1.0]))
    names = list(columns)
    header = len(names) > 2 or draw(st.booleans())
    if header:
        names = draw(st.permutations(names))
    elif names != ["x", "f"]:
        names = ["x", "f"]
    lines = ([",".join(names)] if header else []) + [
        ",".join(repr(float(columns[name][k])) for name in names) for k in range(n)]
    return "\n".join(lines) + "\n", sign < 0


@given(table=valid_tables())
@example(table=("x,f\n0,3\n1,2\n2,0\n", True))
@example(table=("x,m,f\n.5,inf,1\n1,-2,2\n1.5,-3,4\n", False))   # the np.loadtxt path
def test_a_kept_load_is_a_fresh_parse_and_check(tmp_path_factory, table):
    """A load that parses and checks the file and a load of its kept bytes
    are each, column by column and evaluation by evaluation, the generator
    that TabulatedGenerator checks from float() of every cell."""
    text, decreasing = table
    path = tmp_path_factory.getbasetemp() / "kept.csv"
    path.write_text(text)
    generators._TABLES.clear()
    parses = []
    parse = generators._parse_table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_parse_table",
                   lambda raw, p: parses.append(p) or parse(raw, p))
        loads = [load_table(str(path)) for _ in range(2)]
    assert parses == [str(path)]
    header, data = float_cell_table(path)

    def column(*names):
        found = [header.index(name) for name in names if header and name in header]
        return data[:, found[0]] if found else None

    xs = data[:, 0] if header is None else column("x")
    values = data[:, 1] if header is None else column("f", "g")
    want = TabulatedGenerator(WorkingInterval(xs[0], xs[-1], len(xs)), values,
                              column("f1", "g1"), column("m"), source=str(path))
    queries = np.random.default_rng(0).uniform(xs[0], xs[-1], 600)
    image = np.sort(values)[[0, -1]]
    levels = np.random.default_rng(1).uniform(image[0], image[1], 600)
    for got in loads:
        assert got.spec_string() == want.spec_string() == f"table:{path}"
        assert got.domain == want.domain
        assert (got.values[-1] > got.values[0]) == (want.values[-1] > want.values[0]) \
            == (not decreasing)
        for name in ("values", "f1_values", "rho_values"):
            assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name)))
        for name in ("f", "f1", "rho"):
            for x in (queries, want.domain.grid()):
                assert np.array_equal(_bits(getattr(got, name)(x)),
                                      _bits(getattr(want, name)(x)))
        assert np.array_equal(_bits(got.finv(levels)), _bits(want.finv(levels)))


@pytest.mark.parametrize("body, error", [
    (b"x,f\n0,1\n2,2\n1,3\n", "x column must be strictly increasing"),
    (b"x,f\n0,1\n1,1\n2,3\n", "tabulated values must be strictly monotone"),
    (b"x,f,f1\n0,1,1\n1,2,-1\n2,3,1\n", "f' must be nonzero with the values' sign"),
], ids=["x", "monotone", "f1 sign"])
def test_a_table_that_fails_a_check_is_not_kept(tmp_path, monkeypatch, body, error):
    """Every load of a failing table parses and checks it again, and names
    its own path; the tables kept before stay."""
    good = _write_cubic(tmp_path / "good.csv", 5)
    load_table(str(tmp_path / "good.csv"))
    parses = _record_parses(monkeypatch)
    for name in ("c.csv", "d.csv", "c.csv"):
        (tmp_path / name).write_bytes(body)
        with pytest.raises(QameansError, match=f"{tmp_path / name}.*{error}"):
            load_table(str(tmp_path / name))
    assert parses == [body] * 3
    assert _kept_keys() == [good]


def _write_values(path, f, lo, hi, n):
    """A table of f at n points on [lo, hi], with x and f columns only."""
    xs = np.linspace(lo, hi, n)
    path.write_text("x,f\n" + "".join(f"{x!r},{v!r}\n"
                                      for x, v in zip(xs.tolist(), f(xs).tolist())))
    return path


@pytest.mark.parametrize("f, lo, hi, n, end", [
    (lambda x: x ** 20, 0.1, 10.0, 1025, 0),
    (lambda x: x ** 14, 0.1, 10.0, 1025, 0),
    (lambda x: x ** 5, 0.1, 10.0, 257, 0),
    (np.exp, 0.0, 10.0, 5, 0),
    (np.exp, 0.0, 10.0, 9, 0),
    (lambda x: -(10.1 - x) ** 20, 0.1, 10.0, 1025, -1),
], ids=["x^20 1025", "x^14 1025", "x^5 257", "exp 5", "exp 9", "far end 1025"])
def test_a_values_only_table_that_grows_fast_at_an_end_loads(tmp_path, capsys,
                                                             f, lo, hi, n, end):
    """Where the one-sided end estimate of f' has the wrong sign, the end
    takes its cell's slope, so the table loads and classify runs."""
    path = _write_values(tmp_path / "fast.csv", f, lo, hi, n)
    tab = load_table(str(path))
    cell = tab.values[[0, 1]] if end == 0 else tab.values[[-2, -1]]
    assert tab.f1_values[end] == (cell[1] - cell[0]) / tab.domain.step
    assert run(["classify", "--gen", f"table:{path}"]) == 0


def test_the_mean_of_a_fast_growing_values_only_table(tmp_path, capsys):
    path = _write_values(tmp_path / "p20.csv", lambda x: x ** 20, 0.1, 10.0, 1025)
    assert run(["eval", "--gen", f"table:{path}", "--vec", "1,7"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == pytest.approx((0.5 * (1 + 7.0 ** 20)) ** (1 / 20), rel=1e-5)


def test_a_table_whose_steps_overflow_prints_one_error_line(tmp_path, capfd):
    """A step past the largest float is +-inf of its sign: the monotone test
    holds, the f' test refuses, and numpy prints no warning first."""
    path = tmp_path / "T.csv"
    path.write_text("x,f\n0,-1.7e308\n1,1.6e308\n2,1.7e308\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qameans.cli", "classify", "--gen", f"table:{path}"],
        env=env, timeout=120)
    assert proc.returncode == 2
    assert capfd.readouterr().err == f"error: table:{path}: derivative not finite on grid\n"


def test_memo_drops_least_recently_used_tables_past_its_row_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(generators, "MAX_GRID_POINTS", 10)
    raws = {name: _write_cubic(tmp_path / f"{name}.csv", 4, shift)
            for shift, name in enumerate("abc")}
    for name in "aba":
        load_table(str(tmp_path / f"{name}.csv"))
    assert _kept_keys() == [raws["b"], raws["a"]]
    load_table(str(tmp_path / "c.csv"))       # 12 rows kept: b goes
    assert _kept_keys() == [raws["a"], raws["c"]]
    # A table above the bound by itself is not kept, and drops the rest.
    _write_cubic(tmp_path / "big.csv", 11)
    assert load_table(str(tmp_path / "big.csv")).domain.grid_points == 11
    assert _kept_keys() == []


def test_threads_loading_tables_while_the_memo_evicts(tmp_path, monkeypatch):
    """More threads than CPUs load three tables over and over while the
    bound keeps evicting: every load succeeds with its own file's values."""
    monkeypatch.setattr(generators, "MAX_GRID_POINTS", 10)
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    for k, path in enumerate(paths):
        _write_cubic(path, 4, k)
    errors = []

    def work(offset):
        try:
            for i in range(60):
                k = (i + offset) % 3
                assert load_table(str(paths[k])).values[0] == 3.0 + k
        except Exception as exc:    # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def _write_fixed(path, n):
    """A headless n-row table of x**3 on [1, 2] whose every line is 44
    bytes (two 21-byte cells), so the byte at an offset is known; returns
    its bytes.  The first row is commented out by a '#' in place of its
    first digit, so that a first byte made a digit leaves a valid table."""
    path.write_text("#" + "".join(map(_fixed_line, np.linspace(1.0, 2.0, n)))[1:])
    return path.read_bytes()


def _fixed_line(x):
    """The 44-byte line of x in _write_fixed's table."""
    return f"{x:.15e},{x ** 3:.15e}\n"


def _record_parses(monkeypatch):
    """The bytes of each _parse_table call from now on."""
    parses = []
    parse = generators._parse_table
    monkeypatch.setattr(generators, "_parse_table",
                        lambda raw, p: parses.append(raw) or parse(raw, p))
    return parses


def _assert_parsed_anew(path, monkeypatch, raw, changed):
    """Loading path, now holding changed, parses changed and keeps it after
    the table of raw; the parse and the kept columns are float() of each
    new cell."""
    parses = _record_parses(monkeypatch)
    load_table(str(path))
    assert parses == [changed]
    assert _kept_keys() == [raw, changed]
    assert_bits_equal_oracle(path)
    _, want = float_cell_table(path)
    kept = generators._TABLES[-1].table
    assert np.array_equal(_bits(kept.values), _bits(want[:, 1]))
    assert (kept.domain.lo, kept.domain.hi) == (want[0, 0], want[-1, 0])


@pytest.mark.parametrize("at", [0, _CHUNK_BYTES - 1, _CHUNK_BYTES, -1],
                         ids=["first", "before chunk edge", "after chunk edge", "last"])
def test_a_same_size_rewrite_of_one_byte_is_parsed_again(tmp_path, monkeypatch, at):
    """The memo compares a file with a kept table's bytes _CHUNK_BYTES at a
    time; one byte at either end, or either side of a chunk edge, tells
    them apart."""
    path = tmp_path / "t.csv"
    raw = _write_fixed(path, 8192)
    assert len(raw) > _CHUNK_BYTES + 1
    old = load_table(str(path)).values
    changed = bytearray(raw)
    # A digit of a cell, or the last line end, becomes another digit.
    changed[at] = ord("2") if raw[at] == ord("1") else ord("1")
    path.write_bytes(changed)
    _assert_parsed_anew(path, monkeypatch, raw, bytes(changed))
    assert not np.array_equal(load_table(str(path)).values, old)


LAST_LINE = 44


@pytest.mark.parametrize("stale_size", [False, True], ids=["fstat", "stale fstat"])
@pytest.mark.parametrize("edit", [
    lambda raw: raw + _fixed_line(2.0 + 1.0 / 8191).encode(),    # the next grid point
    lambda raw: raw[:-LAST_LINE],
], ids=["appended", "truncated"])
def test_a_file_appended_to_or_truncated_after_a_load_is_parsed_again(
        tmp_path, monkeypatch, edit, stale_size):
    """With a stale size from os.fstat, as when the file changes between
    fstat and the reads, the compare still reads to the file's end."""
    path = tmp_path / "t.csv"
    raw = _write_fixed(path, 8192)
    load_table(str(path))
    changed = edit(raw)
    path.write_bytes(changed)
    if stale_size:
        fstat = os.fstat

        def kept_size(fd):
            st = list(fstat(fd))
            st[6] = len(raw)     # st_size
            return os.stat_result(st)

        monkeypatch.setattr(generators.os, "fstat", kept_size)
    _assert_parsed_anew(path, monkeypatch, raw, changed)


PIPED_CLASSIFY = """
import sys
from qameans.cli import run
from qameans.generators import load_table
load_table(sys.argv[1])
sys.exit(run(["classify", "--gen", "table:/dev/stdin"]))
"""


@pytest.mark.parametrize("kept", [False, True], ids=["other bytes kept", "same bytes kept"])
def test_a_table_piped_to_dev_stdin_loads(tmp_path, capsys, kept):
    """A pipe cannot seek, so the memo reads it as a stream: it is compared
    with no kept table, not even one of the same bytes."""
    path = tmp_path / "t.csv"
    raw = _write_cubic(path, 9)
    other = tmp_path / "other.csv"
    _write_cubic(other, 9, 1.0)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PIPED_CLASSIFY, str(path if kept else other)],
        input=raw, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert run(["classify", "--gen", f"table:{path}"]) == 0
    want = capsys.readouterr().out
    assert proc.stdout.decode() == want.replace(str(path), "/dev/stdin")


def test_a_hit_on_a_large_table_parses_and_hashes_nothing(envelope_csv, monkeypatch):
    """A load of kept bytes reads the file into one chunk buffer and copies
    the columns; it holds no second copy of the file."""
    path = str(envelope_csv)
    load_table(path)

    def refuse(*args, **kwargs):
        raise AssertionError("a hit parsed or hashed the file")

    monkeypatch.setattr(generators, "_parse_table", refuse)
    for name in hashlib.algorithms_guaranteed | {"new", "file_digest"}:
        if hasattr(hashlib, name):
            monkeypatch.setattr(hashlib, name, refuse)
    tracemalloc.start()
    try:
        tab = load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.domain.grid_points == 65537
    assert peak < envelope_csv.stat().st_size / 2
