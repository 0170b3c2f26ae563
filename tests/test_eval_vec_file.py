"""`eval --vec-file`: one batches call for the file, the per-row loop's bytes and errors.

The reference is the loop `eval --vec-file` used to run: `qa_mean` of each
row in file order, written by json.dumps, and on a failing row the first
failing row's error.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qameans import means
from qameans.cli import run
from qameans.errors import QameansError
from qameans.generators import parse_generator
from qameans.grids import WorkingInterval
from qameans.means import qa_mean

from oracles import indented_json

SRC = Path(__file__).resolve().parents[1] / "src"


def _per_row_reference(spec, lo, hi, rows):
    """(exit code, stdout values, stderr) of qa_mean over the rows in order."""
    gen = parse_generator(spec, WorkingInterval(lo, hi))
    try:
        return 0, [qa_mean(gen, row) for row in rows], ""
    except QameansError as exc:
        return 2, None, f"error: {exc}\n"


def _write_rows(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.mark.parametrize("spec", ["power:3", "log", "exp", "affine:-2:3"])
def test_report_bytes_match_the_per_row_loop(tmp_path, capsys, spec):
    rng = np.random.default_rng(5)
    rows = [rng.uniform(0.1, 10.0, size=int(n)).tolist()
            for n in rng.permutation(np.repeat([1, 2, 3, 5, 9, 17], 7))]
    lines = [",".join(map(repr, row)) for row in rows]
    lines[4:4] = ["# a comment", "", "   "]
    lines.insert(11, "  # indented comment")
    path = _write_rows(tmp_path / "rows.csv", lines)
    assert run(["eval", "--gen", spec, "--vec-file", str(path)]) == 0
    out = capsys.readouterr().out
    _, values, _ = _per_row_reference(spec, 0.1, 10.0, rows)
    assert out == indented_json({"config": json.loads(out)["config"], "values": values}) + "\n"


def test_file_of_only_comments_gives_no_values(tmp_path, capsys):
    path = _write_rows(tmp_path / "rows.csv", ["# nothing here", "", "#1,2"])
    assert run(["eval", "--gen", "log", "--vec-file", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith('"values": []\n}\n')
    assert json.loads(out)["values"] == []


BAD_ROWS = ("709,709.2",  # exp values overflow: RangeError
            "800,1",      # outside [0, 709.5]: DomainError
            ",,,")        # no entries: UsageError


@pytest.mark.parametrize("bad", list(itertools.permutations(BAD_ROWS)))
def test_first_failing_row_in_file_order_is_reported(tmp_path, capsys, bad):
    good = ["1,2", "3,4,5", "7", "2,2"]
    lines = [good[0], bad[0], good[1], bad[1], good[2], bad[2], good[3]]
    path = _write_rows(tmp_path / "rows.csv", lines)
    code = run(["eval", "--gen", "exp", "--lo", "0", "--hi", "709.5",
                "--vec-file", str(path)])
    captured = capsys.readouterr()
    rows = [[float(c) for c in line.split(",") if c.strip()] for line in lines]
    want_code, _, want_err = _per_row_reference("exp", 0.0, 709.5, rows)
    assert (code, captured.out, captured.err) == (want_code, "", want_err)
    assert want_code == 2


def test_one_batches_call_for_the_whole_file(tmp_path, capsys, monkeypatch):
    """The rows go to the mean in one call, a batch of each row length."""
    calls = []
    batches = means.QuasiArithmeticMean.batches

    def counting(self, Xs):
        calls.append([np.shape(X) for X in Xs])
        return batches(self, Xs)

    monkeypatch.setattr(means.QuasiArithmeticMean, "batches", counting)
    path = _write_rows(tmp_path / "rows.csv",
                       ["1,2", "3,4,5", "6,7", "1,2,3,4,5", "8,9,1", "2,3"])
    assert run(["eval", "--gen", "log", "--vec-file", str(path)]) == 0
    capsys.readouterr()
    assert calls == [[(3, 2), (2, 3), (1, 5)]]


def test_vec_file_leaves_numpy_ma_unimported(tmp_path):
    path = _write_rows(tmp_path / "rows.csv", ["1,2", "3,4,5", "6,7"])
    code = ("import sys; from qameans.cli import run; "
            f"code = run(['eval', '--gen', 'log', '--vec-file', {str(path)!r}, "
            f"'--out', {str(tmp_path / 'out.json')!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
