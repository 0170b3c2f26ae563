"""Command-line interface: subcommands, formats, seeds, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qameans.cli import run
from qameans.generators import load_table
from qameans.means import qa_mean


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_eval_vector(capsys):
    code = run(["eval", "--gen", "power:2", "--vec", "1,7"])
    out = _json_out(capsys)
    assert code == 0
    assert out["value"] == 5.0
    assert out["config"]["command"] == "eval"
    assert out["config"]["seed"] == 0


def test_eval_vec_file(tmp_path, capsys):
    path = tmp_path / "vecs.txt"
    path.write_text("# one tuple per line\n1,7\n2, 2, 2\n")
    code = run(["eval", "--gen", "power:2", "--vec-file", str(path)])
    out = _json_out(capsys)
    assert code == 0
    assert out["values"] == [5.0, 2.0]


def test_eval_requires_exactly_one_input(tmp_path, capsys):
    assert run(["eval", "--gen", "log"]) == 2
    path = tmp_path / "v.txt"
    path.write_text("1,2\n")
    assert run(["eval", "--gen", "log", "--vec", "1,2",
                "--vec-file", str(path)]) == 2


def test_eval_rejects_bad_vector(capsys):
    assert run(["eval", "--gen", "log", "--vec", "1,zebra"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_eval_domain_violation_is_a_usage_failure(capsys):
    # 0 sits outside the default working interval for log
    assert run(["eval", "--gen", "log", "--vec", "0,1"]) == 2


def test_classify_identity_on_unit_interval(capsys):
    code = run(["classify", "--gen", "id", "--lo", "0", "--hi", "1"])
    out = _json_out(capsys)
    assert code == 0
    assert out["class"] == "ArithmeticBoth"
    assert out["config"]["lo"] == 0.0 and out["config"]["hi"] == 1.0


def test_classify_power_family(capsys):
    for spec, want in (("power:2", "Convex"), ("log", "Concave")):
        assert run(["classify", "--gen", spec]) == 0
        assert _json_out(capsys)["class"] == want


def test_compare_reports_relation(capsys):
    code = run(["compare", "--gen", "log", "--gen2", "power:1"])
    out = _json_out(capsys)
    assert code == 0
    assert out["relation"] == "LessOrEqual"
    assert out["config"]["gen2"] == "power:1"


def test_compare_requires_gen2(capsys):
    assert run(["compare", "--gen", "log"]) == 2


def test_envelope_json_success(capsys):
    code = run(["envelope", "--gen", "exp", "--kind", "convex"])
    out = _json_out(capsys)
    assert code == 0
    assert out["status"] == "AlreadyExtremal"
    assert "hull_vertices" in out and "g" in out


def test_envelope_failure_exit_code(capsys):
    code = run(["envelope", "--gen", "log", "--kind", "convex"])
    out = _json_out(capsys)
    assert code == 1
    assert out["status"] == "NoneExists"
    assert "witness" in out["diagnostics"]
    # same verdict on a narrower interval
    code = run(["envelope", "--gen", "log", "--lo", "0.5", "--hi", "4",
                "--kind", "convex"])
    out = _json_out(capsys)
    assert code == 1
    assert out["status"] == "NoneExists"


def test_envelope_csv_round_trip(tmp_path, capsys):
    """CSV output reloads as a table generator that reproduces the means."""
    out_path = tmp_path / "env.csv"
    code = run(["envelope", "--gen", "exp", "--kind", "convex",
                "--format", "csv", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("#")
    header = text.splitlines()[1].split(",")
    assert header[0] == "x" and "g" in header and "g1" in header

    tab = load_table(str(out_path))
    rng = np.random.default_rng(3)
    json_code = run(["envelope", "--gen", "exp", "--kind", "convex"])
    assert json_code == 0
    rep = _json_out(capsys)
    gvals = np.asarray(rep["g"], dtype=float)
    assert np.array_equal(tab.values, gvals)
    # means computed through the reloaded table match the envelope means
    lo, hi = rep["interval"]["lo"], rep["interval"]["hi"]
    for _ in range(20):
        v = rng.uniform(lo, hi, size=4)
        direct = qa_mean(tab, v)
        assert direct == pytest.approx(qa_mean(tab, list(v)), abs=1e-12)


@pytest.mark.parametrize("grid", [257, 1025])
@pytest.mark.parametrize("gen,kind,verdict", [("power:3", "convex", "Convex"),
                                              ("log", "concave", "Concave")])
def test_envelope_csv_reload_keeps_class(tmp_path, capsys, grid, gen, kind, verdict):
    """A reloaded envelope table takes f'' from its m column, so the
    profile stays the hull it was built from and the class survives."""
    out_path = tmp_path / "env.csv"
    assert run(["envelope", "--gen", gen, "--kind", kind, "--grid", str(grid),
                "--format", "csv", "--out", str(out_path)]) == 0
    assert run(["classify", "--gen", f"table:{out_path}"]) == 0
    assert _json_out(capsys)["class"] == verdict


@pytest.mark.parametrize("lo,hi", [(0.1, 10.0), (1e-3, 1e3), (1e6, 1e6 + 100.0)])
def test_envelope_csv_reloads_at_65537_points(tmp_path, lo, hi):
    """The loader's spacing check passes the rounding of a fine, wide or
    offset x column."""
    out_path = tmp_path / "env.csv"
    assert run(["envelope", "--gen", "power:3", "--lo", repr(lo), "--hi", repr(hi),
                "--grid", "65537", "--format", "csv", "--out", str(out_path)]) == 0
    dom = load_table(str(out_path)).domain
    assert (dom.lo, dom.hi, dom.grid_points) == (lo, hi, 65537)


def test_envelope_csv_to_stdout(capsys):
    code = run(["envelope", "--gen", "exp", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# ")
    head = json.loads(lines[0][2:])
    assert head["status"] == "AlreadyExtremal"
    assert lines[1].split(",")[0] == "x"
    # grid rows follow: 1025 of them
    assert len(lines) == 2 + head["config"]["grid_points"]


def test_envelope_csv_failed_run_falls_back_to_json(capsys):
    # a NoneExists result has no grids; csv request still reports JSON
    code = run(["envelope", "--gen", "log", "--format", "csv"])
    assert code == 1
    out = _json_out(capsys)
    assert out["status"] == "NoneExists"


def test_csv_format_rejected_outside_envelope(capsys):
    assert run(["classify", "--gen", "log", "--format", "csv"]) == 2
    assert "csv" in capsys.readouterr().err


def test_verify_symmetry_passes(capsys):
    code = run(["verify", "--check", "symmetry", "--gen", "power:3", "--trials", "500"])
    out = _json_out(capsys)
    assert code == 0
    assert out["check"] == "symmetry"
    assert out["failures"] == 0


def test_verify_ij_pass_and_fail(capsys):
    code = run(["verify", "--check", "ij", "--gen", "log", "--gen2", "arith",
                "--trials", "800"])
    assert code == 0
    out = _json_out(capsys)
    assert out["check"] == "ingham_jessen_sweep"
    code = run(["verify", "--check", "ij", "--gen", "arith", "--gen2", "log",
                "--trials", "800"])
    assert code == 1
    out = _json_out(capsys)
    assert out["failures"] > 0 and "witness" in out


def test_verify_kedlaya(capsys):
    code = run(["verify", "--check", "kedlaya", "--gen", "log", "--gen2", "arith",
                "--trials", "500"])
    assert code == 0
    assert _json_out(capsys)["check"] == "kedlaya"


def test_verify_duality(capsys):
    code = run(["verify", "--check", "duality", "--gen", "log", "--trials", "200"])
    assert code == 0
    out = _json_out(capsys)
    assert out["check"] == "duality" and out["failures"] == 0


def test_verify_maximality(capsys):
    code = run(["verify", "--check", "maximality", "--gen", "power:3", "--trials", "400"])
    assert code == 0
    out = _json_out(capsys)
    assert out["check"] == "maximality"
    assert out["failures"] == 0


def test_verify_maximality_without_envelope_fails(capsys):
    code = run(["verify", "--check", "maximality", "--gen", "log", "--trials", "200"])
    assert code == 1
    out = _json_out(capsys)
    assert out["error"] == "no convex envelope: status NoneExists"
    assert "witness" in out["diagnostics"]


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("QAM_SEED", "42")
    run(["verify", "--check", "symmetry", "--gen", "log", "--trials", "100"])
    assert _json_out(capsys)["config"]["seed"] == 42
    # an explicit flag beats the environment value
    run(["verify", "--check", "symmetry", "--gen", "log", "--trials", "100",
         "--seed", "7"])
    assert _json_out(capsys)["config"]["seed"] == 7
    monkeypatch.setenv("QAM_SEED", "not-a-number")
    assert run(["verify", "--check", "symmetry", "--gen", "log", "--trials", "100"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "symmetry", "--gen", "log", "--trials", "10", "--seed", "-1"],
    ["eval", "--gen", "log", "--vec", "1,2", "--seed", "-1"],
    ["envelope", "--gen", "power:3", "--seed", "-1"],
])
def test_negative_seed_is_usage_error(capsys, monkeypatch, argv):
    monkeypatch.delenv("QAM_SEED", raising=False)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"
    monkeypatch.setenv("QAM_SEED", "-5")
    assert run(argv[:-2]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"


def test_unknown_generator_spec_is_usage_error(capsys):
    assert run(["classify", "--gen", "sinh"]) == 2


@pytest.mark.parametrize("row", ["0.2,abc", "0.2,2,5"])
def test_malformed_table_is_usage_error(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,f\n0.1,1\n{row}\n0.3,3\n0.4,4\n")
    assert run(["classify", "--gen", f"table:{path}"]) == 2
    assert "bad.csv" in capsys.readouterr().err


def test_compare_on_nan_profile_table_is_usage_error(tmp_path, capsys):
    """A NaN in a table's m column is an explicit error, not a NaN gap."""
    xs = np.linspace(0.1, 10.0, 1025).tolist()
    cells = [[repr(x), repr(x ** 3), repr(x / 2)] for x in xs]
    cells[300][2] = "nan"
    path = tmp_path / "nan-m.csv"
    path.write_text("x,f,m\n" + "".join(",".join(c) + "\n" for c in cells))
    assert run(["compare", "--gen", f"table:{path}", "--gen2", "power:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nan-m.csv" in captured.err


def test_byte_identical_reruns(capsys):
    args = ["verify", "--check", "ij", "--gen", "log", "--gen2", "arith",
            "--trials", "400", "--seed", "9"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_output_file_writing(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = run(["classify", "--gen", "exp", "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["class"] == "Convex"


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "symmetry", "--gen", "power:3", "--trials", "0"],
    ["verify", "--check", "symmetry", "--gen", "power:3", "--trials", "-1"],
    ["verify", "--check", "duality", "--gen", "log", "--trials", "0"],
    ["verify", "--check", "ij", "--gen", "log", "--trials", "0"],
    ["verify", "--check", "kedlaya", "--gen", "log", "--trials", "0"],
    ["verify", "--check", "maximality", "--gen", "power:3", "--trials", "0"],
    ["verify", "--check", "maximality", "--gen", "log", "--trials", "0"],
    ["verify", "--check", "ij", "--gen", "log", "--trials", "5"],
])
def test_nonpositive_trials_is_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: need trials >= 1")


# One argv per subcommand.  The first run sets --seed and the envelope run
# asks for CSV, so a parser that carried values from one call into the next
# would change a later report.
REUSE_ARGVS = [
    ["eval", "--gen", "power:2", "--vec", "1,7", "--seed", "7"],
    ["classify", "--gen", "log", "--lo", "0.5", "--hi", "4"],
    ["compare", "--gen", "log", "--gen2", "power:2"],
    ["envelope", "--gen", "log", "--kind", "concave", "--grid", "33",
     "--trials", "200", "--format", "csv"],
    ["verify", "--check", "kedlaya", "--gen", "log", "--trials", "300"],
]


def _shell_report(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "QAM_SEED"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-m", "qameans", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_repeated_runs_share_a_parser_without_state(capsys, monkeypatch):
    monkeypatch.delenv("QAM_SEED", raising=False)
    reports = []
    for _ in range(2):
        for argv in REUSE_ARGVS:
            assert run(argv) == 0
            reports.append(capsys.readouterr().out)
        assert run(["verify", "--check", "nope", "--gen", "log"]) == 2
        assert run(["compare", "--help"]) == 0
        capsys.readouterr()
    first, second = reports[:len(REUSE_ARGVS)], reports[len(REUSE_ARGVS):]
    assert first == second
    for argv, report in zip(REUSE_ARGVS, first):
        assert report == _shell_report(argv), argv


def test_seed_from_environment_is_read_on_every_run(capsys, monkeypatch):
    argv = ["verify", "--check", "symmetry", "--gen", "log", "--trials", "100"]
    seeds = []
    for value in ("3", "11"):
        monkeypatch.setenv("QAM_SEED", value)
        assert run(argv) == 0
        seeds.append(_json_out(capsys)["config"]["seed"])
    assert seeds == [3, 11]
