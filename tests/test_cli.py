"""Command-line interface: subcommands, formats, seeds, and exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qameans import cli, generators
from qameans.cli import run
from qameans.convexity import MAX_TRIALS
from qameans.envelope import qa_concave_envelope, qa_convex_envelope
from qameans.generators import ExpGenerator, LogGenerator, PowerGenerator, load_table
from qameans.grids import WorkingInterval
from qameans.means import qa_mean

from conftest import OVERFLOWING_TABLE


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


@pytest.mark.parametrize("argv, config, value", [
    (["--gen", "exp", "--lo", "-1e3", "--hi", "3", "--vec", "1,2"],
     {"lo": -1000.0, "hi": 3.0},
     qa_mean(ExpGenerator(WorkingInterval(-1e3, 3.0)), [1.0, 2.0])),
    (["--gen", "id", "--lo", "-2", "--hi", "3", "--vec", "-1,2"],
     {"lo": -2.0, "hi": 3.0}, 0.5),
    (["--gen", "id", "--lo", "-.5E1", "--hi", "3", "--vec", "-1e0,-.5"],
     {"lo": -5.0, "hi": 3.0}, -0.75),
], ids=["exponent", "list", "both"])
def test_negative_values_in_exponent_or_list_form(capsys, argv, config, value):
    """A token of '-' then a digit or '.digit' is a value: argparse's own
    test before Python 3.12 took only -5 and -.5 as one."""
    assert run(["eval", *argv]) == 0
    out = _json_out(capsys)
    assert {k: out["config"][k] for k in config} == config
    assert out["value"] == value


@pytest.mark.parametrize("argv", [
    ["--lo", "--hi", "3", "--vec", "1,2"],
    ["--lo", "-hi", "3", "--vec", "1,2"],
], ids=["long option", "no number"])
def test_an_option_where_a_value_belongs_is_a_usage_error(capsys, argv):
    assert run(["eval", "--gen", "id", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --lo: expected one argument" in captured.err


def test_classify_identity_on_unit_interval(capsys):
    code = run(["classify", "--gen", "id", "--lo", "0", "--hi", "1"])
    out = _json_out(capsys)
    assert code == 0
    assert out["class"] == "ArithmeticBoth"
    assert out["config"]["lo"] == 0.0 and out["config"]["hi"] == 1.0


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["envelope", "--kind", "convex"],
    ["envelope", "--kind", "concave"],
])
def test_arithmetic_detail_names_the_generator_as_given(capsys, argv):
    """affine:-2:3 falls; its report names it, not its negation affine:2:-3."""
    code = run([*argv, "--gen", "affine:-2:3", "--lo", "0.5", "--hi", "4"])
    out = _json_out(capsys)
    assert code == 0
    detail = out["evidence" if argv[0] == "classify" else "diagnostics"]["detail"]
    assert detail.startswith("affine:-2:3: f'' vanishes on the whole grid")


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


def _table(path, fn=lambda x: x ** 3, rows=257):
    """A values-only table of fn on [1, 3]; x**3 generates a convex mean."""
    xs = np.linspace(1.0, 3.0, rows).tolist()
    path.write_text("x,f\n" + "".join(f"{x!r},{fn(x)!r}\n" for x in xs))
    return f"table:{path}"


@pytest.fixture
def table13(tmp_path):
    return _table(tmp_path / "t13.csv")


TABLE_CONFIG = {"lo": 1.0, "hi": 3.0, "grid_points": 257}


def _interval_of(config):
    return {k: config[k] for k in TABLE_CONFIG}


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["eval", "--vec", "1.5,2.5"],
    ["envelope"],
    ["envelope", "--kind", "concave"],
    ["verify", "--check", "symmetry", "--trials", "200"],
    ["verify", "--check", "maximality", "--trials", "200"],
])
def test_table_run_reports_the_tables_interval(table13, capsys, argv):
    """--lo/--hi/--grid are the defaults here, which the table replaces."""
    assert run([*argv, "--gen", table13]) in (0, 1)
    assert _interval_of(_json_out(capsys)["config"]) == TABLE_CONFIG


def test_table_duality_reports_the_tables_interval(tmp_path, capsys):
    """duality needs a concave envelope, so its table is of ln x."""
    spec = _table(tmp_path / "log13.csv", math.log)
    assert run(["verify", "--check", "duality", "--trials", "200", "--gen", spec]) == 0
    assert _interval_of(_json_out(capsys)["config"]) == TABLE_CONFIG


def test_table_envelope_csv_header_states_the_tables_interval(table13, tmp_path):
    out_path = tmp_path / "env.csv"
    assert run(["envelope", "--gen", table13, "--format", "csv",
                "--out", str(out_path)]) == 0
    head = out_path.read_text().splitlines()[0]
    assert head.startswith("# ")
    assert _interval_of(json.loads(head[2:])["config"]) == TABLE_CONFIG


PAIRINGS = [("compare", "--gen2", other) for other in ("power:3", "log")] + [
    ("verify", check, other) for check in ("ij", "kedlaya")
    for other in ("power:3", "log", "arith")]


@pytest.fixture
def table_reads(monkeypatch):
    """The paths load_table reads, in order."""
    reads = []
    load = generators.load_table
    monkeypatch.setattr(generators, "load_table",
                        lambda path: reads.append(path) or load(path))
    return reads


@pytest.mark.parametrize("table_first", [True, False])
@pytest.mark.parametrize("command, check, other", PAIRINGS)
def test_table_pairs_with_a_closed_form_on_the_tables_grid(
        table13, capsys, table_reads, command, check, other, table_first):
    """The other spec is parsed on the table's grid, and the table is read
    once; no --lo/--hi/--grid is given."""
    first, second = (table13, other) if table_first else (other, table13)
    argv = [command, "--gen", first, "--gen2", second]
    if command == "verify":
        argv += ["--check", check, "--trials", "64"]
    assert run(argv) in (0, 1)
    assert _interval_of(_json_out(capsys)["config"]) == TABLE_CONFIG
    assert len(table_reads) == 1


def test_one_read_per_table_spec(table13, tmp_path, capsys, table_reads):
    other = _table(tmp_path / "other.csv")
    assert run(["compare", "--gen", table13, "--gen2", table13]) == 0
    assert _json_out(capsys)["relation"] == "Equal" and len(table_reads) == 1
    assert run(["verify", "--check", "ij", "--gen", table13, "--gen2", other,
                "--trials", "64"]) in (0, 1)
    assert len(table_reads) == 3


@pytest.mark.parametrize("argv, specs", [
    (["classify", "--gen", "power:3"], ["power:3"]),
    (["compare", "--gen", "power:3", "--gen2", "log"], ["power:3", "log"]),
    (["envelope", "--gen", "exp", "--trials", "8"], ["exp"]),
    (["eval", "--gen", "log", "--vec", "1,4"], ["log"]),
    (["verify", "--check", "duality", "--gen", "log", "--trials", "8"], ["log"]),
])
def test_every_spec_parse_goes_through_cli_parse_generator(monkeypatch, capsys, argv,
                                                           specs):
    """A rebinding of cli.parse_generator, as a tracer makes, sees every
    generator spec a command parses."""
    seen = []
    parse = cli.parse_generator
    monkeypatch.setattr(cli, "parse_generator",
                        lambda spec, interval: seen.append(spec) or parse(spec, interval))
    assert run(argv + ["--grid", "33"]) in (0, 1)
    capsys.readouterr()
    assert seen == specs


@pytest.mark.parametrize("argv", [
    ["compare", "--gen2"],
    ["verify", "--check", "ij", "--trials", "64", "--gen2"],
    ["verify", "--check", "kedlaya", "--trials", "64", "--gen2"],
])
def test_tables_on_different_grids_do_not_pair(table13, tmp_path, capsys, argv):
    other = _table(tmp_path / "t129.csv", rows=129)
    assert run([*argv, other, "--gen", table13]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "interval" in captured.err


@pytest.mark.parametrize("argv", [
    ["classify", "--gen", "log"],
    ["eval", "--gen", "log", "--vec", "1,2"],
    ["compare", "--gen", "log", "--gen2", "power:2"],
    ["verify", "--check", "symmetry", "--gen", "log", "--trials", "100"],
])
def test_format_belongs_to_envelope(capsys, argv):
    """These commands write JSON only; they once accepted and ignored
    --format json."""
    assert run([*argv, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --format" in captured.err


def _subcommands():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


COMMON_OPTIONS = {"-h", "--help", "--gen", "--lo", "--hi", "--grid", "--seed",
                  "--trials", "--out"}


def test_each_command_takes_only_the_options_it_acts_on():
    """Every option a command accepts is one it reads; a new option, or one
    moved between commands, changes this table."""
    options = {name: {opt for action in p._actions for opt in action.option_strings}
               for name, p in _subcommands().items()}
    assert options == {
        "eval": COMMON_OPTIONS | {"--vec", "--vec-file"},
        "classify": COMMON_OPTIONS,
        "compare": COMMON_OPTIONS | {"--gen2"},
        "envelope": COMMON_OPTIONS | {"--kind", "--format"},
        "verify": COMMON_OPTIONS | {"--check", "--gen2"},
    }


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


def test_verify_ij_fails_the_concave_sqrt_mean_as_convex_at_1e_minus_20(capsys):
    """--gen id --gen2 F samples convexity of QA_F.  On [1e-20, 1e-10] every
    margin of power:0.5 is negative, and all lie within an absolute slack of
    1e-9, which passed them; ij's span-relative slack fails every trial."""
    code = run(["verify", "--check", "ij", "--gen", "id", "--gen2", "power:0.5",
                "--lo", "1e-20", "--hi", "1e-10", "--trials", "2000"])
    out = _json_out(capsys)
    assert code == 1
    assert out["trials"] == out["failures"] == 2000
    assert -1e-9 < out["worst_margin"] < -1e-11


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


@pytest.mark.parametrize("spec", ["id", "affine:-2:3"])
def test_verify_maximality_of_an_affine_generator_is_a_usage_error(capsys, spec):
    """An affine generator's convex envelope exists (it is A), so no check
    failed; it has no profile for candidates to dominate, so maximality is
    refused: exit 2 and one error line naming the generator as given (not
    affine:2:-3 for affine:-2:3) and the status.  Once it reported a failed
    check, exit 1, "no convex envelope: status ArithmeticEnvelope"."""
    code = run(["verify", "--check", "maximality", "--gen", spec, "--lo", "0.5",
                "--hi", "4", "--trials", "200"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: maximality of {spec} needs ")
    assert "status ArithmeticEnvelope" in lines[0]
    assert "no profile for candidates to dominate" in lines[0]


@pytest.mark.parametrize("check,spec,kind", [
    ("maximality", "log", "convex"),
    ("duality", "power:3", "concave"),
    ("duality", "x**3 table", "concave"),
])
def test_verify_without_its_envelope_reports_a_failed_check(tmp_path, capsys,
                                                            check, spec, kind):
    """A missing envelope is a failed check: exit 1 and a report naming it,
    for maximality's convex envelope as for duality's concave one."""
    if spec == "x**3 table":
        spec = _table(tmp_path / "t13.csv")
    code = run(["verify", "--check", check, "--gen", spec, "--trials", "200"])
    assert code == 1
    out = _json_out(capsys)
    assert list(out) == ["config", "check", "error", "diagnostics"]
    assert out["check"] == check
    assert out["error"] == f"no {kind} envelope: status NoneExists"
    assert "witness" in out["diagnostics"]
    assert out["config"]["check"] == check and out["config"]["gen2"] is None


@pytest.mark.parametrize("check", ["maximality", "duality", "symmetry"])
def test_gen2_is_refused_by_the_single_mean_checks(capsys, check):
    gen = "log" if check == "duality" else "power:3"
    code = run(["verify", "--check", check, "--gen", gen, "--gen2", "arith",
                "--trials", "200"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --gen2 ")


@pytest.mark.parametrize("check", ["ij", "kedlaya"])
def test_gen2_of_the_pair_checks_defaults_to_arith(capsys, check):
    argv = ["verify", "--check", check, "--gen", "log", "--trials", "200"]
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert '"gen2": "arith"' in default
    assert run([*argv, "--gen2", "arith"]) == 0
    assert capsys.readouterr().out == default


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


@pytest.mark.parametrize("content", [b"x,f\xff\n0,0\n1,1\n2,4\n", b"x,f\n0,0\n1,1\xff\n2,4\n"],
                         ids=["in the header", "in a data row"])
def test_undecodable_table_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert run(["classify", "--gen", f"table:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


def test_compare_refuses_a_table_whose_second_difference_overflows(tmp_path, capsys):
    """rho = -0 at one grid point is an infinite f'': compare refuses it
    with classify's error, where it once printed numpy's divide-by-zero
    warning and an Incomparable report of NaN gaps, and exited 0."""
    path = tmp_path / "T.csv"
    path.write_text(OVERFLOWING_TABLE)
    for command in (["compare", "--gen", f"table:{path}", "--gen2", "log"],
                    ["classify", "--gen", f"table:{path}"]):
        assert run(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: table:{path}: f'' is not finite on the grid\n"


def test_bad_vec_file_row_names_the_file_and_line(tmp_path, capsys):
    path = tmp_path / "vecs.csv"
    path.write_text("# one tuple per line\n1,2\n\n3,x\n")
    assert run(["eval", "--gen", "log", "--vec-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}:4: row must be comma-separated reals, "
                            f"got '3,x'\n")


def test_undecodable_vec_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2\n3,\xff4\n")
    assert run(["eval", "--gen", "power:3", "--vec-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def test_infinite_x_in_table_prints_one_error_line(tmp_path, capfd):
    path = tmp_path / "inf-x.csv"
    path.write_text("x,f\n0,0\n1,1\n2,2\n1e400,3\n")
    with warnings.catch_warnings():
        # Warnings reach stderr, as in a shell run, not pytest's record.
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        code = run(["classify", "--gen", f"table:{path}"])
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: x column must be finite\n"


def test_an_envelope_whose_generator_overflows_prints_one_error_line(tmp_path, capfd):
    """A profile m of about 0.001 on [0.1, 10] makes g' = exp(integral 1/m)
    overflow: no numpy warning precedes the error line."""
    xs = np.linspace(0.1, 10.0, 1025)
    m = 0.001 * (1.0 + (xs - 5.0) ** 2 / 4.0)
    path = tmp_path / "steep.csv"
    path.write_text("x,f,m\n" + "".join(f"{x!r},{x!r},{v!r}\n"
                                          for x, v in zip(xs.tolist(), m.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        code = run(["envelope", "--gen", f"table:{path}"])
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: table:envelope(table:{path}): "
                            f"tabulated values must be finite\n")


@pytest.mark.parametrize("argv", [
    ["classify", "--gen", "exp"],
    ["compare", "--gen", "exp", "--gen2", "id"],
    ["envelope", "--gen", "exp"],
    ["verify", "--check", "symmetry", "--gen", "id"],
    ["verify", "--check", "kedlaya", "--gen", "id"],
], ids=["classify", "compare", "envelope", "verify-symmetry", "verify-kedlaya"])
def test_interval_whose_span_overflows_prints_one_error_line(capfd, argv):
    """hi - lo = inf once gave a NaN grid: verdicts read off it after numpy
    warnings, a hull error, or an uncaught OverflowError with exit 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        code = run(argv + ["--lo", "-1e308", "--hi", "1e308"])
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need a finite span hi - lo, got [-1e+308, 1e+308]\n"


def test_an_interval_with_lo_above_hi_prints_one_error_line(capfd):
    code = run(["classify", "--gen", "log", "--lo", "5", "--hi", "1"])
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need lo < hi, got [5.0, 1.0]\n"


def test_a_reloaded_table_of_exp_is_refused_at_the_ends_as_exp_is(tmp_path, capsys):
    """On [0, 1e-5] no run of f's second differences, which are rounding
    noise, confirms that exp has no concave envelope; the grid's two ends
    do, for exp and for its CSV reloaded as a table (exit 1, NoneExists)."""
    path = tmp_path / "T.csv"
    assert run(["envelope", "--gen", "exp", "--lo", "0", "--hi", "1e-5",
                "--format", "csv", "--out", str(path)]) == 0
    capsys.readouterr()
    for argv in (["--gen", "exp", "--lo", "0", "--hi", "1e-5"], ["--gen", f"table:{path}"]):
        assert run(["envelope", "--kind", "concave", *argv]) == 1
        out = _json_out(capsys)
        assert out["status"] == "NoneExists"
        assert out["diagnostics"]["witness"]["values"] == [0.0, 1e-05]


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


def test_table_whose_g1_contradicts_its_values_is_refused(tmp_path, capsys):
    """x**3 with g1 = -3x**2 once classified Concave with exit 0; it is Convex."""
    xs = np.linspace(0.1, 10.0, 1025).tolist()
    path = tmp_path / "wrong-g1.csv"
    path.write_text("x,f,g1\n" + "".join(f"{x!r},{x**3!r},{-3*x*x!r}\n" for x in xs))
    assert run(["classify", "--gen", f"table:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "wrong-g1.csv" in captured.err


def test_underflowing_derivative_still_classifies(capsys):
    """e**x underflows on [-800, -700], but its profile is 1 there: Convex."""
    assert run(["classify", "--gen", "exp", "--lo", "-800", "--hi", "-700"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["class"] == "Convex"
    assert captured.err == ""


@pytest.mark.parametrize("spec", ["affine:1:nan", "affine:1:inf", "affine:inf:0"])
def test_nonfinite_affine_spec_is_usage_error(capsys, spec):
    """These once classified ArithmeticBoth with exit 0."""
    assert run(["classify", "--gen", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: affine generator needs a != 0 and finite a and b")


def test_mean_whose_inverse_is_not_finite_is_range_error(capsys):
    """exp(-799.9) and exp(-799.7) underflow to 0, and log(0) = -inf, which
    the clamp once turned into -799.9; the true mean is -799.795."""
    argv = ["eval", "--gen", "exp", "--lo", "-800", "--hi", "-700", "--vec=-799.9,-799.7"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: exp: generator values or the inverse of their average "
                            "are not finite on [-800.0, -700.0]\n")


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


def _assert_envelope_csv_peak_is_one_block(tmp_path, grid):
    """The CSV writer's peak, traced alone, stays within what _envelope_csv
    and _float_text state, with no term in the grid's rows: the gather
    buffer, 8 bytes a cell, and one block's working set, the magnitudes'
    8 bytes and at most 90 bytes of text a cell."""
    result = qa_concave_envelope(LogGenerator(WorkingInterval(0.1, 10.0, grid)))
    config = {"command": "envelope", "grid_points": grid, "seed": 0}
    path = tmp_path / "env.csv"
    tracemalloc.start()
    try:
        cli._emit(cli._envelope_csv(result, config), str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    names = path.read_text().split("\n", 2)[1].split(",")
    assert names == ["x", "rho", "m", "g", "g1"]
    # 64 KiB covers the header line and the interpreter's small objects.
    bound = (8 + 8 + 90) * cli._BLOCK_ROWS * len(names) + 2 ** 16
    assert peak <= bound, (peak, bound)


def test_envelope_csv_writer_memory_is_bounded_by_its_block(tmp_path):
    _assert_envelope_csv_peak_is_one_block(tmp_path, 65537)


def test_envelope_csv_writer_memory_does_not_grow_with_the_grid(tmp_path):
    """At four times the rows, a writer that stacked the whole table, 8 bytes
    a cell, would pass the bound by about 9 MB."""
    _assert_envelope_csv_peak_is_one_block(tmp_path, 262145)


def test_envelope_json_writer_memory_is_bounded_by_its_block(tmp_path):
    """The JSON writer's peak, traced alone, stays within one block of
    _float_text's working set, 116 bytes a cell: the result's g and g1
    reach the writer as arrays, and no list of their floats is made."""
    result = qa_convex_envelope(PowerGenerator(3.0, WorkingInterval(0.1, 10.0, 65537)))
    config = {"command": "envelope", "grid_points": 65537, "seed": 0}
    path = tmp_path / "env.json"
    tracemalloc.start()
    try:
        cli._json_report({"config": config, **result.to_dict()}, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(path.read_text())
    assert len(report["g"]) == len(report["g1"]) == 65537
    # 64 KiB covers the text around the arrays and the interpreter's small objects.
    bound = 116 * cli._BLOCK_ROWS + 2 ** 16
    assert peak <= bound, (peak, bound)


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


@pytest.mark.parametrize("check", ["symmetry", "kedlaya", "maximality", "ij", "duality"])
@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**12])
def test_trials_above_the_bound_is_a_usage_error(capsys, check, trials):
    """--trials 1000000000000 once ended in numpy's MemoryError traceback,
    exit 1; it is refused before anything is drawn or allocated."""
    tracemalloc.start()
    try:
        code = run(["verify", "--check", check, "--gen", "log", "--trials", str(trials)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and peak < 2**20
    assert captured.err == f"error: need trials <= {MAX_TRIALS}, got {trials}\n"


def test_trials_above_the_bound_prints_one_error_line():
    proc = _shell(["verify", "--check", "ij", "--gen", "log", "--trials", "1000000000000"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: need trials <= {MAX_TRIALS}, got 1000000000000\n"


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


def _shell(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "QAM_SEED"}
    env["PYTHONPATH"] = str(src)
    return subprocess.run([sys.executable, "-m", "qameans", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def _shell_report(argv):
    proc = _shell(argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [
    ["eval", "--gen", "power:20", "--lo", "1e-20", "--hi", "1e20", "--vec", "1e19,1e20"],
    ["envelope", "--gen", "exp", "--lo", "0", "--hi", "720"],
    ["envelope", "--gen", "exp", "--lo", "0", "--hi", "720", "--kind", "concave"],
    ["envelope", "--gen", "exp", "--lo", "-800", "--hi", "-700"],
])
def test_overflowing_derivative_prints_one_error_line(argv):
    """f or f' overflows or underflows on these grids; no numpy warning
    precedes the error."""
    proc = _shell(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_a_refusal_whose_generator_overflows_at_an_end_names_the_mean(capsys):
    """e**720 overflows, so the mean of the refusal's end pair is not finite."""
    assert run(["envelope", "--gen", "exp", "--kind", "concave", "--lo", "0",
                "--hi", "720"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: exp: generator values or the inverse of their "
                            "average are not finite on [0.0, 720.0]\n")


def test_a_refusal_whose_end_sum_overflows_names_a_pair_inside(capsys):
    """e**709 and e**709.78 are finite, their sum is not: the refusal names
    the pair flanking the run of wrong-signed second differences."""
    assert run(["envelope", "--gen", "exp", "--kind", "concave", "--lo", "709",
                "--hi", "709.78"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "NoneExists"
    assert report["diagnostics"]["witness"]["values"] == [709.0, 709.0898828125]


@pytest.mark.parametrize("command", ["classify", "envelope"])
def test_an_overflowed_closed_form_profile_prints_one_error_line(command):
    """rho = x/(p - 1) is finite at lo and overflows before hi: an explicit
    error, not a sign change, and no numpy warning precedes it."""
    proc = _shell([command, "--gen", "power:1.0000000000000002", "--lo", "1", "--hi", "1e300"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: power:1.0000000000000002: rho overflows on [1.0, 1e+300]: "
                           "4.504e+15 at x = 1.0 but inf at x = 1e+300\n")


@pytest.mark.parametrize("gen2", ["power:2", "power:-2"], ids=["same way", "opposite ways"])
def test_compare_whose_reciprocal_profile_overflows_prints_one_error_line(gen2):
    """rho = x/2 is subnormal at lo = 1e-310, where 1/rho overflows.  Against
    power:2 compare once printed two numpy warnings, then Incomparable with
    NaN gaps and Infinity as its slack, and exited 0."""
    proc = _shell(["compare", "--gen", "power:3", "--gen2", gen2, "--lo", "1e-310", "--hi", "1"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: power:3: 1/rho overflows on [1e-310, 1.0]: "
                           "rho = 5.000e-311 at x = 1e-310\n")


def test_compare_whose_gap_overflows_prints_one_error_line():
    """1/rho is 2/x for power:3 and -2/x for power:-1, each finite at
    lo = 1.5e-308, where their gap 4/x is not.  compare once reported
    GreaterOrEqual with "max_gap": Infinity and exited 0."""
    proc = _shell(["compare", "--gen", "power:3", "--gen2", "power:-1",
                   "--lo", "1.5e-308", "--hi", "1"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: 1/rho_f - 1/rho_g overflows on [1.5e-308, 1.0] "
                           "at x = 1.5e-308\n")


def test_power_generator_whose_ends_are_one_float_prints_one_error_line(capsys):
    """eval once printed 2.0, the row's minimum, where the mean is sqrt(6)."""
    assert run(["eval", "--gen", "power:1e-300", "--vec", "2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: power generator needs x**p to differ at lo and hi, but "
                            "x**1e-300 is 1.0 at both ends of [0.1, 10.0] "
                            "(use the log kind for p near 0)\n")


@pytest.mark.parametrize("argv, message", [
    (["--gen", "exp", "--lo", "700", "--hi", "720"], "exp): tabulated values must be finite"),
    (["--gen", "exp", "--lo", "-800", "--hi", "-700"],
     "exp): tabulated values must be strictly monotone"),
    (["--gen", "power:1e-5", "--kind", "concave", "--lo", "1e-310", "--hi", "1"],
     "power:1e-05): derivative not finite on grid"),
    (["--gen", "power:-1", "--kind", "concave", "--lo", "1e200", "--hi", "1e300"],
     "power:-1): f' must be nonzero with the values' sign on the grid"),
], ids=["values overflow", "values repeat", "f' overflows", "f' underflows"])
def test_an_envelope_whose_published_grids_fail_a_table_check_names_it(capsys, argv, message):
    """An extremal closed form's g and g' are checked as tabulate checks
    its columns, with the same errors, though no table is built."""
    assert run(["envelope", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: table:tabulated({message}\n"


@pytest.mark.parametrize("command", [
    ["classify", "--gen", "exp"],
    ["envelope", "--gen", "exp", "--format", "csv"],
], ids=["json", "csv"])
@pytest.mark.parametrize("target, errno", [
    ("missing/report", "[Errno 2] No such file or directory"),
    (".", "[Errno 21] Is a directory"),
], ids=["missing directory", "directory"])
def test_out_that_cannot_be_opened_prints_one_error_line(tmp_path, capsys, command,
                                                          target, errno):
    out = str(tmp_path / target)
    assert run(command + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {errno}: {out!r}\n"


@pytest.mark.parametrize("f1", ["", "1"], ids=["without f1", "with f1"])
def test_table_whose_differences_overflow_prints_one_error_line(tmp_path, f1):
    """Finite values whose differences overflow: the derivative or the
    profile is refused, and no numpy warning precedes the error."""
    path = tmp_path / "overflow.csv"
    rows = zip(("0", "0.25", "0.5", "0.75", "1"),
               ("-1.7e308", "-1e308", "0", "1e308", "1.7e308"))
    path.write_text(("x,f,f1\n" if f1 else "x,f\n")
                    + "".join(",".join(filter(None, (x, f, f1))) + "\n" for x, f in rows))
    proc = _shell(["classify", "--gen", f"table:{path}"])
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_kedlaya_whose_arithmetic_sum_overflows_prints_one_error_line():
    """The running arithmetic means of entries near the largest float once
    came out inf, after a numpy overflow warning, and the check then named
    inf as an entry outside the interval."""
    proc = _shell(["verify", "--check", "kedlaya", "--gen", "power:0.5",
                   "--lo", "1e308", "--hi", "1.7e308", "--trials", "50"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: arith: a sum of entries is not finite on [1e+308, 1.7e+308]"]


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


@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "1e400"])
def test_nonfinite_power_exponent_is_a_usage_error(capsys, p):
    assert run(["classify", "--gen", f"power:{p}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: power generator needs a finite exponent p")
    assert err.count("\n") == 1


# ------------------------------------------- plain command lines and argparse
#
# run reads a plain command line (a command, then exact --option value pairs)
# from cli._COMMANDS, the table the parser is built from, and hands every
# other argv to parse_args.  The fast pass must give parse_args's namespace
# or nothing.

def _same_namespace(fast, slow) -> bool:
    """Equal attributes in the same order, of the same types; NaN equals NaN."""
    a, b = list(vars(fast).items()), list(vars(slow).items())
    return [k for k, _ in a] == [k for k, _ in b] and all(
        type(x) is type(y) and (x == y or x != x and y != y)
        for (_, x), (_, y) in zip(a, b))


def _argparse_outcome(argv):
    """parse_args's namespace, or None, with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli._build_parser().parse_args(argv), 0, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


VALUES = ("log", "power:2", "table:t.csv", "arith", "1,7", "0.1", "10.0", "4", "33",
          "1025", "0", "7", "-1", "-1e3", "-.5E1", "-1,2", "-", "-1 2", "-x", "--", "",
          "nan", "inf", "1e400", "1.5", "x", "convex", "concave", "sideways", "json",
          "csv", "ij", "kedlaya", "maximality", "duality", "symmetry", "nope", "--lo",
          "--gen", "a=b")
# The value each option wants, so most drawn command lines are well formed.
GOOD = {"--gen": "log", "--gen2": "power:2", "--lo": "0.5", "--hi": "4", "--grid": "33",
        "--seed": "7", "--trials": "300", "--out": "r.json", "--vec": "1,7",
        "--vec-file": "v.csv", "--kind": "concave", "--format": "csv", "--check": "kedlaya"}


# Options each command needs, besides --gen, to parse.
NEEDS = {"eval": ["--vec"], "compare": ["--gen2"], "verify": ["--check"]}


@st.composite
def command_lines(draw):
    """A command with its required options and a few more, each pair
    mostly well formed, then now and then broken: a --opt=value token, an
    abbreviated option, a lone token, or a dropped one."""
    commands = sorted(_subcommands())
    name = draw(st.sampled_from(commands * 8 + ["", "nope", "-h", "--help", "clas"]))
    options = sorted({opt for a in _subcommands()[name]._actions for opt in a.option_strings}
                     if name in commands else GOOD)

    def value(opt):
        kind = draw(st.integers(0, 9))
        if kind < 7:
            return GOOD.get(opt, "log")
        return draw(st.sampled_from(VALUES) if kind < 9 else st.text(max_size=3))

    opts = ["--gen", *NEEDS.get(name, [])] + draw(
        st.lists(st.sampled_from(options), max_size=5))
    argv = [name] + [tok for opt in draw(st.permutations(opts)) for tok in (opt, value(opt))]
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        k = draw(st.integers(1, len(argv)))
        form = draw(st.sampled_from(["eq", "abbrev", "lone", "drop"]))
        opt = draw(st.sampled_from(options))
        if form == "eq":
            argv.insert(k, f"{opt}={value(opt)}")
        elif form == "abbrev":
            argv[k:k] = [opt[:draw(st.integers(2, max(2, len(opt) - 1)))], value(opt)]
        elif form == "lone":
            argv.insert(k, draw(st.sampled_from([opt, value(opt)])))
        elif k < len(argv):
            del argv[k]
    return argv


@settings(max_examples=1500)
@given(command_lines())
def test_a_plain_command_line_parses_to_argparses_namespace(argv):
    fast = cli._plain_args(argv)
    slow = _argparse_outcome(argv)[0]
    if fast is not None:
        assert slow is not None and _same_namespace(fast, slow), (argv, fast, slow)


@pytest.mark.parametrize("argv", [
    ["eval", "--gen", "id", "--lo", "-1e3", "--hi", "-.5E1", "--vec", "-1,2"],
    ["eval", "--gen", "log", "--vec-file", "v.csv", "--vec-file", "w.csv"],
    ["classify", "--gen", "", "--lo", "nan", "--hi", "1e400", "--seed", "-1"],
    ["envelope", "--gen", "log", "--kind", "convex", "--format", "json", "--trials", "-5"],
    ["verify", "--check", "ij", "--gen", "log", "--gen2", "arith", "--gen", "power:2"],
])
def test_edge_values_of_a_plain_command_line_parse_alike(argv):
    """Negative numbers, "", nan, 1e400, a default given again and a
    repeated option are still plain; each gives parse_args's namespace."""
    fast = cli._plain_args(argv)
    assert fast is not None and _same_namespace(fast, _argparse_outcome(argv)[0])


@pytest.fixture
def parse_args_calls(monkeypatch):
    """Every argv that reaches ArgumentParser.parse_args."""
    calls = []
    real = argparse.ArgumentParser.parse_args

    def spy(self, args=None, namespace=None):
        calls.append(list(args))
        return real(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    return calls


def test_plain_command_lines_never_reach_parse_args(tmp_path, capsys, monkeypatch,
                                                    parse_args_calls):
    """REUSE_ARGVS and command lines shaped like the benchmark's ops, each
    with --out appended, are read from the option tables alone."""
    monkeypatch.delenv("QAM_SEED", raising=False)
    vec = tmp_path / "v.csv"
    vec.write_text("1,7\n2,3,4\n")
    span = ["--lo", "0.1", "--hi", "10.0"]
    argvs = [*REUSE_ARGVS,
             ["classify", "--gen", "power:-5", *span],
             ["compare", "--gen", "affine:-2:3", "--gen2", "power:0.5", *span],
             ["envelope", "--gen", "power:3", "--kind", "concave", "--grid", "1025",
              "--format", "csv", "--seed", "1402", *span],
             ["verify", "--check", "ij", "--gen", "log", "--trials", "160", "--seed", "5",
              *span, "--gen2", "arith"],
             ["verify", "--check", "symmetry", "--gen", "power:3", "--trials", "500",
              "--seed", "6", *span],
             ["eval", "--gen", "log", "--vec-file", str(vec), *span]]
    for k, argv in enumerate(argvs):
        assert run([*argv, "--out", str(tmp_path / f"r{k}")]) in (0, 1), argv
    assert parse_args_calls == []
    assert capsys.readouterr() == ("", "")


def test_a_plain_command_line_builds_no_parser(tmp_path, capsys, monkeypatch,
                                               parse_args_calls):
    """The command lines above are read from cli._COMMANDS alone; the parser
    is built on the first one that is not plain."""
    cli._build_parser.cache_clear()
    test_plain_command_lines_never_reach_parse_args(tmp_path, capsys, monkeypatch,
                                                    parse_args_calls)
    assert cli._build_parser.cache_info().currsize == 0
    assert run(["classify", "--gen=log", "--out", str(tmp_path / "eq.json")]) == 0
    assert cli._build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["compare", "--help"],
    ["nope", "--gen", "log"],
    ["classify"],
    ["compare", "--gen", "log"],
    ["classify", "--gen", "log", "--grid", "1e3"],
    ["envelope", "--gen", "log", "--kind", "sideways"],
    ["verify", "--check", "nope", "--gen", "log"],
    ["eval", "--gen", "log"],
    ["eval", "--gen", "log", "--vec", "1,2", "--vec-file", "v.csv"],
    ["eval", "--gen", "id", "--lo", "--hi", "3", "--vec", "1,2"],
    ["eval", "--gen", "id", "--lo", "-", "--vec", "1,2"],
    ["classify", "--gen", "log", "--format", "json"],
    ["classify", "--gen", "log", "--lo"],
    ["classify", "--gen", "log", "extra"],
    ["classify", "--gen", "log", "--bogus", "1"],
    ["classify", "--gen", "log", "--kind", "convex"],
    ["classify", "--gen", "log", "--gen2", "power:2"],
    ["classify", "--gen", "log", "--grid", "1.5"],
    ["classify", "--gen", "-x"],
    ["verify", "--gen", "log"],
])
def test_help_abbreviations_and_usage_errors_are_argparses(capsys, parse_args_calls, argv):
    """Everything but a plain command line is parsed by argparse, which prints
    its own help or usage error and sets the exit code."""
    _, code, out, err = _argparse_outcome(argv)
    del parse_args_calls[:]
    assert code != 0 or out  # each of these is help or an error
    assert run(argv) == code
    assert parse_args_calls == [argv]
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv, plain", [
    (["verify", "--check", "symmetry", "--gen", "log", "--tri", "100"],
     ["verify", "--check", "symmetry", "--gen", "log", "--trials", "100"]),
    (["classify", "--gen=log", "--lo=-.5E1", "--hi", "3", "--gen", "id"],
     ["classify", "--gen", "log", "--lo", "-.5E1", "--hi", "3", "--gen", "id"]),
])
def test_abbreviations_and_equals_forms_are_parsed_by_argparse(capsys, parse_args_calls,
                                                               argv, plain):
    assert run(argv) == 0
    assert parse_args_calls == [argv]
    report = capsys.readouterr()
    assert run(plain) == 0
    assert parse_args_calls == [argv]
    assert capsys.readouterr() == report
