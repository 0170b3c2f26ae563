"""Command-line front end: eval, classify, compare, envelope, verify.

Every report is machine-readable (JSON by default; ``envelope --format csv``,
the one CSV form, writes the grid table) and opens with a config block
stating the effective interval, grid resolution, seed, and trial count, so
any run can be reproduced from its own output.  A run's interval is the grid
of its table: spec when it has one (the first, when both specs are tables),
else --lo/--hi/--grid; the other spec of compare and of verify ij/kedlaya is
parsed on it.  --seed and --trials are common to every command and echoed in
every config, though only verify samples.

Numbers are printed in shortest round-trip form, spelled as Python's repr
spells them (json.dumps in JSON, so NaN and Infinity keep json's names).  A
report is built as bytes-like ASCII blocks and written straight to --out, or
joined into one string for stdout, so no whole-report string exists for a
file.  Float arrays and table columns go in blocks of at most _BLOCK_ROWS
rows, gathered into one reused buffer, so the writer holds one block, not
the table; each run of rows is formatted in C by one flat orjson call,
whose text is repr's exactly when 1e-4 <= |v| < 1e16 or v = +-0, and a row
holding any other value is a block of its own, spelled cell by cell through
repr or json.dumps.  Exit codes: 0 success or pass, 1 a check failed with a
witness (including an envelope that does not exist), 2 usage or domain
errors: argparse's usage message, or one "error: " line for a QameansError
or OSError.

:func:`run` can be called repeatedly from one process: the argument parser
is built once, on the first call, and every call gets a fresh namespace, so
each report is the same bytes as a shell run with that argv.  A plain
command line, a command name then exact --option value pairs, is read from
the parser's own option table, built once from its subparsers, into the
namespace parse_args would give, at a fraction of its cost; argparse
parses everything else, and alone prints help, usage and errors.
Grids handed out by ``WorkingInterval.grid()`` are shared and read-only;
copy one before writing into it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from .convexity import _check_trials, classify
from .envelope import qa_concave_envelope, qa_convex_envelope
from .errors import QameansError, UsageError
from .generators import generator_kinds, parse_generator
from .grids import DEFAULT_GRID_POINTS, WorkingInterval
from .means import QuasiArithmeticMean, compare, parse_mean, qa_mean
from .verify import (
    duality_check,
    ingham_jessen_sweep,
    kedlaya_check,
    maximality_check,
    symmetry_check,
)

DEFAULT_LO = 0.1
DEFAULT_HI = 10.0
DEFAULT_TRIALS = 10_000
# Rows of a float table scanned and formatted at a time by _float_text.
_BLOCK_ROWS = 8192


class _Parser(argparse.ArgumentParser):
    """argparse's parser with its newer upstream test for a negative number,
    '-' then a digit or '.digit', so that values such as -1e3 and -1,2 are
    not read as options.  Subparsers take the class of their parent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--gen", required=True,
                        help="generator spec: " + " | ".join(generator_kinds()))
    common.add_argument("--lo", type=float, default=DEFAULT_LO,
                        help=f"interval lower end (default {DEFAULT_LO}); a run "
                             "with a table: spec takes the table's own grid and "
                             "ignores --lo/--hi/--grid")
    common.add_argument("--hi", type=float, default=DEFAULT_HI,
                        help=f"interval upper end (default {DEFAULT_HI})")
    common.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS,
                        help=f"grid points (default {DEFAULT_GRID_POINTS})")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (default: QAM_SEED env var, else 0)")
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help=f"sampling trials (default {DEFAULT_TRIALS})")
    common.add_argument("--out", default=None, help="write the report to a file")

    parser = _Parser(
        prog="qameans",
        description="Quasiarithmetic means: evaluation, convexity "
                    "classification, and convex/concave envelopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        return p

    p_eval = command("eval", _cmd_eval, "evaluate the QA mean of a vector")
    vec = p_eval.add_mutually_exclusive_group(required=True)
    vec.add_argument("--vec", help="comma-separated values, e.g. 1,7")
    vec.add_argument("--vec-file", help="CSV file, one tuple per row")

    command("classify", _cmd_classify, "convexity class of the QA mean")

    p_cmp = command("compare", _cmd_compare,
                    "order two QA means by the generator criterion")
    p_cmp.add_argument("--gen2", required=True, help="second generator spec")

    p_env = command("envelope", _cmd_envelope, "convex or concave QA envelope")
    p_env.add_argument("--kind", choices=("convex", "concave"), default="convex")
    p_env.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format; csv writes the envelope's grid table")

    p_ver = command("verify", _cmd_verify, "randomized inequality checks")
    p_ver.add_argument("--check", required=True,
                       choices=("ij", "kedlaya", "maximality", "duality",
                                "symmetry"))
    p_ver.add_argument("--gen2",
                       help="second mean for ij/kedlaya: a generator spec or "
                            "'arith' (default arith); the other checks refuse it")
    return parser


@functools.cache
def _option_tables() -> dict:
    """Per command name, what parse_args reads of its subparser: the
    subparser; its one-value store actions by option string; the namespace
    parse_args starts from (the command, every action default, then the
    set_defaults entries, in argparse's order); its required actions; and
    its mutually exclusive groups, each as (actions, required)."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    tables = {}
    for name, p in sub.choices.items():
        start = {sub.dest: name}
        start.update((a.dest, a.default) for a in p._actions
                     if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS)
        for dest, value in p._defaults.items():
            start.setdefault(dest, value)
        stores = {opt: a for a in p._actions if type(a) is argparse._StoreAction
                  and a.nargs is None for opt in a.option_strings}
        tables[name] = (p, stores, start, [a for a in p._actions if a.required],
                        [(set(g._group_actions), g.required)
                         for g in p._mutually_exclusive_groups])
    return tables


def _plain_args(argv) -> argparse.Namespace | None:
    """parse_args(argv)'s namespace when argv is a plain command line, else None.

    A plain command line is a command name, then exact --option value pairs
    of its one-value store actions, each value converted and checked by the
    subparser's own _get_values, where no value is one argparse would read
    as an option (a '-' that does not start a negative number).  Every
    required action and required group is given, and no exclusive group has
    two members given.  Anything else, and any error, is left to parse_args,
    which alone prints help, usage and errors.
    """
    table = _option_tables().get(argv[0]) if argv and len(argv) % 2 else None
    if table is None:
        return None
    p, stores, start, required, groups = table
    values, seen, changed = dict(start), set(), set()
    for opt, text in zip(argv[1::2], argv[2::2]):
        action = stores.get(opt)
        if action is None or text[:1] == "-" and not p._negative_number_matcher.match(text):
            return None
        try:
            value = p._get_values(action, [text])
        except argparse.ArgumentError:
            return None
        values[action.dest] = value
        seen.add(action)
        if value is not action.default:
            changed.add(action)
    if any(a not in seen for a in required) or any(
            len(members & changed) > 1 or need and not members & changed
            for members, need in groups):
        return None
    return argparse.Namespace(**values)


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("QAM_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"QAM_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return seed


def _parse_specs(args, specs, parse=None):
    """The run's working interval, and each of specs parsed by parse
    (parse_generator, the default, or parse_mean).  The default is looked
    up at call time, so a rebinding of cli.parse_generator reaches it.

    The interval is the grid of the first table: spec among specs, else
    --lo/--hi/--grid; every other spec is parsed on it.  Each table is read
    once and keeps its own grid, so two tables on different grids meet the
    command's refusal of means on different intervals.
    """
    parse = parse or parse_generator
    tables = {s: parse(s, None) for s in dict.fromkeys(specs)
              if s.strip().startswith("table:")}
    interval = (next(iter(tables.values())).domain if tables
                else WorkingInterval(args.lo, args.hi, args.grid))
    return interval, [tables[s] if s in tables else parse(s, interval) for s in specs]


def _config(args, interval: WorkingInterval, seed: int, **extras) -> dict:
    cfg = {"command": args.command, "gen": args.gen, "lo": interval.lo,
           "hi": interval.hi, "grid_points": interval.grid_points, "seed": seed,
           "trials": args.trials}
    cfg.update(extras)
    return cfg


def _emit(blocks, out_path: str | None) -> None:
    """Write a report's ASCII byte blocks to out_path, truncating it, or to
    stdout as one string of the same bytes."""
    if out_path:
        with open(out_path, "wb") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.write(b"".join(blocks).decode("ascii"))


def _float_text(columns, row_sep: str, special):
    """Yield the floats of equally long columns as bytes-like ASCII blocks,
    row by row, each cell as repr spells it.

    Cells of a row are joined by "," and rows by row_sep, and every block but
    the first opens with row_sep.  A column is a sequence, or a function
    evaluated on each block of the first column.  Rows are gathered
    _BLOCK_ROWS at a time into one reused float buffer.  orjson writes
    repr's text when 1e-4 <= |v| < 1e16 or v = +-0, so each run of rows
    holding only such values is one block, formatted flat by one
    orjson.dumps call; the min and max of |v| clear a whole block at once.
    Other values orjson spells 0.00001, 1e16 or null, so a row holding a
    nonzero |v| < 1e-4, |v| >= 1e16, NaN or +-inf is a block of its own,
    spelled cell by cell through special (repr, or _json_float for JSON's
    NaN and Infinity).

    Beyond its columns and the blocks it has handed out, the generator holds
    one block: the buffer and its magnitudes, 8 bytes a cell each, and at
    most 90 bytes a cell of a run's text when row_sep is one byte: orjson's
    text, its bytearray and its comma mask, each at most 25 bytes a cell
    (repr's longest float and a separator), the mask's word test and the
    comma offsets.
    """
    rows = len(columns[0])
    buf = np.empty((min(rows, _BLOCK_ROWS), len(columns)))
    sep = row_sep.encode()
    lead = False
    for top in range(0, rows, _BLOCK_ROWS):
        block = buf[:rows - top]
        end = top + len(block)
        for k, col in enumerate(columns):
            block[:, k] = col(columns[0][top:end]) if callable(col) else col[top:end]
        mag = np.abs(block)
        odd = ([] if 1e-4 <= mag.min() and mag.max() < 1e16 else np.flatnonzero(
            ((mag < 1e-4) & (block != 0) | ~(mag < 1e16)).any(axis=1)).tolist())
        start = 0
        for stop in [*odd, len(block)]:
            if start < stop:
                yield _orjson_rows(block[start:stop], lead, sep)
                lead = True
            if stop < len(block):
                yield sep * lead + ",".join(map(special, block[stop].tolist())).encode()
                lead = True
            start = stop + 1


def _orjson_rows(rows, lead: bool, sep: bytes) -> bytearray:
    """orjson's text of the C-contiguous 2-D array rows, dumped flat: cells
    joined by "," and rows by sep, opening with sep when lead is true."""
    raw = orjson.dumps(rows.reshape(-1), option=orjson.OPT_SERIALIZE_NUMPY)
    text = bytearray(raw)
    # A row end is marked by "," in one column, else by "\n", which orjson's
    # text holds nowhere: every cols-th comma ends a row.  A cell is at least
    # 3 characters, so an aligned 4-byte word holds at most one comma.
    cols = rows.shape[1]
    mark = b"," if cols == 1 else b"\n"
    if cols > 1:
        words = (np.frombuffer(raw, np.uint8, len(raw) // 4 * 4) == ord(",")).view("<u4")
        at = np.flatnonzero(words != 0)[cols - 1::cols]
        w = words[at]  # 1 << 8k for a comma at byte k of its word
        np.frombuffer(text, np.uint8)[4 * at + (w > 0xFF) + (w > 0xFFFF) + (w > 0xFFFFFF)] = 10
    # Deleting at either end of a bytearray moves no bytes.
    del text[-1]
    text[:1] = mark if lead else b""
    return text if sep == mark else text.replace(mark, sep)


def _json_text(obj):
    """Yield the text of json.dumps(obj, indent=2) for a tree of str-keyed
    dicts as ASCII byte blocks, each 1-D float ndarray written as its list.

    The tree is walked, and every scalar spelled, before the first block; a
    1-D ndarray is left to _float_text, which formats it in blocks of orjson
    text when its turn comes, so a 65537-point grid pays neither a repr per
    value nor a pass through the pure-Python indenting encoder.  Its items
    are orjson's text when 1e-4 <= |v| < 1e16 or v = +-0, which is repr's,
    and json.dumps's otherwise.  The text between two arrays is one block.
    """
    parts = []
    _json_parts(obj, "", parts)
    text = []
    for part in parts:
        if isinstance(part, str):
            text.append(part)
        else:
            yield "".join(text).encode()
            text.clear()
            yield from part
    yield "".join(text).encode()


def _json_parts(obj, indent: str, parts: list) -> None:
    """Append obj's indented JSON text to parts: a str for each piece, and a
    _float_text generator for each 1-D float ndarray.

    Lists and tuples go item by item, strings through json's escaper, ints
    and finite floats through repr, every other scalar through json.dumps.
    """
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif type(obj) is int or (type(obj) is float and math.isfinite(obj)):
        parts.append(repr(obj))
    elif not isinstance(obj, (dict, list, tuple, np.ndarray)):
        parts.append(json.dumps(obj))
    elif not len(obj):
        parts.append("{}" if isinstance(obj, dict) else "[]")
    else:
        inner = indent + "  "
        sep = ",\n" + inner
        lead = ("{" if isinstance(obj, dict) else "[") + "\n" + inner
        if isinstance(obj, dict):
            for k, v in obj.items():
                parts.append(f"{lead}{encode_basestring_ascii(k)}: ")
                _json_parts(v, inner, parts)
                lead = sep
            parts.append(f"\n{indent}}}")
            return
        if isinstance(obj, np.ndarray):
            parts += [lead, _float_text([obj], sep, _json_float)]
        else:
            for v in obj:
                parts.append(lead)
                _json_parts(v, inner, parts)
                lead = sep
        parts.append(f"\n{indent}]")


def _json_float(v: float) -> str:
    """json.dumps(v) for a float v, without its encoder: repr when v is
    finite, else NaN, Infinity or -Infinity."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def _json_report(report: dict, out_path: str | None) -> None:
    _emit(itertools.chain(_json_text(report), [b"\n"]), out_path)


def _parse_vec(text: str, where: str = "--vec") -> list:
    """The reals of a comma-separated row; where names the row in an error."""
    try:
        return [float(c) for c in text.split(",") if c.strip()]
    except ValueError:
        raise UsageError(f"{where} must be comma-separated reals, got {text!r}") from None


def _cmd_eval(args, seed: int) -> int:
    interval, (gen,) = _parse_specs(args, [args.gen])
    report = _config(args, interval, seed)
    if args.vec is not None:
        report = {"config": report, "value": qa_mean(gen, _parse_vec(args.vec))}
    else:
        try:
            with open(args.vec_file, encoding="utf-8") as fh:
                rows = [_parse_vec(line.strip(), f"{args.vec_file}:{n}: row")
                        for n, line in enumerate(fh, 1)
                        if line.strip() and not line.lstrip().startswith("#")]
        except UnicodeDecodeError as exc:
            raise UsageError(f"{args.vec_file}: {exc}") from None
        # One batch per row length, written back in file order.  A batch
        # raises exactly when one of its rows would; the rows are then
        # evaluated one by one, so the first failing row in file order raises.
        by_length, values = {}, np.empty(len(rows))
        for k, row in enumerate(rows):
            by_length.setdefault(len(row), []).append(k)
        try:
            for idx in by_length.values():
                values[idx] = QuasiArithmeticMean(gen).batch(np.array([rows[k] for k in idx]))
        except QameansError:
            for row in rows:
                qa_mean(gen, row)
            raise
        report = {"config": report, "values": values}
    _json_report(report, args.out)
    return 0


def _cmd_classify(args, seed: int) -> int:
    interval, (gen,) = _parse_specs(args, [args.gen])
    verdict = classify(gen)
    _json_report({"config": _config(args, interval, seed), **verdict.to_dict()},
                 args.out)
    return 0


def _cmd_compare(args, seed: int) -> int:
    interval, (f, g) = _parse_specs(args, [args.gen, args.gen2])
    rep = compare(f, g)
    _json_report({"config": _config(args, interval, seed, gen2=args.gen2),
                  **rep.to_dict()}, args.out)
    return 0


def _envelope_csv(result, config: dict):
    """The envelope's grid table as CSV, in ASCII byte blocks: a "# " JSON
    header line, the column names, then one line of cells per grid point.

    The result's columns go to _float_text as they are, and m as the hull,
    evaluated per block of x, so beyond the result the writer holds one
    block of _float_text's working set and of m.
    """
    xs = result.interval.grid()
    cols = [("x", xs)]
    if result.rho is not None:
        cols.append(("rho", result.rho.values))
    if result.m is not None:
        cols.append(("m", result.m))
    cols.append(("g", result.g))
    cols.append(("g1", result.g1))
    head = "# " + json.dumps({"config": config, "status": result.status,
                              "direction": result.direction})
    names = ",".join(name for name, _ in cols)
    return itertools.chain([f"{head}\n{names}\n".encode()],
                           _float_text([vals for _, vals in cols], "\n", repr), [b"\n"])


def _cmd_envelope(args, seed: int) -> int:
    interval, (gen,) = _parse_specs(args, [args.gen])
    fn = qa_convex_envelope if args.kind == "convex" else qa_concave_envelope
    result = fn(gen)
    failed = result.status == "NoneExists"
    config = _config(args, interval, seed, kind=args.kind)
    if args.format == "csv" and not failed:
        _emit(_envelope_csv(result, config), args.out)
    else:
        _json_report({"config": config, **result.to_dict()}, args.out)
    return 1 if failed else 0


def _no_envelope(args, config: dict, env) -> int:
    """Report a check whose envelope does not exist, as a failed check."""
    _json_report({"config": config, "check": args.check,
                  "error": f"no {env.direction} envelope: status {env.status}",
                  "diagnostics": env.diagnostics}, args.out)
    return 1


def _cmd_verify(args, seed: int) -> int:
    pair = args.check in ("ij", "kedlaya")
    if args.gen2 is not None and not pair:
        raise UsageError(f"--gen2 applies to ij and kedlaya, not {args.check}")
    gen2 = ("arith" if args.gen2 is None else args.gen2) if pair else None
    if args.check in ("maximality", "duality"):  # refused before the envelope is built
        _check_trials(args.trials)
    parse = parse_generator if args.check in ("maximality", "duality") else parse_mean
    interval, parsed = _parse_specs(args, [args.gen, gen2] if pair else [args.gen], parse)
    first = parsed[0]  # --gen: a generator for maximality and duality, else a mean
    config = _config(args, interval, seed, check=args.check, gen2=gen2)
    if args.check == "ij":
        rep = ingham_jessen_sweep(*parsed, args.trials, seed)
    elif args.check == "kedlaya":
        rep = kedlaya_check(*parsed, 5, args.trials, seed)
    elif args.check == "maximality":
        env = qa_convex_envelope(first)
        if env.status not in ("Envelope", "AlreadyExtremal"):
            return _no_envelope(args, config, env)
        candidates = max(1, min(100, args.trials // 100))
        rep = maximality_check(first, env, candidates, args.trials // candidates, seed)
    elif args.check == "duality":
        env = qa_concave_envelope(first)
        if env.status == "NoneExists":
            return _no_envelope(args, config, env)
        rep = duality_check(first, env, args.trials, seed)
    else:
        rep = symmetry_check(first, args.trials, seed)
    _json_report({"config": config, **rep.to_dict()}, args.out)
    return 0 if rep.passed else 1


def run(argv) -> int:
    """Parse argv, run the command, return the exit code."""
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed its usage error or help
            return int(exc.code or 0)
    try:
        return args.handler(args, _resolve_seed(args))
    except (QameansError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
