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
report is ASCII byte blocks, written through one file descriptor to --out or
joined into one string for stdout.  A JSON report's skeleton, the report
with each top-level float array as [], is written by one indented orjson
call whose exponent and [1e-5, 1e-4) numbers are respelled as repr spells
them; json.dumps writes it instead when orjson refuses the skeleton, when
the skeleton holds a NaN or +-inf, or when the text holds a non-ASCII byte
or 0x7f.  Each array's items are cut in after its bracket.  Float arrays
and table columns go in blocks of at most _BLOCK_ROWS rows, gathered into
one reused buffer, so the writer holds one block, not the table; each run
of rows is formatted in C by one flat orjson call, whose text is repr's
exactly when 1e-4 <= |v| < 1e16 or v = +-0, and a row holding any other
value is a block of its own, spelled cell by cell through repr or
json.dumps.  Exit codes: 0 success or pass, 1 a check failed with a witness
(including an envelope that does not exist), 2 usage or domain errors:
argparse's usage message, or one "error: " line for a QameansError or
OSError.

:func:`run` can be called repeatedly from one process: the argument parser
is built once, on the first call that needs it, and every call gets a fresh
namespace, so each report is the same bytes as a shell run with that argv.
Each option is declared once, in _COMMON and _COMMANDS, the table the
parser is built from.  A plain command line, a command name then exact
--option value pairs, is read from _COMMANDS into the namespace parse_args
would give, at a fraction of its cost; a plain command line never builds
argparse.  argparse parses everything else, and alone prints help, usage
and errors.
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
# The encoder json.dumps(obj, indent=2) builds per call, built once.
_JSON = json.JSONEncoder(indent=2)
# Where orjson spells a float otherwise than repr: an exponent without "+"
# or a zero pad (2e-8, 1e16 for 2e-08, 1e+16), and a float in [1e-5, 1e-4)
# written positionally (0.00001 for 1e-05).  In indented text every number
# ends its line, with an optional comma, and no string ends a line, so each
# pattern matches only the tail of a number.
_ORJSON_EXPONENT = re.compile(rb"e(-?\d+)(?=,?$)", re.M)
_ORJSON_POSITIONAL = re.compile(rb"0\.0000\d+(?=,?$)", re.M)


# argparse's newer upstream test for a negative number, '-' then a digit or
# '.digit', so that values such as -1e3 and -1,2 are not read as options.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")

# Each option as (flag, add_argument keywords), the options of every
# command first; _COMMANDS, after the handlers, holds each command's own.
_COMMON = (
    ("--gen", dict(required=True, help="generator spec: " + " | ".join(generator_kinds()))),
    ("--lo", dict(type=float, default=DEFAULT_LO,
                  help=f"interval lower end (default {DEFAULT_LO}); a run with a "
                       "table: spec takes the table's own grid and ignores "
                       "--lo/--hi/--grid")),
    ("--hi", dict(type=float, default=DEFAULT_HI,
                  help=f"interval upper end (default {DEFAULT_HI})")),
    ("--grid", dict(type=int, default=DEFAULT_GRID_POINTS,
                    help=f"grid points (default {DEFAULT_GRID_POINTS})")),
    ("--seed", dict(type=int, default=None,
                    help="random seed (default: QAM_SEED env var, else 0)")),
    ("--trials", dict(type=int, default=DEFAULT_TRIALS,
                      help=f"sampling trials (default {DEFAULT_TRIALS})")),
    ("--out", dict(default=None, help="write the report to a file")),
)


class _Parser(argparse.ArgumentParser):
    """argparse's parser with _NEGATIVE_NUMBER as its test for a negative
    number.  Subparsers take the class of their parent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qameans",
        description="Quasiarithmetic means: evaluation, convexity "
                    "classification, and convex/concave envelopes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options, group) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in _COMMON + options:
            p.add_argument(flag, **kwargs)
        if group:
            members = p.add_mutually_exclusive_group(required=True)
            for flag, kwargs in group:
                members.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def _plain_args(argv) -> argparse.Namespace | None:
    """parse_args(argv)'s namespace when argv is a plain command line, else None.

    A plain command line is a command name, then exact --option value pairs
    of its options in _COMMANDS, each value converted by the option's type
    and held by its choices, if it has any, where no value is one argparse
    would read as an option (a '-' that does not start a negative number).
    Every required option, and exactly one member of the command's group,
    is given.  The namespace holds the command, each option's value or
    default, then the handler, in parse_args's order.  Anything else, and
    any error, is left to parse_args, which alone prints help, usage and
    errors; a plain command line never builds the parser.
    """
    command = _COMMANDS.get(argv[0]) if argv and len(argv) % 2 else None
    if command is None:
        return None
    handler, _, options, group = command
    table = dict(_COMMON + options + group)
    values = {"command": argv[0], **{flag[2:].replace("-", "_"): kwargs.get("default")
                                     for flag, kwargs in table.items()}, "handler": handler}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kwargs = table.get(flag)
        if kwargs is None or text[:1] == "-" and not _NEGATIVE_NUMBER.match(text):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[flag[2:].replace("-", "_")] = value
    given = set(argv[1::2])
    required = [flag for flag, kwargs in table.items() if kwargs.get("required")]
    if not given.issuperset(required) or group and len(given.intersection(dict(group))) != 1:
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
    """Write a report's ASCII byte blocks to out_path, truncating it, through
    one descriptor, or to stdout as one string of the same bytes.  Each
    block is dropped before the next is made, so the writer holds one."""
    if out_path:
        fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            for block in blocks:
                _write_all(fd, block)
                del block
        finally:
            os.close(fd)
    else:
        sys.stdout.write(b"".join(blocks).decode("ascii"))


def _write_all(fd: int, block) -> None:
    """os.write the bytes-like block to fd in full, looping on partial writes."""
    view = memoryview(block)
    while view:
        view = view[os.write(fd, view):]


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


def _json_text(report: dict, end: bytes = b""):
    """Yield the text of json.dumps(report, indent=2), then end, as ASCII
    byte blocks, each top-level 1-D float ndarray value written as its list.

    _skeleton_text writes the report with each array as [], and the items
    of a nonempty one go in after its bracket as _float_text's blocks,
    orjson's text when 1e-4 <= |v| < 1e16 or v = +-0, which is repr's, else
    json.dumps's.  The bracket is the first after the previous cut on a line
    opening with its key at indent 2: json escapes a newline in a string,
    and a nested key sits at indent 4 or more, so no other line matches.
    """
    arrays = {k: v for k, v in report.items() if isinstance(v, np.ndarray)}
    text = _skeleton_text({**report, **dict.fromkeys(arrays, [])})
    start, close = 0, b""
    for key, values in arrays.items():
        if len(values):
            head = f"\n  {json.dumps(key)}: [".encode()
            cut = text.index(head, start) + len(head)
            yield close + text[start:cut] + b"\n    "
            yield from _float_text([values], ",\n    ", _json_float)
            start, close = cut, b"\n  "
    yield close + text[start:] + end


def _skeleton_text(skeleton: dict) -> bytes:
    """json.dumps(skeleton, indent=2) as ASCII bytes, written by orjson.

    orjson lays indented text out as json does and spells each float with
    repr's shortest digits, so respelling the exponents, and the floats in
    [1e-5, 1e-4) it writes positionally, gives json's text.  json.dumps
    writes it instead where orjson cannot: when orjson refuses the skeleton
    (an int beyond 64 bits, a key that is not a str, a lone surrogate, a
    numpy scalar), when it holds a NaN or +-inf, which orjson writes as
    null and json as NaN or Infinity, or when its text holds a non-ASCII
    byte or 0x7f, which json escapes and orjson does not.  A null from None
    is json's own; the skeleton is searched for a float that is not finite
    only when the text holds null.
    """
    try:
        text = orjson.dumps(skeleton, option=orjson.OPT_INDENT_2)
    except orjson.JSONEncodeError:
        text = None
    if (text is None or not text.isascii() or b"\x7f" in text
            or (b"null" in text and _holds_nonfinite(skeleton))):
        return _JSON.encode(skeleton).encode()
    text = _ORJSON_EXPONENT.sub(_repr_exponent, text)
    return _ORJSON_POSITIONAL.sub(_repr_positional, text)


def _holds_nonfinite(obj) -> bool:
    """Whether obj, a JSON value of dicts, lists, tuples and scalars, holds
    a float that is not finite."""
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    return any(_holds_nonfinite(v) for v in obj)


def _repr_exponent(match) -> bytes:
    """repr's spelling of an exponent: the mantissas are the same digits."""
    return b"e%+03d" % int(match[1])


def _repr_positional(match) -> bytes:
    """repr's spelling of a float in [1e-5, 1e-4) that orjson spelled as
    match's text; a match inside a larger number is left as it is."""
    if match.string[match.start() - 1] in b" -":
        return repr(float(match[0])).encode()
    return match[0]


def _json_float(v: float) -> str:
    """json.dumps(v) for a float v, without its encoder: repr when v is
    finite, else NaN, Infinity or -Infinity."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def _json_report(report: dict, out_path: str | None) -> None:
    _emit(_json_text(report, b"\n"), out_path)


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
        # One batches call on a batch of each row length, written back in
        # file order: as one-row batches, 100 rows of 2 to 6 entries took
        # 199 us against 82 us (2-vCPU Xeon), most of it numpy call setup.
        # A row's mean does not depend on its batch, so the call raises
        # exactly when one of its rows would; the rows are then evaluated
        # one by one, so the first failing row in file order raises.
        by_length, values = {}, np.empty(len(rows))
        for k, row in enumerate(rows):
            by_length.setdefault(len(row), []).append(k)
        try:
            means = QuasiArithmeticMean(gen).batches(
                [[rows[k] for k in idx] for idx in by_length.values()])
        except QameansError:
            for row in rows:
                qa_mean(gen, row)
            raise
        for idx, group_means in zip(by_length.values(), means):
            values[idx] = group_means
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
    """Report a check whose envelope does not exist (NoneExists), as a failed check."""
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
        if env.status == "NoneExists":
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


# Per command: its handler, its help, its own options and its one required
# exclusive group, each option as in _COMMON.
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate the QA mean of a vector", (), (
        ("--vec", dict(help="comma-separated values, e.g. 1,7")),
        ("--vec-file", dict(help="CSV file, one tuple per row")))),
    "classify": (_cmd_classify, "convexity class of the QA mean", (), ()),
    "compare": (_cmd_compare, "order two QA means by the generator criterion", (
        ("--gen2", dict(required=True, help="second generator spec")),), ()),
    "envelope": (_cmd_envelope, "convex or concave QA envelope", (
        ("--kind", dict(choices=("convex", "concave"), default="convex")),
        ("--format", dict(choices=("json", "csv"), default="json",
                          help="report format; csv writes the envelope's grid table"))), ()),
    "verify": (_cmd_verify, "randomized inequality checks", (
        ("--check", dict(required=True, choices=("ij", "kedlaya", "maximality",
                                                 "duality", "symmetry"))),
        ("--gen2", dict(help="second mean for ij/kedlaya: a generator spec or "
                             "'arith' (default arith); the other checks refuse it"))), ()),
}


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
