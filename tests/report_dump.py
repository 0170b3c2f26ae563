"""Print one line per library result over a fixed set of closed-form cases.

    PYTHONPATH=src python tests/report_dump.py > dump.txt

Each closed form of KINDS is built on each interval of INTERVALS at each
grid size of GRIDS, three ways: direct, reflected (reflect_generator, on
the mirror interval) and tabulated (tabulate).  For each of them the dump
prints its classify verdict and its three envelope routes (convex, concave
direct, concave by reflection), and for every ordered pair of distinct
generators on one working interval its compare relation.  A line reads

    <lo> <hi> <grid> <route> <generator>[ <generator2>] -> <outcome>

where the outcome is the result's report fields as sorted JSON (class and
evidence, relation and gaps, or envelope status and diagnostics with any
witness pair), or the error class and text.  A generator that cannot be
built prints one `build` line with its error.  Diffing the dumps of two
checkouts lists every result a change moves.  The output is the same on
every run.  Not collected by pytest; tests/test_report_dump.py runs a slice.
"""

from __future__ import annotations

import json
import sys
from itertools import permutations

from qameans import (
    WorkingInterval,
    classify,
    compare,
    parse_generator,
    qa_concave_envelope,
    qa_concave_envelope_via_reflection,
    qa_convex_envelope,
    reflect_generator,
    tabulate,
)

KINDS = ("power:3", "power:0.5", "power:-1", "power:-3", "log", "exp", "id", "affine:-2:1")
INTERVALS = ((0.1, 10.0), (1.0, 1.000001), (0.001, 1000.0), (0.5, 2.0), (10.0, 11.0),
             (0.0, 720.0), (709.0, 709.78), (0.1, 1e120), (5e-324, 1.0), (-5.0, 5.0))
GRIDS = (3, 5, 129, 1025, 4097, 65537)
ENVELOPES = (("convex", qa_convex_envelope), ("concave", qa_concave_envelope),
             ("concave_via_reflection", qa_concave_envelope_via_reflection))
ROUTES = ("build", "classify", "compare") + tuple(name for name, _ in ENVELOPES)
VARIANTS = (("direct", lambda gen: gen), ("reflected", reflect_generator),
            ("tabulated", tabulate))


def _outcome(call) -> str:
    try:
        return json.dumps(call(), sort_keys=True, default=lambda o: o.item())
    except Exception as exc:  # every error is an outcome the dump records
        return f"{type(exc).__name__}: {exc}"


def _envelope_report(res) -> dict:
    return {"status": res.status, "diagnostics": res.diagnostics}


def dump_lines(kinds=KINDS, intervals=INTERVALS, grids=GRIDS):
    """Yield the dump's lines for the given kinds, intervals and grid sizes."""
    for lo, hi in intervals:
        for n in grids:
            head = f"{lo!r} {hi!r} {n}"
            by_domain = {}
            for kind in kinds:
                for variant, build in VARIANTS:
                    label = kind if variant == "direct" else f"{variant}({kind})"
                    try:
                        gen = build(parse_generator(kind, WorkingInterval(lo, hi, n)))
                    except Exception as exc:
                        yield f"{head} build {label} -> {type(exc).__name__}: {exc}"
                        continue
                    by_domain.setdefault(gen.domain, []).append((label, gen))
                    text = _outcome(lambda: classify(gen).to_dict())
                    yield f"{head} classify {label} -> {text}"
                    for name, envelope in ENVELOPES:
                        text = _outcome(lambda: _envelope_report(envelope(gen)))
                        yield f"{head} {name} {label} -> {text}"
            for gens in by_domain.values():
                for (label, gen), (label2, gen2) in permutations(gens, 2):
                    text = _outcome(lambda: compare(gen, gen2).to_dict())
                    yield f"{head} compare {label} {label2} -> {text}"


if __name__ == "__main__":
    for line in dump_lines():
        sys.stdout.write(line + "\n")
