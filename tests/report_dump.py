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
witness pair and digests of the published g and g' columns), or the error
class and text.  A generator that cannot be built prints one `build` line
with its error.

The `mean` route runs the QA mean of each generator, and the arithmetic
mean (`arith`) on each interval, through batch and running on the first
B rows and n entries of one fixed 64 x 9 batch, for every n of ROW_LENGTHS
and B of BATCH_SIZES.  Its entries are draws of np.random.default_rng(0)
inside the mean's interval, half of them replaced by 0.0 and -0.0 where
the interval holds 0.  A line reads

    <lo> <hi> <grid> mean <generator> <method> <B>x<n> -> <outcome>

where the outcome is the first 16 hex digits of the sha256 of the result's
bytes, as a JSON string, or the error class and text.

The `lookup` route evaluates f, f1 and rho of each tabulated generator and
of its reflection at the generator's own grid, at the mirrored grid (the
negated grid of the mirror interval, which the reflection route reads) and
at batches of np.random.default_rng(0) draws inside the generator's
interval, shuffled, sorted and reversed, of each size of LOOKUP_SIZES.  A
line reads

    <lo> <hi> <grid> lookup <generator> <method> <queries> -> <outcome>

with the outcome a digest as in the mean route.  Diffing the dumps of two
checkouts lists every result a change moves.  The output is the same on
every run.  Not collected by pytest; tests/test_report_dump.py runs a slice.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import permutations

import numpy as np

from qameans import (
    ArithmeticMean,
    QuasiArithmeticMean,
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
ROUTES = ("build", "classify", "compare", "mean", "lookup") + tuple(
    name for name, _ in ENVELOPES)
ROW_LENGTHS = range(1, 10)
BATCH_SIZES = (1, 31, 32, 33, 64)
LOOKUP_SIZES = (511, 512, 4000)
VARIANTS = (("direct", lambda gen: gen), ("reflected", reflect_generator),
            ("tabulated", tabulate))


def _outcome(call) -> str:
    try:
        return json.dumps(call(), sort_keys=True, default=lambda o: o.item())
    except Exception as exc:  # every error is an outcome the dump records
        return f"{type(exc).__name__}: {exc}"


def _digest(array) -> str | None:
    """The first 16 hex digits of the sha256 of array's bytes."""
    return None if array is None else hashlib.sha256(array.tobytes()).hexdigest()[:16]


def _envelope_report(res) -> dict:
    return {"status": res.status, "diagnostics": res.diagnostics,
            "g": _digest(res.g), "g1": _digest(res.g1)}


def _entries(domain: WorkingInterval) -> np.ndarray:
    """The mean route's fixed batch on domain."""
    rng = np.random.default_rng(0)
    X = rng.uniform(domain.lo, domain.hi, size=(max(BATCH_SIZES), max(ROW_LENGTHS)))
    if domain.lo <= 0.0 <= domain.hi:
        pick = rng.integers(0, 4, size=X.shape)
        X[pick == 0], X[pick == 1] = 0.0, -0.0
    return X


def _mean_lines(head: str, label: str, mean):
    X = _entries(mean.domain)
    for n in ROW_LENGTHS:
        for rows in BATCH_SIZES:
            for method in ("batch", "running"):
                text = _outcome(lambda: _digest(getattr(mean, method)(X[:rows, :n])))
                yield f"{head} mean {label} {method} {rows}x{n} -> {text}"


def _queries(domain: WorkingInterval):
    """The lookup route's query sets on domain, by name."""
    yield "grid", domain.grid()
    yield "mirrored_grid", -domain.reflected().grid()
    rng = np.random.default_rng(0)
    for size in LOOKUP_SIZES:
        q = rng.uniform(domain.lo, domain.hi, size)
        yield f"shuffled{size}", q
        yield f"sorted{size}", np.sort(q)
        yield f"reversed{size}", np.sort(q)[::-1]


def _lookup_lines(head: str, label: str, gen):
    for where, q in _queries(gen.domain):
        for method in ("f", "f1", "rho"):
            text = _outcome(lambda: _digest(getattr(gen, method)(q)))
            yield f"{head} lookup {label} {method} {where} -> {text}"


def dump_lines(kinds=KINDS, intervals=INTERVALS, grids=GRIDS):
    """Yield the dump's lines for the given kinds, intervals and grid sizes."""
    for lo, hi in intervals:
        for n in grids:
            head = f"{lo!r} {hi!r} {n}"
            yield from _mean_lines(head, "arith", ArithmeticMean(WorkingInterval(lo, hi, n)))
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
                    yield from _mean_lines(head, label, QuasiArithmeticMean(gen))
                    if variant == "tabulated":
                        yield from _lookup_lines(head, label, gen)
                        yield from _lookup_lines(head, f"reflected({label})",
                                                 reflect_generator(gen))
            for gens in by_domain.values():
                for (label, gen), (label2, gen2) in permutations(gens, 2):
                    text = _outcome(lambda: compare(gen, gen2).to_dict())
                    yield f"{head} compare {label} {label2} -> {text}"


if __name__ == "__main__":
    for line in dump_lines():
        sys.stdout.write(line + "\n")
