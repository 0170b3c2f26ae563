"""Spans around the public functions of each qameans module, recorded from
the benchmark's side.

A span is [name, start, end, parent, op, attrs]; spans stay in memory and
are written out when the run ends.  A span's self time is its duration minus
the durations of its direct children (the program is single-threaded, so
children never overlap).  Counts come from arguments and return values.

Modules import each other's functions by name (cli imports classify, the
envelope functions and the verify checks; envelope imports
dominates_arithmetic, rho and tabulate; convexity imports rho), so every
wrapper is installed at each module attribute bound to the original
function.  `install` returns the function that restores the originals, so
untraced passes run unmodified code.

The program is single-threaded and nothing in it queues, so no layer has a
wait time to record.  The gate's internal mean evaluation calls a private
helper and stays inside convexity.gate_ms.
"""

from __future__ import annotations

import functools
import sys
import time


def _report_attrs(args, out):
    extra = out.extra
    return {"trials": out.trials, "witness": out.witness is not None,
            "candidates": extra.get("candidates", 0),
            "rejected": extra.get("rejected_candidates", 0)}


# (module, function, span name, attrs from (args, return value))
FUNCTIONS = (
    ("cli", "run", "cli.run", None),
    ("convexity", "classify", "convexity.classify", None),
    ("convexity", "dominates_arithmetic", "convexity.gate",
     lambda a, out: {"trials": out.trials}),
    ("means", "compare", "means.compare", None),
    ("means", "qa_mean", "means.scalar", None),
    ("generators", "parse_generator", "generators.parse", None),
    ("generators", "load_table", "generators.load_table",
     lambda a, out: {"rows": out.domain.grid_points}),
    ("generators", "rho", "generators.rho", None),
    ("generators", "tabulate", "generators.tabulate", None),
    ("envelope", "qa_convex_envelope", "envelope.envelope", None),
    ("envelope", "qa_concave_envelope", "envelope.envelope", None),
    ("envelope", "qa_concave_envelope_via_reflection", "envelope.envelope", None),
    ("envelope", "concave_envelope_1d", "envelope.hull",
     lambda a, out: {"points": len(a[0].values), "vertices": len(out.vertices)}),
    ("envelope", "convex_envelope_1d", "envelope.hull",
     lambda a, out: {"points": len(a[0].values), "vertices": len(out.vertices)}),
    ("envelope", "reconstruct_generator", "envelope.reconstruct", None),
    ("verify", "ingham_jessen_check", "verify.ij", _report_attrs),
    ("verify", "ingham_jessen_sweep", "verify.ij_sweep", _report_attrs),
    ("verify", "kedlaya_check", "verify.kedlaya", _report_attrs),
    ("verify", "maximality_check", "verify.maximality", _report_attrs),
    ("verify", "duality_check", "verify.duality", _report_attrs),
    ("verify", "symmetry_check", "verify.symmetry", _report_attrs),
)

VERIFY_CHECKS = ("ij", "ij_sweep", "kedlaya", "maximality", "duality", "symmetry")

# (name, unit, better).  Times are ms summed over one pass; counts are per
# pass; a ratio whose base is zero in a workload reads 0.
LAYER_METRICS = (
    ("cli.self_ms", "ms", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("envelope.self_ms", "ms", "lower"),
    ("envelope.calls", "count", "lower"),
    ("envelope.hull_ms", "ms", "lower"),
    ("envelope.hull_points", "count", "lower"),
    ("envelope.hull_vertices", "count", "lower"),
    ("envelope.reconstruct_ms", "ms", "lower"),
    ("convexity.gate_ms", "ms", "lower"),
    ("convexity.gate_trials", "count", "lower"),
    ("convexity.classify_ms", "ms", "lower"),
    ("means.compare_ms", "ms", "lower"),
    ("means.batch_calls", "count", "lower"),
    ("means.batch_rows", "count", "lower"),
    ("means.batch_ms", "ms", "lower"),
    ("means.scalar_calls", "count", "lower"),
    ("means.scalar_ms", "ms", "lower"),
    ("generators.parse_ms", "ms", "lower"),
    ("generators.table_rows", "count", "lower"),
    ("generators.rho_ms", "ms", "lower"),
    ("generators.rho_calls", "count", "lower"),
    ("generators.tabulate_ms", "ms", "lower"),
    ("grids.grid_calls", "count", "lower"),
    ("grids.grid_points", "count", "lower"),
    ("grids.grid_ms", "ms", "lower"),
    *((f"verify.{c}_ms", "ms", "lower") for c in VERIFY_CHECKS),
    ("verify.self_ms", "ms", "lower"),
    ("verify.scalar_calls_per_witness", "count", "lower"),
    ("verify.candidate_accept_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Span store shared by all wrappers; `op` is the current op's index."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1

    def wrap(self, fn, name, attrs=None, skip_under=None):
        """`fn` recording a span; no span when the innermost open span's
        name starts with `skip_under` (a handle's batch inside a scalar call)."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_under and stack and spans[stack[-1]][0].startswith(skip_under):
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, out)
            return out

        return traced

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,op,name,start_us,end_us,parent\n")
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i},{op},{name},{(start - t0) * 1e6:.1f},"
                         f"{(end - t0) * 1e6:.1f},{parent}\n")


def install(tracer: Tracer):
    """Wrap every traced function at each of its binding sites; return the
    function that undoes it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "qameans" or n.startswith("qameans."))]
    undo = []
    for modname, attr, name, attrs in FUNCTIONS:
        orig = getattr(sys.modules["qameans." + modname], attr)
        wrapped = tracer.wrap(orig, name, attrs)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))
    means = sys.modules["qameans.means"]
    grids = sys.modules["qameans.grids"]
    methods = [(means.MeanHandle, "__call__", "means.scalar", None)]
    methods += [(cls, "batch", "means.batch",
                 lambda a, out: {"rows": len(a[1])})
                for cls in vars(means).values()
                if isinstance(cls, type) and issubclass(cls, means.MeanHandle)
                and "batch" in vars(cls)]
    methods.append((grids.WorkingInterval, "grid", "grids.grid",
                    lambda a, out: {"points": a[0].grid_points}))
    for cls, attr, name, attrs in methods:
        orig = vars(cls)[attr]
        setattr(cls, attr, tracer.wrap(orig, name, attrs, skip_under="means."
                                       if name.startswith("means.") else None))
        undo.append((cls, attr, orig))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return uninstall


def op_components(spans: list, base: int, bytes_out: int) -> dict:
    """Additive per-layer quantities of one op, whose spans are spans[base:]."""
    child = {}
    for i in range(base, len(spans)):
        parent = spans[i][3]
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + spans[i][2] - spans[i][1]

    total, count, self_ms, attr_sum = {}, {}, {}, {}
    for i in range(base, len(spans)):
        name, start, end, _, _, attrs = spans[i]
        dur = (end - start) * 1e3
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self_ms[layer] = self_ms.get(layer, 0.0) + dur - child.get(i, 0.0) * 1e3
        for key, value in (attrs or {}).items():
            attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value

    # Scalar mean calls made while a failing check builds its witness,
    # attributed to the nearest enclosing verify span.
    scalar_under = {}
    for i in range(base, len(spans)):
        if spans[i][0] != "means.scalar":
            continue
        p = spans[i][3]
        while p >= 0 and not spans[p][0].startswith("verify."):
            p = spans[p][3]
        if p >= 0:
            scalar_under[p] = scalar_under.get(p, 0) + 1
    witness_spans = [i for i in range(base, len(spans))
                     if spans[i][0].startswith("verify.") and spans[i][0] != "verify.ij_sweep"
                     and (spans[i][5] or {}).get("witness")]
    accepted = attr_sum.get(("verify.maximality", "candidates"), 0)

    out = {
        "cli.self_ms": self_ms.get("cli", 0.0),
        "cli.bytes_out": bytes_out,
        "envelope.self_ms": self_ms.get("envelope", 0.0),
        "envelope.calls": count.get("envelope.envelope", 0),
        "envelope.hull_ms": total.get("envelope.hull", 0.0),
        "envelope.hull_points": attr_sum.get(("envelope.hull", "points"), 0),
        "envelope.hull_vertices": attr_sum.get(("envelope.hull", "vertices"), 0),
        "envelope.reconstruct_ms": total.get("envelope.reconstruct", 0.0),
        "convexity.gate_ms": total.get("convexity.gate", 0.0),
        "convexity.gate_trials": attr_sum.get(("convexity.gate", "trials"), 0),
        "convexity.classify_ms": total.get("convexity.classify", 0.0),
        "means.compare_ms": total.get("means.compare", 0.0),
        "means.batch_calls": count.get("means.batch", 0),
        "means.batch_rows": attr_sum.get(("means.batch", "rows"), 0),
        "means.batch_ms": total.get("means.batch", 0.0),
        "means.scalar_calls": count.get("means.scalar", 0),
        "means.scalar_ms": total.get("means.scalar", 0.0),
        "generators.parse_ms": total.get("generators.parse", 0.0),
        "generators.table_rows": attr_sum.get(("generators.load_table", "rows"), 0),
        "generators.rho_ms": total.get("generators.rho", 0.0),
        "generators.rho_calls": count.get("generators.rho", 0),
        "generators.tabulate_ms": total.get("generators.tabulate", 0.0),
        "grids.grid_calls": count.get("grids.grid", 0),
        "grids.grid_points": attr_sum.get(("grids.grid", "points"), 0),
        "grids.grid_ms": total.get("grids.grid", 0.0),
        "verify.self_ms": self_ms.get("verify", 0.0),
        "witness_scalar_calls": sum(scalar_under.get(i, 0) for i in witness_spans),
        "witnesses": len(witness_spans),
        "candidates_accepted": accepted,
        "candidates_tried": accepted + attr_sum.get(("verify.maximality", "rejected"), 0),
    }
    for c in VERIFY_CHECKS:
        out[f"verify.{c}_ms"] = total.get(f"verify.{c}", 0.0)
    return out


def layer_metrics(total: dict, overhead_ratio: float) -> dict:
    """The LAYER_METRICS values from op_components summed over a pass."""
    out = {name: total[name] for name, _, _ in LAYER_METRICS if name in total}
    out["verify.scalar_calls_per_witness"] = (
        total["witness_scalar_calls"] / total["witnesses"] if total["witnesses"] else 0)
    out["verify.candidate_accept_ratio"] = (
        total["candidates_accepted"] / total["candidates_tried"]
        if total["candidates_tried"] else 0)
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _ in LAYER_METRICS}
