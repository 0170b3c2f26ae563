"""Workload process: set up one workload, then run its measured passes.

run.py starts this process with BLAS/OpenMP pools capped at one thread in
its environment.  Protocol: after set-up (imports, seeded inputs, one
warm-up op) it prints ``READY``; it then reads ``go`` or ``stop`` on stdin.
After ``go`` it runs the passes and prints one JSON line with the raw
results.  One client drives the program in a closed loop: each op starts
when the previous one has returned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import check
import spans
import workloads


def _percentile_tail(values: list) -> tuple:
    """Highest whole percentile with at least 10 samples above its
    nearest-rank value: (value, percentile).  Below 11 samples: the max."""
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return ordered[-1], 100
    q = (100 * (n - 10)) // n
    rank = -(-q * n // 100)
    return ordered[max(rank, 1) - 1], q


class Runner:
    def __init__(self, tmp: str):
        from qameans import cli, means, verify
        from qameans.grids import WorkingInterval
        self.cli, self.means, self.verify = cli, means, verify
        self.interval = WorkingInterval(workloads.LO, workloads.HI)
        self.tmp = tmp

    def run_op(self, index: int, op) -> tuple:
        """Run one op; return (latency s, exit code, report bytes).  An
        exception escaping the program fails the op, with exit code -1 and
        the traceback as its report, instead of ending the run."""
        clock = time.perf_counter
        out = os.path.join(self.tmp, f"op{index}.out")
        t0 = clock()
        try:
            if op.ij is not None:
                m, n, trials, seed = op.ij
                M = self.means.parse_mean("arith", self.interval)
                N = self.means.parse_mean("log", self.interval)
                rep = self.verify.ingham_jessen_check(M, N, m, n, trials, seed)
                dt = clock() - t0
                return dt, 0 if rep.passed else 1, json.dumps(rep.to_dict()).encode()
            rc = self.cli.run([*op.argv, "--out", out])
        except Exception:
            return clock() - t0, -1, traceback.format_exc().encode()
        dt = clock() - t0
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        return dt, rc, data

    def digest(self, data: bytes) -> str:
        return hashlib.sha256(data.replace(self.tmp.encode(), b"<tmp>")).hexdigest()


def measure(runner: Runner, ops: list, passes: int, traced_passes: set, tracer,
            max_seconds: float) -> dict:
    """Run the passes; check every op; derive the end-to-end and layer metrics.

    An op's latency is its best over the run's untraced passes: each CPU
    of the machine alternates between fast and slow phases lasting seconds,
    independently of the other CPUs (the same op measured 340 ms on one and
    630 ms on the other at the same time), and a median over a run would
    follow the share of slow phases.  Pass p runs pinned to CPU p mod n, so
    every op is measured on each CPU the process may use.  For the
    percentiles each op counts with the weight of its untraced executions.
    Passes stop early, after at least two per CPU, once `max_seconds` have
    passed, so that a run on a slow host still ends in time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    first = {}          # op index -> (exit code, digest, trials, problems)
    failures = {}       # op name -> problems
    attempted = failed = 0
    best = {False: [float("inf")] * len(ops), True: [float("inf")] * len(ops)}
    layer_best = [None] * len(ops)      # per op: best of each layer component
    stop_at = time.monotonic() + max_seconds
    done = 0
    for p in range(passes):
        if p >= 2 * len(cpus) and time.monotonic() > stop_at:
            break
        done = p + 1
        os.sched_setaffinity(0, {cpus[p % len(cpus)]})
        traced = p in traced_passes
        if traced:
            uninstall = spans.install(tracer)
        for i, op in enumerate(ops):
            tracer.op = p * len(ops) + i
            base = len(tracer.spans)
            dt, rc, data = runner.run_op(i, op)
            best[traced][i] = min(best[traced][i], dt)
            if traced:
                comp = spans.op_components(tracer.spans, base, len(data) if op.argv else 0)
                layer_best[i] = comp if layer_best[i] is None else {
                    k: min(v, layer_best[i][k]) for k, v in comp.items()}
            attempted += 1
            digest = runner.digest(data)
            if i not in first:
                problems = check.check_op(op.expect, rc, data, op.rows)
                trials = 0
                if op.group == "verify_pass" and not problems:
                    trials = json.loads(data)["trials"]
                first[i] = (rc, digest, trials, problems)
            else:
                problems = list(first[i][3])
                if (rc, digest) != first[i][:2]:
                    problems.append("report differs from the first pass with the same argv")
            if problems:
                failed += 1
                failures.setdefault(op.name, problems)
        if traced:
            uninstall()
    os.sched_setaffinity(0, cpus)

    passes = done
    traced_passes = {p for p in traced_passes if p < done}
    lat = best[False]
    runs = passes - len(traced_passes)
    tail, q = _percentile_tail([t * 1e3 for t in lat for _ in range(runs)])
    e2e = {
        "wall_s": sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"tail_percentile": q, "op_samples": runs * len(ops), "untraced_passes": runs}
    by_group = {}
    for i, op in enumerate(ops):
        by_group.setdefault(op.group, []).append(i)
    groups = {"classify": "classify_ms", "envelope_g1025": "envelope_g1025_ms",
              "envelope_g65537": "envelope_g65537_ms", "witness": "witness_ms"}
    for group, name in groups.items():
        if group in by_group:
            e2e[name] = statistics.median(lat[i] for i in by_group[group]) * 1e3
    if "verify_pass" in by_group:
        e2e["verify_trials_per_s"] = (sum(first[i][2] for i in by_group["verify_pass"])
                                      / sum(lat[i] for i in by_group["verify_pass"]))
    if "eval" in by_group:
        e2e["eval_rows_per_s"] = (sum(len(ops[i].rows) for i in by_group["eval"])
                                  / sum(lat[i] for i in by_group["eval"]))

    layers = {}
    if traced_passes:
        total = {k: sum(row[k] for row in layer_best) for k in layer_best[0]}
        layers = spans.layer_metrics(total, sum(best[True]) / sum(lat))
    pass_digest = hashlib.sha256("".join(
        f"{op.name}={first[i][0]}:{first[i][1]}\n"
        for i, op in enumerate(ops)).encode()).hexdigest()
    return {"e2e": e2e, "layers": layers, "info": info, "attempted": attempted,
            "failed": failed, "failures": failures, "digest": pass_digest,
            "ops": len(ops), "passes": passes,
            "per_op_ms": {op.name: lat[i] * 1e3 for i, op in enumerate(ops)}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--max-seconds", type=float, required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import qameans
    if os.path.dirname(os.path.dirname(os.path.abspath(qameans.__file__))) != src:
        raise SystemExit(f"qameans imported from {qameans.__file__}, not from {src}")
    scratch = os.path.join(args.root, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        runner = Runner(tmp)
        rng = np.random.default_rng(args.seed)
        ops = workloads.BUILDERS[args.workload](rng, tmp, runner.cli.run, args.quick)
        runner.run_op(0, ops[0])
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        tracer = spans.Tracer()
        # Blocks of one pass per CPU, alternately untraced and traced.
        n_cpus = len(os.sched_getaffinity(0))
        traced = ({p for p in range(args.passes) if (p // n_cpus) % 2}
                  if args.trace else set())
        result = measure(runner, ops, args.passes, traced, tracer, args.max_seconds)
        if args.trace:
            tracer.write(os.path.join(
                scratch, f"spans-{args.workload}-seed{args.seed}.csv"))
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": np.__version__, "scipy": scipy.__version__}
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
