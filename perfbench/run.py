"""qameans benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --quick      # tiny op lists, seconds
    python3 perfbench/run.py --selftest                  # checker self-test

Run from the repository root.  Each workload runs in processes of its own
(worker.py), one client in a closed loop, with BLAS/OpenMP pools capped at
one thread through the environment they are started with.  The workload
process is set up SETUP_REPS times and setup_s is the median; the middle one
runs the passes, pinned to each CPU in turn.  With --trace 1, blocks of one
pass per CPU alternate untraced and traced, and the per-layer metrics come
from the traced ones.  The last stdout line is
the JSON result; the lines before it name every metric with its unit.
See NOTES.md for the metric, workload and layer tables.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

from check import KNOWN_DEFECTS  # noqa: E402  (after the bytecode switch)
from spans import LAYER_METRICS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze", "verify_pass", "witness")

# Seconds one pass takes on the reference machine (2-core Intel Xeon,
# Python 3.11).  A run makes round(seconds / this) passes, a count fixed by
# --seconds alone, so every run of a workload holds the same op samples and
# its tail percentile is the same order statistic.  On a host slow enough
# that the passes would run past MAX_STRETCH * seconds, the run stops there.
NOMINAL_PASS_S = {"analyze": 2.0, "verify_pass": 1.9, "witness": 1.3}
MAX_STRETCH = 1.2
SETUP_REPS = 7
TIMEOUT_S = 170.0

# Metrics listed in BENCHMARK.json: present and nonzero on every workload.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
# Printed beside them, on the workloads they apply to.
REPORTED = (("fail_ratio", "failed/attempted"), ("classify_ms", "ms"),
            ("envelope_g1025_ms", "ms"), ("envelope_g65537_ms", "ms"),
            ("verify_trials_per_s", "trials/s"), ("witness_ms", "ms"),
            ("eval_rows_per_s", "rows/s"))

# One-thread BLAS/OpenMP pools, and no .pyc files, so that every set-up
# compiles qameans alike.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _read_line(proc, deadline: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    if not ready:
        raise BenchError("workload process timed out during set-up")
    return proc.stdout.readline()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """Set the workload up SETUP_REPS times, measure in one of the processes.

    The set-ups that only time themselves are split between before and
    after the measured one, so that they sample the host's load at both
    ends of the run rather than in one stretch of a few seconds.
    """
    deadline = time.monotonic() + TIMEOUT_S
    passes = 1 if quick else max(2, round(seconds / NOMINAL_PASS_S[workload]))
    if trace:
        # The worker traces every other block of one pass per CPU.
        passes = max(passes, 2 * len(os.sched_getaffinity(0)))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--passes", str(passes),
           "--trace", str(int(trace)), "--max-seconds", str(MAX_STRETCH * seconds)]
    cmd += ["--quick"] if quick else []
    env = dict(os.environ, **WORKER_ENV)
    reps = 1 if quick else SETUP_REPS
    setups = []

    def set_up(order: str) -> str:
        """Start a workload process, time its set-up, send it `order`."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=env, cwd=ROOT, text=True)
        try:
            line = _read_line(proc, deadline)
            setups.append(time.perf_counter() - t0)
            if line.strip() != "READY":
                raise BenchError(f"{workload} set-up failed")
            out, _ = proc.communicate(order + "\n",
                                      timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} ran past {TIMEOUT_S:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{workload} process exited with {proc.returncode}")
        return out

    for _ in range(reps // 2):
        set_up("stop")
    out = set_up("go")
    for _ in range(reps - reps // 2 - 1):
        set_up("stop")
    result = json.loads(out.strip().splitlines()[-1])
    result["e2e"]["setup_s"] = statistics.median(setups)
    result["info"]["setups_s"] = setups
    return result


def report(workload: str, seed: int, result: dict, trace: bool) -> dict:
    """Print the metrics by name and unit; return the JSON result line."""
    e2e, info = result["e2e"], result["info"]
    attempted, failed = result["attempted"], result["failed"]
    e2e["fail_ratio"] = failed / attempted
    print(f"workload {workload} (seed {seed}): {result['passes']} passes x "
          f"{result['ops']} ops, one client, closed loop")
    print("  versions: " + ", ".join(f"{k} {v}" for k, v in result["versions"].items()))
    print(f"  setup_s             {e2e['setup_s']:.4f} s   (median of "
          + ", ".join(f"{s:.3f}" for s in info["setups_s"]) + ")")
    for name, unit in END_TO_END[1:] + REPORTED:
        if name not in e2e:
            continue
        note = ""
        if name == "op_tail_ms":
            note = f"   (p{info['tail_percentile']} of {info['op_samples']} op samples)"
        elif name == "op_p50_ms":
            note = f"   ({info['op_samples']} op samples)"
        elif name == "fail_ratio":
            note = f"   ({failed} of {attempted} attempted)"
        elif name == "peak_rss_mb":
            note = "   (ru_maxrss of the workload process, getrusage RUSAGE_SELF)"
        print(f"  {name:<19} {e2e[name]:.6g} {unit}{note}")
    for name, ms in result["per_op_ms"].items():
        print(f"  op {ms:10.2f} ms  {name}")
    for name, problems in result["failures"].items():
        tag = "known defect" if name in KNOWN_DEFECTS else "UNEXPECTED"
        print(f"  failed op [{tag}]: {name}: {'; '.join(problems)}")
    unexpected = [n for n in result["failures"] if n not in KNOWN_DEFECTS]
    print(f"  report digest {result['digest']}")
    if trace:
        print("  per-layer metrics, per pass, best of the traced passes:")
        for name, value in result["layers"].items():
            print(f"    {name:<34} {value:.6g}")
        metrics = {n: {"value": result["layers"][n], "unit": u}
                   for n, u, _ in LAYER_METRICS}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny op lists, one pass")
    ap.add_argument("--selftest", action="store_true", help="check the checker")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "qameans", "__init__.py")):
        sys.stderr.write(f"error: no qameans sources under {ROOT}/src\n")
        return 2
    if args.selftest:
        import selftest
        return selftest.main(ROOT)

    print(f"env: python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"cpu {_cpu_model()!r}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                  args.quick)
        except BenchError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        line = report(workload, args.seed, result, bool(args.trace))
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
