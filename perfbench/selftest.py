"""Self-test of the output checker and of BENCHMARK.json.

Real reports from the program must pass check.check_op, and the same
reports corrupted (a flipped verdict, a wrong exit code, a witness that no
longer violates, an eval value off by 1e-9) must be rejected.  Runs in a few
seconds: python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile


def main(root: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    from qameans import cli, verify
    from qameans.grids import WorkingInterval
    from qameans.means import parse_mean

    import check
    import run
    import spans
    import workloads
    from worker import _percentile_tail

    results = []

    def expect(label: str, cond: bool) -> None:
        results.append(cond)
        print(f"{'ok  ' if cond else 'FAIL'} {label}")

    def accepts(exp, rc, data, rows=None):
        return check.check_op(exp, rc, data, rows) == []

    scratch = os.path.join(root, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        def cli_report(argv):
            out = os.path.join(tmp, "out")
            rc = cli.run(argv + ["--out", out])
            with open(out, "rb") as fh:
                return rc, fh.read()

        exp = {"kind": "classify", "class": check.expected_class("power:3")}
        rc, data = cli_report(["classify", "--gen", "power:3"])
        expect("classify power:3 report accepted", accepts(exp, rc, data))
        bad = json.loads(data)
        bad["class"] = "Concave"
        expect("flipped verdict rejected", not accepts(exp, rc, json.dumps(bad).encode()))
        expect("classify with exit 2 rejected", not accepts(exp, 2, data))

        exp = {"kind": "compare",
               "relation": check.expected_relation("power:2", "log", 0.1, 10.0)}
        rc, data = cli_report(["compare", "--gen", "power:2", "--gen2", "log"])
        expect("compare power:2 log report accepted", accepts(exp, rc, data))
        bad = json.loads(data)
        bad["relation"] = "LessOrEqual"
        expect("flipped relation rejected", not accepts(exp, rc, json.dumps(bad).encode()))

        exp = {"kind": "envelope", "status": "NoneExists", "grid": 1025, "format": "json"}
        rc, data = cli_report(["envelope", "--gen", "power:3", "--kind", "concave"])
        expect("NoneExists envelope with exit 1 accepted", accepts(exp, rc, data))
        expect("NoneExists envelope with exit 0 rejected", not accepts(exp, 0, data))

        exp = {"kind": "envelope", "status": "AlreadyExtremal", "grid": 1025,
               "format": "csv"}
        rc, data = cli_report(["envelope", "--gen", "power:3", "--format", "csv"])
        expect("envelope CSV accepted", accepts(exp, rc, data))
        expect("truncated envelope CSV rejected", not accepts(exp, rc, data[:-200]))

        exp = {"kind": "verify", "outcome": "pass"}
        rc, data = cli_report(["verify", "--check", "symmetry", "--gen", "log",
                               "--trials", "200"])
        expect("passing verify report accepted", accepts(exp, rc, data))
        bad = json.loads(data)
        bad["failures"] = 1
        expect("pass-path report with failures rejected",
               not accepts(exp, rc, json.dumps(bad).encode()))

        exp = {"kind": "verify", "outcome": "fail", "M": "arith", "N": "log"}
        rc, data = cli_report(["verify", "--check", "kedlaya", "--gen", "arith",
                               "--gen2", "log", "--trials", "200", "--seed", "11"])
        expect("kedlaya witness accepted", accepts(exp, rc, data))
        bad = json.loads(data)
        bad["witness"]["values"] = [bad["witness"]["values"][0]] * len(bad["witness"]["values"])
        expect("kedlaya witness that does not violate rejected",
               not accepts(exp, rc, json.dumps(bad).encode()))

        iv = WorkingInterval(0.1, 10.0)
        rep = verify.ingham_jessen_check(parse_mean("arith", iv), parse_mean("log", iv),
                                         2, 2, 5, 0).to_dict()
        data = json.dumps(rep).encode()
        expect("ij witness accepted", accepts(exp, 1, data))
        matrix = rep["witness"]["matrix"]
        rep["witness"]["matrix"] = [[matrix[0][0]] * len(row) for row in matrix]
        expect("ij witness that does not violate rejected",
               not accepts(exp, 1, json.dumps(rep).encode()))
        expect("ij witness with exit 0 rejected", not accepts(exp, 0, data))

        rows = [[1.0, 2.0, 8.0], [0.5, 9.0], [3.0, 3.5, 4.0, 7.25]]
        path = os.path.join(tmp, "vec.csv")
        workloads.write_vec_file(path, rows)
        exp = {"kind": "eval", "gen": "power:3"}
        rc, data = cli_report(["eval", "--gen", "power:3", "--vec-file", path])
        expect("eval report accepted", accepts(exp, rc, data, rows))
        bad = json.loads(data)
        bad["values"][1] *= 1.0 + 1e-9
        expect("eval value off by 1e-9 rejected",
               not accepts(exp, rc, json.dumps(bad).encode(), rows))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    expect("tail of 264 samples is p96 with 10 above",
           _percentile_tail(list(range(264))) == (263 - 10, 96))

    bench_path = os.path.join(root, "BENCHMARK.json")
    if os.path.exists(bench_path):
        with open(bench_path) as fh:
            bench = json.load(fh)
        expect("BENCHMARK.json end_to_end matches run.END_TO_END",
               [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END))
        expect("BENCHMARK.json per_layer matches spans.LAYER_METRICS",
               [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
               == list(spans.LAYER_METRICS))
        expect("BENCHMARK.json workloads match workloads.WHY",
               {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY)
    print(f"{sum(results)} of {len(results)} self-test checks passed")
    return 0 if all(results) else 1
