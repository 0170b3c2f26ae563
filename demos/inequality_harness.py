"""Run every randomized inequality check once and print a scoreboard.

Covers the matrix interchange inequality for a concave/convex mean pair,
the chained running-mean inequality, envelope maximality against random
competitor profiles, agreement of the direct and reflected concave
envelope routes, and permutation symmetry.  A deliberately misordered
pair is included to show what a counterexample report looks like.

Run:  python3 demos/inequality_harness.py [--trials N] [--seed S]
"""

import argparse

import numpy as np

from qameans.envelope import qa_convex_envelope
from qameans.generators import parse_generator
from qameans.grids import WorkingInterval
from qameans.means import ArithmeticMean, QuasiArithmeticMean
from qameans.verify import (
    duality_check,
    ingham_jessen_sweep,
    kedlaya_check,
    maximality_check,
    symmetry_check,
)


def show(rep):
    state = "pass" if rep.passed else "FAIL"
    line = (f"  {rep.check:<20} {state}  trials={rep.trials}  "
            f"worst margin {rep.worst_margin:.3e}")
    print(line)
    return rep.passed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    iv = WorkingInterval(0.1, 10.0)
    A = ArithmeticMean(iv)
    G = QuasiArithmeticMean(parse_generator("log", iv))
    P3 = parse_generator("power:3", iv)

    print("expected to pass:")
    ok = show(ingham_jessen_sweep(G, A, args.trials, args.seed))
    ok &= show(kedlaya_check(G, A, 5, args.trials, args.seed))
    env = qa_convex_envelope(P3)
    ok &= show(maximality_check(P3, env, candidates=20,
                                trials=max(1, args.trials // 20),
                                seed=args.seed))
    ok &= show(duality_check(parse_generator("log", iv), args.trials, args.seed))
    ok &= show(symmetry_check(G, args.trials, args.seed))

    print("expected to fail (roles swapped on purpose):")
    bad = ingham_jessen_sweep(A, G, args.trials, args.seed)
    show(bad)
    if bad.witness is not None:
        x = np.array(bad.witness["matrix"])
        print(f"  counterexample matrix {x.shape}: "
              f"lhs {bad.witness['lhs']:.6f} > rhs {bad.witness['rhs']:.6f}")
    ok &= not bad.passed and bad.witness is not None

    print()
    print("harness:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
