"""Walkthrough of the convex envelope pipeline on a worked case.

The generator is built so that its curvature profile f'/f'' equals x^2 on
[1, 3].  x^2 is positive but convex, so the least concave majorant of the
profile is the chord 4x - 3, and the envelope machinery must recover that
chord, rebuild a generator from it, and hand back a mean squeezed between
the original and the arithmetic mean.  The script then shows the refusal
path on the geometric mean, where no convex envelope can exist.

Run:  python3 demos/envelope_walkthrough.py [--trials N] [--seed S]
"""

import argparse

import numpy as np

from qameans.convexity import classify
from qameans.envelope import _reconstruct_from_values, qa_convex_envelope
from qameans.generators import TabulatedGenerator, parse_generator
from qameans.grids import WorkingInterval
from qameans.means import qa_mean


def profile_generator(interval, profile_values, name):
    # Solve g'/g'' = profile for g; the profile itself is the rho grid.
    m0 = np.asarray(profile_values, dtype=float)
    g, g1 = _reconstruct_from_values(m0, interval)
    return TabulatedGenerator(interval, g.values, g1.values, m0, source=name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    iv = WorkingInterval(1.0, 3.0)
    xs = iv.grid()
    gen = profile_generator(iv, xs**2, "rho-x2")

    env = qa_convex_envelope(gen)
    print("input: generator with curvature profile x^2 on [1, 3]")
    print(f"status: {env.status}")
    print(f"hull vertices: {env.m.to_list()}  (expected [[1, 1], [3, 9]])")
    dev = float(np.max(np.abs(env.m(xs) - (4.0 * xs - 3.0))))
    print(f"max deviation of the hull from 4x - 3: {dev:.3e}")
    print(f"envelope classifies: {classify(env.generator).value}")

    again = qa_convex_envelope(env.generator)
    print(f"re-enveloping the result: {again.status}")

    # The envelope mean sits between the original mean and the average.
    rng = np.random.default_rng(args.seed)
    emean = env.mean_handle()
    worst_low, worst_high = np.inf, np.inf
    for _ in range(args.trials):
        v = rng.uniform(iv.lo, iv.hi, size=int(rng.integers(2, 6)))
        e = emean(v)
        worst_low = min(worst_low, qa_mean(gen, v) - e)
        worst_high = min(worst_high, e - float(np.mean(v)))
    print(f"sandwich on {args.trials} tuples: min(original - envelope) = "
          f"{worst_low:.3e}, min(envelope - average) = {worst_high:.3e}")

    print()
    print("refusal path: the geometric mean lies below the average, so no")
    print("convex quasiarithmetic mean can sit between them.")
    lg = parse_generator("log", WorkingInterval(0.5, 4.0))
    refused = qa_convex_envelope(lg)
    print(f"status: {refused.status}")
    w = refused.diagnostics["witness"]
    vals = np.array(w["values"])
    print(f"witness tuple: {np.round(vals, 4).tolist()}")
    print(f"  geometric mean {qa_mean(lg, vals):.6f} < average "
          f"{float(np.mean(vals)):.6f}")

    ok = (env.status == "Envelope" and dev < 1e-10
          and again.status == "AlreadyExtremal"
          and worst_low > -1e-8 and worst_high > -1e-8
          and refused.status == "NoneExists")
    print()
    print("walkthrough:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
