"""Gallery of convexity verdicts with their supporting evidence.

Classifies the closed-form catalog plus one tabulated troublemaker and
prints what each decision rested on: the curvature profile f'/f'' being
positive and concave, the same test after reflection, a vanishing second
derivative, or the failure records of both attempts.

Run:  python3 demos/classification_gallery.py [--lo A --hi B]
"""

import argparse

from qameans.convexity import classify
from qameans.generators import TabulatedGenerator, parse_generator
from qameans.grids import WorkingInterval

CATALOG = ["power:-1", "log", "power:0.5", "id", "power:2", "power:3", "exp"]


def cubic_on(lo, hi):
    # x^3 with exact f' and rho = f'/f'' = x/2 grids; rho changes sign at x = 0.
    iv = WorkingInterval(lo, hi)
    xs = iv.grid()
    return TabulatedGenerator(iv, xs**3, 3.0 * xs**2, xs / 2.0, source="cubic")


def describe(ev):
    branch = ev.get("branch", "?")
    if branch == "f2-identically-zero":
        return branch
    if branch in ("rho-positive-concave", "reflected-rho-positive-concave"):
        return (f"{branch}: positivity margin {ev['positivity_margin']:.3g}, "
                f"concavity margin {ev['concavity_margin']:.3g}")
    reasons = (ev.get("convex_test", {}).get("reason", "?"),
               ev.get("concave_test", {}).get("reason", "?"))
    return f"neither: convex test {reasons[0]}, concave test {reasons[1]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lo", type=float, default=0.1)
    ap.add_argument("--hi", type=float, default=10.0)
    args = ap.parse_args()

    interval = WorkingInterval(args.lo, args.hi)
    rows = [(spec, parse_generator(spec, interval)) for spec in CATALOG]
    rows.append(("x^3 on [-1,1.5]", cubic_on(-1.0, 1.5)))

    print(f"{'generator':<16} {'verdict':<15} evidence")
    for name, gen in rows:
        rep = classify(gen)
        print(f"{name:<16} {rep.value:<15} {describe(rep.evidence)}")

    print()
    print("reading the table: p <= 1 concave, p >= 1 convex, p = 1 both,")
    print("and a sign change in f''/f' forfeits both directions.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
