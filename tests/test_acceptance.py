"""End-to-end acceptance checks, one numbered criterion per test.

Each test drives the public API the way a release gate would and prints a
single PASS or FAIL line with the measured quantities, so a verbose run
reads as a checklist.  Tolerances are stated inline next to the quantity
they bound; expected values come from hand calculations or from exact
rational arithmetic, never from a prior run of the code under test.
"""

import json
from fractions import Fraction

import numpy as np

from conftest import build_from_profile
from oracles import exhaustive_upper_hull, fd_curvature_ratio

from qameans.cli import run
from qameans.convexity import classify
from qameans.envelope import (
    concave_envelope_1d,
    qa_concave_envelope,
    qa_convex_envelope,
)
from qameans.generators import parse_generator
from qameans.grids import ScalarGrid, WorkingInterval
from qameans.means import ArithmeticMean, QuasiArithmeticMean, qa_mean
from qameans.verify import (
    duality_check,
    ingham_jessen_check,
    ingham_jessen_sweep,
    kedlaya_check,
    maximality_check,
)


def _report(num, problems, summary):
    ok = not problems
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {summary}", flush=True)
    assert ok, f"criterion {num}: " + "; ".join(problems)


def test_criterion_1_power_family_classification(iv):
    # p <= 1 concave, p >= 1 convex, p = 1 is the arithmetic mean and both.
    table = [
        ("power:-1", "Concave"),
        ("log", "Concave"),
        ("power:0.5", "Concave"),
        ("id", "ArithmeticBoth"),
        ("power:2", "Convex"),
        ("power:3", "Convex"),
    ]
    problems = []
    for spec, want in table:
        got = classify(parse_generator(spec, iv)).value
        if got != want:
            problems.append(f"{spec}: got {got}, want {want}")
    _report(1, problems,
            f"{len(table) - len(problems)}/{len(table)} power-family "
            f"classifications on [{iv.lo}, {iv.hi}]")


def _chord_fd_residual(interval):
    """Max deviation of the reconstructed generator's fd curvature ratio
    from the hand-computed chord 4x - 3, on interior grid points."""
    xs = interval.grid()
    gen = build_from_profile(xs**2, interval, "rho-x2")
    env = qa_convex_envelope(gen)
    ratio = fd_curvature_ratio(env.g, interval.step)
    resid = float(np.max(np.abs(ratio[2:-2] - (4.0 * xs - 3.0)[2:-2])))
    return env, resid


def test_criterion_2_closed_form_envelope_oracle(iv13):
    problems = []
    env, resid_coarse = _chord_fd_residual(iv13)

    if env.status != "Envelope":
        problems.append(f"status {env.status}, want Envelope")
    # The profile x^2 on [1, 3] has the chord through (1, 1) and (3, 9) as
    # its least concave majorant; the vertices must come out bit-exact.
    if env.m is None or env.m.vertices != ((1.0, 1.0), (3.0, 9.0)):
        problems.append(f"hull vertices {None if env.m is None else env.m.vertices}")
    xs = iv13.grid()
    dev_m = float(np.max(np.abs(env.m(xs) - (4.0 * xs - 3.0))))
    if dev_m > 1e-12:
        problems.append(f"envelope profile off the chord by {dev_m:.3e}")
    if resid_coarse > 1e-3:
        problems.append(f"fd curvature residual {resid_coarse:.3e} > 1e-3")

    # Doubling the grid must shrink the fd residual roughly 4x (second
    # order quadrature plus second order differences).
    fine = WorkingInterval(iv13.lo, iv13.hi, 2 * iv13.grid_points - 1)
    _, resid_fine = _chord_fd_residual(fine)
    gain = resid_coarse / resid_fine
    if not 2.5 <= gain <= 6.5:
        problems.append(f"refinement gain {gain:.2f} outside [2.5, 6.5]")

    _report(2, problems,
            f"chord hull exact, fd residual {resid_coarse:.2e} -> "
            f"{resid_fine:.2e} (gain {gain:.2f}) at "
            f"{iv13.grid_points} -> {fine.grid_points} points")


def test_criterion_3_envelope_contract_suite(catalog, rho_x2_gen):
    cases = [
        ("exp", catalog["exp"]),
        ("power:2", catalog["power:2"]),
        ("power:3", catalog["power:3"]),
        ("rho-x2", rho_x2_gen),
    ]
    problems = []
    rng = np.random.default_rng(20260819)
    for i, (name, gen) in enumerate(cases):
        env = qa_convex_envelope(gen)
        if env.status not in ("Envelope", "AlreadyExtremal"):
            problems.append(f"{name}: status {env.status}")
            continue

        # Minorant: the envelope mean never exceeds the original mean
        # beyond 1e-8 on 10^4 random tuples of 2 to 6 entries.
        base = QuasiArithmeticMean(gen)
        emean = env.mean_handle()
        lo, hi = env.interval.lo, env.interval.hi
        violations = 0
        worst = np.inf
        for size in (2, 3, 4, 5, 6):
            X = rng.uniform(lo, hi, size=(2000, size))
            gap = base.batch(X) - emean.batch(X)
            violations += int(np.count_nonzero(gap < -1e-8))
            worst = min(worst, float(np.min(gap)))
        if violations:
            problems.append(f"{name}: {violations} minorant violations, "
                            f"worst gap {worst:.3e}")

        verdict = classify(env.generator).value
        if verdict != "Convex":
            problems.append(f"{name}: envelope classifies {verdict}")

        again = qa_convex_envelope(env.generator)
        if again.status != "AlreadyExtremal":
            problems.append(f"{name}: re-enveloping gave {again.status}")

        rep = maximality_check(gen, env, candidates=100, trials=1000,
                               seed=101 + i)
        if rep.failures != 0 or not rep.passed:
            problems.append(f"{name}: maximality {rep.failures} failures, "
                            f"worst margin {rep.worst_margin:.3e}")
    _report(3, problems,
            "minorant 10^4 tuples at 1e-8, Convex verdicts, idempotence, "
            "maximality 100 candidates x 10^3 tuples on 4 generators")


def test_criterion_4_no_envelope_beyond_arithmetic(catalog):
    problems = []
    cases = [
        ("log convex", qa_convex_envelope(catalog["log"]), catalog["log"], +1),
        ("exp concave", qa_concave_envelope(catalog["exp"]), catalog["exp"], -1),
    ]
    margins = []
    for label, env, gen, side in cases:
        if env.status != "NoneExists":
            problems.append(f"{label}: status {env.status}, want NoneExists")
            continue
        w = env.diagnostics.get("witness")
        if not w:
            problems.append(f"{label}: no witness in diagnostics")
            continue
        # Re-verify by direct evaluation: the witness tuple must place the
        # QA mean on the wrong side of the arithmetic mean by > 1e-6.
        vals = np.array(w["values"], dtype=float)
        qa = qa_mean(gen, vals)
        am = float(np.mean(vals))
        margin = side * (am - qa)  # ordering defect, positive if refuted
        margins.append(margin)
        if margin <= 1e-6:
            problems.append(f"{label}: witness margin {margin:.3e} <= 1e-6")
        if abs(qa - w["qa_mean"]) > 1e-9 or abs(am - w["arith_mean"]) > 1e-9:
            problems.append(f"{label}: stored means disagree with recomputation")
    _report(4, problems,
            "log/exp refusals carry witnesses, re-verified margins "
            + ", ".join(f"{m:.3f}" for m in margins))


def test_criterion_5_direct_and_reflected_envelopes_agree(catalog, rho_neg_x2_gen):
    # Every generator whose mean admits a concave envelope: the direct
    # computation and the reflection through x -> -x must agree.
    gens = [
        ("log", catalog["log"]),
        ("power:0.5", catalog["power:0.5"]),
        ("power:-1", catalog["power:-1"]),
        ("id", catalog["id"]),
        ("rho-neg-x2", rho_neg_x2_gen),
    ]
    problems = []
    for i, (name, gen) in enumerate(gens):
        rep = duality_check(gen, trials=1000, seed=29 + i)
        if not rep.passed:
            problems.append(f"{name}: {rep.failures} disagreements, worst "
                            f"margin {rep.worst_margin:.3e}")
    _report(5, problems,
            f"direct vs reflected concave envelope within 1e-6 on 10^3 "
            f"tuples for {len(gens)} generators")


def _recheck_matrix_witness(M, N, w, tol):
    x = np.array(w["matrix"], dtype=float)
    lhs = N([M(row) for row in x])
    rhs = M([N(col) for col in x.T])
    return lhs - rhs > tol and abs(lhs - w["lhs"]) <= 1e-9


def _recheck_prefix_witness(M, N, w, tol):
    v = np.array(w["values"], dtype=float)
    lhs = N([M(v[:k]) for k in range(1, len(v) + 1)])
    rhs = M([N(v[:k]) for k in range(1, len(v) + 1)])
    return lhs - rhs > tol and abs(lhs - w["lhs"]) <= 1e-9


def test_criterion_6_interchange_and_prefix_coherence(iv):
    A = ArithmeticMean(iv)
    G = QuasiArithmeticMean(parse_generator("log", iv))
    P2 = QuasiArithmeticMean(parse_generator("power:2", iv))
    tol = 1e-9 * iv.span
    problems = []

    # Ordered pairs: concave-below-arithmetic and arithmetic-below-convex
    # must survive 10^4 matrix trials and 10^4 prefix-chain trials each.
    for label, M, N in (("(geometric, arith)", G, A), (("(arith, quadratic)"), A, P2)):
        sweep = ingham_jessen_sweep(M, N, trials=10_000, seed=11, max_dim=5)
        if not sweep.passed:
            problems.append(f"interchange {label}: {sweep.failures} failures")
        chain = kedlaya_check(M, N, 5, trials=10_000, seed=31)
        if not chain.passed:
            problems.append(f"prefix chain {label}: {chain.failures} failures")

    # Misordered pairs must produce a witness, and the witness must
    # reproduce the violation when both sides are recomputed directly.
    bad_matrix = [("(arith, geometric)", A, G), ("(quadratic, arith)", P2, A)]
    for label, M, N in bad_matrix:
        rep = ingham_jessen_check(M, N, 3, 3, trials=20_000, seed=17)
        if rep.witness is None:
            problems.append(f"interchange {label}: no witness in 2e4 trials")
        elif not _recheck_matrix_witness(M, N, rep.witness, tol):
            problems.append(f"interchange {label}: witness fails direct recheck")
    for label, M, N in bad_matrix:
        rep = kedlaya_check(M, N, 5, trials=20_000, seed=41)
        if rep.witness is None:
            problems.append(f"prefix chain {label}: no witness in 2e4 trials")
        elif not _recheck_prefix_witness(M, N, rep.witness, tol):
            problems.append(f"prefix chain {label}: witness fails direct recheck")

    _report(6, problems,
            "ordered pairs pass 10^4 matrix + 10^4 prefix trials, "
            "misordered pairs yield recheckable witnesses")


def test_criterion_7_hull_matches_exhaustive_oracle():
    # Integer ordinates keep both constructions exact: the monotone-chain
    # cross products are integral, and the subset oracle runs in Fractions.
    rng = np.random.default_rng(7777)
    problems = []
    sizes = []
    for t in range(200):
        n = int(rng.integers(3, 13))
        ys = [int(v) for v in rng.integers(-50, 51, size=n)]
        sizes.append(n)
        grid = ScalarGrid(WorkingInterval(0.0, float(n - 1), n), np.array(ys, float))
        hull = concave_envelope_1d(grid)
        vx = [Fraction(v[0]) for v in hull.vertices]
        vy = [Fraction(v[1]) for v in hull.vertices]
        oracle = exhaustive_upper_hull(list(range(n)), ys)

        for k in range(n):
            x = Fraction(k)
            i = max(j for j in range(len(vx)) if vx[j] <= x)
            if vx[i] == x:
                got = vy[i]
            else:
                tfrac = (x - vx[i]) / (vx[i + 1] - vx[i])
                got = vy[i] + tfrac * (vy[i + 1] - vy[i])
            if got != oracle[k]:
                problems.append(f"grid {t} (n={n}) x={k}: chain {got} "
                                f"!= oracle {oracle[k]}")
                break
    _report(7, problems,
            f"200 random integer grids (3 to 12 points, mean "
            f"{np.mean(sizes):.1f}) agree exactly with the subset oracle")


def test_criterion_8_verify_is_deterministic(capsys):
    combos = [
        ["verify", "--check", "ij", "--gen", "log", "--gen2", "arith",
         "--trials", "800", "--seed", "5"],
        ["verify", "--check", "kedlaya", "--gen", "arith", "--gen2", "power:2",
         "--trials", "500", "--seed", "6"],
        ["verify", "--check", "symmetry", "--gen", "power:2",
         "--trials", "1000", "--seed", "7"],
        ["verify", "--check", "duality", "--gen", "log",
         "--trials", "300", "--seed", "8"],
        ["verify", "--check", "maximality", "--gen", "power:3",
         "--trials", "300", "--seed", "9"],
    ]
    problems = []
    for argv in combos:
        rc1 = run(list(argv))
        out1 = capsys.readouterr().out
        rc2 = run(list(argv))
        out2 = capsys.readouterr().out
        check = argv[2]
        if not out1.strip():
            problems.append(f"{check}: empty report")
        if rc1 != rc2 or out1.encode() != out2.encode():
            problems.append(f"{check}: reruns differ (rc {rc1} vs {rc2})")
        json.loads(out1)  # every report must be well-formed JSON
    _report(8, problems,
            f"{len(combos)} verify invocations byte-identical across reruns")
