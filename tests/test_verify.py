"""Randomized verification harness: reports, witnesses, determinism."""

import json

import numpy as np
import pytest

from qameans import verify
from qameans.envelope import (
    qa_concave_envelope,
    qa_concave_envelope_via_reflection,
    qa_convex_envelope,
)
from qameans.errors import UsageError
from qameans.means import ArithmeticMean, MeanHandle, QuasiArithmeticMean
from qameans.verify import (
    TrialReport,
    duality_check,
    ingham_jessen_check,
    ingham_jessen_sweep,
    kedlaya_check,
    maximality_check,
    symmetry_check,
)


def test_trial_report_witness_invariant():
    with pytest.raises(UsageError):
        TrialReport("x", 10, 1, -0.5, 0, witness=None)
    with pytest.raises(UsageError):
        TrialReport("x", 10, 0, 0.5, 0, witness={"bogus": 1})
    rep = TrialReport("x", 10, 0, 0.5, 0)
    assert rep.passed
    assert "witness" not in rep.to_dict()


def test_ingham_jessen_same_mean_is_exact(iv):
    a = ArithmeticMean(iv)
    rep = ingham_jessen_check(a, a, m=3, n=4, trials=2000, seed=0)
    assert rep.passed
    # both sides are the grand mean; margins are pure rounding noise
    assert abs(rep.worst_margin) < 1e-12


def test_ingham_jessen_concave_outer_pass(iv, catalog):
    g = QuasiArithmeticMean(catalog["log"])
    a = ArithmeticMean(iv)
    rep = ingham_jessen_check(g, a, m=3, n=4, trials=4000, seed=0)
    assert rep.passed
    rep = ingham_jessen_check(a, QuasiArithmeticMean(catalog["power:2"]),
                              m=4, n=3, trials=4000, seed=0)
    assert rep.passed


def test_ingham_jessen_failure_witness_reverifies(iv, catalog):
    p2 = QuasiArithmeticMean(catalog["power:2"])
    a = ArithmeticMean(iv)
    rep = ingham_jessen_check(p2, a, m=3, n=3, trials=4000, seed=0)
    assert not rep.passed
    w = rep.witness
    x = np.asarray(w["matrix"], dtype=float)
    assert x.shape == (3, 3)
    # recompute both sides of the interchange from the shrunk matrix
    lhs = a([p2(row) for row in x])
    rhs = p2([a(col) for col in x.T])
    assert lhs == pytest.approx(w["lhs"], abs=1e-12)
    assert rhs == pytest.approx(w["rhs"], abs=1e-12)
    assert lhs - rhs >= max(2.0 * rep.extra["tol"], 0.0)
    assert w["violation"] == pytest.approx(lhs - rhs, abs=1e-12)


def test_ingham_jessen_shrink_moves_toward_center(iv, catalog):
    p3 = QuasiArithmeticMean(catalog["power:3"])
    a = ArithmeticMean(iv)
    rep = ingham_jessen_check(p3, a, m=2, n=2, trials=2000, seed=1)
    assert not rep.passed
    x = np.asarray(rep.witness["matrix"], dtype=float)
    # shrinking keeps the violation while pulling entries together
    assert np.ptp(x) < iv.span


def test_ingham_jessen_sweep_aggregates(iv, catalog):
    g = QuasiArithmeticMean(catalog["log"])
    a = ArithmeticMean(iv)
    rep = ingham_jessen_sweep(g, a, trials=1600, seed=0)
    assert rep.passed
    assert rep.extra["trials_per_combo"] == 100
    assert rep.trials == 1600
    # smaller failing sweep: the witness comes from the first failing combo
    bad = ingham_jessen_sweep(a, g, trials=400, seed=0, max_dim=3)
    assert not bad.passed
    assert {"m", "n"} <= set(bad.witness)


def test_failing_reports_shrink_one_witness(iv, catalog, monkeypatch):
    calls = []
    shrink = verify._shrink

    def counting(*args):
        calls.append(args)
        return shrink(*args)

    monkeypatch.setattr(verify, "_shrink", counting)
    a = ArithmeticMean(iv)
    g = QuasiArithmeticMean(catalog["log"])
    rep = ingham_jessen_sweep(a, g, trials=400, seed=0, max_dim=3)
    assert rep.failures > 1 and len(calls) == 1
    calls.clear()
    rep = kedlaya_check(a, g, 5, 200, seed=6)
    assert rep.failures > 1 and len(calls) == 1


@pytest.mark.parametrize("floor, moves", [(0.5, True), (100.0, False)])
def test_shrink_evaluates_each_point_once(floor, moves):
    seen = []

    def sides(x):
        seen.append(tuple(x))
        return float(x.max()), float(x.mean())

    x0 = np.array([1.0, 5.0, 2.0])
    arr, (lhs, rhs) = verify._shrink(sides, x0, floor)
    assert len(seen) == len(set(seen))
    assert (tuple(arr) != tuple(x0)) == moves
    # arr0 is evaluated, once and last, only when no move was kept
    assert seen.count(tuple(arr)) == 1 and (seen[-1] == tuple(x0)) == (not moves)
    assert (lhs, rhs) == (float(arr.max()), float(arr.mean()))


def test_kedlaya_equal_means_and_paired_means(iv, catalog):
    a = ArithmeticMean(iv)
    rep = kedlaya_check(a, a, n_max=5, trials=2000, seed=0)
    assert rep.passed and abs(rep.worst_margin) < 1e-12
    # outer prefix chain with the concave mean on the M side holds
    g = QuasiArithmeticMean(catalog["log"])
    rep = kedlaya_check(g, a, n_max=5, trials=4000, seed=0)
    assert rep.passed


def test_kedlaya_misordered_fails_and_reverifies(iv, catalog):
    a = ArithmeticMean(iv)
    g = QuasiArithmeticMean(catalog["log"])
    rep = kedlaya_check(a, g, n_max=5, trials=4000, seed=0)
    assert not rep.passed
    w = rep.witness
    vec = np.asarray(w["values"], dtype=float)
    lhs = g([a(vec[: k + 1]) for k in range(len(vec))])
    rhs = a([g(vec[: k + 1]) for k in range(len(vec))])
    assert lhs == pytest.approx(w["lhs"], abs=1e-12)
    assert rhs == pytest.approx(w["rhs"], abs=1e-12)
    assert lhs > rhs + rep.extra["tol"]


# The program seeds of perfbench's witness workload (KEDLAYA_SEEDS in
# perfbench/workloads.py): arith against log at 200 trials fails and shrinks.
KEDLAYA_WITNESS_SEEDS = (6, 11, 14, 21, 23, 27, 30, 34, 35, 37, 38)


def _log_mean_calls(monkeypatch, log):
    """Log each outermost batch, running and single-vector call of a mean
    handle (not the batch call inside a single-vector call), each group of
    tuples kedlaya_check draws, and each evaluation of a shrink point."""
    depth = []

    def spy(cls, name):
        orig = getattr(cls, name)

        def wrapped(self, *args):
            if not depth:
                log.append(name)
            depth.append(name)
            try:
                return orig(self, *args)
            finally:
                depth.pop()
        monkeypatch.setattr(cls, name, wrapped)

    for cls in (ArithmeticMean, QuasiArithmeticMean):
        spy(cls, "batch")
        spy(cls, "running")
    spy(MeanHandle, "__call__")
    groups, shrink = verify._grouped_tuples, verify._shrink

    def marked_groups(*args):
        for group in groups(*args):
            log.append("group")
            yield group

    def marked_shrink(sides, *args):
        def marked_sides(point):
            log.append("evaluation")
            return sides(point)
        return shrink(marked_sides, *args)
    monkeypatch.setattr(verify, "_grouped_tuples", marked_groups)
    monkeypatch.setattr(verify, "_shrink", marked_shrink)


def test_kedlaya_takes_one_running_call_per_side(iv, catalog, monkeypatch):
    """Each side of a size group and of a shrink evaluation is one running
    call and one call of the other mean on its result."""
    log = []
    _log_mean_calls(monkeypatch, log)
    rep = kedlaya_check(ArithmeticMean(iv), QuasiArithmeticMean(catalog["log"]), 5, 200,
                        seed=KEDLAYA_WITNESS_SEEDS[0])
    assert not rep.passed and log[0] == "group"
    marks = [i for i, name in enumerate(log) if name in ("group", "evaluation")] + [len(log)]
    calls = {"group": [], "evaluation": []}
    for start, end in zip(marks, marks[1:]):
        calls[log[start]].append(sorted(log[start + 1:end]))
    assert calls["group"] == [["batch", "batch", "running", "running"]] * 4
    assert len(calls["evaluation"]) > 10
    assert all(c == ["batch", "batch", "running", "running"]
               for c in calls["evaluation"])


def test_kedlaya_reports_match_per_prefix_running_means(iv, catalog, monkeypatch):
    """Byte-equal reports with each handle's running replaced by the
    per-prefix loop: the failing witness runs, a passing run, and n_max = 9,
    whose rows of 8 and 9 entries take a batch call per prefix."""
    a, g = ArithmeticMean(iv), QuasiArithmeticMean(catalog["log"])
    runs = [(a, g, 5, 200, seed) for seed in KEDLAYA_WITNESS_SEEDS]
    runs += [(g, a, 5, 2000, 3), (a, g, 9, 400, 4), (g, a, 9, 400, 4)]

    def reports():
        return [json.dumps(kedlaya_check(M, N, n_max, trials, seed).to_dict())
                for M, N, n_max, trials, seed in runs]

    fast = reports()
    for cls in (ArithmeticMean, QuasiArithmeticMean):
        monkeypatch.setattr(cls, "running", MeanHandle.running)
    assert reports() == fast


# (m, n, seed) of failing interchange checks of arith against log at 100
# trials, from IJ_CASES in perfbench/workloads.py.
IJ_WITNESS_CASES = ((2, 2, 9), (2, 3, 8))


def test_shrunk_witnesses_report_single_vector_means(iv, catalog):
    """Each side of a shrunk witness is, bit for bit, its chain of
    single-vector means: N of M's row means and M of N's column means for
    the interchange, N and M of the per-prefix means for kedlaya."""
    M, N = ArithmeticMean(iv), QuasiArithmeticMean(catalog["log"])
    for m, n, seed in IJ_WITNESS_CASES:
        w = ingham_jessen_check(M, N, m, n, 100, seed).witness
        x = np.array(w["matrix"])
        assert x.shape == (n, m)
        assert w["lhs"] == N([M(row) for row in x])
        assert w["rhs"] == M([N(col) for col in x.T])
    for seed in KEDLAYA_WITNESS_SEEDS:
        w = kedlaya_check(M, N, 5, 200, seed=seed).witness
        x = np.array(w["values"])
        assert w["lhs"] == N([M(x[:k]) for k in range(1, len(x) + 1)])
        assert w["rhs"] == M([N(x[:k]) for k in range(1, len(x) + 1)])


def test_forced_witnesses_report_single_vector_means(catalog, rho_x2_gen, monkeypatch):
    """With every tolerance at -1 each trial fails, and the witness's means
    are, bit for bit, those of single-vector calls on its own rows."""
    for name in ("SYMMETRY_TOL", "DUALITY_TOL", "MAXIMALITY_TOL"):
        monkeypatch.setattr(verify, name, -1.0)
    log = catalog["log"]
    g = QuasiArithmeticMean(log)
    w = symmetry_check(g, 200, seed=3).witness
    assert (w["value"], w["permuted_value"]) == (g(w["values"]), g(w["permuted"]))
    env = qa_concave_envelope(log)
    w = duality_check(log, env, 200, seed=3).witness
    reflected = qa_concave_envelope_via_reflection(log).mean_handle()
    assert (w["direct"], w["reflected"]) == (env.mean_handle()(w["values"]),
                                             reflected(w["values"]))
    built = []

    def kept(gen):
        built.append(QuasiArithmeticMean(gen))
        return built[-1]
    monkeypatch.setattr(verify, "QuasiArithmeticMean", kept)
    rep = maximality_check(rho_x2_gen, qa_convex_envelope(rho_x2_gen), 3, 100, seed=3)
    w = rep.witness
    env_mean, candidates = built[0], built[1:]
    assert rep.failures == 300 and w["candidate"] == 0
    assert w["qa_envelope"] == env_mean(w["values"])
    assert w["qa_candidate"] == candidates[w["candidate"]](w["values"])


def test_maximality_envelope_dominates_candidates(rho_x2_gen):
    env = qa_convex_envelope(rho_x2_gen)
    rep = maximality_check(rho_x2_gen, env, candidates=10, trials=300, seed=0)
    assert rep.passed
    assert rep.failures == 0
    # margins may touch zero (candidates can approach the envelope) but
    # must never go beyond the tolerance
    assert rep.worst_margin > -rep.extra["tol"]
    assert rep.extra["envelope_status"] == "Envelope"


def test_maximality_already_extremal_with_rejections(tent_profile_gen):
    env = qa_convex_envelope(tent_profile_gen)
    assert env.status == "AlreadyExtremal"
    rep = maximality_check(tent_profile_gen, env, candidates=20, trials=200, seed=2)
    assert rep.passed
    # small lifts over a strictly concave profile often fail domination
    # and get resampled; the counter records that path was exercised
    assert rep.extra["rejected_candidates"] > 0


def test_maximality_rejects_wrong_inputs(catalog, rho_neg_x2_gen):
    bad_env = qa_convex_envelope(catalog["log"])
    assert bad_env.status == "NoneExists"
    with pytest.raises(UsageError):
        maximality_check(catalog["log"], bad_env, candidates=2, trials=10, seed=0)
    from qameans.envelope import qa_concave_envelope

    conc = qa_concave_envelope(rho_neg_x2_gen)
    with pytest.raises(UsageError):
        maximality_check(rho_neg_x2_gen, conc, candidates=2, trials=10, seed=0)


def test_checks_reject_bad_counts(iv, catalog, rho_x2_gen):
    a, g = ArithmeticMean(iv), QuasiArithmeticMean(catalog["log"])
    env = qa_convex_envelope(rho_x2_gen)
    with pytest.raises(UsageError):
        ingham_jessen_sweep(g, a, trials=5)
    for trials in (0, -1):
        with pytest.raises(UsageError):
            symmetry_check(g, trials=trials)
        with pytest.raises(UsageError):
            duality_check(catalog["log"], qa_concave_envelope(catalog["log"]),
                          trials=trials)
        with pytest.raises(UsageError):
            ingham_jessen_sweep(g, a, trials=trials)
        with pytest.raises(UsageError):
            kedlaya_check(g, a, n_max=5, trials=trials)
        with pytest.raises(UsageError):
            maximality_check(rho_x2_gen, env, candidates=2, trials=trials)
    with pytest.raises(UsageError):
        maximality_check(rho_x2_gen, env, candidates=0, trials=10)
    with pytest.raises(UsageError):
        kedlaya_check(g, a, n_max=1, trials=100)
    for max_dim in (1, 0):
        with pytest.raises(UsageError):
            ingham_jessen_sweep(g, a, trials=100, max_dim=max_dim)


def test_duality_passes_on_concave_catalog(catalog, rho_neg_x2_gen):
    gens = [catalog["log"], catalog["power:0.5"], catalog["power:-1"],
            catalog["id"], rho_neg_x2_gen]
    for gen in gens:
        rep = duality_check(gen, qa_concave_envelope(gen), trials=400, seed=0)
        assert rep.passed, gen.spec_string()
        assert rep.worst_margin > 0.0


def test_duality_needs_an_envelope(catalog):
    # the exp mean has no concave envelope; both routes agree on that
    with pytest.raises(UsageError):
        duality_check(catalog["exp"], qa_concave_envelope(catalog["exp"]),
                      trials=100, seed=0)


def test_duality_takes_the_concave_envelope(catalog):
    with pytest.raises(UsageError, match="concave envelope"):
        duality_check(catalog["power:3"], qa_convex_envelope(catalog["power:3"]),
                      trials=100, seed=0)


def test_symmetry_arithmetic_is_bitwise(iv):
    rep = symmetry_check(ArithmeticMean(iv), trials=2000, seed=0)
    assert rep.passed


def test_symmetry_qa_means(catalog):
    for name in ("power:3", "log", "exp"):
        rep = symmetry_check(QuasiArithmeticMean(catalog[name]), trials=2000, seed=0)
        assert rep.passed, name


class _FirstHeavy(MeanHandle):
    """Deliberately order-dependent pseudo-mean used as a negative control."""

    def __init__(self, domain):
        self.domain = domain

    def batch(self, X):
        X = np.asarray(X, dtype=float)
        n = X.shape[1]
        return (X[:, 0] + X.sum(axis=1)) / (n + 1.0)

    def spec_string(self):
        return "first-heavy"


def test_symmetry_catches_order_dependence(iv):
    rep = symmetry_check(_FirstHeavy(iv), trials=2000, seed=0)
    assert not rep.passed
    w = rep.witness
    assert sorted(w["values"]) == sorted(w["permuted"])
    assert w["difference"] > rep.extra["tol"]


def test_symmetry_witness_is_lowest_failing_trial(iv):
    mean = _FirstHeavy(iv)
    rep = symmetry_check(mean, trials=2000, seed=0)
    # replay the draws: sizes, then per size the tuples and their permutations
    rng = np.random.default_rng(0)
    sizes = rng.integers(2, 7, size=2000)
    rows = {}
    for n in range(2, 7):
        idx = np.nonzero(sizes == n)[0]
        X = rng.uniform(iv.lo, iv.hi, size=(len(idx), n))
        P = rng.permuted(X, axis=1)
        diff = np.abs(mean.batch(X) - mean.batch(P))
        rows.update((int(t), x) for t, x, d in zip(idx, X, diff)
                    if d > rep.extra["tol"])
    assert rep.failures == len(rows)
    assert rep.witness["values"] == rows[min(rows)].tolist()


def test_reports_are_deterministic(iv, catalog, rho_x2_gen):
    a = ArithmeticMean(iv)
    g = QuasiArithmeticMean(catalog["log"])

    def dump(rep):
        return json.dumps(rep.to_dict(), sort_keys=True)

    assert dump(ingham_jessen_check(g, a, 3, 3, 2000, seed=5)) == dump(
        ingham_jessen_check(g, a, 3, 3, 2000, seed=5))
    assert dump(kedlaya_check(a, g, 5, 2000, seed=5)) == dump(
        kedlaya_check(a, g, 5, 2000, seed=5))
    assert dump(symmetry_check(g, 2000, seed=5)) == dump(
        symmetry_check(g, 2000, seed=5))
    env = qa_convex_envelope(rho_x2_gen)
    assert dump(maximality_check(rho_x2_gen, env, 3, 100, seed=5)) == dump(
        maximality_check(rho_x2_gen, env, 3, 100, seed=5))


def test_different_seeds_give_different_samples(iv, catalog):
    g = QuasiArithmeticMean(catalog["log"])
    a = ArithmeticMean(iv)
    r1 = ingham_jessen_check(a, g, 3, 3, 500, seed=0)
    r2 = ingham_jessen_check(a, g, 3, 3, 500, seed=1)
    assert r1.witness["matrix"] != r2.witness["matrix"]
