"""Randomized verification harness: reports, witnesses, determinism."""

import contextlib
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qameans import verify
from qameans.cli import run
from qameans.convexity import (
    MAX_ENTRIES,
    MAX_TRIALS,
    MEAN_CMP_TOL,
    _check_trials,
    _grouped_tuples,
    dominates_arithmetic,
)
from qameans.envelope import (
    EnvelopeResult,
    PiecewiseLinearHull,
    qa_concave_envelope,
    qa_concave_envelope_via_reflection,
    qa_convex_envelope,
    reconstruct_generator,
)
from qameans.errors import CandidateRejected, RangeError, UsageError
from qameans.generators import TabulatedGenerator, parse_generator
from qameans.grids import WorkingInterval
from qameans.means import (
    ArithmeticMean,
    ComparisonReport,
    MeanHandle,
    QuasiArithmeticMean,
)
from qameans.verify import (
    TrialReport,
    duality_check,
    ingham_jessen_check,
    ingham_jessen_sweep,
    kedlaya_check,
    maximality_check,
    symmetry_check,
)

import oracles
from conftest import build_from_profile


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


def _sweep_draws(seed, max_dim):
    """The sweep's (seed, m, n) draws, one per shape."""
    combos = [(m, n) for m in range(2, max_dim + 1) for n in range(2, max_dim + 1)]
    return [(seed + 7919 * i, m, n) for i, (m, n) in enumerate(combos)]


def _as_text(worst, failures, witness):
    return json.dumps([worst, failures, witness])


@pytest.mark.parametrize("max_dim", [2, 3, 4, 5])
@pytest.mark.parametrize("pair", [("log", "arith"), ("arith", "log"), ("power:3", "arith")])
def test_sweep_is_the_per_shape_loop_to_the_bit(pair, max_dim):
    """All shapes' matrices, held and taken in one mean call per row length,
    give the worst margin, failures and shrunk witness of a loop that runs
    the shapes one after the other."""
    M, N = map(_mean, pair)
    per, seed = 6, 17
    rep = ingham_jessen_sweep(M, N, per * (max_dim - 1) ** 2, seed, max_dim)
    worst, failures, witness = oracles.per_shape_interchange(
        M, N, _sweep_draws(seed, max_dim), per, MEAN_CMP_TOL * M.domain.span)
    if witness is not None:
        witness.update(m=len(witness["matrix"][0]), n=len(witness["matrix"]))
    assert rep.passed == (pair == ("log", "arith"))
    assert (_as_text(rep.worst_margin, rep.failures, rep.witness)
            == _as_text(worst, failures, witness))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 2), (3, 2), (4, 5)])
@pytest.mark.parametrize("pair", [("log", "arith"), ("arith", "log")])
def test_interchange_check_is_the_per_shape_loop_to_the_bit(pair, m, n):
    M, N = map(_mean, pair)
    rep = ingham_jessen_check(M, N, m, n, 40, seed=3)
    want = oracles.per_shape_interchange(M, N, [(3, m, n)], 40, rep.extra["tol"])
    assert _as_text(rep.worst_margin, rep.failures, rep.witness) == _as_text(*want)


class _Counted(MeanHandle):
    """A mean handle's batch, counted; with bad set, a RangeError naming
    the handle on a batch of rows of bad entries."""

    def __init__(self, inner, bad=None):
        self.inner, self.domain, self.bad, self.calls = inner, inner.domain, bad, 0

    def batch(self, X):
        self.calls += 1
        if X.shape[1] == self.bad:
            raise RangeError(f"{self.spec_string()} on rows of {self.bad}")
        return self.inner.batch(X)

    def spec_string(self):
        return f"counted({self.inner.spec_string()})"


def test_a_max_dim_5_sweep_makes_one_batch_call_per_row_length_and_side():
    """4 row lengths, each through M and N twice: 16 calls, not 4 per shape."""
    M, N = _Counted(_mean("log")), _Counted(_mean("arith"))
    assert ingham_jessen_sweep(M, N, 1600, seed=0).passed
    assert (M.calls, N.calls) == (8, 8)


def test_a_sweep_raises_the_error_of_its_first_failing_shape():
    """M fails on rows of 3 and N on rows of 2: shape by shape, the 2x2
    shape's N fails first, while the batch of all rows of 3 reaches M's
    error first."""
    M, N = _Counted(_mean("log"), bad=3), _Counted(_mean("arith"), bad=2)
    draws = _sweep_draws(0, 5)
    Xs = [np.random.default_rng(s).uniform(0.1, 10.0, size=(10, n, m)) for s, m, n in draws]
    with pytest.raises(RangeError, match=r"^counted\(qa\(log\)\) on rows of 3$"):
        verify._ij_sides(M, N, Xs)
    with pytest.raises(RangeError, match=r"^counted\(arith\) on rows of 2$"):
        oracles.per_shape_interchange(M, N, draws, 10, 0.0)
    with pytest.raises(RangeError, match=r"^counted\(arith\) on rows of 2$"):
        ingham_jessen_sweep(M, N, 160, seed=0)


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


def _max_mean(X):
    return X.max(axis=1), X.mean(axis=1)


@pytest.mark.parametrize("floor, moves", [(0.5, True), (100.0, False)])
def test_shrink_evaluates_no_point_twice_in_one_call(floor, moves):
    calls = []

    def sides(X):
        calls.append([tuple(x) for x in X])
        return _max_mean(X)

    x0 = np.array([1.0, 5.0, 2.0])
    arr, (lhs, rhs) = verify._shrink(sides, x0, (float(x0.max()), float(x0.mean())), floor)
    assert all(len(rows) == len(set(rows)) for rows in calls)
    assert (tuple(arr) != tuple(x0)) == moves
    # arr0 comes with its sides and is never evaluated; a kept point is
    seen = {row for rows in calls for row in rows}
    assert tuple(x0) not in seen and (tuple(arr) in seen) == moves
    assert (lhs, rhs) == (float(arr.max()), float(arr.mean()))


def _one_point(sides):
    """The reference scan's sides of one point, from batch sides."""
    def one(x):
        lhs, rhs = sides(x[None])
        return float(lhs[0]), float(rhs[0])
    return one


def _scan(sides, arr0, sides0, floor):
    """The reference scan's point and sides, and the coordinates it moves
    pass by pass: a pass moves coordinates in increasing order, so one
    starts wherever the coordinate moved is not past the one before."""
    current, passes = arr0.astype(float), []

    def one(x):
        nonlocal current
        lhs, rhs = _one_point(sides)(x)
        i = int(np.flatnonzero(x != current)[0])
        if not passes or i <= passes[-1][-1]:
            passes.append([])
        passes[-1].append(i)
        if lhs - rhs >= floor:
            current = x
        return lhs, rhs
    return oracles.sequential_shrink(one, arr0, sides0, floor), passes


def _bits(arr, kept):
    return arr.tobytes(), np.asarray(kept, dtype=float).tobytes()


def _assert_shrinks_as_the_scan(sides, arr0, sides0, floor):
    """_shrink returns the reference scan's point and sides, bit for bit,
    from one call per window of each pass: the scan evaluates a prefix of
    a pass's live coordinates, so its points of a pass span
    ceil(count / _SHRINK_WINDOW) windows.  Returns the row counts of the
    calls and the scan's passes."""
    calls = []

    def counted(X):
        calls.append(len(X))
        return sides(X)
    shrunk = verify._shrink(counted, arr0, sides0, floor)
    scanned, passes = _scan(sides, arr0, sides0, floor)
    assert _bits(*shrunk) == _bits(*scanned)
    assert len(calls) == sum(-(-len(p) // verify._SHRINK_WINDOW) for p in passes)
    return calls, passes


@st.composite
def _shrink_points(draw):
    """1 to 25 entries.  A few small integers repeat and may hit the mean,
    and up to 3 entries are the mean of the others (within rounding), so
    the skip of a coordinate already at the target fires."""
    x = draw(st.lists(st.one_of(st.integers(-4, 4).map(float), st.floats(-1e3, 1e3)),
                      min_size=1, max_size=25))
    x += [float(np.mean(x))] * draw(st.integers(0, min(3, 25 - len(x))))
    return draw(st.permutations(x))


@settings(max_examples=300)
# Coordinate 0 moves by exactly its skip threshold, 1e-15, and is skipped.
@example(x=[0.0, 4e-15], frac=0.0, sides=_max_mean)
@given(x=_shrink_points(), frac=st.floats(0.0, 1.5),
       sides=st.sampled_from([_max_mean, lambda X: (X[:, 0], X.min(axis=1))]))
def test_shrink_takes_the_scans_decisions_on_synthetic_sides(x, frac, sides):
    x0 = np.array(x)
    sides0 = _one_point(sides)(x0)
    _assert_shrinks_as_the_scan(sides, x0, sides0, frac * (sides0[0] - sides0[1]))


def _margin_of(check, *args):
    """The margin function that check(*args) hands the sampling driver."""
    sample, margins = verify._sample_margins, []

    def capture(groups, margin_fn, *rest):
        margins.append(margin_fn)
        return sample(groups, margin_fn, *rest)
    verify._sample_margins = capture
    try:
        check(*args)
    finally:
        verify._sample_margins = sample
    return margins[0]


def _mean(spec):
    iv = WorkingInterval(0.1, 10.0)
    return ArithmeticMean(iv) if spec == "arith" else QuasiArithmeticMean(parse_generator(spec, iv))


def _kedlaya_sides(M, N):
    """The sides of the margin function kedlaya_check samples."""
    margin = _margin_of(kedlaya_check, M, N, 2, 1)
    return lambda X: margin(X)[1:]


def _interchange_sides(M, N):
    """The sides the interchange check evaluates on a batch of matrices: the
    shared function its sweep and its shrink call."""
    def sides(X):
        (lhs,), (rhs,) = verify._ij_sides(M, N, [X])
        return lhs, rhs
    return sides


# (kedlaya sides, interchange sides) of each mean pair
_CHECK_SIDES = [
    (_kedlaya_sides(M, N), _interchange_sides(M, N))
    for M, N in ((_mean(M), _mean(N)) for M, N in
                 (("arith", "log"), ("arith", "power:3"), ("power:-1", "arith")))]


@settings(max_examples=60)
@given(pair=st.sampled_from(_CHECK_SIDES), interchange=st.booleans(),
       k=st.integers(2, 9), m=st.integers(1, 5), n=st.integers(1, 5),
       frac=st.floats(0.0, 1.5), data=st.data())
def test_shrink_takes_the_scans_decisions_on_check_margins(pair, interchange, k, m, n,
                                                           frac, data):
    """A kedlaya vector of 2 to 9 entries or an n-by-m interchange matrix
    of up to 5 by 5, through the sides its check samples."""
    check_sides, shape = (pair[1], (n, m)) if interchange else (pair[0], (k,))
    size = int(np.prod(shape))
    x0 = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=size, max_size=size)))

    def sides(X):
        return check_sides(X.reshape(-1, *shape))
    sides0 = _one_point(sides)(x0)
    _assert_shrinks_as_the_scan(sides, x0, sides0, frac * (sides0[0] - sides0[1]))


def _spy_shrinks(monkeypatch):
    """Record the arguments of each shrink."""
    shrinks, shrink = [], verify._shrink

    def spy(*args):
        shrinks.append(args)
        return shrink(*args)
    monkeypatch.setattr(verify, "_shrink", spy)
    return shrinks


def test_shrink_of_a_5x5_witness_takes_the_scans_decisions(monkeypatch):
    """25 coordinates: a pass is windows of 6, 6, 6, 6 and 1 coordinates."""
    shrinks = _spy_shrinks(monkeypatch)
    assert not ingham_jessen_check(_mean("arith"), _mean("log"), 5, 5, 20, 0).passed
    monkeypatch.undo()
    [args] = shrinks
    calls, _ = _assert_shrinks_as_the_scan(*args)
    assert args[1].size == 25 and calls[:5] == [63, 63, 63, 63, 1]


def test_shrink_that_keeps_every_move_stops_at_the_pass_cap():
    x0 = np.array([1.0, 5.0, 2.0])
    calls, passes = _assert_shrinks_as_the_scan(_max_mean, x0, _one_point(_max_mean)(x0), 0.0)
    assert passes == [[0, 1, 2]] * 40 and calls == [7] * 40


def test_a_raising_batch_gives_way_to_the_scans_points():
    """A row that only a speculative batch holds may raise and the shrink
    still returns the scan's result; a row on the scan's own path raises
    as it does in the scan."""
    x0 = np.array([1.0, 5.0, 2.0])
    sides0 = _one_point(_max_mean)(x0)
    floor = 0.5 * (sides0[0] - sides0[1])
    batched, path = set(), []

    def batch_sides(X):
        batched.update(map(tuple, X))
        return _max_mean(X)

    def scan_sides(x):
        path.append(tuple(x))
        return _one_point(_max_mean)(x)
    verify._shrink(batch_sides, x0, sides0, floor)
    expected = oracles.sequential_shrink(scan_sides, x0, sides0, floor)
    speculative = batched - set(path)
    assert speculative and path

    def raising_at(bad):
        def sides(X):
            if bad in map(tuple, X):
                raise RangeError(f"no sides at {bad}")
            return _max_mean(X)
        return sides

    for bad in speculative:
        assert _bits(*verify._shrink(raising_at(bad), x0, sides0, floor)) == _bits(*expected)
    for bad in path:
        with pytest.raises(RangeError) as batch_error:
            verify._shrink(raising_at(bad), x0, sides0, floor)
        with pytest.raises(RangeError) as scan_error:
            oracles.sequential_shrink(_one_point(raising_at(bad)), x0, sides0, floor)
        assert str(batch_error.value) == str(scan_error.value)


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
    tuples kedlaya_check draws, and each batch of shrink points."""
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
    """Each side of a size group and of a shrink batch is one running
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
    assert len(calls["evaluation"]) == 9
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


def test_witness_shrinks_take_one_call_per_window_of_a_pass(iv, catalog, monkeypatch):
    """The witness workload's shrinks, of 6 entries or fewer, take one call
    a pass, and so fewer calls than the scan's points."""
    shrinks = _spy_shrinks(monkeypatch)
    M, N = ArithmeticMean(iv), QuasiArithmeticMean(catalog["log"])
    for seed in KEDLAYA_WITNESS_SEEDS:
        kedlaya_check(M, N, 5, 200, seed=seed)
    for m, n, seed in IJ_WITNESS_CASES:
        ingham_jessen_check(M, N, m, n, 100, seed)
    monkeypatch.undo()
    assert len(shrinks) == len(KEDLAYA_WITNESS_SEEDS) + len(IJ_WITNESS_CASES)
    counts = []
    for args in shrinks:
        calls, passes = _assert_shrinks_as_the_scan(*args)
        counts.append((sum(map(len, passes)), len(calls)))
        assert len(calls) == len(passes) < counts[-1][0]
    # kedlaya seed 6: the scan's 27 points take 9 calls
    assert counts[0] == (27, 9)


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
            ingham_jessen_check(a, g, 2, 2, trials=trials)
        with pytest.raises(UsageError):
            kedlaya_check(g, a, n_max=5, trials=trials)
        with pytest.raises(UsageError):
            maximality_check(rho_x2_gen, env, candidates=2, trials=trials)
    with pytest.raises(UsageError):
        maximality_check(rho_x2_gen, env, candidates=0, trials=10)
    with pytest.raises(UsageError):
        kedlaya_check(g, a, n_max=1, trials=100)
    for m, n in ((0, 2), (2, 0)):
        with pytest.raises(UsageError):
            ingham_jessen_check(a, g, m, n, trials=100)
    for max_dim in (1, 0):
        with pytest.raises(UsageError):
            ingham_jessen_sweep(g, a, trials=100, max_dim=max_dim)


def test_checks_refuse_more_than_max_trials_before_drawing(catalog, rho_x2_gen):
    """A sample count above MAX_TRIALS is refused at the call: nothing of the
    size of the sample is allocated (the trial sizes alone of MAX_TRIALS + 1
    trials take 8 MB), so an absurd count is a usage error, not a MemoryError."""
    a, g = ArithmeticMean(catalog["log"].domain), QuasiArithmeticMean(catalog["log"])
    convex, concave = qa_convex_envelope(rho_x2_gen), qa_concave_envelope(catalog["log"])
    checks = [
        lambda t: symmetry_check(g, t),
        lambda t: kedlaya_check(g, a, 5, t),
        lambda t: ingham_jessen_sweep(g, a, t),
        lambda t: ingham_jessen_check(g, a, 5, 5, t),
        lambda t: duality_check(catalog["log"], concave, t),
        lambda t: maximality_check(rho_x2_gen, convex, 2, t),
        lambda t: dominates_arithmetic(catalog["power:3"], 6, t),
    ]
    for trials in (MAX_TRIALS + 1, 10**12):
        for check in checks:
            tracemalloc.start()
            try:
                with pytest.raises(UsageError, match=f"need trials <= {MAX_TRIALS}, got {trials}"):
                    check(trials)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, peak
    _check_trials(MAX_TRIALS)
    _check_trials(16, 16)


def _refused_without_allocating(call, match):
    """call() raises UsageError matching match, with a tracemalloc peak
    under 1 MiB: it is refused before anything of its size is drawn."""
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_checks_refuse_more_than_max_entries_before_drawing(catalog, rho_x2_gen):
    """The trial shape is bounded with the trial count: a check whose trials
    would draw (or, for running means, read) more than MAX_ENTRIES entries
    is refused at the call, before its sizes are drawn or its shapes listed."""
    a, g = ArithmeticMean(catalog["log"].domain), QuasiArithmeticMean(catalog["log"])
    rng = np.random.default_rng(0)
    over = "need trials \\* entries per trial <= 25000000, got"
    refusals = [
        (lambda: ingham_jessen_check(g, a, 1000, 1000, 1000), f"{over} 1000 \\* 1000000$"),
        (lambda: ingham_jessen_check(g, a, 10**9, 1, 1), f"{over} 1 \\* 1000000000$"),
        (lambda: ingham_jessen_sweep(g, a, 10**6, max_dim=10**9), "need trials >= "),
        (lambda: ingham_jessen_sweep(g, a, 10**6, max_dim=100), f"{over} 1000000 \\* 10000$"),
        (lambda: kedlaya_check(g, a, 10**9, 1), f"{over} 1 \\* 500000000500000000$"),
        (lambda: kedlaya_check(g, a, 7071, 1), f"{over} 1 \\* 25003056$"),
        (lambda: _grouped_tuples(rng, 100, 10**9, g.domain), f"{over} 100 \\* 1000000000$"),
        (lambda: dominates_arithmetic(catalog["log"], 10**9, 1), f"{over} 1 \\* 1000000000$"),
        (lambda: maximality_check(rho_x2_gen, qa_convex_envelope(rho_x2_gen), 10**6, 10**6),
         f"need trials <= {MAX_TRIALS}, got {10**12}$"),
        (lambda: maximality_check(rho_x2_gen, qa_convex_envelope(rho_x2_gen), 3, MAX_TRIALS),
         f"need trials <= {MAX_TRIALS}, got {3 * MAX_TRIALS}$"),
    ]
    for call, match in refusals:
        _refused_without_allocating(call, match)
    assert MAX_ENTRIES == 25 * MAX_TRIALS
    # Each bound itself is taken: the 5x5 sweep and interchange at MAX_TRIALS.
    _check_trials(MAX_TRIALS, entries=25)
    _check_trials(1, entries=MAX_ENTRIES)
    _check_trials(1, entries=7070 * 7071 // 2)     # kedlaya's longest n_max at 1 trial


def test_grouped_tuples_draw_only_the_sizes_drawn():
    """A long n_max costs nothing past the sizes drawn: the groups are those
    of a loop over every size 2..n_max, in the same rng order."""
    interval = WorkingInterval(0.1, 10.0)
    got = list(_grouped_tuples(np.random.default_rng(3), 40, 10**5, interval))
    rng = np.random.default_rng(3)
    sizes = rng.integers(2, 10**5 + 1, size=40)
    want = [(np.nonzero(sizes == n)[0], n) for n in sorted(set(sizes.tolist()))]
    assert len(got) == len(want)
    for (idx, X), (want_idx, n) in zip(got, want):
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(X, rng.uniform(interval.lo, interval.hi, size=(len(idx), n)))


def _raised_hull(env: EnvelopeResult, lift: float) -> EnvelopeResult:
    """env with the highest interior vertex of its hull raised by lift: the
    profile rises, so the envelope mean falls below some candidates'."""
    verts = list(env.m.vertices)
    k = max(range(1, len(verts) - 1), key=lambda i: verts[i][1])
    verts[k] = (verts[k][0], verts[k][1] + lift)
    hull = PiecewiseLinearHull(tuple(verts))
    iv = env.interval
    return EnvelopeResult("Envelope", "convex", iv, rho=env.rho, m=hull,
                          generator=reconstruct_generator(hull(iv.grid()), iv, source="raised"))


def _maximality_reports(case: str, grid: int) -> list:
    """The reports of one case at seeds 0-5: the CLI's maximality check of
    power:3 (1000 trials: 10 candidates of 100), and maximality_check(10,
    100) of the x**2 profile's envelope (it passes) and of the tent
    profile's with its kink raised by 0.2 (it fails)."""
    out = []
    for seed in range(6):
        if case == "cli power:3":
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                run(["verify", "--check", "maximality", "--gen", "power:3", "--grid",
                     str(grid), "--seed", str(seed), "--trials", "1000"])
            out.append(text.getvalue())
            continue
        iv = WorkingInterval(1.0, 3.0, grid)
        xs = iv.grid()
        gen = build_from_profile(xs ** 2 if case == "rho-x2" else 2.0 - np.abs(xs - 2.0),
                                 iv, case)
        env = qa_convex_envelope(gen)
        if case == "raised tent":
            env = _raised_hull(env, 0.2)
        out.append(json.dumps(maximality_check(gen, env, 10, 100, seed).to_dict()))
    return out


# sha256 of each case's six reports joined by newlines, as the per-candidate
# envelope batches made them, on numpy 2.4 for each SIMD target the kernels
# can take on an x86 host (NPY_DISABLE_CPU_FEATURES picks the lower two).
MAXIMALITY_REPORT_HASHES = {
    "X86_V4": {
        "cli power:3 257": "74b82b845845f55773ebb97d0eee394b601c9dfd58175831af6c02c75f3b666c",
        "cli power:3 1025": "7394cc9dc997682b39feb875b961efc009a67b23c40838e80f2ab4271a12c5e9",
        "rho-x2 257": "e9fc4abc0f8aae51106abd7f4bb48b63142dbd29e7a1e67d21163ba52fadc47b",
        "rho-x2 1025": "4523cf0d2199ab1e2a141440b995be8c0f278fcdd92f46742e826720ce4932c7",
        "raised tent 257": "60e625612b0c6b6b0b51a9e957acfe0543a9e340af6713a11e8692481059e363",
        "raised tent 1025": "d82ed861bb8626f83e6bef6028dcace072b87271fc9d29844fb0ded28d351a4e",
    },
    "X86_V3": {
        "cli power:3 257": "ec4b41fa5ba4f5480cde68eabe8e01197ea7bc958782ad32581dabfc6c1b09b8",
        "cli power:3 1025": "7394cc9dc997682b39feb875b961efc009a67b23c40838e80f2ab4271a12c5e9",
        "rho-x2 257": "e9fc4abc0f8aae51106abd7f4bb48b63142dbd29e7a1e67d21163ba52fadc47b",
        "rho-x2 1025": "4523cf0d2199ab1e2a141440b995be8c0f278fcdd92f46742e826720ce4932c7",
        "raised tent 257": "60e625612b0c6b6b0b51a9e957acfe0543a9e340af6713a11e8692481059e363",
        "raised tent 1025": "b0a5882ef0e0aec1b48ccb2431ced018e0ac2bb90b1dadb0b6b1abe1dfc708c8",
    },
    "baseline": {
        "cli power:3 257": "ec4b41fa5ba4f5480cde68eabe8e01197ea7bc958782ad32581dabfc6c1b09b8",
        "cli power:3 1025": "7394cc9dc997682b39feb875b961efc009a67b23c40838e80f2ab4271a12c5e9",
        "rho-x2 257": "e9fc4abc0f8aae51106abd7f4bb48b63142dbd29e7a1e67d21163ba52fadc47b",
        "rho-x2 1025": "4523cf0d2199ab1e2a141440b995be8c0f278fcdd92f46742e826720ce4932c7",
        "raised tent 257": "60e625612b0c6b6b0b51a9e957acfe0543a9e340af6713a11e8692481059e363",
        "raised tent 1025": "b0a5882ef0e0aec1b48ccb2431ced018e0ac2bb90b1dadb0b6b1abe1dfc708c8",
    },
}


def _simd_target():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return next((t for t in ("X86_V4", "X86_V3") if __cpu_features__.get(t)), "baseline")


@pytest.mark.parametrize("grid", [257, 1025])
@pytest.mark.parametrize("case", ["cli power:3", "rho-x2", "raised tent"])
def test_maximality_reports_keep_their_bytes(case, grid):
    """Evaluating the envelope side once per tuple length, over every
    candidate's tuples, leaves every report byte for byte as it was."""
    reports = _maximality_reports(case, grid)
    digest = hashlib.sha256("\n".join(reports).encode()).hexdigest()
    assert digest == MAXIMALITY_REPORT_HASHES[_simd_target()][f"{case} {grid}"]


@pytest.mark.parametrize("supplied", [False, True], ids=["computed", "supplied"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maximality_of_a_falling_table_is_that_of_its_rising_negation(supplied, seed):
    """-x**3 and x**3 tabulated generate one mean: their reports agree.
    With f' and rho computed the profile is not concave (an Envelope); with
    them supplied it is, so the falling table is its own envelope."""
    iv = WorkingInterval(0.1, 10.0, 1025)
    xs = iv.grid()
    reports = []
    for sign in (-1.0, 1.0):
        columns = (sign * 3.0 * xs ** 2, xs / 2.0) if supplied else ()
        gen = TabulatedGenerator(iv, sign * xs ** 3, *columns)
        env = qa_convex_envelope(gen)
        assert env.status == ("AlreadyExtremal" if supplied else "Envelope")
        rep = maximality_check(gen, env, 10, 100, seed=seed).to_dict()
        reports.append((rep.pop("failures"), rep.pop("worst_margin"),
                        rep.get("witness"), rep["extra"]["rejected_candidates"]))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("report, want", [
    (TrialReport("c", 3, 0, 0.5, 7),
     {"check": "c", "trials": 3, "failures": 0, "worst_margin": 0.5, "seed": 7}),
    (TrialReport("c", 3, 0, 0.5, 7, extra={"tol": 1.0}),
     {"check": "c", "trials": 3, "failures": 0, "worst_margin": 0.5, "seed": 7,
      "extra": {"tol": 1.0}}),
    (TrialReport("c", 3, 1, -0.5, 7, {"values": [1.0]}),
     {"check": "c", "trials": 3, "failures": 1, "worst_margin": -0.5, "seed": 7,
      "witness": {"values": [1.0]}}),
    (TrialReport("c", 3, 1, -0.5, 7, {"values": [1.0]}, {"tol": 1.0}),
     {"check": "c", "trials": 3, "failures": 1, "worst_margin": -0.5, "seed": 7,
      "witness": {"values": [1.0]}, "extra": {"tol": 1.0}}),
    (ComparisonReport("Equal", 1e-9, 0.0, 0.0),
     {"relation": "Equal", "delta": 1e-9, "max_gap": 0.0, "min_gap": 0.0}),
    (ComparisonReport("Incomparable", 1e-9, 1.0, -1.0, {"x": 2.0}),
     {"relation": "Incomparable", "delta": 1e-9, "max_gap": 1.0, "min_gap": -1.0,
      "witness": {"x": 2.0}}),
], ids=["trial", "trial extra", "trial witness", "trial witness extra",
        "comparison", "comparison witness"])
def test_report_dicts_keep_their_keys_and_order(report, want):
    assert list(report.to_dict().items()) == list(want.items())


def test_a_raised_hull_fails_with_the_first_failing_candidates_witness(monkeypatch):
    """The witness comes from the first candidate that fails (candidate 4 of
    10 at seed 0, with 8 failures, as before the envelope side was batched
    over candidates), and its means are, bit for bit, single-vector means of
    that candidate and of the envelope."""
    iv = WorkingInterval(1.0, 3.0, 257)
    gen = build_from_profile(2.0 - np.abs(iv.grid() - 2.0), iv, "tent")
    env = _raised_hull(qa_convex_envelope(gen), 0.2)
    built = []

    def kept(g):
        built.append(QuasiArithmeticMean(g))
        return built[-1]
    monkeypatch.setattr(verify, "QuasiArithmeticMean", kept)
    rep = maximality_check(gen, env, 10, 100, seed=0)
    env_mean, candidates = built[0], built[1:]
    w = rep.witness
    assert rep.failures == 8 and w["candidate"] == 4
    assert w["qa_envelope"] == env_mean(w["values"])
    assert w["qa_candidate"] == candidates[4](w["values"])
    assert w["margin"] == w["qa_envelope"] - w["qa_candidate"] < -rep.extra["tol"]


def test_a_candidate_without_a_dominating_profile_is_refused(rho_x2_gen, monkeypatch):
    """Once three candidates are accepted, every hull falls below rho: the
    fourth candidate is refused after 200 attempts."""
    accepted = []
    reconstruct = verify.reconstruct_generator
    monkeypatch.setattr(verify, "reconstruct_generator",
                        lambda *args, **kw: accepted.append(1) or reconstruct(*args, **kw))
    hull = verify.PiecewiseLinearHull
    monkeypatch.setattr(verify, "PiecewiseLinearHull", lambda vertices: hull(
        tuple((x, y - 1e9 * (len(accepted) >= 3)) for x, y in vertices)))
    env = qa_convex_envelope(rho_x2_gen)
    with pytest.raises(CandidateRejected,
                       match="^candidate 3: no dominating concave profile in 200 attempts$"):
        maximality_check(rho_x2_gen, env, 10, 100, seed=0)
    assert len(accepted) == 3


def test_a_profile_no_candidate_dominates_raises_after_200_draws(rho_x2_gen, monkeypatch):
    """Every hulled candidate lies 1e9 below rho, so the first candidate is
    refused after its 200th draw instead of being redrawn forever."""
    chain, draws = verify._monotone_chain, []
    monkeypatch.setattr(verify, "_monotone_chain", lambda xs, ys, upper: draws.append(1)
                        or chain(xs, ys - 1e9, upper))
    env = qa_convex_envelope(rho_x2_gen)
    with pytest.raises(CandidateRejected,
                       match="^candidate 0: no dominating concave profile in 200 attempts$"):
        maximality_check(rho_x2_gen, env, 10, 100, seed=0)
    assert len(draws) == 200


def test_duality_passes_on_concave_catalog(catalog, rho_neg_x2_gen):
    gens = [catalog["log"], catalog["power:0.5"], catalog["power:-1"],
            catalog["id"], rho_neg_x2_gen]
    for gen in gens:
        rep = duality_check(gen, qa_concave_envelope(gen), trials=400, seed=0)
        assert rep.passed, gen.spec_string()
        assert rep.worst_margin > 0.0


def test_duality_reports_a_status_mismatch(monkeypatch, capsys, catalog):
    """A reflected route whose status differs from the direct one's is one
    failure with margin 0, whose witness names both statuses, and exit 1."""
    log = catalog["log"]
    monkeypatch.setattr(verify, "qa_concave_envelope_via_reflection",
                        lambda gen: EnvelopeResult("ArithmeticEnvelope", "concave", gen.domain))
    env = qa_concave_envelope(log)
    assert env.status == "AlreadyExtremal"
    rep = duality_check(log, env, trials=100, seed=0)
    assert (rep.failures, rep.worst_margin) == (1, 0.0)
    assert rep.witness == {"status_direct": "AlreadyExtremal",
                           "status_reflected": "ArithmeticEnvelope"}
    assert run(["verify", "--check", "duality", "--gen", "log"]) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == rep.witness


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
