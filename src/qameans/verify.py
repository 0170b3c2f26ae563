"""Randomized verification harness for the mean inequalities.

Every check draws its inputs from a seeded generator, evaluates both sides
of the claimed inequality, and reports the worst margin together with a
concrete counterexample when one is found.  Identical seeds give
byte-identical reports for a given numpy version and SIMD target (the
vector kernels numpy picks for the CPU).  A sampled pass is evidence on
the working interval, not a proof; reports carry their trial counts and
seeds so runs can be reproduced exactly.

Checks: matrix interchange of two means (row-wise then column-wise),
the chained running-mean inequality, maximality of a computed envelope
against random concave competitor profiles, agreement of the direct and
reflected concave-envelope routes, and permutation symmetry.

Each check supplies a margin function and a witness builder to the
sampling driver ``convexity._sample_margins``, which calls the builder
once, on the failing trial with the lowest index (maximality numbers its
trials candidate by candidate, so its witness comes from the first failing
candidate, and hands the sampler both sides' means evaluated beforehand).
Witnesses read their means from the margin function's rows.  The
interchange sweep draws and holds all its shapes' matrices, within
_check_trials' bound on entries, and evaluates each side by one
MeanHandle.batches call per step across the shapes (a row's mean does not
depend on its batch), handing the sampler both sides as evaluated rows.
Maximality likewise makes one batches call per candidate and one for the
envelope.  The interchange and running-mean witnesses are shrunk once per
report, each pass of the shrink through the check's sides in a few
batches.
"""

from __future__ import annotations

import functools

import numpy as np

from .convexity import (
    MEAN_CMP_TOL,
    TrialReport,
    _check_trials,
    _grouped_tuples,
    _sample_margins,
)
from .envelope import (
    EnvelopeResult,
    PiecewiseLinearHull,
    _monotone_chain,
    qa_concave_envelope_via_reflection,
    reconstruct_generator,
)
from .errors import CandidateRejected, QameansError, UsageError
from .generators import Generator, tabulate
from .means import MeanHandle, QuasiArithmeticMean

# Agreement tolerance between the two concave-envelope routes.
DUALITY_TOL = 1e-6

# Permutation invariance tolerance (roundoff from summation order only).
SYMMETRY_TOL = 1e-12

# Slack for envelope-maximality comparisons; absorbs quadrature error of
# reconstructed candidate generators.
MAXIMALITY_TOL = 1e-6


# A shrink pass is decided a window of at most _SHRINK_WINDOW live
# coordinates at a time.  Row 2**p - 1 + path of _SHRINK_TREE moves the
# window's p-th coordinate and each earlier one whose bit is set in path,
# the bitmask of the window's moves kept before it (path < 2**p); a window
# of w coordinates takes the first 2**w - 1 rows and w columns.
_SHRINK_WINDOW = 6
_SHRINK_TREE = np.array([[j == p or bool(path >> j & 1) for j in range(_SHRINK_WINDOW)]
                         for p in range(_SHRINK_WINDOW) for path in range(1 << p)])


def _shrink(sides, arr0: np.ndarray, sides0: tuple, floor: float) -> tuple:
    """Pull a counterexample toward the all-equal point while it still violates.

    Coordinate-wise bisection toward the grand mean; a move is kept only if
    the violation lhs - rhs of sides(point) stays at or above the floor, so
    the shrunk witness still re-verifies with a definite margin.  A pass that
    has kept no move stops past the previous pass's last kept one, whose
    later trials it would repeat.  Returns the shrunk point and its sides:
    those of the last kept move, or sides0, arr0's own, if none was kept.

    sides takes a (k, size) batch and returns its lhs and rhs arrays.  In a
    pass, coordinate i moves to 0.5 * (arr[i] + target) whichever earlier
    moves were kept, so every decision path of a window is one batch, and
    the window's decisions are then read off in scan order: the same points
    and sides as a scan of one point a call.  A batch that raises a
    QameansError, which a row off the scan's path may, gives way to the
    scan's own points one at a time, so the shrink raises where a scan would.
    """
    arr = arr0.astype(float).copy()
    target = float(arr.mean())
    kept, last = sides0, arr.size
    for _ in range(40):
        moved = False
        half = 0.5 * (arr + target)
        live = [i for i, (a, h) in enumerate(zip(arr.tolist(), half.tolist()))
                if not abs(h - a) <= 1e-15 * (1.0 + abs(a))]
        for start in range(0, len(live), _SHRINK_WINDOW):
            win = live[start:start + _SHRINK_WINDOW]
            if win[0] > last and not moved:
                break
            mask = np.zeros(((1 << len(win)) - 1, arr.size), dtype=bool)
            mask[:, win] = _SHRINK_TREE[:len(mask), :len(win)]
            rows = np.where(mask, half, arr)
            try:
                lhs, rhs = sides(rows)
            except QameansError:
                lhs = None
            path = 0
            for p, i in enumerate(win):
                if i > last and not moved:
                    break
                r = (1 << p) - 1 + path
                if lhs is None:
                    trial_sides = tuple(side[0] for side in sides(rows[r:r + 1]))
                else:
                    trial_sides = lhs[r], rhs[r]
                if trial_sides[0] - trial_sides[1] >= floor:
                    arr, kept, last = rows[r], trial_sides, i
                    moved = True
                    path |= 1 << p
        if not moved:
            break
    return arr, kept


def _shrunk_witness(key: str, sides, tol: float, trial: int, x0: np.ndarray,
                    margin: float, lhs: float, rhs: float) -> dict:
    """Shrink a failing input x0 of lhs <= rhs once and evaluate both sides.

    The arguments past tol are the driver's witness row, whose sides x0
    keeps; sides returns the lhs and rhs arrays of a batch of inputs shaped
    as x0, through which the shrink's points go in batches (a row's means
    do not depend on its batch).
    """
    shrunk, (lhs, rhs) = _shrink(lambda X: sides(X.reshape(-1, *x0.shape)), x0.ravel(),
                                 (lhs, rhs), max(2.0 * tol, -0.5 * margin))
    return {key: shrunk.reshape(x0.shape).tolist(), "lhs": float(lhs), "rhs": float(rhs),
            "violation": float(lhs - rhs), "trial": trial}


def _ij_sides(M: MeanHandle, N: MeanHandle, Xs: list) -> tuple:
    """The interchange sides of each (trials, n, m) batch of matrices in Xs:
    the lists of lhs = N(M of each row) and rhs = M(N of each column).

    M runs on all rows and N on all columns, then N on the row means and M
    on the column means, each in one batches call across Xs.  For one batch
    the two N calls are adjacent, as in lhs-then-rhs order, and each mean's
    error names only the mean, so any error is that order's.
    """
    rows = M.batches([X.reshape(-1, X.shape[2]) for X in Xs])
    cols = N.batches([np.swapaxes(X, 1, 2).reshape(-1, X.shape[1]) for X in Xs])
    lhs = N.batches([r.reshape(len(X), -1) for r, X in zip(rows, Xs)])
    rhs = M.batches([c.reshape(len(X), -1) for c, X in zip(cols, Xs)])
    return lhs, rhs


def _ij_sample(M: MeanHandle, N: MeanHandle, draws: list, per: int) -> tuple:
    """Interchange margins of per random matrices for each (seed, m, n) draw.

    Every draw's matrices are drawn first, from its own seed, and held
    (_check_trials bounds their entries), so each step of both sides takes
    one batches call across the draws.  A call that raises gives way to the
    draws one at a time, so the error is the first failing draw's.  Trial k
    of draw i is trial i * per + k, so the witness comes from the first
    failing draw; it is shrunk once.  Returns the driver's worst margin,
    failure count and witness, and the tolerance.
    """
    if M.domain != N.domain:
        raise UsageError("both means must share a working interval")
    interval = M.domain
    tol = MEAN_CMP_TOL * interval.span
    Xs = [np.random.default_rng(seed).uniform(interval.lo, interval.hi, size=(per, n, m))
          for seed, m, n in draws]
    try:
        lhs, rhs = _ij_sides(M, N, Xs)
    except QameansError:
        for X in Xs:
            _ij_sides(M, N, [X])
        raise

    def sides(X):
        (lhs,), (rhs,) = _ij_sides(M, N, [X])
        return lhs, rhs

    def witness(trial, *row):
        return _shrunk_witness("matrix", sides, tol, trial % per, *row)

    groups = ((np.arange(i * per, (i + 1) * per), *group)
              for i, group in enumerate(zip(Xs, lhs, rhs)))
    return (*_sample_margins(groups, lambda X, lhs, rhs: (rhs - lhs, lhs, rhs), tol,
                             witness), tol)


def ingham_jessen_check(M: MeanHandle, N: MeanHandle, m: int, n: int,
                        trials: int, seed: int = 0) -> TrialReport:
    """Test N(row-wise M) <= M(column-wise N) on random n-by-m matrices.

    M consumes the m entries of each row, N the n row results; the right
    side applies N down each of the m columns and M across the results.
    Needs m, n >= 1, 1 <= trials <= MAX_TRIALS and trials * m * n <=
    MAX_ENTRIES, else UsageError.
    """
    if m < 1 or n < 1:
        raise UsageError(f"need m, n >= 1, got {m}, {n}")
    _check_trials(trials, entries=m * n)
    worst, failures, witness, tol = _ij_sample(M, N, [(seed, m, n)], trials)
    return TrialReport("ingham_jessen", trials, failures, worst, seed,
                       witness, extra={"m": m, "n": n, "tol": tol,
                                       "M": M.spec_string(), "N": N.spec_string()})


def kedlaya_check(M: MeanHandle, N: MeanHandle, n_max: int, trials: int,
                  seed: int = 0) -> TrialReport:
    """Test N of running M-prefix-means <= M of running N-prefix-means.

    For each random vector x of length 2..n_max the two sides chain the
    means over the prefixes (x_1), (x_1, x_2), ..., (x_1, ..., x_n), whose
    entries, n_max (n_max + 1) / 2 a trial at most, _check_trials bounds.
    """
    _check_trials(trials, entries=n_max * (n_max + 1) // 2)
    if M.domain != N.domain:
        raise UsageError("both means must share a working interval")
    interval = M.domain
    rng = np.random.default_rng(seed)
    tol = MEAN_CMP_TOL * interval.span

    def sides(X):
        return N.batch(M.running(X)), M.batch(N.running(X))

    def margin(X):
        lhs, rhs = sides(X)
        return rhs - lhs, lhs, rhs

    worst, failures, witness = _sample_margins(
        _grouped_tuples(rng, trials, n_max, interval), margin, tol,
        functools.partial(_shrunk_witness, "values", sides, tol))
    return TrialReport("kedlaya", trials, failures, worst, seed, witness,
                       extra={"n_max": n_max, "tol": tol,
                              "M": M.spec_string(), "N": N.spec_string()})


def maximality_check(f: Generator, env: EnvelopeResult, candidates: int,
                     trials: int, seed: int = 0) -> TrialReport:
    """Pit the convex envelope against random convex QA minorants of QA_f.

    Every concave profile m' >= rho generates a convex QA mean below QA_f,
    so each candidate must come out <= the envelope mean on every sampled
    tuple.  Candidates are random piecewise-linear concave functions with
    2 to 6 vertices lifted above the rho graph; one that fails to dominate
    rho after hulling, or whose inner nodes tie (a uniform draw can be lo),
    is redrawn, and 200 failed draws raise CandidateRejected rather than
    loop forever on a profile that no candidate dominates.

    Each candidate and its trials' tuples are drawn in turn, and its mean
    is evaluated on all of them in one batches call.  The envelope mean,
    that of tabulate(env.generator), whose values and f' are env's g and g'
    up to sign, is then evaluated on every candidate's tuples in one
    batches call (a row's mean does not depend on its batch), and the
    margins are folded in one group, trial k of candidate c counting as
    trial c * trials + k.  So all candidates * trials tuples are held at
    once, with their trial indices and both means: a peak of about 130
    bytes a trial (tracemalloc, 100 candidates of 1000 trials), so about
    130 MB at the bound candidates * trials <= MAX_TRIALS.  Needs an env of
    status Envelope or AlreadyExtremal (the others have no profile),
    candidates >= 1 and 1 <= trials, candidates * trials <= MAX_TRIALS,
    else UsageError.
    """
    if env.status not in ("Envelope", "AlreadyExtremal"):
        raise UsageError(f"maximality of {f.spec_string()} needs a convex envelope with a "
                         f"profile, got status {env.status}: there is no profile for "
                         f"candidates to dominate")
    if env.direction != "convex":
        raise UsageError("maximality check applies to the convex envelope")
    if candidates < 1:
        raise UsageError(f"need candidates >= 1, got {candidates}")
    _check_trials(trials)
    _check_trials(candidates * trials, entries=6)
    interval = env.interval
    xs = interval.grid()
    rho_vals = env.rho.values
    # Candidates are grid-reconstructed, so the envelope side must go
    # through the same discretization: otherwise quadrature bias of order
    # step^2 shows up as spurious ordering failures against an exact mean.
    env_mean = QuasiArithmeticMean(tabulate(env.generator))
    rng = np.random.default_rng(seed)
    lift_scale = float(np.max(rho_vals) - np.min(rho_vals)) + 0.1 * max(
        1.0, float(np.max(np.abs(rho_vals))))
    rejected = 0
    # Each candidate's groups of tuples of one length, in candidate order,
    # with their trial indices and the candidate's means.
    idx, Xs, qa_candidate = [], [], []
    for c in range(candidates):
        for _ in range(200):
            k = int(rng.integers(2, 7))
            inner = np.sort(rng.uniform(interval.lo, interval.hi, size=k - 2))
            vx = np.concatenate(([interval.lo], inner, [interval.hi]))
            if np.any(np.diff(vx) <= 0):
                rejected += 1
                continue
            vy = np.interp(vx, xs, rho_vals) + rng.uniform(0.01, 1.0, size=k) * lift_scale
            mp = PiecewiseLinearHull(_monotone_chain(vx, vy, upper=True))(xs)
            if np.all(mp >= rho_vals):
                break
            rejected += 1
        else:
            raise CandidateRejected(
                f"candidate {c}: no dominating concave profile in 200 attempts")
        cand_mean = QuasiArithmeticMean(
            reconstruct_generator(mp, interval, source=f"candidate:{c}"))
        own, groups = zip(*_grouped_tuples(rng, trials, 6, interval))
        idx += (c * trials + k for k in own)
        Xs += groups
        qa_candidate += cand_mean.batches(groups)

    def tuple_at(at):
        for X in Xs:
            if at < len(X):
                return X[at]
            at -= len(X)

    # The tuples are of several lengths, so the fold's rows are their
    # positions in Xs, from which the witness takes its tuple.  Trial k of
    # candidate c is trial c * trials + k, so the witness, the lowest
    # failing trial, comes from the first failing candidate.
    idx, qa_candidate = np.concatenate(idx), np.concatenate(qa_candidate)
    qa_envelope = np.concatenate(env_mean.batches(Xs))
    worst, failures, witness = _sample_margins(
        [(idx, np.arange(len(idx)), qa_candidate, qa_envelope)],
        lambda at, qc, qe: (qe - qc, qc, qe), MAXIMALITY_TOL,
        lambda trial, at, mg, qc, qe: {
            "candidate": trial // trials, "values": tuple_at(at).tolist(),
            "qa_candidate": float(qc), "qa_envelope": float(qe), "margin": float(mg)})
    return TrialReport("maximality", candidates * trials, failures, worst, seed,
                       witness, extra={"candidates": candidates,
                                       "rejected_candidates": rejected,
                                       "tol": MAXIMALITY_TOL,
                                       "generator": f.spec_string(),
                                       "envelope_status": env.status})


def duality_check(f: Generator, env: EnvelopeResult, trials: int,
                  seed: int = 0) -> TrialReport:
    """Agreement of the two concave-envelope routes on random tuples.

    Route one is env, f's concave envelope by the lower hull of rho
    (qa_concave_envelope); route two reflects the generator, computes the
    convex envelope on the mirror interval, and reflects back.  Both must
    produce the same status and means within 1e-6 of each other.
    """
    if env.direction != "concave":
        raise UsageError("duality check applies to the concave envelope")
    _check_trials(trials)
    env_a = env
    env_b = qa_concave_envelope_via_reflection(f)
    if env_a.status != env_b.status:
        witness = {"status_direct": env_a.status, "status_reflected": env_b.status}
        return TrialReport("duality", trials, 1, 0.0, seed, witness,
                           extra={"generator": f.spec_string(), "tol": DUALITY_TOL})
    if env_a.status == "NoneExists":
        raise UsageError(
            f"duality check needs a concave envelope, got status {env_a.status}")
    mean_a = env_a.mean_handle()
    mean_b = env_b.mean_handle()
    rng = np.random.default_rng(seed)

    def margin(X):
        direct, reflected = mean_a.batch(X), mean_b.batch(X)
        return DUALITY_TOL - np.abs(direct - reflected), direct, reflected

    worst, failures, witness = _sample_margins(
        _grouped_tuples(rng, trials, 6, f.domain), margin, 0.0,
        lambda trial, x, mg, a, b: {
            "values": x.tolist(), "direct": float(a), "reflected": float(b),
            "difference": abs(float(a) - float(b))})
    return TrialReport("duality", trials, failures, worst, seed, witness,
                       extra={"generator": f.spec_string(), "tol": DUALITY_TOL,
                              "status": env_a.status})


def symmetry_check(mean: MeanHandle, trials: int, seed: int = 0) -> TrialReport:
    """Invariance of the mean under random permutations of its arguments."""
    rng = np.random.default_rng(seed)

    def margin(X):
        # One batch for both: a row's mean does not depend on its batch.
        P = rng.permuted(X, axis=1)
        both = mean.batch(np.concatenate((X, P)))
        value, permuted = both[:len(X)], both[len(X):]
        return SYMMETRY_TOL - np.abs(value - permuted), P, value, permuted

    worst, failures, witness = _sample_margins(
        _grouped_tuples(rng, trials, 6, mean.domain), margin, 0.0,
        lambda trial, x, mg, p, v, pv: {
            "values": x.tolist(), "permuted": p.tolist(), "value": float(v),
            "permuted_value": float(pv), "difference": abs(float(v) - float(pv))})
    return TrialReport("symmetry", trials, failures, worst, seed, witness,
                       extra={"mean": mean.spec_string(), "tol": SYMMETRY_TOL})


def ingham_jessen_sweep(M: MeanHandle, N: MeanHandle, trials: int,
                        seed: int = 0, max_dim: int = 5) -> TrialReport:
    """Run the matrix interchange check over all shapes 2..max_dim squared.

    Each of the (max_dim - 1)**2 shapes runs trials // shapes matrices on
    its own derived seed, so the sweep is reproducible as a whole, and the
    report counts the trials run.  The witness comes from the first failing
    shape.  Needs max_dim >= 2, shapes <= trials <= MAX_TRIALS and
    trials * max_dim**2 <= MAX_ENTRIES, else UsageError, raised before the
    shapes are listed.
    """
    if max_dim < 2:
        raise UsageError(f"need max_dim >= 2, got {max_dim}")
    _check_trials(trials, (max_dim - 1) ** 2, entries=max_dim ** 2)
    combos = [(m, n) for m in range(2, max_dim + 1) for n in range(2, max_dim + 1)]
    per = trials // len(combos)
    worst, failures, witness, _ = _ij_sample(
        M, N, [(seed + 7919 * i, m, n) for i, (m, n) in enumerate(combos)], per)
    if witness is not None:
        witness.update(m=len(witness["matrix"][0]), n=len(witness["matrix"]))
    return TrialReport("ingham_jessen_sweep", per * len(combos), failures, worst,
                       seed, witness,
                       extra={"max_dim": max_dim, "trials_per_combo": per,
                              "M": M.spec_string(), "N": N.spec_string()})
