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
once, on the failing trial with the lowest index (maximality keeps the
witness of its first failing candidate).  Witnesses read their means from
the margin function's rows.  The interchange and running-mean witnesses are
shrunk once per report, each point through the margin function as one row.
"""

from __future__ import annotations

import functools

import numpy as np

from .convexity import MEAN_CMP_TOL, TrialReport, _grouped_tuples, _sample_margins
from .envelope import (
    EnvelopeResult,
    PiecewiseLinearHull,
    _monotone_chain,
    qa_concave_envelope_via_reflection,
    reconstruct_generator,
)
from .errors import CandidateRejected, UsageError
from .generators import Generator, TabulatedGenerator
from .means import MeanHandle, QuasiArithmeticMean

# Agreement tolerance between the two concave-envelope routes.
DUALITY_TOL = 1e-6

# Permutation invariance tolerance (roundoff from summation order only).
SYMMETRY_TOL = 1e-12

# Slack for envelope-maximality comparisons; absorbs quadrature error of
# reconstructed candidate generators.
MAXIMALITY_TOL = 1e-6


def _shrink(sides, arr0: np.ndarray, floor: float) -> tuple:
    """Pull a counterexample toward the all-equal point while it still violates.

    Coordinate-wise bisection toward the grand mean; a move is kept only if
    the violation lhs - rhs of sides(point) stays at or above the floor, so
    the shrunk witness still re-verifies with a definite margin.  A pass that
    has kept no move stops past the previous pass's last kept one, whose
    later trials it would repeat.  Returns the shrunk point and its sides,
    evaluated once: those of the last kept move, or arr0's if none was kept.
    """
    arr = arr0.astype(float).copy()
    target = float(arr.mean())
    kept, last = None, arr.size
    for _ in range(40):
        moved = False
        for i in range(arr.size):
            if i > last and not moved:
                break
            trial = arr.copy()
            trial[i] = 0.5 * (trial[i] + target)
            if abs(trial[i] - arr[i]) <= 1e-15 * (1.0 + abs(arr[i])):
                continue
            trial_sides = sides(trial)
            if trial_sides[0] - trial_sides[1] >= floor:
                arr, kept, last = trial, trial_sides, i
                moved = True
        if not moved:
            break
    return arr, kept if kept is not None else sides(arr)


def _shrunk_witness(key: str, margin_fn, tol: float, trial: int, x0: np.ndarray,
                    margin: float, *_) -> dict:
    """Shrink a failing input x0 of lhs <= rhs once and evaluate both sides.

    The arguments past tol are the driver's witness row of margin_fn, which
    returns (rhs - lhs, lhs, rhs) for a batch; each shrink point is one row.
    """
    def sides(flat):
        _, lhs, rhs = margin_fn(flat.reshape(1, *x0.shape))
        return float(lhs[0]), float(rhs[0])

    shrunk, (lhs, rhs) = _shrink(sides, x0.ravel(), max(2.0 * tol, -0.5 * margin))
    return {key: shrunk.reshape(x0.shape).tolist(), "lhs": lhs, "rhs": rhs,
            "violation": float(lhs - rhs), "trial": trial}


def _ij_sample(M: MeanHandle, N: MeanHandle, draws: list, per: int) -> tuple:
    """Interchange margins of per random matrices for each (seed, m, n) draw.

    Trial k of draw i is trial i * per + k, so the witness comes from the
    first failing draw; it is shrunk once.  Returns the driver's worst
    margin, failure count and witness, and the tolerance.
    """
    if M.domain != N.domain:
        raise UsageError("both means must share a working interval")
    interval = M.domain
    tol = MEAN_CMP_TOL * interval.span

    def groups():
        for i, (seed, m, n) in enumerate(draws):
            rng = np.random.default_rng(seed)
            yield (np.arange(i * per, (i + 1) * per),
                   rng.uniform(interval.lo, interval.hi, size=(per, n, m)))

    def margin(X):
        trials, n, m = X.shape
        lhs = N.batch(M.batch(X.reshape(-1, m)).reshape(trials, n))
        rhs = M.batch(N.batch(np.swapaxes(X, 1, 2).reshape(-1, n)).reshape(trials, m))
        return rhs - lhs, lhs, rhs

    def witness(trial, *row):
        return _shrunk_witness("matrix", margin, tol, trial % per, *row)

    return (*_sample_margins(groups(), margin, tol, witness), tol)


def ingham_jessen_check(M: MeanHandle, N: MeanHandle, m: int, n: int,
                        trials: int, seed: int = 0) -> TrialReport:
    """Test N(row-wise M) <= M(column-wise N) on random n-by-m matrices.

    M consumes the m entries of each row, N the n row results; the right
    side applies N down each of the m columns and M across the results.
    """
    if m < 1 or n < 1 or trials < 1:
        raise UsageError("need m, n, trials >= 1")
    worst, failures, witness, tol = _ij_sample(M, N, [(seed, m, n)], trials)
    return TrialReport("ingham_jessen", trials, failures, worst, seed,
                       witness, extra={"m": m, "n": n, "tol": tol,
                                       "M": M.spec_string(), "N": N.spec_string()})


def kedlaya_check(M: MeanHandle, N: MeanHandle, n_max: int, trials: int,
                  seed: int = 0) -> TrialReport:
    """Test N of running M-prefix-means <= M of running N-prefix-means.

    For each random vector x of length 2..n_max the two sides chain the
    means over the prefixes (x_1), (x_1, x_2), ..., (x_1, ..., x_n).
    """
    if M.domain != N.domain:
        raise UsageError("both means must share a working interval")
    interval = M.domain
    rng = np.random.default_rng(seed)
    tol = MEAN_CMP_TOL * interval.span

    def margin(X):
        lhs, rhs = N.batch(M.running(X)), M.batch(N.running(X))
        return rhs - lhs, lhs, rhs

    worst, failures, witness = _sample_margins(
        _grouped_tuples(rng, trials, n_max, interval), margin, tol,
        functools.partial(_shrunk_witness, "values", margin, tol))
    return TrialReport("kedlaya", trials, failures, worst, seed, witness,
                       extra={"n_max": n_max, "tol": tol,
                              "M": M.spec_string(), "N": N.spec_string()})


def maximality_check(f: Generator, env: EnvelopeResult, candidates: int,
                     trials: int, seed: int = 0) -> TrialReport:
    """Pit the convex envelope against random convex QA minorants of QA_f.

    Every concave profile m' >= rho generates a convex QA mean below QA_f,
    so each candidate must come out <= the envelope mean on every sampled
    tuple.  Candidates are random piecewise-linear concave functions with
    2 to 6 vertices lifted above the rho graph; a candidate that fails to
    dominate rho after hulling is resampled and counted.
    """
    if env.status not in ("Envelope", "AlreadyExtremal"):
        raise UsageError(f"maximality needs an envelope, got status {env.status}")
    if env.direction != "convex":
        raise UsageError("maximality check applies to the convex envelope")
    if candidates < 1:
        raise UsageError(f"need candidates >= 1, got {candidates}")
    interval = env.interval
    xs = interval.grid()
    rho_vals = env.rho.values
    # Candidates are grid-reconstructed, so the envelope side must go
    # through the same discretization: otherwise quadrature bias of order
    # step^2 shows up as spurious ordering failures against an exact mean.
    env_mean = QuasiArithmeticMean(TabulatedGenerator(
        interval, env.g, env.g1, env.m(xs), source="envelope-grid"))
    rng = np.random.default_rng(seed)
    lift_scale = float(np.max(rho_vals) - np.min(rho_vals)) + 0.1 * max(
        1.0, float(np.max(np.abs(rho_vals))))
    rejected = 0
    worst = np.inf
    failures = 0
    witness = None
    for c in range(candidates):
        for _ in range(200):
            k = int(rng.integers(2, 7))
            inner = np.sort(rng.uniform(interval.lo, interval.hi, size=k - 2))
            vx = np.concatenate(([interval.lo], inner, [interval.hi]))
            if np.any(np.diff(vx) <= 0):
                rejected += 1
                continue
            vy = np.interp(vx, xs, rho_vals) + rng.uniform(0.01, 1.0, size=k) * lift_scale
            mp = PiecewiseLinearHull(_monotone_chain(vx, vy, upper=True), "upper")(xs)
            if np.all(mp >= rho_vals):
                break
            rejected += 1
        else:
            raise CandidateRejected(
                f"candidate {c}: no dominating concave profile in 200 attempts")
        cand_mean = QuasiArithmeticMean(
            reconstruct_generator(mp, interval, source=f"candidate:{c}"))

        def margin(X):
            qa_candidate, qa_envelope = cand_mean.batch(X), env_mean.batch(X)
            return qa_envelope - qa_candidate, qa_candidate, qa_envelope

        # Only the first failing candidate's witness is built and kept.
        w, fails, found = _sample_margins(
            _grouped_tuples(rng, trials, 6, interval), margin, MAXIMALITY_TOL,
            lambda trial, x, mg, qc, qe: witness or {
                "candidate": c, "values": x.tolist(), "qa_candidate": float(qc),
                "qa_envelope": float(qe), "margin": float(mg)})
        worst = min(worst, w)
        failures += fails
        witness = witness or found
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
    shape.  Needs max_dim >= 2 and trials >= shapes, else UsageError.
    """
    if max_dim < 2:
        raise UsageError(f"need max_dim >= 2, got {max_dim}")
    combos = [(m, n) for m in range(2, max_dim + 1) for n in range(2, max_dim + 1)]
    if trials < len(combos):
        raise UsageError(f"need trials >= {len(combos)}, got {trials}")
    per = trials // len(combos)
    worst, failures, witness, _ = _ij_sample(
        M, N, [(seed + 7919 * i, m, n) for i, (m, n) in enumerate(combos)], per)
    if witness is not None:
        witness.update(m=len(witness["matrix"][0]), n=len(witness["matrix"]))
    return TrialReport("ingham_jessen_sweep", per * len(combos), failures, worst,
                       seed, witness,
                       extra={"max_dim": max_dim, "trials_per_combo": per,
                              "M": M.spec_string(), "N": N.spec_string()})
