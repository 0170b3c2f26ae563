"""Table lookups by grid index against np.interp, bit for bit.

TabulatedGenerator looks a large unsorted batch up by index arithmetic on
its uniform grid and every other batch by np.interp; both must give
np.interp's bits, and so every report of a table must be the same as with
np.interp alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qameans.cli import run
from qameans.envelope import qa_convex_envelope, reconstruct_generator
from qameans.generators import (
    _LOOKUP_MIN_QUERIES,
    PowerGenerator,
    TabulatedGenerator,
    load_table,
    tabulate,
)
from qameans.grids import WorkingInterval
from qameans.means import QuasiArithmeticMean
from qameans.verify import maximality_check, symmetry_check

COLUMNS = ("values", "f1_values", "rho_values")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _interp(gen, x, name):
    return np.interp(x, gen.domain.grid(), getattr(gen, name))


@st.composite
def tables(draw):
    """A table on a uniform grid, increasing or decreasing, now and then
    holding a -0.0 value, or values near +-1.7e308 whose slopes overflow;
    its f' and rho columns supplied (rho at times infinite) or computed."""
    n = draw(st.sampled_from([3, 4, 5, 17, 257, 1025, 4097]))
    lo = draw(st.sampled_from([-3.0, 0.0, 0.1, 1e6]))
    span = draw(st.sampled_from([1e-6, 1.0, 9.9, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    vals = sign * np.cumsum(rng.uniform(0.9, 1.1, n))
    if draw(st.booleans()):
        k = int(rng.integers(n))
        vals = vals - vals[k]
        vals[k] = -0.0
    huge = draw(st.booleans())
    if huge:
        vals = vals * (1.7e308 / np.max(np.abs(vals)))
    f1 = rho = None
    if huge or draw(st.booleans()):
        f1 = sign * rng.uniform(0.5, 2.0, n)
        rho = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0, n)
        if draw(st.booleans()):
            rho[rng.integers(n, size=3)] = np.inf
    return TabulatedGenerator(WorkingInterval(lo, lo + span, n), vals, f1, rho), rng


@st.composite
def queries(draw, gen, rng):
    """A batch of queries: at random, on grid points, at lo and hi and one
    ulp either side of each; shuffled, sorted or reversed, 1-D or in rows
    of three, with batch sizes on both sides of the crossover."""
    lo, hi = gen.domain.lo, gen.domain.hi
    grid = gen.domain.grid()
    m = draw(st.sampled_from([1, 200, _LOOKUP_MIN_QUERIES - 1, _LOOKUP_MIN_QUERIES,
                              _LOOKUP_MIN_QUERIES + 1, 3000]))
    points = grid[rng.integers(len(grid), size=m)]
    pool = [rng.uniform(lo, hi, 4 * m), points, [lo, hi],
            np.nextafter(points, np.inf), np.nextafter(points, -np.inf)]
    if draw(st.booleans()):
        pool.append([np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])
    q = rng.choice(np.concatenate(pool), m)
    if not draw(st.booleans()):  # without the ulps outside [lo, hi]
        q = np.clip(q, lo, hi)
    order = draw(st.sampled_from(["shuffled", "sorted", "reversed"]))
    if order != "shuffled":
        q = np.sort(q)[::1 if order == "sorted" else -1]
    return q.reshape(-1, 3) if m % 3 == 0 and draw(st.booleans()) else q


@settings(max_examples=300)
@given(data=st.data())
def test_lookup_is_np_interp_to_the_bit(data):
    gen, rng = data.draw(tables())
    q = data.draw(queries(gen, rng))
    for name, method in zip(COLUMNS, (gen.f, gen.f1, gen.rho)):
        assert _same_bits(method(q), _interp(gen, q, name)), name


def test_large_unsorted_batch_takes_the_index_path(monkeypatch):
    """Without this, the bit-equality test could pass on np.interp alone."""
    xs = np.linspace(0.1, 10.0, 1025)
    gen = TabulatedGenerator(WorkingInterval(0.1, 10.0, 1025), xs ** 3)
    q = np.random.default_rng(0).uniform(0.1, 10.0, (400, 5))
    want = [_interp(gen, q, name) for name in COLUMNS]

    def refuse(*args, **kwargs):
        raise AssertionError("np.interp called")

    monkeypatch.setattr(np, "interp", refuse)
    assert all(_same_bits(gen._lookup(q, name), w) for name, w in zip(COLUMNS, want))


def test_lookup_at_the_tables_own_grid_is_the_read_only_column(monkeypatch):
    """At domain.grid() f, f1 and rho are np.interp's bits, on values holding
    -0.0 and a rho column holding +-inf, and np.interp is not called."""
    n = 1025
    iv = WorkingInterval(0.1, 10.0, n)
    vals = np.cumsum(np.random.default_rng(27).uniform(0.9, 1.1, n))
    vals -= vals[n // 2]
    vals[n // 2] = -0.0
    rho = np.full(n, 2.0)
    rho[[0, 7, n - 1]] = [np.inf, -np.inf, np.inf]
    gen = TabulatedGenerator(iv, vals, np.ones(n), rho)
    grid = iv.grid()
    want = [_interp(gen, grid, name) for name in COLUMNS]

    def refuse(*args, **kwargs):
        raise AssertionError("np.interp called")

    monkeypatch.setattr(np, "interp", refuse)
    got = [gen.f(grid), gen.f1(grid), gen.rho(grid)]
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    with pytest.raises(ValueError):  # the column itself, read-only
        got[0][:] = 1.0
    assert _same_bits(gen.values, want[0])


def _cube_table(builder, tmp_path):
    """x**3 on [0.1, 10] at grid 257, built by the named builder."""
    iv = WorkingInterval(0.1, 10.0, 257)
    xs = iv.grid()
    if builder == "constructor":
        return TabulatedGenerator(iv, xs**3, 3.0 * xs**2, xs / 2.0)
    if builder == "tabulate":
        return tabulate(PowerGenerator(3.0, iv))
    if builder == "reconstruct_generator":
        return reconstruct_generator(xs / 2.0, iv)
    path = tmp_path / "cube.csv"
    path.write_text("x,f\n" + "".join(f"{x!r},{x**3!r}\n" for x in xs.tolist()))
    first = load_table(str(path))
    if builder == "load_table":
        return first
    kept = load_table(str(path))  # the same bytes: the kept table's copy
    assert all(np.shares_memory(getattr(kept, c), getattr(first, c)) for c in COLUMNS)
    return kept


@pytest.mark.parametrize("builder", ["constructor", "tabulate", "reconstruct_generator",
                                     "load_table", "load_table kept"])
def test_every_builder_makes_read_only_columns(builder, tmp_path):
    gen = _cube_table(builder, tmp_path)
    for name in COLUMNS:
        column = getattr(gen, name)
        want = column.copy()
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1.0
        with pytest.raises(ValueError):
            column *= 2.0
        assert _same_bits(getattr(gen, name), want)


def test_a_refused_write_leaves_a_large_batch_bit_equal_to_small_ones():
    """The lookup slopes a 600-entry batch computes stay valid: a write
    into a column is refused, so the batch keeps the bits of two 300-entry
    batches, which np.interp evaluates from the column itself."""
    gen = tabulate(PowerGenerator(3.0, WorkingInterval(0.1, 10.0, 257)))
    mean = QuasiArithmeticMean(gen)
    X = np.random.default_rng(1).uniform(0.1, 10.0, (200, 3))
    assert 300 < _LOOKUP_MIN_QUERIES <= X.size
    before = mean.batch(X)
    with pytest.raises(ValueError):
        gen.values *= 2.0
    halves = np.concatenate([mean.batch(X[:100]), mean.batch(X[100:])])
    assert _same_bits(mean.batch(X), before) and _same_bits(before, halves)


@pytest.fixture(scope="module")
def envelope_tables(tmp_path_factory):
    """Envelope CSVs of power:3 at 1025 and 65537 rows, reloadable as tables."""
    paths = {}
    for grid in (1025, 65537):
        paths[grid] = tmp_path_factory.mktemp("tables") / f"table{grid}.csv"
        assert run(["envelope", "--gen", "power:3", "--grid", str(grid), "--format",
                    "csv", "--out", str(paths[grid]), "--lo", "0.1", "--hi", "10"]) == 0
    return paths


@pytest.mark.parametrize("grid", [1025, 65537])
def test_table_reports_match_np_interp_lookups(envelope_tables, grid, monkeypatch):
    """Symmetry and maximality reports of a table, whose batches of 2000
    trials take the index path, equal those with np.interp alone."""
    def reports():
        gen = load_table(str(envelope_tables[grid]))
        env = qa_convex_envelope(gen)
        return [json.dumps(rep.to_dict()) for rep in (
            symmetry_check(QuasiArithmeticMean(gen), 2000, 3),
            maximality_check(gen, env, 2, 2000, 4))]

    fast = reports()
    monkeypatch.setattr(TabulatedGenerator, "_lookup", _interp)
    assert reports() == fast


# Seeded tables and shuffled batches inside [lo, hi], each looked up with
# np.interp refused; prints numpy's X86_V4 flag and the number of lookups.
SEEDED_COMPARISON = """
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from qameans.generators import TabulatedGenerator
from qameans.grids import WorkingInterval

rng = np.random.default_rng(26)
interp, lookups = np.interp, 0
for n in (17, 1025, 65537):
    for lo, span in ((0.1, 9.9), (-3.0, 1e-6), (1e6, 1e3)):
        iv = WorkingInterval(lo, lo + span, n)
        vals = np.cumsum(rng.uniform(0.9, 1.1, n))
        vals -= vals[n // 2]
        vals[n // 2] = -0.0
        gen = TabulatedGenerator(iv, vals)
        for m in (512, 3000):
            q = np.concatenate((rng.uniform(iv.lo, iv.hi, m), iv.grid()[:m]))
            rng.shuffle(q)
            for name in ("values", "f1_values", "rho_values"):
                want = interp(q, iv.grid(), getattr(gen, name))
                np.interp = None
                got = gen._lookup(q, name)
                np.interp = interp
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, lo, m, name)
                lookups += 1
print(bool(__cpu_features__.get("X86_V4")), lookups)
"""


def test_lookup_is_np_interp_to_the_bit_on_avx2_kernels():
    """NPY_DISABLE_CPU_FEATURES=X86_V4 makes numpy use its AVX2 kernels in
    that process only, so the comparison runs on the other SIMD target."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", SEEDED_COMPARISON], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", str(3 * 3 * 2 * 3)]
