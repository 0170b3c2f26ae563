"""The means layer's batch paths against the reference formulas in oracles.py.

`_qa_mean_batch` and `ArithmeticMean.batch` test the interval on the
batch's min and max and average a C-contiguous copy with np.add.reduce;
the QA mean takes its clamp's row extremes from a column-major copy of the
batch, and from numpy's row kernel when a row's extreme is a zero on an
interval holding 0.  The references test the interval with a mask, average
with ndarray.mean and clamp to the row kernel's min and max.  Both must
return the same bits, or raise the same exception class with the same
message, on every batch: entries inside the interval, at its ends, outside
it, NaN, +-inf and -0.0, and batches of no rows.  `power_mean`, one row at
a time, must give the bits of the reference's row.  A handle's `running(X)`
must give, column by column, the bits or the exception of the batch of each
prefix X[:, :k].
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qameans.errors import QameansError, RangeError, UsageError
from qameans.generators import (
    AffineGenerator,
    ExpGenerator,
    LogGenerator,
    PowerGenerator,
    parse_generator,
    tabulate,
)
from qameans.grids import WorkingInterval
from qameans.means import ArithmeticMean, QuasiArithmeticMean, _qa_mean_batch, power_mean

from oracles import (
    reference_arithmetic_batch,
    reference_power_batch,
    reference_qa_mean_batch,
)

POSITIVE = (WorkingInterval(0.1, 10.0), WorkingInterval(1e-3, 1e3),
            WorkingInterval(0.5, 4.0, 257))
# Intervals holding 0, so -0.0 is an entry inside them; on the last one the
# sum of two exp values can overflow although the mean is representable.
SIGNED = (WorkingInterval(-1.0, 1.0, 257), WorkingInterval(0.0, 709.5))
SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0)
exponents = st.one_of(st.floats(-20.0, -1e-3), st.floats(1e-3, 20.0))
slopes = st.one_of(st.floats(-5.0, -0.5), st.floats(0.5, 5.0))


def _outcome(fn, X):
    """The result's dtype, shape and bytes, or the exception's class and text."""
    try:
        out = fn(X)
    except QameansError as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


@st.composite
def batches(draw, iv, rows=st.integers(0, 4)):
    """A (B, n) float batch: mostly entries of iv, now and then its ends, a
    point outside it or a special value."""
    rows = draw(rows)
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.floats(iv.lo, iv.hi), st.floats(iv.lo, iv.hi),
                      st.floats(iv.lo, iv.hi), st.sampled_from((iv.lo, iv.hi)),
                      st.sampled_from((*SPECIAL, iv.lo - 1.0, 2.0 * iv.hi + 1.0)))
    return np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=rows, max_size=rows)),
                    dtype=float).reshape(rows, n)


@st.composite
def generators(draw):
    kind = draw(st.sampled_from(("power", "log", "exp", "affine", "table")))
    if kind == "power":
        return PowerGenerator(draw(exponents), draw(st.sampled_from(POSITIVE)))
    if kind == "log":
        return LogGenerator(draw(st.sampled_from(POSITIVE)))
    if kind == "exp":
        return ExpGenerator(draw(st.sampled_from(POSITIVE[:1] + SIGNED)))
    if kind == "affine":
        return AffineGenerator(draw(slopes), draw(st.floats(-5.0, 5.0)),
                               draw(st.sampled_from(POSITIVE + SIGNED)))
    inner = draw(st.sampled_from(("power", "log", "exp")))
    iv = WorkingInterval(0.5, 4.0, 257) if inner != "exp" else SIGNED[0]
    if inner == "power":
        return tabulate(PowerGenerator(draw(exponents), iv))
    return tabulate(LogGenerator(iv) if inner == "log" else ExpGenerator(iv))


@given(st.data())
def test_qa_mean_batch_is_bit_equal_to_the_reference(data):
    gen = data.draw(generators())
    X = data.draw(batches(gen.domain))
    want = _outcome(lambda X: reference_qa_mean_batch(gen, X), X)
    assert _outcome(lambda X: _qa_mean_batch(gen, X), X) == want
    assert _outcome(QuasiArithmeticMean(gen).batch, X) == want


@given(st.data())
def test_arithmetic_batch_is_bit_equal_to_the_reference(data):
    iv = data.draw(st.sampled_from(POSITIVE + SIGNED))
    X = data.draw(batches(iv))
    assert _outcome(ArithmeticMean(iv).batch, X) == _outcome(
        lambda X: reference_arithmetic_batch(iv, X), X)


@given(st.data())
def test_power_mean_is_bit_equal_to_the_reference(data):
    """power_mean of each row of a batch inside the interval gives the bits
    of that row of the reference batch."""
    iv = data.draw(st.sampled_from(POSITIVE))
    p = data.draw(exponents)
    n = data.draw(st.integers(1, 12))
    rows = st.lists(st.floats(iv.lo, iv.hi), min_size=n, max_size=n)
    X = np.array(data.draw(st.lists(rows, min_size=1, max_size=4)), dtype=float)
    want = reference_power_batch(p, iv, X)
    got = np.array([power_mean(p, row) for row in X])
    assert got.tobytes() == want.tobytes()


def test_exp_row_whose_sum_overflows_raises_as_the_reference():
    gen = ExpGenerator(WorkingInterval(0.0, 709.5))
    X = np.array([[709.0, 709.2]])
    want = _outcome(lambda X: reference_qa_mean_batch(gen, X), X)
    assert want[0] is RangeError
    assert _outcome(QuasiArithmeticMean(gen).batch, X) == want


@pytest.mark.parametrize("n", [1, 3])
def test_batch_of_no_rows_is_empty(iv, n):
    X = np.empty((0, n))
    for mean in (QuasiArithmeticMean(LogGenerator(iv)), ArithmeticMean(iv)):
        out = mean.batch(X)
        assert out.shape == (0,) and out.dtype == float
        out = mean.running(X)
        assert out.shape == (0, n) and out.dtype == float


def test_rows_of_no_entries_are_a_usage_error(iv):
    for mean in (QuasiArithmeticMean(LogGenerator(iv)), ArithmeticMean(iv)):
        with pytest.raises(UsageError, match="nonempty"):
            mean.batch(np.empty((2, 0)))
        with pytest.raises(UsageError, match="nonempty"):
            mean.running(np.empty((2, 0)))
    with pytest.raises(UsageError, match="nonempty"):
        power_mean(2.0, [])


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2), (2, 3, 4)])
def test_batches_that_are_not_2d_are_a_usage_error(shape):
    """Before the check, a 0-D or 1-D batch raised IndexError, (2, 2, 2) gave
    means of the wrong shape and (2, 3, 4) a numpy broadcast ValueError."""
    iv = POSITIVE[0]
    for mean in (ArithmeticMean(iv), QuasiArithmeticMean(PowerGenerator(3.0, iv)),
                 QuasiArithmeticMean(tabulate(LogGenerator(iv)))):
        for fn in (mean.batch, mean.running):
            with pytest.raises(UsageError) as info:
                fn(np.ones(shape))
            assert str(info.value) == f"a batch of means needs a (B, n) array, got shape {shape}"


# Rows holding both zeros are where a column-major min or max can pick the
# other sign of zero than numpy's row kernel; +-1e-300 sit next to them.
ZERO_ENTRIES = (0.0, -0.0, 1e-300, -1e-300, 0.5)
SIGNED_GENERATORS = (
    AffineGenerator(2.0, 1.0, SIGNED[0]), AffineGenerator(-1.5, 0.0, SIGNED[0]),
    ExpGenerator(SIGNED[0]), tabulate(ExpGenerator(SIGNED[0])),
    ExpGenerator(SIGNED[1]), AffineGenerator(0.5, -2.0, SIGNED[1]))


def _zero_rows(gen, rows, n, seed):
    """rows x n entries of ZERO_ENTRIES that lie in gen's interval."""
    entries = [v for v in ZERO_ENTRIES if gen.domain.lo <= v <= gen.domain.hi]
    return np.random.default_rng(seed).choice(entries, size=(rows, n))


def _caller_layouts(X):
    """X as the verify checks hand batches over: contiguous, a kedlaya
    prefix X[:, :k] of a wider batch, and the columns of (rows, n, 1)
    matrices by the interchange check's swapped axes; and, which no caller
    in the package passes, a bare transposed view."""
    rows, n = X.shape
    wide = np.concatenate([X, np.full((rows, 3), 0.5)], axis=1)
    return {"contiguous": X, "prefix": wide[:, :n],
            "swapped": np.swapaxes(X[:, :, None], 1, 2).reshape(-1, n),
            "transposed": np.ascontiguousarray(X.T).T}


@pytest.mark.parametrize("gen", SIGNED_GENERATORS, ids=lambda g: g.spec_string())
@pytest.mark.parametrize("rows", [1, 2, 17, 1000])
def test_signed_zero_rows_are_bit_equal_to_the_reference(gen, rows):
    """Every layout of a batch gives the reference's bits for the
    contiguous batch."""
    for n in range(1, 13):
        X = _zero_rows(gen, rows, n, seed=rows * 13 + n)
        want = _outcome(lambda X: reference_qa_mean_batch(gen, X), X)
        for layout, Y in _caller_layouts(X).items():
            assert _outcome(lambda X: _qa_mean_batch(gen, X), Y) == want, (n, layout)


@pytest.mark.parametrize("gen", SIGNED_GENERATORS, ids=lambda g: g.spec_string())
@pytest.mark.parametrize("rows", [2, 17, 1000])
def test_a_rows_batch_mean_is_its_single_row_mean(gen, rows):
    """The row kernel reduces each row of a batch as it reduces the row
    alone, so the clamp does not let a row's mean depend on its batch."""
    for n in range(1, 13):
        X = _zero_rows(gen, rows, n, seed=rows * 7 + n)
        for layout, Y in _caller_layouts(X).items():
            alone = np.concatenate([_qa_mean_batch(gen, Y[i:i + 1]) for i in range(rows)])
            assert _qa_mean_batch(gen, Y).tobytes() == alone.tobytes(), (n, layout)


@pytest.mark.parametrize("mean, entries", [
    (QuasiArithmeticMean(PowerGenerator(3.0, POSITIVE[0])), None),
    (ArithmeticMean(POSITIVE[0]), None),
    (QuasiArithmeticMean(ExpGenerator(SIGNED[0])), ZERO_ENTRIES),
    (ArithmeticMean(SIGNED[0]), ZERO_ENTRIES),
], ids=["power:3", "arith", "exp-zeros", "arith-zeros"])
def test_a_batch_mean_does_not_depend_on_its_memory_layout(mean, entries):
    """A transposed (column-major) view gives the bits of its contiguous
    copy.  numpy walks such a view's axis-1 sum and min/max column by
    column, which once changed a third of the rows of 40 entries below."""
    rng = np.random.default_rng(3)
    for n in (9, 40):
        if entries is None:
            X = rng.uniform(mean.domain.lo, mean.domain.hi, size=(1000, n))
        else:
            X = rng.choice(entries, size=(1000, n))
        view = np.ascontiguousarray(X.T).T
        assert not view.flags.c_contiguous
        assert mean.batch(view).tobytes() == mean.batch(X).tobytes(), n


def _per_prefix(mean, X):
    """The running means by definition: the batch of each prefix X[:, :k]."""
    return np.column_stack([mean.batch(X[:, :k]) for k in range(1, X.shape[1] + 1)])


@st.composite
def mean_handles(draw):
    kind = draw(st.sampled_from(("qa", "id", "arith")))
    if kind == "qa":
        return QuasiArithmeticMean(draw(generators()))
    iv = draw(st.sampled_from(POSITIVE + SIGNED))
    return QuasiArithmeticMean(parse_generator("id", iv)) if kind == "id" else ArithmeticMean(iv)


@given(st.data())
def test_running_means_are_bit_equal_to_per_prefix_batches(data):
    """Rows of 1 to 12 entries, so prefixes fall on both sides of the 8
    entries from which numpy sums pairwise; a batch of 1000 rows holds one
    drawn row among rows of the interval."""
    mean = data.draw(mean_handles())
    iv = mean.domain
    X = data.draw(batches(iv, rows=st.just(1)))
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        at = data.draw(st.integers(0, 999))
        fill = rng.uniform(iv.lo, iv.hi, size=(999, X.shape[1]))
        X = np.concatenate([fill[:at], X, fill[at:]])
    want = _outcome(lambda X: _per_prefix(mean, X), X)
    for layout, Y in _caller_layouts(X).items():
        assert _outcome(mean.running, Y) == want, layout


RUNNING_SIGNED = [QuasiArithmeticMean(gen) for gen in SIGNED_GENERATORS] + [
    ArithmeticMean(SIGNED[0]), QuasiArithmeticMean(parse_generator("id", SIGNED[0]))]


@pytest.mark.parametrize("mean", RUNNING_SIGNED, ids=lambda m: m.spec_string())
@pytest.mark.parametrize("rows", [1, 2, 17, 1000])
def test_running_means_of_signed_zero_rows_are_bit_equal(mean, rows):
    """Prefixes whose extremes or sums are zeros of either sign."""
    for n in range(1, 13):
        X = _zero_rows(mean, rows, n, seed=rows * 11 + n)
        want = _outcome(lambda X: _per_prefix(mean, X), X)
        for layout, Y in _caller_layouts(X).items():
            assert _outcome(mean.running, Y) == want, (n, layout)


@pytest.mark.parametrize("mean, X", [
    # the first entry outside a single row
    (QuasiArithmeticMean(LogGenerator(POSITIVE[0])), [[1.0, 20.0, 0.0]]),
    # the first failing prefix ends in 60.0, though 50.0 comes first in the batch
    (ArithmeticMean(POSITIVE[0]), [[1.0, 1.0, 50.0], [1.0, 60.0, 1.0]]),
    # the prefix (709.0, 709.2) overflows before 800.0 is reached
    (QuasiArithmeticMean(ExpGenerator(SIGNED[1])), [[709.0, 709.2, 800.0]]),
    (ArithmeticMean(WorkingInterval(1e308, 1.7e308)), [[1.0e308, 1.5e308, 1.6e308]]),
], ids=["domain-row", "domain-batch", "range-first", "arith-range"])
def test_running_raises_as_the_first_failing_prefix(mean, X):
    X = np.array(X)
    want = _outcome(lambda X: _per_prefix(mean, X), X)
    assert issubclass(want[0], QameansError)
    assert _outcome(mean.running, X) == want
    assert _outcome(lambda X: mean.running(X.tolist()), X) == want


def test_arithmetic_sum_that_overflows_is_a_range_error_without_warning():
    """Entries of [1e308, 1.7e308] sum past the largest float; the mean once
    came out inf, after a numpy overflow warning."""
    mean = ArithmeticMean(WorkingInterval(1e308, 1.7e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (mean, lambda v: mean.running(np.array([v]))):
            with pytest.raises(RangeError, match=r"^arith: a sum of entries is not finite "
                                                 r"on \[1e\+308, 1\.7e\+308\]$"):
                fn([1.5e308, 1.6e308])
        # Near the largest float, a sum that stays finite is the plain one.
        wide = ArithmeticMean(WorkingInterval(-8.9e307, 8.9e307))
        assert 2.0 * 2 * wide.domain.hi == np.inf
        assert wide([8.5e307, -8.8e307]) == (8.5e307 - 8.8e307) / 2
