"""The means layer's batch paths against the reference formulas in oracles.py.

`_qa_mean_batch`, `ArithmeticMean.batch` and `PowerMeanHandle.batch` test
the interval on each row's min and max, which the QA mean reuses for its
clamp, and average with np.add.reduce.  The references test the interval
with a mask, average with ndarray.mean and reduce the rows again for the
clamp.  Both must return the same bits, or raise the same exception class
with the same message, on every batch: entries inside the interval, at its
ends, outside it, NaN, +-inf and -0.0, and batches of no rows.
"""

import math

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
    tabulate,
)
from qameans.grids import WorkingInterval
from qameans.means import ArithmeticMean, PowerMeanHandle, QuasiArithmeticMean, _qa_mean_batch

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
def batches(draw, iv):
    """A (B, n) float batch: mostly entries of iv, now and then its ends, a
    point outside it or a special value."""
    rows = draw(st.integers(0, 4))
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
def test_power_handle_batch_is_bit_equal_to_the_reference(data):
    iv = data.draw(st.sampled_from(POSITIVE))
    p = data.draw(exponents)
    X = data.draw(batches(iv))
    assert _outcome(PowerMeanHandle(p, iv).batch, X) == _outcome(
        lambda X: reference_power_batch(p, iv, X), X)


def test_exp_row_whose_sum_overflows_raises_as_the_reference():
    gen = ExpGenerator(WorkingInterval(0.0, 709.5))
    X = np.array([[709.0, 709.2]])
    want = _outcome(lambda X: reference_qa_mean_batch(gen, X), X)
    assert want[0] is RangeError
    assert _outcome(QuasiArithmeticMean(gen).batch, X) == want


@pytest.mark.parametrize("n", [1, 3])
def test_batch_of_no_rows_is_empty(iv, n):
    X = np.empty((0, n))
    for mean in (QuasiArithmeticMean(LogGenerator(iv)), ArithmeticMean(iv),
                 PowerMeanHandle(2.0, iv)):
        out = mean.batch(X)
        assert out.shape == (0,) and out.dtype == float


def test_rows_of_no_entries_are_a_usage_error(iv):
    for mean in (QuasiArithmeticMean(LogGenerator(iv)), ArithmeticMean(iv),
                 PowerMeanHandle(2.0, iv)):
        with pytest.raises(UsageError, match="nonempty"):
            mean.batch(np.empty((2, 0)))
