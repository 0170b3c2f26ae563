"""The means layer's batch paths against the reference formulas in oracles.py.

`_qa_mean_batch` and `ArithmeticMean.batch` test the interval on the
batch's min and max and average by `_averages`, which sums rows of up to 7
entries over a column-major copy and longer ones with numpy's row kernel;
the QA mean evaluates f on that copy and takes its clamp's row extremes
from it, or from numpy's row kernel when a row's extreme is a zero on an
interval holding 0.  The references test the interval with a mask, average
with ndarray.mean and clamp to the row kernel's min and max.  Both must
return the same bits, or raise the same exception class with the same
message, on every batch: entries inside the interval, at its ends, outside
it, NaN, +-inf and -0.0, and batches of no rows.  `power_mean`, one row at
a time, must give the bits of the reference's row.  A handle's `running(X)`
must give, column by column, the bits or the exception of the batch of each
prefix X[:, :k].  A handle's `batches(Xs)` must give, batch by batch, the
bits of `batch(X)`, and raise the error of one batch call per row length.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
from qameans import means
from qameans.means import (
    ArithmeticMean,
    MeanHandle,
    QuasiArithmeticMean,
    _qa_mean_batch,
    power_mean,
)

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
            mean.batches([np.ones((1, 2)), np.empty((2, 0))])
    with pytest.raises(UsageError, match="nonempty"):
        power_mean(2.0, [])


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2), (2, 3, 4)])
def test_batches_that_are_not_2d_are_a_usage_error(shape):
    """Before the check, a 0-D or 1-D batch raised IndexError, (2, 2, 2) gave
    means of the wrong shape and (2, 3, 4) a numpy broadcast ValueError."""
    iv = POSITIVE[0]
    for mean in (ArithmeticMean(iv), QuasiArithmeticMean(PowerGenerator(3.0, iv)),
                 QuasiArithmeticMean(tabulate(LogGenerator(iv)))):
        for fn in (mean.batch, mean.running, lambda X: mean.batches([np.ones((1, 2)), X])):
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
@pytest.mark.parametrize("rows", [1, 2, 17, 31, 32, 33, 1000])
def test_signed_zero_rows_are_bit_equal_to_the_reference(gen, rows):
    """Every layout of a batch gives the reference's bits for the
    contiguous batch."""
    for n in range(1, 13):
        X = _zero_rows(gen, rows, n, seed=rows * 13 + n)
        want = _outcome(lambda X: reference_qa_mean_batch(gen, X), X)
        for layout, Y in _caller_layouts(X).items():
            assert _outcome(lambda X: _qa_mean_batch(gen, X), Y) == want, (n, layout)


@pytest.mark.parametrize("gen", SIGNED_GENERATORS, ids=lambda g: g.spec_string())
@pytest.mark.parametrize("rows", [1, 2, 17, 31, 32, 33, 1000])
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


# Summands whose partial sums round, and zeros of both signs.
SUMMANDS = st.one_of(st.floats(-1e18, 1e18),
                     st.sampled_from((0.0, -0.0, 1.0, 2.0**53, -(2.0**53), 2.0**-60)))


def _summands(data, rows, n):
    """A (rows, n) batch of SUMMANDS, now and then with a row of -0.0."""
    F = np.array(data.draw(st.lists(st.lists(SUMMANDS, min_size=n, max_size=n),
                                    min_size=rows, max_size=rows)), dtype=float)
    F = F.reshape(rows, n)
    if rows and data.draw(st.booleans()):
        F[data.draw(st.integers(0, rows - 1))] = -0.0
    return F


@given(rows=st.integers(0, 64), n=st.integers(1, means._SHORT_ROW),
       data=st.data())
def test_short_rows_summed_by_columns_keep_the_row_kernels_bits(rows, n, data):
    """Rows of 1 to 7 entries, a batch row-major (copied to columns at any
    number of rows) or the transpose of a column-major array: the
    averages and prefix averages have the bits of numpy's axis-1 kernel on
    each contiguous prefix, an all -0.0 row's +0.0 among them."""
    F = _summands(data, rows, n)
    prefix = [np.add.reduce(np.ascontiguousarray(F[:, :k]), axis=1) / k for k in range(1, n + 1)]
    for Y in (F, np.ascontiguousarray(F.T).T):
        assert means._averages(Y).tobytes() == prefix[-1].tobytes()
        assert (means._averages(Y, running=True).tobytes()
                == np.column_stack(prefix).reshape(rows, n).tobytes())


@given(rows=st.integers(1, 64), n=st.integers(8, 40), data=st.data())
def test_rows_of_8_or_more_keep_the_row_kernel(rows, n, data):
    F = _summands(data, rows, n)
    assert means._averages(F).tobytes() == (np.add.reduce(F, axis=1) / n).tobytes()


def test_a_row_of_8_entries_is_summed_pairwise():
    """numpy adds 8 entries pairwise, to 5 here; left to right, as a column
    sum of the batch would, they add to 4."""
    row = [1.0, 2.0**53, 1.0, -(2.0**53), 1.0, 1.0, 1.0, 1.0]
    F = np.array([row] * 32)
    assert np.add.reduce(np.ascontiguousarray(F.T), axis=0, initial=0.0)[0] == 4.0
    assert (means._averages(F) == 5.0 / 8).all()


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


# batches(Xs): [batch(X) for X in Xs] in one padded pass or one call per
# row length.  The QA handles of the catalog, a 1025-row table's (whose
# lookups switch route at 512 queries), handles on intervals holding 0 and
# the arithmetic mean, which takes the base class's route.
BATCHES_HANDLES = (
    *(QuasiArithmeticMean(parse_generator(spec, POSITIVE[0]))
      for spec in ("power:-1", "log", "power:0.5", "id", "power:2", "power:3", "exp")),
    QuasiArithmeticMean(tabulate(PowerGenerator(3.0, POSITIVE[0]))),
    *(QuasiArithmeticMean(gen) for gen in SIGNED_GENERATORS),
    ArithmeticMean(POSITIVE[0]), ArithmeticMean(SIGNED[0]), ArithmeticMean(SIGNED[1]))


def _listed(fn, Xs):
    """Each result's dtype, shape and bytes, or the exception's class and text."""
    try:
        return [(out.dtype, out.shape, out.tobytes()) for out in fn(Xs)]
    except QameansError as exc:
        return type(exc), str(exc)


def _per_length(mean):
    """The base class's route: one batch call per row length."""
    return lambda Xs: MeanHandle.batches(mean, Xs)


@st.composite
def batch_lists(draw, iv):
    """1 to 6 batches of rows of 1 to 9 entries, few rows or many, so the
    padded block falls on both sides of _PADDED_MAX_CELLS: draws inside iv,
    now and then its ends and zeros of both signs, and rarely an entry
    outside iv or NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.sampled_from((st.integers(0, 6), st.integers(100, 1100))))
    special = [iv.lo, iv.hi] + ([0.0, -0.0] if iv.lo <= 0.0 <= iv.hi else [])
    Xs = []
    for _ in range(draw(st.integers(1, 6))):
        X = rng.uniform(iv.lo, iv.hi, size=(draw(rows), draw(st.integers(1, 9))))
        pick = rng.random(X.shape) < 0.2
        X[pick] = rng.choice(special, size=int(pick.sum()))
        if X.size and draw(st.integers(0, 9)) == 0:
            X.flat[rng.integers(X.size)] = draw(st.sampled_from(
                (math.nan, iv.lo - 1.0, 2.0 * iv.hi + 1.0)))
        Xs.append(X)
    return Xs


# 600 examples, about 2 s.
@settings(max_examples=600)
@given(st.data())
def test_batches_are_bit_equal_to_one_batch_call_each(data):
    mean = data.draw(st.sampled_from(BATCHES_HANDLES))
    Xs = data.draw(batch_lists(mean.domain))
    got = _listed(mean.batches, Xs)
    assert got == _listed(_per_length(mean), Xs)
    want = _listed(lambda Xs: [mean.batch(X) for X in Xs], Xs)
    assert isinstance(got, tuple) == isinstance(want, tuple)
    if not isinstance(got, tuple):
        assert got == want


EXP_RANGE = ("RangeError: exp: generator values or the inverse of their average are "
             "not finite on [0.0, 709.5]")
ARITH_RANGE = "RangeError: arith: a sum of entries is not finite on [1e+308, 1.7e+308]"


@pytest.mark.parametrize("mean, Xs, error", [
    # the rows of 2 go first, so 60.0 is named, not the earlier 50.0
    (QuasiArithmeticMean(LogGenerator(POSITIVE[0])),
     [[[1.0, 2.0]], [[3.0, 50.0, 4.0]], [[60.0, 1.0]]],
     "DomainError: value 60.0 outside working interval [0.1, 10.0]"),
    (ArithmeticMean(POSITIVE[0]), [[[1.0, 2.0]], [[3.0, 50.0, 4.0]], [[60.0, 1.0]]],
     "DomainError: value 60.0 outside working interval [0.1, 10.0]"),
    # exp(709.0) + exp(709.2) overflows in the row of 2
    (QuasiArithmeticMean(ExpGenerator(SIGNED[1])), [[[1.0, 2.0, 3.0]], [[709.0, 709.2]]],
     EXP_RANGE),
    (ArithmeticMean(WorkingInterval(1e308, 1.7e308)), [[[1e308, 1e308, 1e308]], [[1.5e308]]],
     ARITH_RANGE),
    # the rows of 2 overflow before the row of 3 meets its entry outside,
    # which the QA mean's padded block's domain test would name first
    (QuasiArithmeticMean(ExpGenerator(SIGNED[1])), [[[709.0, 709.2]], [[1.0, 800.0, 2.0]]],
     EXP_RANGE),
    (ArithmeticMean(WorkingInterval(1e308, 1.7e308)),
     [[[1.5e308, 1.6e308]], [[1e308, 2e308, 1e308]]], ARITH_RANGE),
], ids=["qa-domain", "arith-domain", "qa-range", "arith-range", "qa-range-first",
        "arith-range-first"])
def test_batches_raise_the_error_of_one_call_per_length(mean, Xs, error):
    Xs = [np.array(X) for X in Xs]
    got = _listed(mean.batches, Xs)
    assert got == _listed(_per_length(mean), Xs)
    assert f"{got[0].__name__}: {got[1]}" == error


def _kernel_calls(monkeypatch):
    """The padded-row lengths of each _qa_mean_batch call, None for a plain batch."""
    calls = []
    kernel = means._qa_mean_batch

    def counting(gen, X, running=False, lengths=None):
        calls.append(None if lengths is None else lengths.tolist())
        return kernel(gen, X, running, lengths)

    monkeypatch.setattr(means, "_qa_mean_batch", counting)
    return calls


@pytest.mark.parametrize("shapes, padded", [
    ([(512, 3), (512, 6)], True),           # 1024 rows of 6: 6144 cells
    ([(512, 3), (513, 6)], False),          # 6150 cells
    ([(2, 3), (2, 3)], False),              # one row length
    ([(2, 3), (2, 8)], False),              # rows of 8
    ([(3, 1), (0, 7), (2, 4), (1, 1)], True),
], ids=["at-bound", "past-bound", "one-length", "row-of-8", "mixed"])
def test_a_small_list_of_short_rows_of_several_lengths_is_one_kernel_call(
        monkeypatch, shapes, padded):
    mean = QuasiArithmeticMean(LogGenerator(POSITIVE[0]))
    rng = np.random.default_rng(5)
    Xs = [rng.uniform(0.1, 10.0, size=shape) for shape in shapes]
    want = _listed(lambda Xs: [mean.batch(X) for X in Xs], Xs)
    calls = _kernel_calls(monkeypatch)
    assert _listed(mean.batches, Xs) == want
    lengths = list(dict.fromkeys(n for _, n in shapes))  # in order of first appearance
    if padded:  # one call on the rows of each length in turn
        assert calls == [[n for n in lengths for rows, k in shapes if k == n
                          for _ in range(rows)]]
    else:
        assert calls == [None] * len(lengths)


def test_a_handle_that_overrides_only_batch_gets_its_own_batch():
    """The base route calls the handle's batch once per row length."""

    class Halved(MeanHandle):
        def __init__(self):
            self.domain, self.calls = POSITIVE[0], []

        def batch(self, X):
            self.calls.append(X.shape)
            return X.sum(axis=1) / 2.0

        def spec_string(self):
            return "halved"

    mean = Halved()
    Xs = [np.ones((2, 3)), np.ones((1, 2)), np.ones((3, 3))]
    got = mean.batches(Xs)
    assert [out.tolist() for out in got] == [[1.5, 1.5], [1.0], [1.5, 1.5, 1.5]]
    assert mean.calls == [(5, 3), (1, 2)]


@pytest.mark.parametrize("mean", RUNNING_SIGNED, ids=lambda m: m.spec_string())
def test_batches_of_signed_zero_rows_are_bit_equal(mean):
    """Short rows of zeros of both signs padded beside longer ones: each
    row's zero extremes come from the row kernel on its own entries."""
    for seed in range(4):
        Xs = [_zero_rows(mean, 40, n, seed=seed * 10 + n) for n in (3, 1, 7, 2, 5, 4, 6)]
        assert _listed(mean.batches, Xs) == _listed(
            lambda Xs: [mean.batch(X) for X in Xs], Xs), seed
