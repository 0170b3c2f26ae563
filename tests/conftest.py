"""Shared fixtures: working intervals and a catalog of test generators."""

import os

import numpy as np
import pytest
from hypothesis import settings

from qameans import generators
from qameans.envelope import reconstruct_generator
from qameans.generators import (
    ExpGenerator,
    Generator,
    LogGenerator,
    PowerGenerator,
    TabulatedGenerator,
    parse_generator,
)
from qameans.grids import WorkingInterval
from qameans.means import ArithmeticMean, QuasiArithmeticMean
from qameans.verify import ingham_jessen_check

# Property tests draw the same examples on every run and machine, and are
# not timed per example, so a loaded host cannot fail them.
settings.register_profile("qameans", derandomize=True, deadline=None)
settings.load_profile("qameans")

# pyproject.toml fails a test on a numpy RuntimeWarning in this process; the
# CLI runs, demos, corpus, benchmark and -c runners that tests start as
# subprocesses copy os.environ, and so fail on one too.
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"

# x, f, f1 on [1, 5]: f increases, but its second difference at x = 2 is
# 1.7e308 - 2e308 + 0, which overflows, so rho = f1 / f'' = -0 there: an
# infinite f'' that classify and compare refuse.
OVERFLOWING_TABLE = ("x,f,f1\n1,0,1\n2,1e308,1\n3,1.7e308,1\n4,1.75e308,1\n"
                     "5,1.76e308,1\n")


def power_ends_equal(p: float, lo: float, hi: float) -> bool:
    """Whether x**p is one float at lo and at hi, where PowerGenerator
    refuses p: it rounds to 1 for tiny |p|, or underflows to 0 at both ends."""
    try:
        return lo ** p == hi ** p
    except OverflowError:
        return False


class Negated(Generator):
    """-f as the value-space transform -1 * f + 0: f and -f generate one mean
    and share rho, and so sigma; tests use it to check that nothing reads
    f's sign."""

    def __init__(self, inner: Generator):
        self.inner = inner
        self.domain = inner.domain
        self.sigma = inner.sigma

    def f(self, x):
        return -1.0 * self.inner.f(x) + 0.0

    def finv(self, y):
        return self.inner.finv((np.asarray(y, dtype=float) - 0.0) / -1.0)

    def f1(self, x):
        return -1.0 * self.inner.f1(x)

    def rho(self, x):
        return self.inner.rho(x)

    def spec_string(self):
        return f"-({self.inner.spec_string()})"


@pytest.fixture(autouse=True)
def empty_table_memo():
    """Each test starts with no kept table parses, so a test that loads a
    table runs the reader even when an earlier test loaded the same bytes."""
    generators._TABLES.clear()


@pytest.fixture(scope="session")
def iv():
    """Default positive working interval used by the closed-form catalog."""
    return WorkingInterval(0.1, 10.0)


@pytest.fixture(scope="session")
def iv13():
    """Interval for the built-from-profile cases with hand-computed answers."""
    return WorkingInterval(1.0, 3.0)


@pytest.fixture(scope="session")
def catalog(iv):
    """Closed-form generators keyed by name, all on the same interval."""
    return {
        "power:-1": PowerGenerator(-1.0, iv),
        "log": LogGenerator(iv),
        "power:0.5": PowerGenerator(0.5, iv),
        "id": parse_generator("id", iv),
        "power:2": PowerGenerator(2.0, iv),
        "power:3": PowerGenerator(3.0, iv),
        "exp": ExpGenerator(iv),
    }


def build_from_profile(profile_values, interval, name):
    """Generator whose curvature ratio g'/g'' equals the given grid profile.

    Solves the reconstruction quadrature and stores the profile itself as
    the generator's rho grid, so the profile identity holds to the last bit.
    """
    return reconstruct_generator(profile_values, interval, source=name)


def jensen_pairing(gen, sense):
    """The means (M, N) for which ingham_jessen_check is Jensen's inequality
    for QA_gen with equal weights (Hardy, Littlewood and Polya, ch. III).

    On an n-by-2 matrix [X Y], "convex" (M = A, N = QA_gen) claims
    QA_gen((X + Y) / 2) <= (QA_gen(X) + QA_gen(Y)) / 2, and "concave"
    (M = QA_gen, N = A) claims that the average of QA_gen over the n rows is
    at most QA_gen of the two column averages.
    """
    qa, a = QuasiArithmeticMean(gen), ArithmeticMean(gen.domain)
    return (a, qa) if sense == "convex" else (qa, a)


def jensen_check(gen, sense, n, trials, seed):
    """ingham_jessen_check of jensen_pairing(gen, sense) on n-by-2 matrices."""
    return ingham_jessen_check(*jensen_pairing(gen, sense), 2, n, trials, seed)


def assert_jensen_witness_reverifies(gen, sense, rep):
    """The failing witness of jensen_check(gen, sense, ...) fails again when
    both sides are recomputed from single-vector means, to the bit."""
    M, N = jensen_pairing(gen, sense)
    w = rep.witness
    x = np.asarray(w["matrix"], dtype=float)
    lhs, rhs = N([M(row) for row in x]), M([N(col) for col in x.T])
    assert (lhs, rhs) == (w["lhs"], w["rhs"])
    assert lhs - rhs > rep.extra["tol"]


@pytest.fixture(scope="session")
def rho_x2_gen(iv13):
    """Convex-envelope input with curvature profile x^2 on [1, 3].

    x^2 is positive but convex, so the least concave majorant of the profile
    is the chord through (1, 1) and (3, 9), which is 4x - 3.
    """
    xs = iv13.grid()
    return build_from_profile(xs**2, iv13, "rho-x2")


@pytest.fixture(scope="session")
def rho_neg_x2_gen(iv13):
    """Concave-envelope input with curvature profile -x^2 on [1, 3].

    The greatest convex minorant of -x^2 is the chord through (1, -1) and
    (3, -9), which is 3 - 4x.
    """
    xs = iv13.grid()
    return build_from_profile(-(xs**2), iv13, "rho-neg-x2")


@pytest.fixture(scope="session")
def tent_profile_gen(iv13):
    """Input whose curvature profile 2 - |x - 2| is already concave positive.

    The profile has a kink at x = 2 (an interior hull vertex), which makes it
    the reference case for behavior near hull corners.
    """
    xs = iv13.grid()
    return build_from_profile(2.0 - np.abs(xs - 2.0), iv13, "tent")


@pytest.fixture(scope="session")
def neither_cubic():
    """x^3 tabulated on [-1, 1.5]: f''/f' changes sign inside the interval.

    Strictly increasing, but the curvature ratio x/2 crosses zero, so the
    mean is neither convex nor concave. The f' and rho grids are exact.
    """
    ivc = WorkingInterval(-1.0, 1.5)
    xs = ivc.grid()
    return TabulatedGenerator(ivc, xs**3, 3.0 * xs**2, xs / 2.0, source="cubic")


@pytest.fixture(scope="session")
def nonsmooth_cubic():
    """x^3 tabulated on [-0.001, 10]: f'' < 0 only on a tiny subinterval.

    At the default 1025 points only the left end lies in the sliver, so the
    tabulated f'' changes sign while every second difference of the values
    is positive.
    """
    ivn = WorkingInterval(-0.001, 10.0)
    xs = ivn.grid()
    return TabulatedGenerator(ivn, xs**3, 3.0 * xs**2, xs / 2.0, source="cubic-sliver")
