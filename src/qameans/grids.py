"""Compact working intervals and uniformly sampled scalar functions.

All numerics in this package run on a caller-chosen compact interval [lo, hi]
discretized by a uniform grid.  ScalarGrid carries sampled profiles only
(rho = f'/f'', the input of the hulls); a generator keeps its own grids, and
an envelope result publishes g and g' as read-only arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

DEFAULT_GRID_POINTS = 1025
# 16x the largest grid the tests and the benchmark build; validated before
# any grid is allocated, so an oversized request fails fast.
MAX_GRID_POINTS = 2**20 + 1


@dataclass(frozen=True)
class WorkingInterval:
    """Compact interval [lo, hi] with a uniform grid of `grid_points` samples."""

    lo: float
    hi: float
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise UsageError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise UsageError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not np.isfinite(float(self.hi) - float(self.lo)):  # floats: no numpy warning
            raise UsageError(f"need a finite span hi - lo, got [{self.lo}, {self.hi}]")
        n = self.grid_points
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise UsageError(f"grid_points must be an integer, got {n!r}")
        if not 3 <= n <= MAX_GRID_POINTS:
            raise UsageError(f"need 3 <= grid_points <= {MAX_GRID_POINTS}, got {n}")

    @property
    def span(self) -> float:
        return self.hi - self.lo

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.grid_points - 1)

    def grid(self) -> np.ndarray:
        """The uniform grid linspace(lo, hi, grid_points), built on first use.

        Every call returns the same read-only array, shared by all callers;
        copy it before writing.  The cache is not a field, so equality,
        hashing and repr see only lo, hi and grid_points.
        """
        xs = self.__dict__.get("_grid")
        if xs is None:
            xs = np.linspace(self.lo, self.hi, self.grid_points)
            xs.flags.writeable = False
            object.__setattr__(self, "_grid", xs)
        return xs

    def reflected(self) -> "WorkingInterval":
        """The mirror interval [-hi, -lo] with the same resolution."""
        return WorkingInterval(-self.hi, -self.lo, self.grid_points)


@dataclass(frozen=True, eq=False)
class ScalarGrid:
    """A real function sampled on the uniform grid of `interval`, its values
    stored read-only and finite.  A read-only float64 array that owns its
    memory, such as a table's column, is kept as it is; anything else is
    copied."""

    interval: WorkingInterval
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype == np.float64
                and vals.flags.owndata and not vals.flags.writeable):
            vals = np.array(vals, dtype=float)
        if vals.shape != (self.interval.grid_points,):
            raise UsageError(
                f"expected {self.interval.grid_points} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise UsageError("grid values must all be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
