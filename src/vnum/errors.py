"""Exceptions and the resource limits shared across the package."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

# Steps (division steps, subsets, cuts, search nodes) between two checks of
# the time budget.
STEPS_PER_CLOCK_CHECK = 256


class VnumError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(VnumError):
    """Malformed graph or permutation input."""


class ConfigError(VnumError):
    """A VNUM_* environment variable holds a value outside its domain."""


class PreconditionError(VnumError):
    """An operation was called outside its documented domain."""


class ResourceLimitError(VnumError):
    """A configured cap (basis size, degree, or time budget) was exceeded."""


class NoTransversalError(VnumError):
    """A set family contains an empty member, so no transversal exists."""


@dataclass(frozen=True)
class Limits:
    """Resource caps for a single computation (one prime, one verification)."""

    max_polys: int = 20000
    max_degree: int = 40
    time_budget_secs: float = 300.0
    deadline: float | None = None

    def start_clock(self):
        """Limits whose wall-clock deadline runs: self when its clock already
        runs, else a copy whose deadline starts now.  So the first caller
        starts a computation's one budget and every nested caller shares it."""
        if self.deadline is not None:
            return self
        return replace(self, deadline=time.monotonic() + self.time_budget_secs)

    def check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("time budget exceeded")


DEFAULT_LIMITS = Limits()
