"""Exception taxonomy shared across the package.

Three coarse classes matter to callers (and map to CLI exit codes):
input errors (bad data, exit 1), capability errors (requests beyond the
implemented scale or retry budgets, exit 2), and internal errors (bugs,
exit 3).
"""

import time


class LamanMVError(Exception):
    """Base class for all package-specific errors."""


class InputError(LamanMVError):
    """Malformed or inconsistent input data."""


class SequenceError(InputError):
    """A construction step references a missing vertex or edge."""


class NoSequenceError(InputError):
    """A Laman graph has no construction sequence of the requested kind."""


class DegenerateInputError(InputError):
    """Geometrically degenerate input (e.g. coincident circles)."""


class CapabilityError(LamanMVError):
    """Request exceeds an implemented size cap or retry budget."""


class NonGenericLiftingError(CapabilityError):
    """A lifting produced a tie in the mixed-cell criterion.

    Carries the offending cells so the caller can re-seed.
    """

    def __init__(self, message, cells=()):
        super().__init__(message)
        self.cells = tuple(cells)


class InternalError(LamanMVError):
    """Invariant violation that indicates a bug, not bad input."""


def check_deadline(deadline, what):
    """Raise CapabilityError once `deadline` (a time.monotonic() value) has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise CapabilityError(f"{what} timed out")
