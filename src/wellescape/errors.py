"""Exception types shared across the package, and the guard that turns a
failed allocation into one of them."""

from contextlib import contextmanager


@contextmanager
def allocating(error, what, n_floats):
    """Raise ``error`` naming ``what`` and its size in GiB when the block
    runs out of memory, or asks numpy for more than its index type can
    address (numpy raises ``ValueError`` for that, before allocating)."""
    try:
        yield
    except (MemoryError, ValueError):
        raise error(
            f"cannot allocate {what} ({n_floats * 8 / 2**30:.4g} GiB)") from None


class WellEscapeError(Exception):
    """Base class for all package-specific errors."""


class EvaluationError(WellEscapeError):
    """A field evaluation produced a non-finite number.

    Carries the offending point, a float, in ``point``.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ConstructionError(WellEscapeError):
    """A derived object violates its construction preconditions.

    Raised e.g. when a potential does not meet the flat-boundary matching
    condition required to patch it smoothly on a region.
    """


class SimulationError(WellEscapeError):
    """A simulation could not run: a trajectory left the representable
    range (blow-up), its importance weights overflowed, or its noise block
    could not be allocated.

    ``step`` is the index of the Euler step at which the state first
    became non-finite (None for an allocation failure).
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigurationError(WellEscapeError):
    """Invalid run configuration (bad key, incompatible meshes, ...)."""


class SolverError(WellEscapeError):
    """An oracle solve became unstable, produced invalid densities or a
    non-finite answer, or could not allocate its grid."""
