"""Exception hierarchy for daeobs.

The CLI maps these onto its exit-code taxonomy: user input problems exit
with 1, mathematical non-existence conditions with 2 or 3, and internal
consistency failures with codes above 10.
"""

import math


class DaeObsError(Exception):
    """Base class for all daeobs errors."""


class InputError(DaeObsError, ValueError):
    """Invalid user input: bad dimensions, non-finite entries, bad options."""


class ProblemFileError(InputError):
    """A problem file could not be parsed or failed validation."""


class NotPositiveDefiniteError(InputError):
    """A matrix required to be symmetric positive definite is not."""


class NotStabilizableError(DaeObsError):
    """The associated linear system is not stabilizable.

    For estimation problems this plays the role of a detectability-type
    existence condition on the adjoint system.
    """


class InestimableError(DaeObsError):
    """The requested functional admits no minimax observer.

    Raised when the adjoint system has no solution on the whole time axis
    for the initial condition induced by the functional.
    """


class ConsistencyError(DaeObsError):
    """An initial state is inconsistent: the DAE has no solution from it."""


class InternalConsistencyError(DaeObsError):
    """A quantity that must hold by construction failed its check.

    This signals a tolerance failure or a bug, never a user error.  The
    message names the violated identity.
    """


# Relative tolerance of the identities that hold by construction; each
# call site scales it by the size of the data the identity involves.
IDENTITY_TOL = 1e-9


def require(name: str, value: float, tol: float) -> tuple[float, float]:
    """Raise :class:`InternalConsistencyError` naming the identity ``name``
    unless its measured defect ``value`` is at most ``tol``; return the
    measured pair ``(value, tol)`` for the build step's report.  A ``tol``
    that is not finite means the data's scale overflowed, so nothing was
    checked: that is an :class:`InputError`."""
    value, tol = float(value), float(tol)
    if not math.isfinite(tol):
        raise InputError(f"identity '{name}' cannot be checked: the data's "
                         "scale overflows the float range")
    if not value <= tol:
        raise InternalConsistencyError(
            f"identity '{name}' violated: defect {value:.3e} exceeds {tol:.3e}")
    return value, tol
