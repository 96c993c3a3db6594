"""Exception hierarchy shared by all gridfluct modules.

Errors that represent a violated method assumption (uniform ratios,
homogeneous parameters, security, ...) derive from
:class:`AssumptionViolatedError` so the CLI can map them to exit code 2.
"""


class GridfluctError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GridfluctError):
    """Matrix arguments have incompatible or invalid shapes."""


class InvalidGraphError(GridfluctError):
    """Graph construction arguments violate the graph invariants."""


class DisconnectedGraphError(GridfluctError):
    """The operation requires a connected graph."""


class InstabilityError(GridfluctError):
    """The system matrix is not Hurwitz; no stationary covariance exists."""


class StepSizeError(GridfluctError):
    """Stochastic simulation diverged: the state norm passed its guard."""


class ValidationError(GridfluctError):
    """An input file fails schema or invariant validation."""


class InternalInvariantError(GridfluctError):
    """A computed result breaks an invariant the theory guarantees."""


class AssumptionViolatedError(GridfluctError):
    """Inputs violate an assumption required by the selected method."""


class NoSynchronousStateError(AssumptionViolatedError):
    """The power-flow iteration failed to locate a synchronous state."""


class InsecureStateError(AssumptionViolatedError):
    """A line angle difference leaves the secure region (-pi/2, pi/2)."""


class NoEquilibriumError(AssumptionViolatedError):
    """The injected power exceeds the line capacity; no equilibrium exists."""
