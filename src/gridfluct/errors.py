"""Exception hierarchy shared by all gridfluct modules.

The CLI exits with code 2 on the four classes of ``cli.USER_ERRORS``:
:class:`ValidationError` (a malformed file or option),
:class:`InvalidGraphError` and :class:`DisconnectedGraphError` (a graph
the model does not accept), and :class:`AssumptionViolatedError`, from
which every violated method assumption (uniform ratios, homogeneous
parameters, security, ...) derives.  Any other :class:`GridfluctError`
exits 1 as an internal error.
"""


class GridfluctError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GridfluctError):
    """Matrix arguments have incompatible or invalid shapes, or non-finite entries."""


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
