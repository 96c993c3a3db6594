"""Stationary fluctuation covariance of stochastically disturbed power networks.

Library layout:

* :mod:`gridfluct.graphs` -- weighted graphs, Laplacian/incidence matrices,
  whitened spectra, canonical complete/star constructors;
* :mod:`gridfluct.swing` -- nonlinear swing model, synchronous state,
  security check, linearization, single-machine closed form;
* :mod:`gridfluct.variance` -- reduced-system Lyapunov route, explicit
  uniform damping-inertia ratio solution, zero-inertia model, trace law,
  the report invariant checks and the one uniformity checker;
* :mod:`gridfluct.closedforms` / :mod:`gridfluct.trends` -- analytic
  complete/star formulas, single-source corollaries, trend derivatives;
* :mod:`gridfluct.montecarlo` -- Monte Carlo covariance oracle on exact
  Ornstein-Uhlenbeck transitions;
* :mod:`gridfluct.netfile` / :mod:`gridfluct.pipeline` / :mod:`gridfluct.cli`
  -- file formats, the route table (``pipeline.ROUTES``) with its dispatch,
  sweeps and the command line.

Every report is a :class:`CovarianceReport`, the first-order route's
included (angle block only).
"""

from .closedforms import (
    HomogeneousParams,
    SingleSourceSummary,
    StarLeafSummary,
    closed_form_report,
    complete_first_order,
    complete_single_source,
    critical_size,
    star_first_order,
    star_single_source_leaf,
)
from .errors import (
    AssumptionViolatedError,
    DisconnectedGraphError,
    GridfluctError,
    InsecureStateError,
    InstabilityError,
    InternalInvariantError,
    InvalidGraphError,
    NoEquilibriumError,
    NoSynchronousStateError,
    ShapeError,
    StepSizeError,
    ValidationError,
)
from .graphs import (
    SpectralDecomposition,
    WeightedGraph,
    canonical_complete,
    canonical_star,
    incidence,
    is_connected,
    laplacian,
    whitened_spectrum,
)
from .lyapunov import lyapunov_residual, lyapunov_solve_kron
from .montecarlo import SimConfig, default_sim_config, simulate_covariance, trajectory_seed
from .netfile import load_network, load_sweep
from .pipeline import compare_variance, run_sweep, run_variance, write_report
from .swing import (
    LinearizedSystem,
    PowerNetwork,
    SecurityReport,
    SynchronousState,
    linearize,
    security_check,
    smib_variance,
    solve_synchronous_state,
    synchronized_frequency,
)
from .trends import TrendReport, trend_report
from .variance import (
    CovarianceReport,
    ReducedSystem,
    UniformRatioBlocks,
    asymptotic_variance_numeric,
    asymptotic_variance_uniform_ratio,
    first_order_variance,
    reduce_system,
    trace_frequency_variance,
    uniform_ratio_blocks,
)

__version__ = "0.1.0"
