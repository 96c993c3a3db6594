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
  complete/star formulas and the closed-form report; the one single-source
  analysis (displayed variances, trend derivatives and limits);
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
    closed_form_report,
    critical_size,
    star_first_order,
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
from .lyapunov import lyapunov_residual
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
