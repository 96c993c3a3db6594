"""Monte Carlo estimation of the stationary output covariance.

The full linear stochastic system dx = A x dt + B dW is an Ornstein-Uhlenbeck
process, so it is advanced by its exact Gaussian transition over each sample
interval h, x <- e^{Ah} x + N(0, Sigma_h), and run as a statistics-level
oracle for the analytic routes.  The transition comes from the matrix
exponential of Van Loan's block (Van Loan 1978), not from a Lyapunov solver,
so the oracle stays independent of the routes it checks.  That exponential
is one [13/13] Pade approximant in numpy, taken on a sub-step where the
block's 1-norm is at most 1, inside the approximant's double-precision
range theta_13 ~ 5.37 (Higham 2005), so it needs no squaring of its own.
The outputs (line angle differences and node frequencies) are invariant to
the marginally stable mean-angle mode, so the full system is simulated and
the angles are recentred after every step to keep the raw state bounded.

Trajectories use independent, collision-free counter-based streams
(Philox keyed by ``trajectory_seed``), are reduced in fixed index order,
and therefore give bit-identical results for identical inputs.

:func:`agreement` is the one verdict on whether two estimates agree within
their standard errors; :func:`stationarity` applies it to a report's
sampling-window halves.  The simulation never calls either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import InternalInvariantError, StepSizeError, ValidationError
from .graphs import incidence
from .lyapunov import assert_hurwitz
from .netfile import _check_mc_setting, _number
from .swing import LinearizedSystem
from .variance import METHOD_MC, CovarianceReport, make_report, reduce_system

STATE_NORM_GUARD = 1e12
# Normals held in the noise buffer at once (about 32 MB of float64).
NOISE_BUFFER = 4_000_000
# Largest 1-norm of the Van Loan block times the sub-step h0 that is
# exponentiated directly; below theta_13 ~ 5.37 of the [13/13] Pade approximant.
SUBSTEP_NORM = 1.0
# Coefficients b_0..b_13 of the [13/13] Pade approximant to exp (Higham 2005).
PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
# Sigma_h is rejected when its smallest eigenvalue is below -PSD_TOL times its largest.
PSD_TOL = 1e-10
# Family-wise false-failure rate of one agreement verdict on correct code.
ALPHA = 0.01
# Differences up to ROUNDING times the largest entry compared are rounding.
ROUNDING = 1e-14


@dataclass(frozen=True)
class SimConfig:
    """Sampling plan for the Monte Carlo estimator.

    Samples are taken every ``dt`` seconds, the interval of one exact
    transition.  ``burn_in`` seconds (rounded up to whole intervals) are
    discarded first; ``horizon`` seconds are then sampled, one sample per
    interval.  ``master_seed`` fixes all randomness.  At least two
    ``trajectories`` are needed: their spread gives the standard errors.
    Each setting is checked on its own by ``netfile._check_mc_setting``;
    only the rule that joins two of them is checked here.
    """

    dt: float
    burn_in: float
    horizon: float
    trajectories: int
    master_seed: int

    def __post_init__(self) -> None:
        for setting in fields(self):
            _check_mc_setting(setting.name, getattr(self, setting.name), setting.name)
        if self.horizon < 100 * self.dt:
            raise ValidationError(
                f"horizon {self.horizon} too short: need at least 100 steps of dt={self.dt}"
            )


def trajectory_seed(master_seed: int, trajectory_index: int) -> np.random.SeedSequence:
    """Deterministic, collision-free per-trajectory seed (spawn-key splitting).

    The same ``(master_seed, trajectory_index)`` always yields the same
    stream, independent of how many trajectories run or in which order.
    """
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(trajectory_index,))


def _trajectory_generators(master_seed: int, count: int) -> list[np.random.Generator]:
    return [
        np.random.Generator(np.random.Philox(trajectory_seed(master_seed, idx)))
        for idx in range(count)
    ]


def _pade13_expm(block: np.ndarray) -> np.ndarray:
    """e^block by the [13/13] Pade approximant (V - U)^{-1} (V + U), for a
    block whose 1-norm is at most theta_13 (no scaling and squaring)."""
    b = PADE13
    ident = np.eye(block.shape[0])
    b2 = block @ block
    b4 = b2 @ b2
    b6 = b4 @ b2
    u = block @ (b6 @ (b[13] * b6 + b[11] * b4 + b[9] * b2)
                 + b[7] * b6 + b[5] * b4 + b[3] * b2 + b[1] * ident)
    v = b6 @ (b[12] * b6 + b[10] * b4 + b[8] * b2) + b[6] * b6 + b[4] * b4 + b[2] * b2 + b[0] * ident
    return np.linalg.solve(v - u, v + u)


def ou_transition(
    drift: np.ndarray, diffusion: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact transition (F, Sigma_h, G) of dx = drift x dt + dW, Cov(dW) = diffusion dt.

    Over a step h, x(t + h) = F x(t) + N(0, Sigma_h) with F = e^{drift h}
    and Sigma_h = int_0^h e^{drift s} diffusion e^{drift^T s} ds, and
    G G^T = Sigma_h up to rounding-level directions (:func:`transition_factor`).
    Van Loan's block exponential of [[-drift, c diffusion], [0, drift^T]] h0
    gives F and c Sigma_{h0}.  The power of four c brings the diffusion's
    1-norm within a factor four of the larger of the drift's 1- and
    inf-norms, so both blocks carry their digits at one scale; Sigma is
    linear in the diffusion and a power of two scales exactly, and a zero
    diffusion gives Sigma exactly 0.  G is factored from c Sigma_h, whose
    entries are normal numbers even when Sigma_h's are subnormal, and scaled
    by c^{-1/2}.
    The sub-step h0 = h / 2^k is the longest whose block 1-norm times h0 is
    at most 1, where one [13/13] Pade evaluation is accurate to rounding
    (theta_13 ~ 5.37); k doublings, Sigma <- Sigma + F Sigma F^T and
    F <- F^2, then extend both to h, so stiff steps lose no accuracy.
    """
    n = drift.shape[0]
    size = np.abs(drift)
    drift_norm = float(max(size.sum(axis=0).max(), size.sum(axis=1).max()))
    diffusion_norm = float(np.abs(diffusion).sum(axis=0).max())
    shift = 0
    if drift_norm > 0 and diffusion_norm > 0:
        shift = math.frexp(drift_norm)[1] - math.frexp(diffusion_norm)[1]
        shift -= shift % 2
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -drift
    block[:n, n:] = np.ldexp(diffusion, shift)
    block[n:, n:] = drift.T
    reach = float(np.abs(block).sum(axis=0).max()) * h
    doublings = math.ceil(math.log2(reach / SUBSTEP_NORM)) if reach > SUBSTEP_NORM else 0
    exp_block = _pade13_expm(block * (h / 2**doublings))
    transition = exp_block[n:, n:].T
    sigma = transition @ exp_block[:n, n:]
    for _ in range(doublings):
        sigma = sigma + transition @ sigma @ transition.T
        transition = transition @ transition
    sigma = 0.5 * (sigma + sigma.T)
    factor = np.ldexp(transition_factor(sigma), -shift // 2)
    return transition, np.ldexp(sigma, -shift), factor


def transition_factor(sigma: np.ndarray) -> np.ndarray:
    """Full-width factor G with G G^T = sigma, from ``eigh``.

    Eigenvalues at or below rows * eps times the largest, rounding negatives
    included, are set to zero: they are rounding, not noise, and their
    columns would inject noise along directions the drift cannot reach.  G
    keeps as many columns as sigma has rows whatever its rank, so each step
    draws that many normals.

    Raises:
        InternalInvariantError: if sigma's smallest eigenvalue is below
            -1e-10 times its largest (a transition covariance is PSD).
    """
    values, vectors = np.linalg.eigh(sigma)
    top = max(values[-1], 0.0)
    if values[0] < -PSD_TOL * top:
        raise InternalInvariantError(
            f"transition covariance is not positive semi-definite: "
            f"eigenvalues span [{values[0]:.3e}, {values[-1]:.3e}]"
        )
    values[values <= sigma.shape[0] * np.finfo(float).eps * top] = 0.0
    return vectors * np.sqrt(values)


@dataclass(frozen=True)
class MomentEstimate:
    """Pooled second-moment estimate with per-entry batch-means standard errors.

    ``trajectory_moments[t]`` is trajectory t's own time-averaged moment
    matrix (one batch per trajectory); the pooled estimate is their mean in
    index order.  First/second sampling-window halves carry their own
    batch-means errors for the stationarity diagnostic.
    """

    moment: np.ndarray
    stderr: np.ndarray
    trajectory_moments: np.ndarray
    first_half: np.ndarray
    first_half_stderr: np.ndarray
    second_half: np.ndarray
    second_half_stderr: np.ndarray
    output_mean: np.ndarray
    output_mean_stderr: np.ndarray
    samples_per_trajectory: int


def simulate_stationary_covariance(
    drift: np.ndarray,
    noise_input: np.ndarray,
    cfg: SimConfig,
    output: np.ndarray | None = None,
    recenter: Callable[[np.ndarray], None] | None = None,
) -> MomentEstimate:
    """Second moments of y = output @ x for dx = drift x dt + noise dW, by exact steps.

    Every step advances all trajectories (state array of shape (states,
    trajectories)) by one exact transition over dt: ceil(burn_in / dt)
    steps of burn-in, then one sample after each of the round(horizon / dt)
    sampling steps.  The estimator pools per-trajectory time averages, one
    batch per trajectory, and reduces them in trajectory index order.  Each
    trajectory consumes its own counter-based stream sequentially, one
    normal per state and step, so results are bit-identical for identical
    inputs and do not depend on how many trajectories run.

    Raises:
        StepSizeError: if a state entry exceeds 1e12 times the noise scale,
            the largest row norm of Sigma_dt's factor.
        InternalInvariantError: if the transition covariance is not PSD.
    """
    drift = np.asarray(drift, dtype=float)
    noise_input = np.atleast_2d(np.asarray(noise_input, dtype=float))
    n_states = drift.shape[0]
    output = np.eye(n_states) if output is None else np.asarray(output, dtype=float)
    n_out = output.shape[0]
    n_traj = cfg.trajectories

    transition, _, factor = ou_transition(drift, noise_input @ noise_input.T, cfg.dt)
    # Relative to the noise one step injects, so scaling every noise amplitude
    # changes no verdict; with no noise the state stays exactly 0.  hypot
    # neither underflows nor overflows where the factor's squares would.
    state_limit = STATE_NORM_GUARD * float(np.hypot.reduce(factor, axis=1).max(initial=0.0))

    burn_steps = math.ceil(cfg.burn_in / cfg.dt)
    n_samples = round(cfg.horizon / cfg.dt)
    total_steps = burn_steps + n_samples

    generators = _trajectory_generators(cfg.master_seed, n_traj)
    state = np.zeros((n_states, n_traj))
    first_moments = np.zeros((n_traj, n_out, n_out))
    second_moments = np.zeros((n_traj, n_out, n_out))
    mean_acc = np.zeros((n_out, n_traj))

    # Each trajectory fills its own contiguous (steps, states) slab of the
    # buffer from its stream, a chunk of steps at a time.
    chunk_cap = min(total_steps, max(1, NOISE_BUFFER // (n_states * n_traj)))
    noise = np.empty((n_traj, chunk_cap, n_states))

    half_split = n_samples // 2
    for first_step in range(0, total_steps, chunk_cap):
        chunk = min(chunk_cap, total_steps - first_step)
        for slab, gen in zip(noise, generators):
            gen.standard_normal(out=slab[:chunk])
        for local in range(chunk):
            step = first_step + local
            state = transition @ state + factor @ noise[:, local].T
            if recenter is not None:
                recenter(state)
            if np.abs(state).max() > state_limit:
                raise StepSizeError(
                    f"state norm exceeded {STATE_NORM_GUARD:g} noise scales at step {step + 1}; "
                    "the drift is not stable"
                )
            sample_idx = step - burn_steps
            if sample_idx >= 0:
                y = output @ state
                outer = np.einsum("pt,qt->tpq", y, y)
                if sample_idx < half_split:
                    first_moments += outer
                else:
                    second_moments += outer
                mean_acc += y

    def batch_means(per_trajectory: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return per_trajectory.mean(axis=0), per_trajectory.std(axis=0, ddof=1) / np.sqrt(n_traj)

    trajectory_moments = (first_moments + second_moments) / n_samples
    pooled_moment, stderr = batch_means(trajectory_moments)
    first, first_se = batch_means(first_moments / max(half_split, 1))
    second, second_se = batch_means(second_moments / max(n_samples - half_split, 1))
    mean_per_traj = mean_acc / n_samples
    mean_out = mean_per_traj.mean(axis=1)
    mean_se = mean_per_traj.std(axis=1, ddof=1) / np.sqrt(n_traj)
    return MomentEstimate(
        pooled_moment, stderr, trajectory_moments,
        first, first_se, second, second_se, mean_out, mean_se, n_samples,
    )


def _decay(lin: LinearizedSystem) -> float:
    """Slowest decay rate of the reduced system, from eigvals (not the
    Lyapunov solver, which the oracle checks); kept with ``lin``, since the
    mc route's config and simulation both read it."""
    return lin.shared("decay", lambda: -assert_hurwitz(reduce_system(lin).a2))


def default_sim_config(
    lin: LinearizedSystem,
    trajectories: int = 2000,
    master_seed: int = 0,
    dt: float | None = None,
    burn_in: float | None = None,
    horizon: float | None = None,
) -> SimConfig:
    """Config sampling every twentieth of the slowest decay time.

    With tau = 1 / decay the slowest decay time of the reduced system, the
    defaults are dt = 0.05 tau (the exact transition has no step-size bias,
    so dt is only the sample interval), a 10 tau burn-in and a horizon of
    max(2.5 tau, 100 dt).  Every field can be overridden.
    """
    decay = _decay(lin)
    if dt is None:
        dt = 0.05 / decay
    if burn_in is None:
        burn_in = 10.0 / decay
    if horizon is None:
        horizon = max(2.5 / decay, 100 * _number(dt, "dt"))
    return SimConfig(dt, burn_in, horizon, trajectories, master_seed)


def simulate_covariance(lin: LinearizedSystem, cfg: SimConfig) -> CovarianceReport:
    """Monte Carlo estimate of the stationary output covariance.

    The reduced system must be Hurwitz (checked) and ``cfg.burn_in`` must
    cover ten times the slowest decay time so the sampling window starts
    near stationarity.  Standard errors (one batch per trajectory) and the
    window-half estimates that :func:`stationarity` judges are attached to
    the report.
    """
    decay = _decay(lin)
    if cfg.burn_in < 10.0 / decay * (1.0 - 1e-9):
        raise ValidationError(
            f"burn_in {cfg.burn_in:g} shorter than ten decay times ({10.0 / decay:g}); "
            "increase burn_in or leave it unset"
        )

    n, m = lin.node_count, lin.line_count
    drift = np.zeros((2 * n, 2 * n))
    drift[:n, n:] = np.eye(n)
    drift[n:, :n] = -lin.laplacian / lin.inertia[:, None]
    drift[n:, n:] = -np.diag(lin.damping / lin.inertia)
    noise_input = np.zeros((2 * n, n))
    noise_input[n:, :] = np.diag(lin.noise / lin.inertia)
    output = np.zeros((m + n, 2 * n))
    output[:m, :n] = incidence(lin.graph).T
    output[m:, n:] = np.eye(n)

    def recenter(state: np.ndarray) -> None:
        # The only non-decaying direction of the raw state is a uniform
        # angle shift, which the outputs cannot see.
        state[:n, :] -= state[:n, :].mean(axis=0, keepdims=True)

    estimate = simulate_stationary_covariance(drift, noise_input, cfg, output, recenter)
    q = estimate.moment
    q_delta = q[:m, :m]
    q_omega = q[m:, m:]
    q_cross = q[m:, :m]
    diagnostics = {
        "stderr_delta": estimate.stderr[:m, :m],
        "stderr_omega": estimate.stderr[m:, m:],
        "stderr_cross": estimate.stderr[m:, :m],
        "stderr_full": estimate.stderr,
        "moment_full": estimate.moment,
        "first_half": estimate.first_half,
        "first_half_stderr": estimate.first_half_stderr,
        "second_half": estimate.second_half,
        "second_half_stderr": estimate.second_half_stderr,
        "frequency_mean": estimate.output_mean[m:],
        "frequency_mean_stderr": estimate.output_mean_stderr[m:],
        "samples_per_trajectory": estimate.samples_per_trajectory,
        "trajectories": cfg.trajectories,
        "dt": cfg.dt,
        "master_seed": cfg.master_seed,
    }
    return make_report(q_delta, q_omega, q_cross, METHOD_MC, diagnostics)


class Agreement(NamedTuple):
    """Verdict of :func:`agreement` over ``entries`` distinct entries.

    ``worst_z`` is the largest z, at ``worst_entry``.  ``flagged`` lists the
    entries Holm's step-down rule rejects, worst first; it is empty exactly
    when ``passed``.  A named tuple, not a dataclass: it is defined on every
    CLI start, and a frozen dataclass costs about 1 ms to define.
    """

    passed: bool
    entries: int
    threshold: float
    worst_z: float
    worst_entry: tuple[int, ...]
    flagged: tuple[tuple[int, ...], ...]


def agreement(a, a_stderr, b, b_stderr=0.0) -> Agreement:
    """Whether estimate ``a`` agrees with ``b`` within their standard errors.

    The entries judged are the distinct ones: the upper triangle of a square
    argument, which is read as symmetric, and every entry of any other.
    ``b`` and the standard errors broadcast to ``a``'s shape; a zero
    ``b_stderr`` makes ``b`` a reference.  Each entry's
    z = (|a - b| - tau) / sqrt(a_stderr^2 + b_stderr^2), with tau = ROUNDING
    times the largest |entry| of a and b, so an entry with no standard error
    passes only at rounding level.  Over K entries the check passes when
    the largest z is at most Phi^{-1}(1 - ALPHA / 2K), so correct code fails
    with probability at most ALPHA, however many entries it has (Holm,
    Scand. J. Statist. 6(2), 1979).  The normal quantile assumes roughly 30
    or more trajectories behind each standard error.
    """
    from statistics import NormalDist

    a = np.asarray(a, dtype=float)
    b, a_stderr, b_stderr = (np.broadcast_to(np.asarray(x, dtype=float), a.shape)
                             for x in (b, a_stderr, b_stderr))
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        index = np.triu_indices(a.shape[0])
    else:
        index = np.unravel_index(np.arange(a.size), a.shape)
    a, b, spread = a[index], b[index], np.hypot(a_stderr[index], b_stderr[index])
    tau = ROUNDING * max(np.abs(a).max(), np.abs(b).max())
    excess = np.abs(a - b) - tau
    z = np.divide(excess, spread, out=np.where(excess > 0, np.inf, -np.inf), where=spread > 0)
    z[np.isnan(z)] = np.inf  # a NaN entry disagrees

    def bound(remaining: int) -> float:
        return NormalDist().inv_cdf(1.0 - ALPHA / (2 * remaining))

    entries = [tuple(int(i) for i in at) for at in zip(*index)]
    order = np.argsort(-z, kind="stable")
    flagged = []
    for rank, pos in enumerate(order):
        if not z[pos] > bound(z.size - rank):
            break
        flagged.append(entries[pos])
    return Agreement(not flagged, z.size, bound(z.size), float(z[order[0]]),
                     entries[order[0]], tuple(flagged))


def stationarity(report: CovarianceReport) -> Agreement:
    """:func:`agreement` between the first and second halves of a Monte
    Carlo report's sampling window, over the full output covariance."""
    d = report.diagnostics
    return agreement(d["first_half"], d["first_half_stderr"], d["second_half"], d["second_half_stderr"])
