"""Monte Carlo estimation of the stationary output covariance.

The full linear stochastic system dx = A x dt + B dW is an Ornstein-Uhlenbeck
process, so it is advanced by its exact Gaussian transition over each sample
interval h, x <- e^{Ah} x + N(0, Sigma_h), and run as a statistics-level
oracle for the analytic routes.  The transition comes from the matrix
exponential (Van Loan 1978), not from a Lyapunov solver, so the oracle stays
independent of the routes it checks.  The outputs (line angle differences
and node frequencies) are invariant to the marginally stable mean-angle
mode, so the full system is simulated and the angles are recentred after
every step to keep the raw state bounded.

Trajectories use independent, collision-free counter-based streams
(Philox keyed by ``trajectory_seed``), are reduced in fixed index order,
and therefore give bit-identical results for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

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
# Largest ||A||_1 h0 of the sub-step whose block exponential is taken directly.
SUBSTEP_NORM = 0.5
# Sigma_h is rejected when its smallest eigenvalue is below -PSD_TOL times its largest.
PSD_TOL = 1e-10


@dataclass(frozen=True)
class SimConfig:
    """Sampling plan for the Monte Carlo estimator.

    Samples are taken every ``dt * sample_stride`` seconds, the interval of
    one exact transition.  ``burn_in`` seconds (rounded up to whole
    intervals) are discarded first; ``horizon`` seconds are then sampled,
    one sample per interval.  ``master_seed`` fixes all randomness.  At
    least two ``trajectories`` are needed: their spread gives the standard
    errors.
    """

    dt: float
    burn_in: float
    horizon: float
    trajectories: int
    master_seed: int
    sample_stride: int = 1

    def __post_init__(self) -> None:
        for setting in fields(self):
            _check_mc_setting(setting.name, getattr(self, setting.name), setting.name)
        if self.master_seed < 0:
            raise ValidationError(f"master_seed must be non-negative, got {self.master_seed}")
        if not self.dt > 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be non-negative, got {self.burn_in}")
        if self.horizon < 100 * self.dt:
            raise ValidationError(
                f"horizon {self.horizon} too short: need at least 100 steps of dt={self.dt}"
            )
        if self.sample_stride < 1:
            raise ValidationError("sample_stride must be a positive integer")


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


def ou_transition(
    drift: np.ndarray, diffusion: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact transition (F, Sigma_h) of dx = drift x dt + dW, Cov(dW) = diffusion dt.

    Over a step h, x(t + h) = F x(t) + N(0, Sigma_h) with F = e^{drift h}
    and Sigma_h = int_0^h e^{drift s} diffusion e^{drift^T s} ds.  Van Loan's
    block exponential of [[-drift, diffusion], [0, drift^T]] h0 gives both on
    a sub-step h0 = h / 2^k with ||drift||_1 h0 <= 1/2, where its blocks stay
    of order one; k doublings, Sigma <- Sigma + F Sigma F^T and F <- F^2,
    then extend them to h, so stiff steps lose no accuracy.
    """
    from scipy.linalg import expm  # on first use: other routes start without scipy

    n = drift.shape[0]
    reach = float(np.abs(drift).sum(axis=0).max()) * h
    doublings = math.ceil(math.log2(reach / SUBSTEP_NORM)) if reach > SUBSTEP_NORM else 0
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -drift
    block[:n, n:] = diffusion
    block[n:, n:] = drift.T
    exp_block = expm(block * (h / 2**doublings))
    transition = exp_block[n:, n:].T
    sigma = transition @ exp_block[:n, n:]
    for _ in range(doublings):
        sigma = sigma + transition @ sigma @ transition.T
        transition = transition @ transition
    return transition, 0.5 * (sigma + sigma.T)


def transition_factor(sigma: np.ndarray) -> np.ndarray:
    """Full-width factor G with G G^T = sigma, from ``eigh``.

    Rounding negatives are clipped to zero, so G has as many columns as
    sigma has rows whatever its rank, and each step draws that many normals.

    Raises:
        InternalInvariantError: if sigma's smallest eigenvalue is below
            -1e-10 times its largest (a transition covariance is PSD).
    """
    values, vectors = np.linalg.eigh(sigma)
    if values[0] < -PSD_TOL * max(values[-1], 0.0):
        raise InternalInvariantError(
            f"transition covariance is not positive semi-definite: "
            f"eigenvalues span [{values[0]:.3e}, {values[-1]:.3e}]"
        )
    return vectors * np.sqrt(np.clip(values, 0.0, None))


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
    trajectories)) by one exact transition over h = dt * sample_stride:
    ceil(burn_in / h) steps of burn-in, then one sample after each of the
    ceil(round(horizon / dt) / sample_stride) sampling steps.  The
    estimator pools per-trajectory time averages, one batch per
    trajectory, and reduces them in trajectory index order.  Each
    trajectory consumes its own counter-based stream sequentially, one
    normal per state and step, so results are bit-identical for identical
    inputs and do not depend on how many trajectories run.

    Raises:
        StepSizeError: if the state norm exceeds 1e12 after a step.
        InternalInvariantError: if the transition covariance is not PSD.
    """
    drift = np.asarray(drift, dtype=float)
    noise_input = np.atleast_2d(np.asarray(noise_input, dtype=float))
    n_states = drift.shape[0]
    output = np.eye(n_states) if output is None else np.asarray(output, dtype=float)
    n_out = output.shape[0]
    n_traj = cfg.trajectories

    interval = cfg.dt * cfg.sample_stride
    transition, sigma = ou_transition(drift, noise_input @ noise_input.T, interval)
    factor = transition_factor(sigma)

    burn_steps = math.ceil(cfg.burn_in / interval)
    n_samples = len(range(0, round(cfg.horizon / cfg.dt), cfg.sample_stride))
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
            if np.abs(state).max() > STATE_NORM_GUARD:
                raise StepSizeError(
                    f"state norm exceeded {STATE_NORM_GUARD:g} at step {step + 1}; "
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


# The mc route builds its config with default_sim_config and then simulates
# with simulate_covariance, both on one LinearizedSystem object, and both
# need its slowest decay rate, from eigvals (not the Lyapunov solver, which
# the oracle checks).  The last rate is kept with the object it came from
# and reused while the same object is asked for.  A LinearizedSystem is
# never mutated, so identity identifies the system; a miss, as when sweep
# threads interleave, only computes it again.
_last_decay: tuple[LinearizedSystem, float] | None = None


def _decay(lin: LinearizedSystem) -> float:
    global _last_decay
    last = _last_decay
    if last is not None and last[0] is lin:
        return last[1]
    decay = -assert_hurwitz(reduce_system(lin).a2)
    _last_decay = (lin, decay)
    return decay


def default_sim_config(
    lin: LinearizedSystem,
    trajectories: int = 2000,
    master_seed: int = 0,
    dt: float | None = None,
    burn_in: float | None = None,
    horizon: float | None = None,
    sample_stride: int | None = None,
) -> SimConfig:
    """Config sampling every twentieth of the slowest decay time.

    With tau = 1 / decay the slowest decay time of the reduced system, the
    defaults are dt = 0.05 tau with ``sample_stride`` 1 (the exact
    transition has no step-size bias, so dt is only the sample interval),
    a 10 tau burn-in and a horizon of max(2.5 tau, 100 dt).  Every field
    can be overridden.
    """
    decay = _decay(lin)
    if dt is None:
        dt = 0.05 / decay
    if burn_in is None:
        burn_in = 10.0 / decay
    if horizon is None:
        horizon = max(2.5 / decay, 100 * _number(dt, "dt"))
    if sample_stride is None:
        sample_stride = 1
    return SimConfig(dt, burn_in, horizon, trajectories, master_seed, sample_stride)


def simulate_covariance(lin: LinearizedSystem, cfg: SimConfig | None = None) -> CovarianceReport:
    """Monte Carlo estimate of the stationary output covariance.

    The reduced system must be Hurwitz (checked) and ``cfg.burn_in`` must
    cover ten times the slowest decay time so the sampling window starts
    near stationarity.  Standard errors (one batch per trajectory) and
    stationarity diagnostics are attached to the report.
    """
    decay = _decay(lin)
    if cfg is None:
        cfg = default_sim_config(lin)
    if cfg.burn_in < 10.0 / decay * (1.0 - 1e-9):
        raise ValidationError(
            f"burn_in {cfg.burn_in:g} shorter than ten decay times ({10.0 / decay:g}); "
            "use default_sim_config or increase burn_in"
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
