"""Monte Carlo estimation of the stationary output covariance.

Euler-Maruyama integration of the full linear stochastic system, run as a
statistics-level oracle for the analytic routes.  The outputs (line angle
differences and node frequencies) are invariant to the marginally stable
mean-angle mode, so the full system is simulated and only a periodic
drift-removal resync keeps the raw state bounded.

Trajectories use independent, collision-free counter-based streams
(Philox keyed by ``trajectory_seed``), are reduced in fixed index order,
and therefore give bit-identical results for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StepSizeError, ValidationError
from .swing import LinearizedSystem
from .variance import METHOD_MC, CovarianceReport, make_report, reduce_system

STATE_NORM_GUARD = 1e12
RESYNC_INTERVAL = 10_000
NOISE_CHUNK = 2048
NOISE_BLOCK = 64


@dataclass(frozen=True)
class SimConfig:
    """Integration and sampling plan for the Monte Carlo estimator.

    ``burn_in`` seconds are discarded before sampling; ``horizon`` seconds
    are then sampled every ``sample_stride`` steps.  ``master_seed`` fixes
    all randomness.
    """

    dt: float
    burn_in: float
    horizon: float
    trajectories: int
    master_seed: int
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be non-negative, got {self.burn_in}")
        if self.horizon < 100 * self.dt:
            raise ValidationError(
                f"horizon {self.horizon} too short: need at least 100 steps of dt={self.dt}"
            )
        if self.trajectories < 1:
            raise ValidationError("at least one trajectory is required")
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
    """Euler-Maruyama second moments of y = output @ x for dx = drift x dt + noise dW.

    All trajectories are advanced simultaneously (state array of shape
    (states, trajectories)); the estimator pools per-trajectory time
    averages, one batch per trajectory, and reduces them in trajectory
    index order.  Each trajectory consumes its own counter-based stream
    sequentially, so results are bit-identical for identical inputs.

    Raises:
        StepSizeError: if the state norm exceeds 1e12 during integration.
    """
    drift = np.asarray(drift, dtype=float)
    noise_input = np.atleast_2d(np.asarray(noise_input, dtype=float))
    n_states = drift.shape[0]
    output = np.eye(n_states) if output is None else np.asarray(output, dtype=float)
    n_out = output.shape[0]
    n_traj = cfg.trajectories

    # Columns of the noise map that are identically zero inject nothing;
    # dropping them keeps the active streams identical and saves draws.
    active = np.flatnonzero(np.abs(noise_input).max(axis=0) > 0)
    forcing_map = cfg.dt**0.5 * noise_input[:, active]
    n_active = active.size
    forced = slice(None)
    if n_active == 1:
        # Each forcing entry is then a single, exactly rounded product, so
        # the rows outside the span of nonzero entries, which receive
        # nothing, are skipped without changing a bit of the result.
        rows = np.flatnonzero(forcing_map[:, 0])
        forced = slice(rows[0], rows[-1] + 1)
        forcing_map = forcing_map[forced]

    burn_steps = int(round(cfg.burn_in / cfg.dt))
    sample_window = int(round(cfg.horizon / cfg.dt))
    total_steps = burn_steps + sample_window
    step_matrix = np.eye(n_states) + cfg.dt * drift

    generators = _trajectory_generators(cfg.master_seed, n_traj)
    state = np.zeros((n_states, n_traj))
    scratch = np.empty_like(state)
    first_moments = np.zeros((n_traj, n_out, n_out))
    second_moments = np.zeros((n_traj, n_out, n_out))
    mean_acc = np.zeros((n_out, n_traj))

    # Noise is drawn per trajectory (its own stream, in order) in chunks
    # sized to keep the buffer around 32 MB.  The buffer is laid out step
    # first, so each step's forcing reads one contiguous (active, traj)
    # slab instead of gathering one value per trajectory a chunk apart.
    # Draws land in a block of NOISE_BLOCK trajectories first and are then
    # transposed into the buffer, which keeps the scattered writes cached.
    chunk_cap = max(256, min(NOISE_CHUNK, 4_000_000 // max(1, n_active * n_traj)))
    block = np.empty((min(NOISE_BLOCK, n_traj), chunk_cap, n_active))

    n_samples = len(range(0, sample_window, cfg.sample_stride))
    half_split = n_samples // 2
    sample_idx = 0
    step = 0
    while step < total_steps:
        chunk = min(chunk_cap, total_steps - step)
        if n_active:
            noise = np.empty((chunk, n_active, n_traj))
            for first in range(0, n_traj, NOISE_BLOCK):
                draws = block[: min(NOISE_BLOCK, n_traj - first), :chunk]
                for row, gen in zip(draws, generators[first:first + NOISE_BLOCK]):
                    gen.standard_normal(out=row)
                noise[:, :, first:first + len(draws)] = draws.transpose(1, 2, 0)
        for local in range(chunk):
            np.matmul(step_matrix, state, out=scratch)
            if n_active:
                scratch[forced] += forcing_map @ noise[local]
            state, scratch = scratch, state
            step += 1
            if recenter is not None and step % RESYNC_INTERVAL == 0:
                recenter(state)
            offset = step - 1 - burn_steps
            if offset >= 0 and offset % cfg.sample_stride == 0:
                y = output @ state
                outer = np.einsum("pt,qt->tpq", y, y)
                if sample_idx < half_split:
                    first_moments += outer
                else:
                    second_moments += outer
                mean_acc += y
                sample_idx += 1
        if np.abs(state).max() > STATE_NORM_GUARD:
            raise StepSizeError(
                f"state norm exceeded {STATE_NORM_GUARD:g} at step {step}; reduce dt"
            )

    def batch_means(per_trajectory: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pooled = per_trajectory.mean(axis=0)
        if n_traj > 1:
            return pooled, per_trajectory.std(axis=0, ddof=1) / np.sqrt(n_traj)
        return pooled, np.full_like(pooled, np.nan)

    trajectory_moments = (first_moments + second_moments) / n_samples
    pooled_moment, stderr = batch_means(trajectory_moments)
    first, first_se = batch_means(first_moments / max(half_split, 1))
    second, second_se = batch_means(second_moments / max(n_samples - half_split, 1))
    mean_per_traj = mean_acc / n_samples
    mean_out = mean_per_traj.mean(axis=1)
    if n_traj > 1:
        mean_se = mean_per_traj.std(axis=1, ddof=1) / np.sqrt(n_traj)
    else:
        mean_se = np.full(n_out, np.nan)
    return MomentEstimate(
        pooled_moment, stderr, trajectory_moments,
        first, first_se, second, second_se, mean_out, mean_se, n_samples,
    )


def default_sim_config(
    lin: LinearizedSystem,
    trajectories: int = 2000,
    master_seed: int = 0,
    dt: float | None = None,
    burn_in: float | None = None,
    horizon: float | None = None,
    sample_stride: int | None = None,
) -> SimConfig:
    """Config with a low-bias stable step and a 10-decay-time burn-in.

    The resolution heuristic 0.2 / sqrt(lambda_max alpha_max + alpha_max^2)
    (lambda_max the largest whitened-Laplacian eigenvalue, alpha_max the
    largest damping-inertia ratio) is capped at 1.5% of the per-mode
    explicit-Euler bound min_k(-2 Re mu_k / |mu_k|^2): for lightly damped
    networks the heuristic alone sits beyond the stability bound, and the
    stationary-variance bias of the explicit scheme only drops below the
    percent level well under it.  Every field can be overridden.
    """
    reduced = reduce_system(lin)
    decay = -reduced.spectral_abscissa
    if dt is None:
        lam_max = float(reduced.spectral.eigenvalues[-1])
        alpha_max = float((lin.damping / lin.inertia).max())
        dt = 0.2 / np.sqrt(lam_max * alpha_max + alpha_max**2)
        modes = np.linalg.eigvals(reduced.a2)
        stability_bound = float((-2.0 * modes.real / np.abs(modes) ** 2).min())
        dt = min(dt, 0.015 * stability_bound)
    if burn_in is None:
        burn_in = 10.0 / decay
    if horizon is None:
        horizon = max(2.5 / decay, 100 * dt)
    if sample_stride is None:
        # Sampling finer than a twentieth of the slowest decay time adds
        # almost no information; keep at least 50 samples per trajectory.
        sample_stride = max(1, int(0.05 / (decay * dt)))
        sample_stride = min(sample_stride, max(1, int(horizon / dt / 50)))
    return SimConfig(dt, burn_in, horizon, trajectories, master_seed, sample_stride)


def simulate_covariance(lin: LinearizedSystem, cfg: SimConfig | None = None) -> CovarianceReport:
    """Monte Carlo estimate of the stationary output covariance.

    The reduced system must be Hurwitz (checked) and ``cfg.burn_in`` must
    cover ten times the slowest decay time so the sampling window starts
    near stationarity.  Standard errors (one batch per trajectory) and
    stationarity diagnostics are attached to the report.
    """
    reduced = reduce_system(lin)
    decay = -reduced.spectral_abscissa
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
    output[:m, :n] = lin.incidence.T
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
