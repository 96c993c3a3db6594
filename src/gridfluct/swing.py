"""Nonlinear swing dynamics: synchronous state, security, and linearization.

The model per node i is

    d(delta_i)/dt = omega_i
    m_i d(omega_i)/dt = P_i - d_i omega_i - sum_j K_ij sin(delta_i - delta_j)

A synchronous state has all frequencies equal to the common value
sum(P) / sum(d) and constant angle differences.  Linearizing around a
secure synchronous state yields a weighted Laplacian with line weights
K_ij cos(delta*_ij), the coefficient matrices of the stochastic system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import (
    DisconnectedGraphError,
    InsecureStateError,
    InvalidGraphError,
    NoEquilibriumError,
    NoSynchronousStateError,
    ShapeError,
)
from .graphs import WeightedGraph, incidence, is_connected, laplacian

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 10


def _store_node_arrays(obj, n: int, names: tuple[str, ...]) -> None:
    """Store named fields as float arrays of shape (n,); check their signs."""
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=float)
        if arr.shape != (n,):
            raise ShapeError(f"{name} must have shape ({n},), got {arr.shape}")
        object.__setattr__(obj, name, arr)
    for name in ("inertia", "damping"):
        if not np.all(getattr(obj, name) > 0):
            raise InvalidGraphError(f"all {name} values must be positive")
    if not np.all(obj.noise >= 0):
        raise InvalidGraphError("noise strengths must be non-negative")


@dataclass(frozen=True)
class PowerNetwork:
    """Per-node machine parameters on a capacity-weighted topology.

    ``topology`` edge weights are the line capacities K_ij.  ``noise`` holds
    the per-node disturbance strengths b_i (>= 0); inertia and damping must
    be strictly positive.  The topology must be connected.
    """

    topology: WeightedGraph
    inertia: np.ndarray
    damping: np.ndarray
    power: np.ndarray
    noise: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = self.topology.node_count
        _store_node_arrays(self, n, ("inertia", "damping", "power", "noise"))
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(1, n + 1)))
        elif len(self.labels) != n:
            raise ShapeError(f"expected {n} labels, got {len(self.labels)}")
        if not is_connected(self.topology):
            raise DisconnectedGraphError(f"graph with {n} nodes is not connected")

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    @property
    def line_count(self) -> int:
        return self.topology.edge_count

    @property
    def capacities(self) -> np.ndarray:
        return self.topology.weights


@dataclass(frozen=True)
class SynchronousState:
    """Angles (node 1 pinned to zero), common frequency, and the solve residual."""

    angles: np.ndarray
    sync_frequency: float
    residual_norm: float


@dataclass(frozen=True)
class SecurityReport:
    """Outcome of the security check with the per-line margin pi/2 - |delta*_ij|."""

    secure: bool
    margins: np.ndarray


@dataclass(frozen=True)
class LinearizedSystem:
    """Coefficients of the linear stochastic system around a synchronous state.

    ``graph`` carries the linearization weights w_ij = K_ij cos(delta*_ij);
    inertia/damping/noise are the diagonals of M, D and the input matrix.
    Results that several routes read at one linearization, such as a modal
    basis or the slowest decay rate, are kept with it by :meth:`shared`.
    """

    graph: WeightedGraph
    inertia: np.ndarray
    damping: np.ndarray
    noise: np.ndarray
    laplacian: np.ndarray = field(init=False, repr=False)
    _shared: dict[str, Any] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        _store_node_arrays(self, self.graph.node_count, ("inertia", "damping", "noise"))
        object.__setattr__(self, "laplacian", laplacian(self.graph))

    def shared(self, name: str, compute: Callable[[], Any]) -> Any:
        """``compute()`` on the first call for ``name``, then the kept result.

        A ``compute`` that raises keeps nothing, so a failed check runs again
        on the next call.
        """
        if name not in self._shared:
            self._shared[name] = compute()
        return self._shared[name]

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def line_count(self) -> int:
        return self.graph.edge_count


def synchronized_frequency(net: PowerNetwork) -> float:
    """Common frequency of any synchronous state: sum(P_i) / sum(d_i)."""
    return float(net.power.sum() / net.damping.sum())


def _flow_residual(
    net: PowerNetwork, inc: np.ndarray, angles: np.ndarray, sync_freq: float
) -> np.ndarray:
    """Power balance residual P_i - d_i w + sum_j K_ij sin(delta_j - delta_i);
    ``inc`` is the incidence matrix of ``net``'s topology."""
    diffs = inc.T @ angles
    flows = net.capacities * np.sin(diffs)
    return net.power - net.damping * sync_freq - inc @ flows


def solve_synchronous_state(net: PowerNetwork) -> SynchronousState:
    """Newton solve of the synchronous-state flow equations from a flat start.

    Node 1 is the angle reference (pinned to zero) and its equation dropped,
    which makes the Laplacian-type Jacobian nonsingular.  Steps are halved
    (up to 10 times) whenever the residual sup-norm would increase.

    Raises:
        NoSynchronousStateError: when Newton does not reach ``NEWTON_TOL``
            within ``NEWTON_MAX_ITER`` iterations or hits a singular Jacobian.
    """
    n = net.node_count
    sync_freq = synchronized_frequency(net)
    inc = incidence(net.topology)
    caps = net.capacities

    angles = np.zeros(n)
    residual = _flow_residual(net, inc, angles, sync_freq)
    res_norm = float(np.abs(residual).max())

    for _ in range(NEWTON_MAX_ITER):
        if res_norm <= NEWTON_TOL:
            return SynchronousState(angles, sync_freq, res_norm)
        weights = caps * np.cos(inc.T @ angles)
        jac = -(inc * weights) @ inc.T
        try:
            step = np.linalg.solve(jac[1:, 1:], -residual[1:])
        except np.linalg.LinAlgError as exc:
            raise NoSynchronousStateError(
                f"singular Jacobian at residual {res_norm:.3e}: {exc}"
            ) from exc

        scale = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            trial = angles.copy()
            trial[1:] += scale * step
            trial_residual = _flow_residual(net, inc, trial, sync_freq)
            trial_norm = float(np.abs(trial_residual).max())
            if trial_norm < res_norm:
                break
            scale *= 0.5
        angles, residual, res_norm = trial, trial_residual, trial_norm

    if res_norm <= NEWTON_TOL:
        return SynchronousState(angles, sync_freq, res_norm)
    raise NoSynchronousStateError(
        f"no synchronous state found: residual {res_norm:.3e} after {NEWTON_MAX_ITER} iterations"
    )


def security_check(state: SynchronousState, net: PowerNetwork) -> SecurityReport:
    """Strict check that every line angle difference lies inside (-pi/2, pi/2)."""
    diffs = incidence(net.topology).T @ state.angles
    margins = math.pi / 2 - np.abs(diffs)
    return SecurityReport(bool(np.all(margins > 0)), margins)


def linearize(net: PowerNetwork, state: SynchronousState) -> LinearizedSystem:
    """Linear stochastic-system coefficients around a secure synchronous state.

    Line weights are K_ij cos(delta*_ij), all positive inside the security
    region, so the weighted Laplacian keeps the connected-graph spectrum.

    Raises:
        InsecureStateError: if any line violates the strict security condition.
    """
    report = security_check(state, net)
    if not report.secure:
        topo = net.topology
        bad = np.flatnonzero(report.margins <= 0)
        offenders = [f"line {k + 1} ({i + 1},{j + 1})"
                     for k, i, j in zip(bad, topo.tails[bad], topo.heads[bad])]
        raise InsecureStateError(
            "angle difference at or beyond pi/2 on: " + ", ".join(offenders)
        )
    diffs = incidence(net.topology).T @ state.angles
    weights = net.capacities * np.cos(diffs)
    return LinearizedSystem(
        net.topology.with_weights(weights), net.inertia, net.damping, net.noise
    )


def smib_variance(
    inertia: float, damping: float, capacity: float, injection: float, noise: float
) -> tuple[float, float]:
    """Stationary variances of the single-machine infinite-bus model.

    Returns (angle variance, frequency variance):

        q_delta = beta^2 / (2 d sqrt(K^2 - P^2)),  q_omega = beta^2 / (2 eta d)

    The cross covariance is zero.  Requires |P| < K for an equilibrium.
    """
    if not (inertia > 0 and damping > 0):
        raise InvalidGraphError("inertia and damping must be positive")
    if noise < 0:
        raise InvalidGraphError("noise strength must be non-negative")
    if abs(injection) >= capacity:
        raise NoEquilibriumError(
            f"|P| = {abs(injection)} >= K = {capacity}: no equilibrium exists"
        )
    stiffness = math.sqrt(capacity**2 - injection**2)
    q_delta = noise**2 / (2.0 * damping * stiffness)
    q_omega = noise**2 / (2.0 * inertia * damping)
    return q_delta, q_omega
