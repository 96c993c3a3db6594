"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import time
from functools import cached_property

import numpy as np
import pytest

from gridfluct import (
    LinearizedSystem,
    WeightedGraph,
    canonical_complete,
    canonical_star,
)
from gridfluct.lyapunov import _validate, assert_hurwitz
from gridfluct.montecarlo import default_sim_config, simulate_covariance
from gridfluct.variance import Congruence


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    extra_edge_prob: float = 0.3,
    weight_range: tuple[float, float] = (0.5, 3.0),
) -> WeightedGraph:
    """Random spanning tree plus extra edges; weights uniform in the range."""
    lo, hi = weight_range
    edges = []
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v, float(rng.uniform(lo, hi))))
    present = {(i, j) for i, j, _ in edges}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in present and rng.random() < extra_edge_prob:
                edges.append((i, j, float(rng.uniform(lo, hi))))
    return WeightedGraph(n, tuple(edges))


def homogeneous_system(kind: str, n: int, gamma: float, eta: float, damping: float,
                       noise) -> LinearizedSystem:
    graph = canonical_complete(n, gamma) if kind == "complete" else canonical_star(n, gamma)
    ones = np.ones(n)
    return LinearizedSystem(graph, eta * ones, damping * ones, np.asarray(noise, dtype=float))


def uniform_ratio_system(rng: np.random.Generator, n: int, alpha: float) -> LinearizedSystem:
    """Random connected graph with heterogeneous inertia but a common d/m ratio."""
    graph = random_connected_graph(rng, n)
    inertia = rng.uniform(0.2, 3.0, n)
    noise = rng.uniform(0.0, 2.0, n)
    return LinearizedSystem(graph, inertia, alpha * inertia, noise)


def table1_complete_system(n: int = 20) -> LinearizedSystem:
    """Complete graph at the single-source benchmark point (source node 2)."""
    noise = np.zeros(n)
    noise[1] = 0.04
    return homogeneous_system("complete", n, 10.0, 0.5, 0.3, noise)


def table2_star_system(n: int = 20) -> LinearizedSystem:
    """Star graph at the single-leaf-source benchmark point (source node 2)."""
    noise = np.zeros(n)
    noise[1] = 0.5
    return homogeneous_system("star", n, 10.0, 0.5, 0.2, noise)


def lyapunov_solve_kron(a, w) -> np.ndarray:
    """Dense oracle: solve A Q + Q A^T + W = 0 via
    (I (x) A + A (x) I) vec(Q) = -vec(W), independently of the Schur route.

    Memory grows like n^4, so keep n modest (<= ~60).
    """
    a, w = _validate(a, w)
    assert_hurwitz(a)
    n = a.shape[0]
    eye = np.eye(n)
    system = np.kron(eye, a) + np.kron(a, eye)
    q = np.linalg.solve(system, -w.reshape(-1)).reshape(n, n)
    return 0.5 * (q + q.T)


def full_output_matrix(report) -> np.ndarray:
    """Assemble the (m+n) x (m+n) output covariance from a report's blocks."""
    m = report.q_delta.shape[0]
    n = report.q_omega.shape[0]
    full = np.empty((m + n, m + n))
    full[:m, :m] = report.q_delta
    full[m:, m:] = report.q_omega
    full[m:, :m] = report.q_delta_omega
    full[:m, m:] = report.q_delta_omega.T
    return full


def count_congruence_fills(monkeypatch, name: str) -> list:
    """Record the map shape of each :class:`Congruence` whose cached ``name``
    ("left" or "array") is computed from here on."""
    fills, compute = [], getattr(Congruence, name).func
    counted = cached_property(lambda block: fills.append(block.lines.shape) or compute(block))
    counted.__set_name__(Congruence, name)
    monkeypatch.setattr(Congruence, name, counted)
    return fills


@pytest.fixture(scope="session")
def mc_benchmark_run():
    """One shared Monte Carlo run of the complete n=5 benchmark case.

    Returns (linearized system, config, report, wall-clock seconds).  Shared
    across the Monte Carlo diagnostics and the acceptance criterion so the
    expensive simulation happens once.
    """
    n = 5
    noise = np.zeros(n)
    noise[1] = 0.04
    lin = homogeneous_system("complete", n, 10.0, 0.5, 0.3, noise)
    cfg = default_sim_config(lin, trajectories=2000, master_seed=2024)
    start = time.perf_counter()
    report = simulate_covariance(lin, cfg)
    elapsed = time.perf_counter() - start
    return lin, cfg, report, elapsed
