"""Fully analytic covariance formulas for homogeneous complete and star graphs.

All formulas assume identical inertia eta, identical damping d and
identical line weights gamma.  The scalar displays and the first-order
blocks use canonical indices: complete graphs list lines in
lexicographic order; star graphs have the root at node 1 and line k
connecting the root to node k + 1.  :func:`closed_form_report`, the one
report builder, evaluates the same formulas in a network's own node and
line order: the complete graph's spectral projectors do not depend on the
node order, a star's only on which node is its root, and each star line's
angle entries carry the sign of its orientation.

The scalar display functions accept the network size as a float so that
trend analysis can differentiate with respect to it.

Non-displayed block entries (frequency off-diagonals, cross block) come
from the uniform-ratio solution evaluated on the exact eigenvalue
clusters of these graphs, via their spectral projectors: no numerical
eigendecomposition or Lyapunov solve is involved anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolatedError, InvalidGraphError
from .graphs import WeightedGraph, canonical_complete, incidence
from .swing import LinearizedSystem
from .variance import METHOD_CLOSED, CovarianceReport, _ratio_weights, make_report, uniform_value


@dataclass(frozen=True)
class HomogeneousParams:
    """Homogeneous network parameters: size, line weight, inertia, damping, noise."""

    n: int
    gamma: float
    eta: float
    damping: float
    noise: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidGraphError(f"need at least 2 nodes, got {self.n}")
        if not (self.gamma > 0 and self.eta > 0 and self.damping > 0):
            raise InvalidGraphError("gamma, eta and damping must all be positive")
        noise = np.asarray(self.noise, dtype=float)
        if noise.shape != (self.n,):
            raise InvalidGraphError(f"noise must have shape ({self.n},), got {noise.shape}")
        if not np.all(noise >= 0):
            raise InvalidGraphError("noise strengths must be non-negative")
        object.__setattr__(self, "noise", noise)

    @property
    def noise_sq(self) -> np.ndarray:
        return self.noise**2

    @property
    def trace_noise_sq(self) -> float:
        return float(self.noise_sq.sum())


@dataclass(frozen=True)
class SingleSourceSummary:
    """Scalar variances for a single disturbance source on a complete graph
    (also valid for a star graph disturbed at its root)."""

    source_frequency_variance: float
    other_frequency_variance: float
    incident_line_variance: float
    other_line_variance: float


@dataclass(frozen=True)
class StarLeafSummary:
    """Scalar variances for a star graph disturbed at leaf node 2 only."""

    root_frequency_variance: float
    leaf_frequency_variance: float
    other_frequency_variance: float
    source_line_variance: float
    other_line_variance: float


# ---------------------------------------------------------------------------
# Scalar displays (continuous network size)
# ---------------------------------------------------------------------------
# The underscored general-noise helpers also take arrays of squared amplitudes.


def complete_source_frequency(n: float, gamma: float, eta: float, damping: float, noise: float) -> float:
    """Frequency variance at the single disturbed node of a complete graph."""
    return _complete_frequency_diag(n, gamma, eta, damping, noise**2, noise**2)


def complete_other_frequency(n: float, gamma: float, eta: float, damping: float, noise: float) -> float:
    """Frequency variance at any undisturbed node of a complete graph."""
    return _complete_frequency_diag(n, gamma, eta, damping, 0.0, noise**2)


def _complete_frequency_diag(n: float, gamma: float, eta: float, damping: float,
                             b_sq: float, trace_sq: float) -> float:
    """Frequency variance at a node of a complete graph, general noise pattern."""
    d = damping
    denom = d * n * (2 * d**2 + gamma * eta * n)
    return (1 / (2 * d * eta) - gamma * (n - 1) / denom) * b_sq + gamma * (trace_sq - b_sq) / denom


def _star_leaf_frequency_diag(n: float, gamma: float, eta: float, damping: float,
                              b_sq: float, root_sq: float, trace_sq: float) -> float:
    """Frequency variance at a star leaf, general noise pattern (seven terms)."""
    d, g, e = damping, gamma, eta
    w_top = 2 * d**2 + g * e * n
    w_star = 2 * d**2 * (n + 1) + g * e * (n - 1) ** 2
    w_mid = 2 * d**2 + g * e
    rest = trace_sq - b_sq - root_sq
    return (
        g * root_sq / (d * n * w_top)
        + b_sq / (2 * d * e)
        - g * b_sq / (d * n * w_top)
        - g * (n - 2) * b_sq / (d * n * w_star)
        - g**2 * e * (n - 2) * b_sq / (d * n * w_mid * w_top)
        + g * rest / (d * n * w_star)
        + g**2 * e * rest / (d * n * w_mid * w_top)
    )


def star_leaf_frequency(n: float, gamma: float, eta: float, damping: float, noise: float) -> float:
    """Frequency variance at the disturbed leaf (node 2) of a star graph."""
    return _star_leaf_frequency_diag(n, gamma, eta, damping, noise**2, 0.0, noise**2)


def star_other_frequency(n: float, gamma: float, eta: float, damping: float, noise: float) -> float:
    """Frequency variance at an undisturbed leaf when leaf 2 is the source."""
    return _star_leaf_frequency_diag(n, gamma, eta, damping, 0.0, 0.0, noise**2)


def star_source_line(n: float, gamma: float, eta: float, damping: float, noise: float) -> float:
    """Angle-difference variance on the root-source line when leaf 2 is the source."""
    return _star_line_diag(n, gamma, eta, damping, noise**2, 0.0, noise**2)


def star_other_line(n: float, gamma: float, eta: float, damping: float, noise: float) -> float:
    """Angle-difference variance on any other line when leaf 2 is the source."""
    return _star_line_diag(n, gamma, eta, damping, 0.0, 0.0, noise**2)


def _star_line_diag(n: float, gamma: float, eta: float, damping: float,
                    leaf_sq: float, root_sq: float, trace_sq: float) -> float:
    """Angle-difference variance on star line k (root to node k+1), general noise."""
    d, g, e = damping, gamma, eta
    w_star = 2 * d**2 * (1 + n) + g * e * (n - 1) ** 2
    coef = 2 * d**2 + g * e * (n + 1)
    return (
        root_sq / (2 * d * g * n)
        + ((n - 1) / (2 * d * g * n) - (n - 2) * coef / (2 * d * g * n * w_star)) * leaf_sq
        + coef * (trace_sq - leaf_sq - root_sq) / (2 * d * g * n * w_star)
    )


def _star_line_offdiag(n: float, gamma: float, eta: float, damping: float,
                       leaf_k_sq: float, leaf_q_sq: float, root_sq: float,
                       trace_sq: float) -> float:
    """Angle-difference covariance between distinct star lines k and q."""
    d, g, e = damping, gamma, eta
    w_star = 2 * d**2 * (1 + n) + g * e * (n - 1) ** 2
    mid = -2 * d**2 * (n - 1) + g * e * (2 * n - n**2 + 1)
    coef = 2 * d**2 + g * e * (n + 1)
    return (
        w_star * root_sq
        + mid * (leaf_k_sq + leaf_q_sq)
        + coef * (trace_sq - leaf_k_sq - leaf_q_sq - root_sq)
    ) / (2 * d * g * n * w_star)


def critical_size(damping: float, gamma: float, eta: float) -> int:
    """Network size beyond which the source node's frequency variance grows.

    Returns floor(1 + sqrt(1 + 2 d^2 / (gamma eta))); for complete graphs
    larger than this, adding nodes increases the variance at the source.
    """
    if not (damping > 0 and gamma > 0 and eta > 0):
        raise InvalidGraphError("damping, gamma and eta must all be positive")
    return math.floor(1.0 + math.sqrt(1.0 + 2.0 * damping**2 / (gamma * eta)))


def complete_source_frequency_floor(gamma: float, eta: float, damping: float, noise: float) -> float:
    """Size-independent lower bound of the source-node frequency variance."""
    d, b2 = damping, noise**2
    root = (math.sqrt(gamma * eta) + math.sqrt(gamma * eta + 2 * d**2)) ** 2
    return (1 / (2 * d * eta) - gamma / (d * root)) * b2


# ---------------------------------------------------------------------------
# Exact spectral-cluster evaluation of the uniform-ratio solution
# ---------------------------------------------------------------------------


def _cluster_covariance(
    clusters: list[tuple[float, np.ndarray]],
    noise_sq: np.ndarray,
    inc: np.ndarray,
    eta: float,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-ratio frequency and cross blocks from exact eigenvalue clusters.

    ``clusters`` lists (eigenvalue of the inertia-whitened Laplacian,
    spectral projector), ascending, the first being the simple zero mode.
    The explicit spectral-coordinate solution depends on eigenvectors only
    through these projectors, so any orthonormal cluster basis is implied.
    """

    b_sq = np.diag(noise_sq)
    n = b_sq.shape[0]
    q_omega = np.zeros((n, n))
    q_cross_core = np.zeros((n, n))
    for lam_a, proj_a in clusters:
        for lam_b, proj_b in clusters:
            sandwich = proj_a @ b_sq @ proj_b
            if lam_a == 0.0 and lam_b == 0.0:
                q_omega += sandwich / (2 * alpha)
                continue
            # Cluster b is the angle mode, taken first as in S's rows.
            cross, _, frequency = _ratio_weights(lam_b, lam_a, alpha)
            q_omega += frequency * sandwich
            if lam_b > 0.0:
                q_cross_core += cross * sandwich

    q_omega /= eta**2
    q_cross = q_cross_core @ inc / eta**2
    return q_omega, q_cross


def _complete_clusters(p: HomogeneousParams) -> list[tuple[float, np.ndarray]]:
    n = p.n
    mean_proj = np.full((n, n), 1.0 / n)
    return [(0.0, mean_proj), (p.gamma * n / p.eta, np.eye(n) - mean_proj)]


def _star_clusters(p: HomogeneousParams, root: int) -> list[tuple[float, np.ndarray]]:
    n = p.n
    mean_proj = np.full((n, n), 1.0 / n)
    heavy = np.full(n, -1.0)
    heavy[root] = n - 1.0
    heavy_proj = np.outer(heavy, heavy) / (n * (n - 1.0))
    middle_proj = np.eye(n) - mean_proj - heavy_proj
    return [
        (0.0, mean_proj),
        (p.gamma / p.eta, middle_proj),
        (p.gamma * n / p.eta, heavy_proj),
    ]


# ---------------------------------------------------------------------------
# Report builders
# ---------------------------------------------------------------------------


def _complete_blocks(p: HomogeneousParams, graph: WeightedGraph) -> CovarianceReport:
    """Covariance blocks of the homogeneous complete ``graph``.

    The angle block is (1 / (2 d gamma n)) C^T B^2 C, the same as the
    zero-inertia block of :func:`complete_first_order`; it reaches
    :func:`make_report` as the pair (C^T[:, s], diag(b_s^2) / (2 d gamma n))
    over the noisy nodes s alone (the other nodes' terms are exact zeros).
    The frequency diagonal follows the per-node display; remaining entries
    come from the exact cluster evaluation.
    """
    inc = incidence(graph)
    alpha = p.damping / p.eta

    q_omega, q_cross = _cluster_covariance(_complete_clusters(p), p.noise_sq, inc, p.eta, alpha)
    np.fill_diagonal(q_omega, _complete_frequency_diag(
        p.n, p.gamma, p.eta, p.damping, p.noise_sq, p.trace_noise_sq
    ))
    noisy = np.flatnonzero(p.noise_sq)
    core = np.diag(p.noise_sq[noisy]) / (2 * p.damping * p.gamma * p.n)
    return make_report(
        (inc.T[:, noisy], core), q_omega, q_cross, METHOD_CLOSED, {"canonical_kind": "complete"}
    )


def _star_angle_block(p: HomogeneousParams, eta: float, leaf: np.ndarray, root: int) -> np.ndarray:
    """Angle block of a star whose line k runs from ``root`` to ``leaf[k]``.

    ``eta`` is passed apart from ``p`` so that eta = 0 gives the
    first-order block.
    """
    b_sq, trace_sq = p.noise_sq, p.trace_noise_sq
    leaf_sq = b_sq[leaf]
    q_delta = _star_line_offdiag(
        p.n, p.gamma, eta, p.damping, leaf_sq[:, None], leaf_sq[None, :], b_sq[root], trace_sq
    )
    # Line pair (k, q) is evaluated with the lower leaf first and mirrored:
    # the formula is symmetric only in exact arithmetic.
    q_delta = np.where(leaf[:, None] > leaf[None, :], q_delta.T, q_delta)
    np.fill_diagonal(q_delta, _star_line_diag(
        p.n, p.gamma, eta, p.damping, leaf_sq, b_sq[root], trace_sq
    ))
    return q_delta


def _star_blocks(p: HomogeneousParams, graph: WeightedGraph, root: int) -> CovarianceReport:
    """Covariance blocks of the homogeneous star ``graph`` rooted at ``root``: angle
    entries and frequency diagonal by the displays, the rest by cluster evaluation."""
    inc = incidence(graph)
    alpha = p.damping / p.eta
    b_sq = p.noise_sq
    trace_sq = p.trace_noise_sq
    # Line k joins the root to leaf[k]; its sign is +1 when it leaves the root.
    outward = graph.tails == root
    leaf = np.where(outward, graph.heads, graph.tails)
    sign = np.where(outward, 1.0, -1.0)
    q_delta = _star_angle_block(p, p.eta, leaf, root) * (sign[:, None] * sign[None, :])

    q_omega, q_cross = _cluster_covariance(_star_clusters(p, root), b_sq, inc, p.eta, alpha)
    diag = _star_leaf_frequency_diag(p.n, p.gamma, p.eta, p.damping, b_sq, b_sq[root], trace_sq)
    diag[root] = _complete_frequency_diag(p.n, p.gamma, p.eta, p.damping, b_sq[root], trace_sq)
    np.fill_diagonal(q_omega, diag)
    return make_report(q_delta, q_omega, q_cross, METHOD_CLOSED, {"canonical_kind": "star"})


def closed_form_report(lin: LinearizedSystem) -> CovarianceReport:
    """Closed-form covariance of a homogeneous complete or star network, in
    its own node and line order.

    Raises AssumptionViolatedError when line weights, inertia or damping
    (checked in that order) are not uniform, or when the topology is
    neither complete nor a star.  The star's root is its node of degree
    n - 1.  The kind is recorded as the ``canonical_kind`` diagnostic.
    """
    n, m = lin.node_count, lin.line_count
    p = HomogeneousParams(
        n,
        uniform_value(lin.graph.weights, "line weights", "lines"),
        uniform_value(lin.inertia, "inertia values"),
        uniform_value(lin.damping, "damping values"),
        lin.noise,
    )
    degree = np.bincount(np.concatenate((lin.graph.tails, lin.graph.heads)), minlength=n)
    if m == n * (n - 1) // 2:
        return _complete_blocks(p, lin.graph)
    if m == n - 1 and degree.max() == n - 1:
        return _star_blocks(p, lin.graph, int(degree.argmax()))
    raise AssumptionViolatedError(
        "closed forms defined only for complete/star topologies; "
        f"this network has {n} nodes and {m} lines with neither shape"
    )


def _require_single_source(p: HomogeneousParams, source: int) -> float:
    nonzero = np.flatnonzero(p.noise_sq)
    if nonzero.size != 1 or nonzero[0] != source - 1:
        raise AssumptionViolatedError(
            f"exactly one disturbance source at node {source} required; "
            f"nonzero noise at nodes {[int(i) + 1 for i in nonzero]}"
        )
    return float(p.noise[source - 1])


def complete_single_source(p: HomogeneousParams, source: int) -> SingleSourceSummary:
    """Scalar variances when a complete graph is disturbed at one node only."""
    b = _require_single_source(p, source)
    return SingleSourceSummary(
        source_frequency_variance=complete_source_frequency(p.n, p.gamma, p.eta, p.damping, b),
        other_frequency_variance=complete_other_frequency(p.n, p.gamma, p.eta, p.damping, b),
        incident_line_variance=b**2 / (2 * p.damping * p.gamma * p.n),
        other_line_variance=0.0,
    )


def star_single_source_leaf(p: HomogeneousParams) -> StarLeafSummary:
    """Star graph disturbed at leaf node 2 only: the displayed scalar set."""
    b = _require_single_source(p, 2)
    return StarLeafSummary(
        root_frequency_variance=complete_other_frequency(p.n, p.gamma, p.eta, p.damping, b),
        leaf_frequency_variance=star_leaf_frequency(p.n, p.gamma, p.eta, p.damping, b),
        other_frequency_variance=star_other_frequency(p.n, p.gamma, p.eta, p.damping, b),
        source_line_variance=star_source_line(p.n, p.gamma, p.eta, p.damping, b),
        other_line_variance=star_other_line(p.n, p.gamma, p.eta, p.damping, b),
    )


def complete_first_order(p: HomogeneousParams) -> np.ndarray:
    """Zero-inertia angle-difference covariance on the complete graph.

    Identical to the inertial result: (1 / (2 d gamma n)) C^T B^2 C, where
    C is the canonical complete incidence.
    """
    inc = incidence(canonical_complete(p.n, p.gamma))
    return inc.T @ (p.noise_sq[:, None] * inc) / (2 * p.damping * p.gamma * p.n)


def star_first_order(p: HomogeneousParams) -> np.ndarray:
    """Zero-inertia angle-difference covariance on the canonical star graph:
    the star angle block at eta = 0."""
    return _star_angle_block(p, 0.0, np.arange(1, p.n), 0)
