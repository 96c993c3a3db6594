"""Undirected weighted graphs and their matrix representations.

Nodes are labelled 1..n (the convention used for the canonical complete
and star constructions); matrix row/column ``i - 1`` corresponds to node
``i``.  Edge order is significant: edge ``k`` (1-based) defines line
index ``k`` and its stored orientation fixes the incidence signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, InvalidGraphError, ShapeError

# Relative gap below which adjacent eigenvalues are treated as degenerate.
DEGENERACY_GAP = 1e-9


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive edge weights and oriented edges.

    ``edges`` is an ordered tuple of ``(i, j, weight)`` with 1-based node
    indices; the pair order ``i -> j`` fixes the incidence orientation of
    that line.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise InvalidGraphError(f"node_count must be positive, got {self.node_count}")
        seen = set()
        for k, (i, j, w) in enumerate(self.edges, start=1):
            if not (1 <= i <= self.node_count and 1 <= j <= self.node_count):
                raise InvalidGraphError(f"edge {k}: node index out of range 1..{self.node_count}")
            if i == j:
                raise InvalidGraphError(f"edge {k}: self-loop at node {i}")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise InvalidGraphError(f"edge {k}: duplicate line between nodes {pair[0]} and {pair[1]}")
            seen.add(pair)
            if not w > 0:
                raise InvalidGraphError(f"edge {k}: weight must be positive, got {w}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, _, w in self.edges], dtype=float)

    def with_weights(self, weights) -> "WeightedGraph":
        """Copy of this graph with the same edges but new weights."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.edge_count,):
            raise ShapeError(f"expected {self.edge_count} weights, got shape {weights.shape}")
        return WeightedGraph(
            self.node_count,
            tuple((i, j, float(w)) for (i, j, _), w in zip(self.edges, weights)),
        )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a whitened Laplacian.

    ``degeneracy_groups`` partitions the eigenvalue indices into clusters of
    (numerically) equal eigenvalues; any orthonormal basis of a cluster's
    eigenspace is an equally valid set of columns.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    degeneracy_groups: tuple[tuple[int, ...], ...]


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """Weighted Laplacian: -w_ij off the diagonal, row sums zero."""
    n = graph.node_count
    lap = np.zeros((n, n))
    for i, j, w in graph.edges:
        a, b = i - 1, j - 1
        lap[a, b] -= w
        lap[b, a] -= w
        lap[a, a] += w
        lap[b, b] += w
    return lap


def incidence(graph: WeightedGraph) -> np.ndarray:
    """Node-by-line incidence matrix: +1 at each edge's source, -1 at its sink."""
    mat = np.zeros((graph.node_count, graph.edge_count))
    for k, (i, j, _) in enumerate(graph.edges):
        mat[i - 1, k] = 1.0
        mat[j - 1, k] = -1.0
    return mat


def canonical_complete(n: int, weight: float = 1.0) -> WeightedGraph:
    """Complete graph on n nodes, lines in lexicographic (i, j) order, i < j."""
    if n < 2:
        raise InvalidGraphError(f"complete graph needs at least 2 nodes, got {n}")
    edges = tuple((i, j, float(weight)) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return WeightedGraph(n, edges)


def canonical_star(n: int, weight: float = 1.0) -> WeightedGraph:
    """Star graph on n nodes with root 1; line k connects the root to node k + 1."""
    if n < 2:
        raise InvalidGraphError(f"star graph needs at least 2 nodes, got {n}")
    edges = tuple((1, j, float(weight)) for j in range(2, n + 1))
    return WeightedGraph(n, edges)


def is_connected(graph: WeightedGraph) -> bool:
    """True iff every node is reachable from node 1, whatever the weights.

    Numerical disconnection is left to the covariance routes' spectra.
    """
    neighbours: list[list[int]] = [[] for _ in range(graph.node_count)]
    for i, j, _ in graph.edges:
        neighbours[i - 1].append(j - 1)
        neighbours[j - 1].append(i - 1)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in neighbours[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == graph.node_count


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first non-negligible entry of each column positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        threshold = 1e-8 * np.abs(col).max()
        lead = col[np.abs(col) > threshold][0]
        if lead < 0:
            out[:, k] = -col
    return out


def degeneracy_groups(eigenvalues: np.ndarray, gap: float = DEGENERACY_GAP) -> tuple[tuple[int, ...], ...]:
    """Cluster ascending eigenvalues whose relative gap is below ``gap``."""
    scale = max(1.0, float(np.abs(eigenvalues).max(initial=0.0)))
    groups: list[list[int]] = [[0]]
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[i - 1] <= gap * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def whitened_spectrum(lap: np.ndarray, scaling) -> SpectralDecomposition:
    """Eigendecomposition of S^{-1/2} L S^{-1/2} for a positive diagonal S.

    Eigenvalues are returned ascending.  For a connected graph the zero
    eigenvalue is simple and its eigenvector is replaced by the exact null
    direction, normalised S^{1/2} 1 (the all-positive choice); under uniform
    scaling this is exactly ones(n)/sqrt(n).  Remaining eigenvectors have
    their leading sign fixed for reproducibility.

    Args:
        lap: symmetric matrix with zero row sums (a weighted Laplacian).
        scaling: diagonal entries of S as a 1-D array.

    Raises:
        ShapeError: if ``lap`` is not square/symmetric with zero row sums,
            or the scaling is not positive with a matching size.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {lap.shape}")
    scale = max(1.0, float(np.abs(lap).max()))
    if np.abs(lap - lap.T).max() > 1e-9 * scale:
        raise ShapeError("matrix is not symmetric within 1e-9 relative tolerance")
    if np.abs(lap.sum(axis=1)).max() > 1e-8 * scale:
        raise ShapeError("matrix does not have zero row sums; not a Laplacian")

    diag = np.asarray(scaling, dtype=float)
    if diag.shape != (lap.shape[0],):
        raise ShapeError(f"scaling size {diag.shape} does not match matrix size {lap.shape[0]}")
    if not np.all(diag > 0):
        raise ShapeError("scaling entries must all be positive")

    inv_sqrt = 1.0 / np.sqrt(diag)
    whitened = inv_sqrt[:, None] * lap * inv_sqrt[None, :]
    whitened = 0.5 * (whitened + whitened.T)
    eigenvalues, vectors = np.linalg.eigh(whitened)
    vectors = _fix_eigenvector_signs(vectors)

    groups = degeneracy_groups(eigenvalues)
    # Simple zero eigenvalue: overwrite with the exact null direction.
    if len(groups[0]) == 1 and abs(eigenvalues[0]) <= DEGENERACY_GAP * max(1.0, eigenvalues[-1]):
        if np.all(diag == diag[0]):
            vectors[:, 0] = np.full(lap.shape[0], 1.0 / np.sqrt(lap.shape[0]))
        else:
            null = np.sqrt(diag)
            vectors[:, 0] = null / np.linalg.norm(null)
    return SpectralDecomposition(eigenvalues, vectors, groups)


def require_connected(graph: WeightedGraph) -> None:
    """Raise DisconnectedGraphError unless ``graph`` is connected."""
    if not is_connected(graph):
        raise DisconnectedGraphError(f"graph with {graph.node_count} nodes is not connected")
