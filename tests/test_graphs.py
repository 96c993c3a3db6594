"""Graph structure, Laplacian/incidence matrices and whitened spectra.

The loop functions below are the per-edge references that the array-backed
``graphs`` implementations must match exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfluct import (
    InvalidGraphError,
    ShapeError,
    WeightedGraph,
    canonical_complete,
    canonical_star,
    incidence,
    is_connected,
    laplacian,
    whitened_spectrum,
)
from gridfluct.graphs import DEGENERACY_GAP, _fix_eigenvector_signs

from conftest import random_connected_graph


def loop_validation_error(n, edges):
    seen = set()
    for k, (i, j, w) in enumerate(edges, start=1):
        if not (1 <= i <= n and 1 <= j <= n):
            return f"edge {k}: node index out of range 1..{n}"
        if i == j:
            return f"edge {k}: self-loop at node {i}"
        pair = (min(i, j), max(i, j))
        if pair in seen:
            return f"edge {k}: duplicate line between nodes {pair[0]} and {pair[1]}"
        seen.add(pair)
        if not w > 0:
            return f"edge {k}: weight must be positive, got {w}"
    return None


def loop_laplacian(n, edges):
    lap = np.zeros((n, n))
    for i, j, w in edges:
        a, b = i - 1, j - 1
        lap[a, b] -= w
        lap[b, a] -= w
        lap[a, a] += w
        lap[b, b] += w
    return lap


def loop_is_connected(n, edges):
    neighbours = [[] for _ in range(n)]
    for i, j, _ in edges:
        neighbours[i - 1].append(j - 1)
        neighbours[j - 1].append(i - 1)
    seen, stack = {0}, [0]
    while stack:
        for u in neighbours[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def loop_fix_signs(vectors):
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        lead = col[np.abs(col) > 1e-8 * np.abs(col).max()][0]
        if lead < 0:
            out[:, k] = -col
    return out


def loop_degeneracy_groups(eigenvalues):
    """Ascending eigenvalues clustered where the step from the previous one is
    at most DEGENERACY_GAP times max(1, max |eigenvalue|)."""
    scale = max(1.0, float(np.abs(eigenvalues).max(initial=0.0)))
    groups = [[0]]
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[i - 1] <= DEGENERACY_GAP * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def random_edges(rng, n, prob):
    """Random simple edges in random order and orientation (maybe disconnected)."""
    edges = [(i, j, float(rng.uniform(0.5, 3.0)))
             for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < prob]
    edges = [(j, i, w) if rng.random() < 0.5 else (i, j, w) for i, j, w in edges]
    return [edges[k] for k in rng.permutation(len(edges))]


def random_tree_edges(rng, n, shape):
    """Spanning path or random recursive tree on randomly labelled nodes, its
    lines in random order and orientation."""
    label = rng.permutation(n) + 1
    parents = range(n - 1) if shape == "path" else (int(rng.integers(0, k)) for k in range(1, n))
    edges = [(int(label[k + 1]), int(label[p]), 1.0) for k, p in enumerate(parents)]
    edges = [(j, i, w) if rng.random() < 0.5 else (i, j, w) for i, j, w in edges]
    return [edges[k] for k in rng.permutation(len(edges))]


def inject_defect(rng, n, edges, defect):
    """Insert a defective edge at a random position of an edge list (a weight
    defect replaces an edge instead)."""
    k = int(rng.integers(0, len(edges) + 1))
    i = int(rng.integers(1, n + 1))
    if defect == "range":
        bad = (i, int(rng.choice([0, -2, n + 1, n + 7])), 1.0)
        bad = bad if rng.random() < 0.5 else (bad[1], i, 1.0)
    elif defect == "self-loop":
        bad = (i, i, 1.0)
    elif defect == "duplicate":
        first = int(rng.integers(0, len(edges)))
        a, b, _ = edges[first]
        k = int(rng.integers(first + 1, len(edges) + 1))
        bad = (a, b, 2.0) if rng.random() < 0.5 else (b, a, 2.0)
    else:  # the same line with a weight that is not positive
        k = int(rng.integers(0, len(edges)))
        a, b, _ = edges.pop(k)
        bad = (a, b, float(rng.choice([0.0, -0.0, -1.5, np.nan, -np.inf])))
    return edges[:k] + [bad] + edges[k:]


class TestWeightedGraph:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(InvalidGraphError, match="duplicate"):
            WeightedGraph(3, ((1, 2, 1.0), (2, 1, 2.0)))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError, match="self-loop"):
            WeightedGraph(3, ((1, 1, 1.0),))

    def test_index_out_of_range(self):
        with pytest.raises(InvalidGraphError, match="out of range"):
            WeightedGraph(3, ((1, 4, 1.0),))

    @given(st.floats(max_value=0.0, allow_nan=False))
    def test_nonpositive_weight_rejected(self, w):
        with pytest.raises(InvalidGraphError, match="weight"):
            WeightedGraph(2, ((1, 2, w),))

    @given(st.integers(3, 12), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(["range", "self-loop", "duplicate", "weight"]),
                    min_size=1, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_first_defect_named_as_by_the_loop(self, n, seed, defects):
        rng = np.random.default_rng(seed)
        edges = list(random_connected_graph(rng, n).edges)
        for defect in defects:
            edges = inject_defect(rng, n, edges, defect)
        expected = loop_validation_error(n, edges)
        with pytest.raises(InvalidGraphError) as excinfo:
            WeightedGraph(n, edges)
        assert str(excinfo.value) == expected

    def test_arrays_and_incidence_read_only_and_shared_by_with_weights(self):
        g = random_connected_graph(np.random.default_rng(4), 8)
        h = g.with_weights(2.0 * g.weights)
        for arr in (g.tails, g.heads, g.weights, h.weights, incidence(g)):
            assert not arr.flags.writeable
        assert h.tails is g.tails and h.heads is g.heads
        assert incidence(h) is incidence(g)
        assert h.edges == tuple((i, j, 2.0 * w) for i, j, w in g.edges)

    def test_with_weights_rejects_nonpositive_weight(self):
        g = canonical_star(4, 1.0)
        with pytest.raises(InvalidGraphError, match="edge 2: weight must be positive, got nan"):
            g.with_weights([1.0, np.nan, 1.0])


class TestLaplacian:
    def test_complete_three_nodes(self):
        lap = laplacian(canonical_complete(3, 1.0))
        np.testing.assert_array_equal(lap, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_single_edge_weight_two(self):
        lap = laplacian(WeightedGraph(2, ((1, 2, 2.0),)))
        np.testing.assert_array_equal(lap, [[2, -2], [-2, 2]])

    def test_star_three_nodes(self):
        lap = laplacian(canonical_star(3, 1.0))
        np.testing.assert_array_equal(lap, [[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])

    @given(st.integers(2, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        edges = random_edges(rng, n, 0.4)
        assert np.array_equal(laplacian(WeightedGraph(n, edges)), loop_laplacian(n, edges))

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_sums_and_eigenvalue_floor(self, n, seed):
        g = random_connected_graph(np.random.default_rng(seed), n)
        lap = laplacian(g)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12
        assert np.linalg.eigvalsh(lap).min() >= -1e-10


class TestIncidence:
    def test_star_form(self):
        inc = incidence(canonical_star(5, 1.0))
        np.testing.assert_array_equal(inc[0], np.ones(4))
        for i in range(1, 5):
            expected = np.zeros(4)
            expected[i - 1] = -1.0
            np.testing.assert_array_equal(inc[i], expected)

    def test_complete_three_nodes(self):
        inc = incidence(canonical_complete(3, 1.0))
        np.testing.assert_array_equal(inc, [[1, 1, 0], [-1, 0, 1], [0, -1, -1]])

    def test_single_edge(self):
        inc = incidence(WeightedGraph(2, ((1, 2, 1.0),)))
        np.testing.assert_array_equal(inc, [[1], [-1]])

    def test_columns_sum_to_zero(self):
        inc = incidence(random_connected_graph(np.random.default_rng(0), 9))
        np.testing.assert_array_equal(inc.sum(axis=0), np.zeros(inc.shape[1]))

    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_incidence_weight_identity(self, n, seed):
        g = random_connected_graph(np.random.default_rng(seed), n)
        inc = incidence(g)
        recomposed = (inc * g.weights) @ inc.T
        assert np.abs(recomposed - laplacian(g)).max() < 1e-12


class TestCanonicalConstructors:
    def test_complete_edge_count(self):
        assert canonical_complete(5, 1.0).edge_count == 10

    def test_complete_lexicographic_order(self):
        edges = [(i, j) for i, j, _ in canonical_complete(4, 1.0).edges]
        assert edges == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_star_nine_nodes(self):
        g = canonical_star(9, 1.0)
        assert g.edge_count == 8
        assert all(i == 1 for i, _, _ in g.edges)
        assert [j for _, j, _ in g.edges] == list(range(2, 10))

    def test_two_node_complete_is_single_edge(self):
        g = canonical_complete(2, 3.0)
        assert g.edges == ((1, 2, 3.0),)

    @pytest.mark.parametrize("factory", [canonical_complete, canonical_star])
    def test_too_small_rejected(self, factory):
        with pytest.raises(InvalidGraphError):
            factory(1, 1.0)


class TestIsConnected:
    def test_two_disjoint_edges(self):
        g = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
        assert not is_connected(g)

    def test_star(self):
        assert is_connected(canonical_star(4, 1.0))

    def test_path(self):
        assert is_connected(WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1.0))))

    @given(st.one_of(st.tuples(st.just("random"), st.integers(1, 16)),
                     st.tuples(st.sampled_from(["path", "tree"]), st.integers(1, 2000))),
           st.integers(0, 2**32 - 1), st.floats(0.0, 0.6))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_search(self, shape_n, seed, prob):
        shape, n = shape_n
        rng = np.random.default_rng(seed)
        edges = random_edges(rng, n, prob) if shape == "random" else random_tree_edges(rng, n, shape)
        if shape != "random":  # cut about prob lines, so some forests are disconnected
            edges = [edge for edge in edges if rng.random() >= prob / n]
        assert is_connected(WeightedGraph(n, edges)) == loop_is_connected(n, edges)

    def test_very_unequal_weights_still_connected(self):
        # Connectivity is topological: a tiny weight is still an edge.
        assert is_connected(WeightedGraph(3, ((1, 2, 1.0), (2, 3, 1e-10))))


class TestWhitenedSpectrum:
    def test_complete_eigenvalues(self):
        lap = laplacian(canonical_complete(5, 2.0))
        spec = whitened_spectrum(lap, np.ones(5))
        np.testing.assert_allclose(spec.eigenvalues, [0, 10, 10, 10, 10], atol=1e-10)

    def test_star_eigenvalues(self):
        lap = laplacian(canonical_star(4, 1.0))
        spec = whitened_spectrum(lap, np.ones(4))
        np.testing.assert_allclose(spec.eigenvalues, [0, 1, 1, 4], atol=1e-10)

    def test_star_heavy_eigenvector(self):
        n = 4
        spec = whitened_spectrum(laplacian(canonical_star(n, 1.0)), np.ones(n))
        heavy = np.array([n - 1.0, -1.0, -1.0, -1.0])
        heavy /= np.linalg.norm(heavy)
        np.testing.assert_allclose(np.abs(spec.vectors[:, -1]), np.abs(heavy), atol=1e-10)

    def test_uniform_scaling_zero_mode_exact(self):
        n = 7
        spec = whitened_spectrum(laplacian(canonical_star(n, 2.0)), 3.0 * np.ones(n))
        np.testing.assert_array_equal(spec.vectors[:, 0], np.full(n, 1.0 / np.sqrt(n)))

    def test_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 12)
        lap = laplacian(g)
        scaling = rng.uniform(0.5, 2.0, 12)
        spec = whitened_spectrum(lap, scaling)
        n = 12
        np.testing.assert_allclose(spec.vectors.T @ spec.vectors, np.eye(n), atol=1e-10)
        whitened = lap / np.sqrt(scaling)[:, None] / np.sqrt(scaling)[None, :]
        reconstructed = (spec.vectors * spec.eigenvalues) @ spec.vectors.T
        assert np.linalg.norm(whitened - reconstructed) <= 1e-9 * np.linalg.norm(lap)

    def test_zero_mode_orthogonal_to_incidence(self):
        g = random_connected_graph(np.random.default_rng(1), 10)
        spec = whitened_spectrum(laplacian(g), np.ones(10))
        assert np.abs(incidence(g).T @ spec.vectors[:, 0]).max() < 1e-12

    def test_nonsymmetric_rejected(self):
        bad = np.array([[1.0, -1.0], [-0.5, 0.5]])
        with pytest.raises(ShapeError):
            whitened_spectrum(bad, np.ones(2))

    def test_nonpositive_scaling_rejected(self):
        lap = laplacian(canonical_complete(3, 1.0))
        with pytest.raises(ShapeError):
            whitened_spectrum(lap, np.array([1.0, -1.0, 1.0]))

    @given(st.integers(3, 8), st.floats(0.0, 2.0), st.floats(1.0, 1e6), st.floats(-1e-10, 1e-10))
    @settings(max_examples=200, deadline=None)
    def test_simple_zero_rule_matches_degeneracy_groups(self, n, ratio, top, zero):
        # The first gap is `ratio` times DEGENERACY_GAP at the spectrum's own
        # scale; the null direction replaces the first eigenvector exactly
        # when the reference puts the zero eigenvalue in a cluster of its own.
        second = zero + ratio * DEGENERACY_GAP * top
        eigenvalues = np.concatenate(([zero], np.linspace(second, top, n - 1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", lambda a: (eigenvalues.copy(), np.eye(n)))
            spec = whitened_spectrum(laplacian(canonical_complete(n, 1.0)), np.ones(n))
        replaced = not np.array_equal(spec.vectors[:, 0], np.eye(n)[:, 0])
        assert replaced == (len(loop_degeneracy_groups(eigenvalues)[0]) == 1)

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sign_fix_bit_identical_to_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        vectors = np.linalg.qr(rng.standard_normal((n, n)))[0]
        vectors[0, : n // 2] = 1e-12  # leading entries below the threshold
        assert np.array_equal(_fix_eigenvector_signs(vectors), loop_fix_signs(vectors))
