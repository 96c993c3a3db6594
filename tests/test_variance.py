"""Covariance engine: reduced system, numeric/uniform-ratio/first-order routes."""

import numpy as np
import pytest
import scipy.linalg

from gridfluct import (
    AssumptionViolatedError,
    DisconnectedGraphError,
    InternalInvariantError,
    LinearizedSystem,
    WeightedGraph,
    asymptotic_variance_numeric,
    asymptotic_variance_uniform_ratio,
    canonical_complete,
    canonical_star,
    default_sim_config,
    first_order_variance,
    incidence,
    laplacian,
    reduce_system,
    simulate_covariance,
    trace_frequency_variance,
    uniform_ratio_blocks,
    whitened_spectrum,
)
from gridfluct import closedforms, lyapunov, pipeline, variance
from gridfluct.graphs import SpectralDecomposition
from gridfluct.variance import PSD_FLOOR, make_report

from conftest import (
    count_congruence_fills,
    full_output_matrix,
    homogeneous_system,
    lyapunov_solve_kron,
    random_connected_graph,
    table1_complete_system,
    uniform_ratio_system,
)


def max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


def report_max_rel(left, right) -> float:
    return max(
        max_rel(left.q_delta, right.q_delta),
        max_rel(left.q_omega, right.q_omega),
        max_rel(left.q_delta_omega, right.q_delta_omega),
    )


def random_heterogeneous_system(rng, n):
    graph = random_connected_graph(rng, n)
    return LinearizedSystem(
        graph,
        rng.uniform(0.2, 3.0, n),
        rng.uniform(0.2, 3.0, n),
        rng.uniform(0.0, 2.0, n),
    )


def shuffled_complete_system(rng, n):
    """Homogeneous complete graph, lines in random order, about half flipped."""
    edges = list(canonical_complete(n, 10.0).edges)
    edges = [edges[k] for k in rng.permutation(len(edges))]
    edges = [(j, i, w) if rng.random() < 0.5 else (i, j, w) for i, j, w in edges]
    noise = np.zeros(n)
    noise[[1, 4, 7]] = [0.04, 0.1, 0.02]
    ones = np.ones(n)
    return LinearizedSystem(WeightedGraph(n, tuple(edges)), 0.5 * ones, 0.3 * ones, noise)


def sparse_uniform_ratio_system(rng, n):
    graph = random_connected_graph(rng, n, extra_edge_prob=0.1)
    inertia = rng.uniform(0.2, 3.0, n)
    return LinearizedSystem(graph, inertia, 0.6 * inertia, rng.uniform(0.0, 2.0, n))


class TestMakeReport:
    def test_invariant_failures_are_internal_errors(self):
        with pytest.raises(InternalInvariantError, match="symmetry"):
            make_report(np.array([[1.0, 1.0], [0.0, 1.0]]), None, None, "test")
        with pytest.raises(InternalInvariantError, match="positive semi-definite"):
            make_report(np.diag([1.0, -1.0]), None, None, "test")
        lines = np.random.default_rng(3).standard_normal((5, 2))
        with pytest.raises(InternalInvariantError, match="angle-difference block lost symmetry"):
            make_report((lines, np.array([[1.0, 1.0], [0.0, 1.0]])), None, None, "test")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_blocks_are_internal_errors(self, bad):
        lines = np.random.default_rng(3).standard_normal((5, 2))
        core, finite = np.diag([1.0, bad]), np.eye(2)
        cases = [
            ((core, None, None), "angle-difference"),
            (((lines, core), None, None), "angle-difference"),
            ((finite, core, None), "frequency"),
            ((finite, (lines, core), None), "frequency"),
            ((finite, finite, np.full((2, 2), bad)), "cross"),
        ]
        for blocks, name in cases:
            with pytest.raises(InternalInvariantError, match=f"^{name} block has non-finite"):
                make_report(*blocks, "test")
        # Finite factors whose product overflows, as built without numpy's
        # overflow error.
        with np.errstate(over="ignore"), pytest.raises(InternalInvariantError, match="non-finite"):
            make_report((np.full((3, 1), 1e200), np.ones((1, 1))), None, None, "test")

    def test_finite_block_past_the_overflow_bound_is_accepted(self):
        # 4 k max|L X| max|L| is infinite, so the diagonal scale is read from
        # the built block, whose every entry is finite.
        lines, core = np.array([[1.0, 0.0], [0.0, 1e300]]), np.diag([1e300, 1e-300])
        report = make_report((lines, core), None, None, "test")
        assert np.array_equal(report.q_delta, np.diag([1e300, 1e300]))

    def test_factored_psd_verdict_matches_dense(self):
        """The core check raises exactly when the dense block's smallest
        eigenvalue is below the floor, with the block's nonzero eigenvalues
        placed at and around the floor, for tall and square maps alike."""
        rng = np.random.default_rng(2024)
        verdicts = {True: [], False: []}
        for trial in range(300):
            m = int(rng.integers(3, 40))
            # Every third map is square, and its own PSD factor.
            square = trial % 3 == 0
            k = m if square else int(rng.integers(1, m))
            lines = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3, (m, k))
            basis, _ = np.linalg.qr(rng.standard_normal((k, k)))
            core = (basis * 10.0 ** rng.uniform(-3, 3, k)) @ basis.T
            scale = max(1.0, np.abs(lines @ core @ lines.T).max())
            # Set the smallest eigenvalue of R X R^T, that is the dense
            # block's smallest nonzero one, to a multiple of the floor.
            r = np.linalg.qr(lines, mode="r")
            eigs, vecs = np.linalg.eigh(r @ core @ r.T)
            eigs[0] = PSD_FLOOR * scale * rng.choice([0.0, 0.5, 0.9, 1.1, 2.0, -1.0])
            target = (vecs * eigs) @ vecs.T
            core = np.linalg.solve(r, np.linalg.solve(r, target).T)
            block = lines @ core @ lines.T

            sym = 0.5 * (block + block.T)
            floor = PSD_FLOOR * max(1.0, np.abs(block).max())
            dense_rejects = bool(np.linalg.eigvalsh(sym).min() < floor)
            try:
                make_report((lines, core), None, None, "test")
                factored_rejects = False
            except InternalInvariantError as exc:
                assert "positive semi-definite" in str(exc)
                factored_rejects = True
            assert factored_rejects == dense_rejects
            verdicts[square].append(dense_rejects)
        for found in verdicts.values():
            assert 0 < sum(found) < len(found)

    def test_non_psd_core_is_rejected(self):
        rng = np.random.default_rng(5)
        lines = rng.standard_normal((30, 4))
        core = np.diag([1.0, 2.0, 0.5, -1.0])
        with pytest.raises(InternalInvariantError, match="angle-difference block is not positive"):
            make_report((lines, core), None, None, "test")
        # A square factor gives the same verdict.
        square = rng.standard_normal((4, 4))
        with pytest.raises(InternalInvariantError, match="angle-difference block is not positive"):
            make_report((square, core), None, None, "test")

    def test_gram_factor_of_a_tall_modal_map(self, monkeypatch):
        # complete n=24's 276 x 23 line map.  Line weights and inertia are
        # spread, so that L^T L is not diagonal: with equal inertia it is a
        # multiple of I, and with equal weights it is diagonal.  A valid
        # core whose block has one zero eigenvalue passes; moving that
        # eigenvalue by -1e-9 scale raises, and by -5e-11 scale (above the
        # -1e-10 scale floor) passes.
        rng = np.random.default_rng(24)
        base = shuffled_complete_system(rng, 24)
        edges = tuple((i, j, w * rng.uniform(0.5, 1.5)) for i, j, w in base.graph.edges)
        inertia = rng.uniform(0.2, 3.0, 24)
        lin = LinearizedSystem(WeightedGraph(24, edges), inertia, 0.6 * inertia, base.noise)
        lines = variance.modal_basis(lin, "inertia").lines
        m, k = lines.shape
        assert m > k
        factor = variance._psd_factor(lines)
        gram = lines.T @ lines
        assert np.abs(gram - np.diag(gram.diagonal())).max() > 0.01 * np.abs(gram).max()
        assert factor.shape == (k, k)
        assert np.abs(factor.T @ factor - gram).max() <= 1e-13 * np.abs(gram).max()

        # The numeric route's G, scaled so that its block's largest diagonal
        # entry is about 100; then R G R^T with its smallest eigenvalue set
        # to 0, R from a QR of the map, so that L X L^T = Q (R X R^T) Q^T has
        # known eigenvalues.
        def diagonal(core):
            return np.einsum("ij,ij->i", lines @ core, lines).max()

        g = variance.asymptotic_variance_numeric(lin).delta.core
        g = g * (100.0 / diagonal(g))
        r = np.linalg.qr(lines, mode="r")
        eigs, vecs = np.linalg.eigh(r @ g @ r.T)
        eigs[0] = 0.0
        core = np.linalg.solve(r, np.linalg.solve(r, (vecs * eigs) @ vecs.T).T)
        direction = np.linalg.solve(r, vecs[:, 0])
        scale = diagonal(core)
        assert 50.0 < scale < 200.0
        make_report((lines, core), None, None, "test")
        make_report((lines, core - 5e-11 * scale * np.outer(direction, direction)), None, None, "test")
        with pytest.raises(InternalInvariantError, match="angle-difference block is not positive"):
            make_report((lines, core - 1e-9 * scale * np.outer(direction, direction)), None, None, "test")

        # The numeric route's own check on this map, with a negated solution.
        real_solve = variance.lyapunov_solve_with_abscissa

        def negated(a, w):
            q, abscissa = real_solve(a, w)
            return -q, abscissa

        monkeypatch.setattr(variance, "lyapunov_solve_with_abscissa", negated)
        with pytest.raises(InternalInvariantError, match="angle-difference block is not positive"):
            variance.asymptotic_variance_numeric(lin)

    @pytest.mark.parametrize(
        "network, routes",
        [
            (lambda rng: shuffled_complete_system(rng, 12), ("numeric", "uniform", "first-order", "closed")),
            (lambda rng: sparse_uniform_ratio_system(rng, 20), ("numeric", "uniform", "first-order")),
        ],
        ids=["complete-shuffled", "sparse"],
    )
    def test_routes_pass_a_consistent_factor(self, monkeypatch, network, routes):
        lin = network(np.random.default_rng(12))
        n, m = lin.node_count, lin.line_count
        assert m > n
        eig_sizes = []
        real_eigvalsh = np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            eig_sizes.append(a.shape[0])
            return real_eigvalsh(a, *args, **kwargs)

        captured = []
        real_make_report = variance.make_report

        def spy(*args, **kwargs):
            start = len(eig_sizes)
            report = real_make_report(*args, **kwargs)
            captured.append((args[0], report, eig_sizes[start:]))
            return report

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(variance, "make_report", spy)
        monkeypatch.setattr(closedforms, "make_report", spy)
        run = {
            "numeric": variance.asymptotic_variance_numeric,
            "uniform": variance.asymptotic_variance_uniform_ratio,
            "first-order": variance.first_order_variance,
            "closed": closedforms.closed_form_report,
        }
        for route in routes:
            captured.clear()
            run[route](lin)
            assert len(captured) == 1, route
            (lines, core), report, sizes = captured[0]
            k = lines.shape[1]
            assert lines.shape[0] == m and core.shape == (k, k)
            q_delta = report.q_delta
            assert np.abs(lines @ core @ lines.T - q_delta).max() <= 1e-12 * np.abs(q_delta).max()
            # The angle block is checked first, on its k x k core: n - 1
            # modes, or the n nodes of the closed form's incidence factor.
            assert sizes[0] == k <= (n if route == "closed" else n - 1), route
            assert max(sizes) <= n, route


    def test_every_route_returns_exactly_symmetric_blocks(self):
        rng = np.random.default_rng(24)
        complete = shuffled_complete_system(rng, 24)
        assert complete.line_count > variance.PANEL_ROWS
        root, leaves = 6, [i for i in range(1, 13) if i != 6]
        edges = [(root, j, 10.0) if rng.random() < 0.5 else (j, root, 10.0)
                 for j in rng.permutation(leaves)]
        ones = np.ones(12)
        star = LinearizedSystem(WeightedGraph(12, tuple(edges)), 0.5 * ones, 0.3 * ones, 0.1 * ones)
        reports = [
            variance.asymptotic_variance_numeric(complete),
            variance.asymptotic_variance_uniform_ratio(complete),
            variance.first_order_variance(complete),
            closedforms.closed_form_report(complete),
            closedforms.closed_form_report(star),
            simulate_covariance(complete, default_sim_config(complete, trajectories=2)),
        ]
        for report in reports:
            for block in (report.q_delta, report.q_omega):
                assert block is None or np.array_equal(block, block.T), report.method
        assert reports[4].diagnostics["canonical_kind"] == "star"


class TestFactoredReport:
    """A pair (L, X) stays unbuilt in the report until its block is read."""

    @pytest.mark.parametrize(
        "network, fewer_lines, routes",
        [
            (lambda rng: shuffled_complete_system(rng, 24), variance.PANEL_ROWS,
             ("numeric", "uniform", "first-order", "closed")),
            (lambda rng: sparse_uniform_ratio_system(rng, 30), 30, ("numeric", "uniform", "first-order")),
        ],
        ids=["complete-shuffled", "sparse"],
    )
    def test_factor_entries_equal_built_entries(self, network, fewer_lines, routes):
        lin = network(np.random.default_rng(24))
        assert lin.line_count > fewer_lines
        for route in routes:
            report = pipeline.ROUTES[route].run(lin, None)
            assert isinstance(report.delta, variance.Congruence), route
            for quantity, built in (("delta", report.q_delta), ("omega", report.q_omega)):
                if built is None:
                    continue
                size = built.shape[0]
                read = np.array([[pipeline._quantity_value(report, quantity, i, j)[0]
                                  for j in range(1, size + 1)] for i in range(1, size + 1)])
                assert np.abs(read - built).max() <= 1e-15 * np.abs(built).max(), (route, quantity)

    @pytest.mark.parametrize(
        "network",
        [lambda rng: shuffled_complete_system(rng, 30), lambda rng: sparse_uniform_ratio_system(rng, 100)],
        ids=["complete-30", "sparse-100"],
    )
    def test_entry_reads_agree_with_the_built_block_to_rounding(self, network):
        # A read entry and the built one are summed in different orders, so
        # they may differ in the last bits, never by more than rounding.
        rng = np.random.default_rng(30)
        lin = network(rng)
        for route in ("numeric", "uniform", "first-order"):
            report = pipeline.ROUTES[route].run(lin, None)
            for block in (report.delta, report.omega):
                if not isinstance(block, variance.Congruence):
                    continue
                built = block.array
                pairs = rng.integers(0, built.shape[0], size=(2000, 2))
                read = np.array([block[i, j] for i, j in pairs])
                gap = np.abs(read - built[pairs[:, 0], pairs[:, 1]]).max()
                assert gap <= 1e-14 * np.abs(built).max(), route

    def test_blocks_are_built_once_and_only_when_read(self, monkeypatch):
        builds = count_congruence_fills(monkeypatch, "array")
        lin = shuffled_complete_system(np.random.default_rng(5), 12)
        n, m = lin.node_count, lin.line_count
        report = variance.asymptotic_variance_numeric(lin)
        assert report.line_count == m and report.node_count == n
        pipeline._quantity_value(report, "delta", 3, 7)
        pipeline._quantity_value(report, "omega", 2, 2)
        assert builds == []
        assert isinstance(report.cross, np.ndarray)
        assert report.q_delta_omega is report.q_delta_omega
        assert report.q_delta_omega.shape == (n, m)
        q_delta = report.q_delta
        assert report.q_delta is q_delta
        assert builds == [(m, n - 1)]
        assert report.q_omega is report.q_omega
        assert builds == [(m, n - 1), (n, n)]

    def test_building_a_checked_block_forms_its_product_once(self, monkeypatch):
        # The PSD check forms L X; the build reads the same L X.
        products = count_congruence_fills(monkeypatch, "left")
        lin = shuffled_complete_system(np.random.default_rng(6), 12)
        n, m = lin.node_count, lin.line_count
        report = variance.asymptotic_variance_numeric(lin)
        assert products == [(m, n - 1), (n, n)]
        assert report.q_delta.shape == (m, m) and report.q_omega.shape == (n, n)
        assert products == [(m, n - 1), (n, n)]


def panel_build(lines, core):
    """L X L^T from whole row panels, each one product, with the diagonal
    square averaged with its transpose: the build before panels were tiled."""
    m, rows = lines.shape[0], variance.PANEL_ROWS
    left, out = lines @ core, np.empty((m, m))
    for i in range(0, m, rows):
        end = min(i + rows, m)
        panel = left[i:end] @ lines[i:].T
        square = panel[:, : end - i]
        square[...] = 0.5 * (square + square.T)
        out[i:end, i:] = panel
        out[i:, i:end] = panel.T
    return out


class TestTiles:
    @pytest.mark.parametrize(
        "m, k",
        [(7, 3), (300, 40), (512, 40), (513, 40), (1100, 40), (1770, 59), (300, 1), (1100, 1)],
    )
    def test_tile_build_matches_panel_build(self, m, k):
        # Bit for bit while a panel is at most two tiles wide (m <= 512), or
        # when each entry is one product (k = 1); within rounding of the
        # block's largest entry otherwise.  Zero rows, as an incidence
        # factor has, give products of both signs of zero.
        rng = np.random.default_rng(m)
        lines = rng.standard_normal((m, k))
        core = rng.standard_normal((k, k)) @ rng.standard_normal((k, k))
        core = 0.5 * (core + core.T)
        lines[rng.random(m) < 0.3] = 0.0
        built, old = variance.Congruence(lines, core).array, panel_build(lines, core)
        assert np.array_equal(built, built.T)
        if m <= 2 * variance.TILE_COLS or k == 1:
            assert built.tobytes() == old.tobytes()
        else:
            assert np.abs(built - old).max() <= 1e-15 * np.abs(old).max()

    @pytest.mark.parametrize("m", [7, 512, 513, 1100])
    def test_tiles_cover_the_upper_triangle_once(self, m):
        block = variance.Congruence(np.ones((m, 1)), np.ones((1, 1)))
        covered = np.zeros((m, m), dtype=int)
        for i, j, tile in variance.upper_tiles(block):
            rows, columns = tile.shape
            assert rows <= variance.PANEL_ROWS and columns <= 2 * variance.TILE_COLS
            assert m - i <= 2 * variance.TILE_COLS or columns <= variance.TILE_COLS
            covered[i:i + rows, j:j + columns] += 1
        # Row r is covered once from its panel's first column on.
        first = np.arange(m) // variance.PANEL_ROWS * variance.PANEL_ROWS
        assert np.array_equal(covered, np.arange(m)[None, :] >= first[:, None])


class TestReduceSystem:
    def test_two_node_dimensions(self):
        lin = homogeneous_system("complete", 2, 1.0, 1.0, 1.0, np.ones(2))
        reduced = reduce_system(lin)
        assert reduced.a2.shape == (3, 3)
        assert reduced.b2.shape == (3, 2)
        assert np.linalg.eigvals(reduced.a2).real.max() < 0

    def test_complete_spectrum(self):
        gamma, eta, n = 2.0, 0.5, 5
        lin = homogeneous_system("complete", n, gamma, eta, 1.0, np.ones(n))
        spectral = variance.modal_basis(lin, "inertia").spectral
        expected = [0.0] + [gamma * n / eta] * (n - 1)
        np.testing.assert_allclose(spectral.eigenvalues, expected, atol=1e-9)

    def test_star_spectrum(self):
        gamma, eta, n = 3.0, 2.0, 4
        lin = homogeneous_system("star", n, gamma, eta, 1.0, np.ones(n))
        spectral = variance.modal_basis(lin, "inertia").spectral
        expected = [0.0, gamma / eta, gamma / eta, gamma * n / eta]
        np.testing.assert_allclose(spectral.eigenvalues, expected, atol=1e-9)

    def test_block_structure(self):
        rng = np.random.default_rng(2)
        lin = random_heterogeneous_system(rng, 6)
        reduced = reduce_system(lin)
        n = 6
        spectral = variance.modal_basis(lin, "inertia").spectral
        lam, u = spectral.eigenvalues, spectral.vectors
        np.testing.assert_array_equal(reduced.a2[: n - 1, : n - 1], np.zeros((n - 1, n - 1)))
        np.testing.assert_array_equal(
            reduced.a2[: n - 1, n - 1:], np.hstack([np.zeros((n - 1, 1)), np.eye(n - 1)])
        )
        np.testing.assert_allclose(
            reduced.a2[n - 1:, : n - 1],
            np.vstack([np.zeros(n - 1), -np.diag(lam[1:])]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            reduced.a2[n - 1:, n - 1:],
            -u.T @ np.diag(lin.damping / lin.inertia) @ u,
            atol=1e-12,
        )
        np.testing.assert_array_equal(reduced.b2[: n - 1], np.zeros((n - 1, n)))
        np.testing.assert_allclose(
            reduced.b2[n - 1:],
            u.T @ np.diag(lin.noise / np.sqrt(lin.inertia)),
            atol=1e-12,
        )

    def test_disconnected_rejected(self):
        graph = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
        lin = LinearizedSystem(graph, np.ones(4), np.ones(4), np.ones(4))
        with pytest.raises(DisconnectedGraphError):
            reduce_system(lin)


class TestNumericRoute:
    def test_zero_noise_zero_blocks(self):
        lin = homogeneous_system("star", 4, 1.0, 1.0, 1.0, np.zeros(4))
        report = asymptotic_variance_numeric(lin)
        assert np.abs(report.q_delta).max() == 0.0
        assert np.abs(report.q_omega).max() == 0.0
        assert np.abs(report.q_delta_omega).max() == 0.0

    def test_lyapunov_residual_recorded(self):
        lin = table1_complete_system(8)
        report = asymptotic_variance_numeric(lin)
        assert report.diagnostics["lyapunov_residual"] <= 1e-9

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            lin = random_heterogeneous_system(rng, int(rng.integers(3, 10)))
            reduced = reduce_system(lin)
            q_x = lyapunov_solve_kron(reduced.a2, reduced.b2 @ reduced.b2.T)
            # Output map of the reduced state (angle modes 2..n, then the
            # n frequency modes) to line angle differences and frequencies.
            n, m = lin.node_count, lin.line_count
            vectors = variance.modal_basis(lin, "inertia").spectral.vectors
            nodes_from_modes = vectors / np.sqrt(lin.inertia)[:, None]
            c2 = np.zeros((m + n, 2 * n - 1))
            c2[:m, : n - 1] = incidence(lin.graph).T @ nodes_from_modes[:, 1:]
            c2[m:, n - 1:] = nodes_from_modes
            q_y = c2 @ q_x @ c2.T
            report = asymptotic_variance_numeric(lin)
            assert max_rel(full_output_matrix(report), q_y) <= 1e-10

    def test_runs_without_eigenvalue_routine(self, monkeypatch):
        # The Hurwitz verdict and the spectral abscissa come from the
        # Lyapunov solver's own Schur form.
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvalue routine called on the numeric route")

        lin = random_heterogeneous_system(np.random.default_rng(5), 8)
        expected = lyapunov.assert_hurwitz(reduce_system(lin).a2)
        monkeypatch.setattr(lyapunov, "assert_hurwitz", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        report = asymptotic_variance_numeric(lin)
        abscissa = report.diagnostics["spectral_abscissa"]
        assert abs(abscissa - expected) <= 1e-12 * abs(expected)

    def test_superposition_general_system(self):
        rng = np.random.default_rng(17)
        lin = random_heterogeneous_system(rng, 7)
        total = np.zeros((lin.line_count + 7, lin.line_count + 7))
        for i in range(7):
            single = np.zeros(7)
            single[i] = lin.noise[i]
            part = asymptotic_variance_numeric(
                LinearizedSystem(lin.graph, lin.inertia, lin.damping, single)
            )
            total += full_output_matrix(part)
        combined = full_output_matrix(asymptotic_variance_numeric(lin))
        assert np.abs(total - combined).max() <= 1e-10


class TestUniformRatioRoute:
    def test_r11_formula(self):
        # uniform inertia eta and noise level b: r_11 = b^2 / (2 alpha eta)
        eta, alpha, level = 0.7, 1.3, 0.9
        n = 6
        lin = homogeneous_system("complete", n, 2.0, eta, alpha * eta, np.full(n, level))
        blocks = uniform_ratio_blocks(lin)
        assert blocks.r[0, 0] == pytest.approx(level**2 / (2 * alpha * eta), rel=1e-12)

    def test_matches_numeric_on_heterogeneous_inertia(self):
        rng = np.random.default_rng(40)
        lin = uniform_ratio_system(rng, 8, alpha=1.7)
        numeric = asymptotic_variance_numeric(lin)
        explicit = asymptotic_variance_uniform_ratio(lin)
        assert report_max_rel(explicit, numeric) <= 1e-8

    def test_matches_closed_form_on_benchmark_point(self):
        lin = table1_complete_system(20)
        explicit = asymptotic_variance_uniform_ratio(lin)
        closed = closedforms.closed_form_report(lin)
        assert report_max_rel(explicit, closed) <= 1e-10

    def test_route_equivalence_many_random_graphs(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(3, 16))
            alpha = float(rng.uniform(0.1, 10.0))
            lin = uniform_ratio_system(rng, n, alpha)
            worst = max(
                worst,
                report_max_rel(
                    asymptotic_variance_uniform_ratio(lin),
                    asymptotic_variance_numeric(lin),
                ),
            )
        assert worst <= 1e-8

    def test_nonuniform_ratio_names_offenders(self):
        graph = canonical_complete(4, 1.0)
        inertia = np.ones(4)
        damping = np.array([1.0, 1.0, 1.0, 2.0])
        lin = LinearizedSystem(graph, inertia, damping, np.ones(4))
        with pytest.raises(AssumptionViolatedError, match="nodes"):
            asymptotic_variance_uniform_ratio(lin)

    def test_skew_symmetric_trailing_block(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            lin = uniform_ratio_system(rng, int(rng.integers(3, 12)), float(rng.uniform(0.2, 5)))
            s2 = uniform_ratio_blocks(lin).s[:, 1:]
            assert np.abs(s2 + s2.T).max() <= 1e-10

    def test_g_and_r_symmetric(self):
        lin = uniform_ratio_system(np.random.default_rng(56), 9, 0.8)
        blocks = uniform_ratio_blocks(lin)
        assert np.abs(blocks.g - blocks.g.T).max() <= 1e-12
        assert np.abs(blocks.r - blocks.r.T).max() <= 1e-12

    def test_superposition_entrywise(self):
        rng = np.random.default_rng(77)
        lin = uniform_ratio_system(rng, 6, 2.2)
        combined = full_output_matrix(asymptotic_variance_uniform_ratio(lin))
        total = np.zeros_like(combined)
        for i in range(6):
            single = np.zeros(6)
            single[i] = lin.noise[i]
            total += full_output_matrix(
                asymptotic_variance_uniform_ratio(
                    LinearizedSystem(lin.graph, lin.inertia, lin.damping, single)
                )
            )
        assert np.abs(total - combined).max() <= 1e-10


def rotate_degenerate_clusters(spectral: SpectralDecomposition, rng) -> SpectralDecomposition:
    """Random orthonormal change of basis within each run of eigenvalues whose
    steps are at most 1e-9 times max(1, max |eigenvalue|)."""
    eigs = spectral.eigenvalues
    starts = np.flatnonzero(np.diff(eigs) > 1e-9 * max(1.0, float(np.abs(eigs).max()))) + 1
    vectors = spectral.vectors.copy()
    for idx in np.split(np.arange(len(eigs)), starts):
        if len(idx) > 1:
            block = scipy.linalg.qr(rng.standard_normal((len(idx), len(idx))))[0]
            vectors[:, idx] = vectors[:, idx] @ block
    return SpectralDecomposition(eigs, vectors)


class TestBasisInvariance:
    @pytest.mark.parametrize("route", [asymptotic_variance_numeric, asymptotic_variance_uniform_ratio])
    def test_cluster_rotation_leaves_blocks(self, route, monkeypatch):
        rng = np.random.default_rng(8)
        lin = table1_complete_system(7)
        spectral = whitened_spectrum(lin.laplacian, lin.inertia)
        base = route(lin)
        for _ in range(3):
            rotated = rotate_degenerate_clusters(spectral, rng)
            assert not np.array_equal(rotated.vectors, spectral.vectors)
            monkeypatch.setattr(variance, "whitened_spectrum", lambda lap, scaling: rotated)
            # A new linearization: ``lin`` keeps the basis it computed first.
            other = route(table1_complete_system(7))
            assert np.abs(full_output_matrix(other) - full_output_matrix(base)).max() <= 1e-9


class TestOneSpectrum:
    def test_each_linearization_computes_one_basis_per_whitening(self, monkeypatch):
        # Every route, twice over, on one linearization: one inertia- and one
        # damping-whitened spectrum, and one factorization of each tall map.
        spectra, factored = [], []
        real_spectrum, real_factor = variance.whitened_spectrum, variance._psd_factor

        def spectrum(lap, scaling):
            spectra.append(scaling)
            return real_spectrum(lap, scaling)

        def psd_factor(a):
            if a.shape[0] > a.shape[1]:
                factored.append(a)
            return real_factor(a)

        monkeypatch.setattr(variance, "whitened_spectrum", spectrum)
        monkeypatch.setattr(variance, "_psd_factor", psd_factor)
        for kind in ("complete", "star"):
            spectra.clear()
            factored.clear()
            lin = homogeneous_system(kind, 5, 10.0, 0.5, 0.3, np.array([0.0, 0.04, 0, 0, 0]))
            for _ in range(2):
                for route in pipeline.ROUTES.values():
                    route.run(lin, {"trajectories": 2})
            assert len(spectra) == 2
            assert spectra[0] is lin.inertia and spectra[1] is lin.damping
            if kind == "star":
                # Square line maps, square node maps and dense closed blocks.
                assert factored == []
                continue
            # Each whitening's 10 x 4 line map once, and the closed form's
            # incidence factor over its one noisy node, a new map on each run;
            # never the square node map.
            inertia, damping = variance.modal_basis(lin, "inertia"), variance.modal_basis(lin, "damping")
            assert [a.shape for a in factored] == [(10, 4), (10, 1), (10, 4), (10, 1)]
            assert factored[0] is inertia.lines and factored[2] is damping.lines

    def test_a_failed_connectivity_check_is_not_kept(self, monkeypatch):
        calls = []
        real = variance.whitened_spectrum
        monkeypatch.setattr(variance, "whitened_spectrum",
                            lambda lap, scaling: calls.append(scaling) or real(lap, scaling))
        graph = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
        lin = LinearizedSystem(graph, np.ones(4), np.ones(4), np.ones(4))
        for route in ("numeric", "uniform", "first-order", "mc", "numeric"):
            with pytest.raises(DisconnectedGraphError):
                pipeline.ROUTES[route].run(lin, None)
        assert len(calls) == 5

    @pytest.mark.parametrize("system", ["complete-shuffled", "heterogeneous-flipped"])
    def test_gathered_line_map_equals_incidence_product(self, monkeypatch, system):
        rng = np.random.default_rng(17)
        if system == "complete-shuffled":
            lin = shuffled_complete_system(rng, 12)
            routes = {"numeric": "inertia", "uniform": "inertia", "first-order": "damping"}
        else:
            lin = random_heterogeneous_system(rng, 15)
            edges = [lin.graph.edges[k] for k in rng.permutation(lin.line_count)]
            edges = [(j, i, w) if rng.random() < 0.5 else (i, j, w) for i, j, w in edges]
            lin = LinearizedSystem(WeightedGraph(15, tuple(edges)), lin.inertia, lin.damping,
                                   lin.noise)
            routes = {"numeric": "inertia", "first-order": "damping"}
        assert np.any(lin.graph.tails > lin.graph.heads)
        captured = []
        real_make_report = variance.make_report

        def spy(*args, **kwargs):
            captured.append(args[0][0])
            return real_make_report(*args, **kwargs)

        monkeypatch.setattr(variance, "make_report", spy)
        for route, field in routes.items():
            captured.clear()
            pipeline.ROUTES[route].run(lin, None)
            scaling = getattr(lin, field)
            vectors = whitened_spectrum(lin.laplacian, scaling).vectors
            nodes = (1.0 / np.sqrt(scaling))[:, None] * vectors
            assert np.array_equal(captured[0], incidence(lin.graph).T @ nodes[:, 1:]), route


class TestOrientationInvariance:
    def test_flipping_an_edge(self):
        rng = np.random.default_rng(12)
        lin = uniform_ratio_system(rng, 6, 1.1)
        report = asymptotic_variance_numeric(lin)
        for k in range(lin.line_count):
            edges = list(lin.graph.edges)
            i, j, w = edges[k]
            edges[k] = (j, i, w)
            flipped_lin = LinearizedSystem(
                WeightedGraph(6, tuple(edges)), lin.inertia, lin.damping, lin.noise
            )
            flipped = asymptotic_variance_numeric(flipped_lin)
            signs = np.ones(lin.line_count)
            signs[k] = -1.0
            np.testing.assert_allclose(
                np.diag(flipped.q_delta), np.diag(report.q_delta), atol=1e-12
            )
            np.testing.assert_allclose(
                flipped.q_delta,
                signs[:, None] * report.q_delta * signs[None, :],
                atol=1e-12,
            )
            np.testing.assert_allclose(
                flipped.q_delta_omega, report.q_delta_omega * signs[None, :], atol=1e-12
            )


class TestFirstOrder:
    def test_zero_noise(self):
        lin = homogeneous_system("star", 5, 1.0, 1.0, 1.0, np.zeros(5))
        assert np.abs(first_order_variance(lin).q_delta).max() == 0.0

    def test_complete_uniform_closed_form(self):
        n, gamma, d = 6, 2.5, 0.8
        rng = np.random.default_rng(3)
        noise = rng.uniform(0, 2, n)
        lin = homogeneous_system("complete", n, gamma, 1.0, d, noise)
        inc = incidence(canonical_complete(n, gamma))
        expected = inc.T @ np.diag(noise**2) @ inc / (2 * d * gamma * n)
        np.testing.assert_allclose(first_order_variance(lin).q_delta, expected, atol=1e-12)

    def test_star_single_leaf_source_vs_lyapunov_oracle(self):
        # independent oracle: (n-1)-state Lyapunov equation in the
        # damping-whitened spectral coordinates, solved numerically
        n, d, gamma = 6, 1.0, 1.0
        noise = np.zeros(n)
        noise[1] = 1.0
        lin = homogeneous_system("star", n, gamma, 1.0, d, noise)
        lam, u = np.linalg.eigh(laplacian(lin.graph) / d)
        u2 = u[:, 1:]
        w = u2.T @ np.diag(noise**2 / d) @ u2
        q_x = lyapunov_solve_kron(-np.diag(lam[1:]), w)
        inc = incidence(lin.graph)
        expected = inc.T @ (u2 / np.sqrt(d)) @ q_x @ (u2 / np.sqrt(d)).T @ inc
        np.testing.assert_allclose(first_order_variance(lin).q_delta, expected, atol=1e-12)

    def test_disconnected_rejected(self):
        graph = WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0)))
        lin = LinearizedSystem(graph, np.ones(4), np.ones(4), np.ones(4))
        with pytest.raises(DisconnectedGraphError):
            first_order_variance(lin)


class TestTraceLaw:
    def test_reference_value(self):
        noise = np.zeros(8)
        noise[1] = 0.04
        lin = homogeneous_system("complete", 8, 10.0, 0.5, 0.3, noise)
        assert trace_frequency_variance(lin) == pytest.approx(0.0016 / 0.3, rel=1e-14)

    def test_zero_noise(self):
        lin = homogeneous_system("star", 4, 1.0, 1.0, 1.0, np.zeros(4))
        assert trace_frequency_variance(lin) == 0.0

    def test_topology_independence(self):
        rng = np.random.default_rng(4)
        noise = rng.uniform(0, 1, 9)
        complete = homogeneous_system("complete", 9, 3.0, 0.7, 0.4, noise)
        star = homogeneous_system("star", 9, 5.0, 0.7, 0.4, noise)
        value = trace_frequency_variance(complete)
        assert value == trace_frequency_variance(star)
        for lin in (complete, star):
            assert np.trace(asymptotic_variance_numeric(lin).q_omega) == pytest.approx(
                value, rel=1e-9, abs=1e-9
            )

    def test_nonuniform_rejected(self):
        lin = LinearizedSystem(
            canonical_star(4, 1.0), np.array([1.0, 1, 1, 2]), np.ones(4), np.ones(4)
        )
        with pytest.raises(AssumptionViolatedError):
            trace_frequency_variance(lin)
