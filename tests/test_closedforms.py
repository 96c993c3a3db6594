"""Analytic complete/star formulas against the numeric Lyapunov route."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfluct import (
    AssumptionViolatedError,
    HomogeneousParams,
    InvalidGraphError,
    LinearizedSystem,
    WeightedGraph,
    asymptotic_variance_numeric,
    canonical_complete,
    canonical_star,
    closed_form_report,
    first_order_variance,
    star_first_order,
    trend_report,
)

from gridfluct import closedforms

from conftest import full_output_matrix, homogeneous_system


def params(kind_n, gamma, eta, damping, noise):
    return HomogeneousParams(kind_n, gamma, eta, damping, np.asarray(noise, float))


def single_source(n, index, level):
    noise = np.zeros(n)
    noise[index - 1] = level
    return noise


def to_system(kind, p: HomogeneousParams):
    return homogeneous_system(kind, p.n, p.gamma, p.eta, p.damping, p.noise)


def max_rel(a, b):
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


TABLE1 = params(20, 10.0, 0.5, 0.3, single_source(20, 2, 0.04))
TABLE2 = params(20, 10.0, 0.5, 0.2, single_source(20, 2, 0.5))


class TestCompleteReport:
    def test_benchmark_point_against_numeric(self):
        report = closed_form_report(to_system("complete", TABLE1))
        numeric = asymptotic_variance_numeric(to_system("complete", TABLE1))
        assert abs(report.q_omega[1, 1] - numeric.q_omega[1, 1]) <= 1e-8 * numeric.q_omega[1, 1]
        assert abs(report.q_delta[0, 0] - numeric.q_delta[0, 0]) <= 1e-8 * numeric.q_delta[0, 0]
        assert max_rel(full_output_matrix(report), full_output_matrix(numeric)) <= 1e-8

    def test_zero_noise(self):
        report = closed_form_report(to_system("complete", params(6, 1.0, 1.0, 1.0, np.zeros(6))))
        assert np.abs(full_output_matrix(report)).max() == 0.0

    def test_line_between_quiet_nodes(self):
        # disturbances elsewhere do not move the angle difference of a line
        # whose endpoints are both quiet
        p = params(5, 2.0, 0.5, 0.7, [1.3, 0.0, 0.0, 0.4, 0.0])
        report = closed_form_report(to_system("complete", p))
        # canonical lexicographic order: line 5 is (2, 3); both endpoints quiet
        assert report.q_delta[4, 4] == pytest.approx(0.0, abs=1e-15)

    def test_line_diagonal_formula(self):
        p = params(5, 2.0, 0.5, 0.7, [1.3, 0.2, 0.0, 0.4, 0.9])
        report = closed_form_report(to_system("complete", p))
        b_sq = p.noise_sq
        k = 0
        for i in range(1, 6):
            for j in range(i + 1, 6):
                expected = (b_sq[i - 1] + b_sq[j - 1]) / (2 * p.damping * p.gamma * p.n)
                assert report.q_delta[k, k] == pytest.approx(expected, rel=1e-12)
                k += 1

    def test_delta_trace(self):
        p = params(7, 3.0, 0.2, 0.9, np.linspace(0, 2, 7))
        report = closed_form_report(to_system("complete", p))
        expected = (p.n - 1) * p.trace_noise_sq / (2 * p.damping * p.gamma * p.n)
        assert np.trace(report.q_delta) == pytest.approx(expected, rel=1e-12)

    def test_size_error(self):
        with pytest.raises(InvalidGraphError):
            params(1, 1.0, 1.0, 1.0, [0.0])


class TestCompleteSingleSource:
    def test_matches_report_specialization(self):
        summary = trend_report("complete", TABLE1).variances
        report = closed_form_report(to_system("complete", TABLE1))
        assert summary["source_frequency"] == pytest.approx(report.q_omega[1, 1], rel=1e-12)
        assert summary["other_frequency"] == pytest.approx(report.q_omega[0, 0], rel=1e-12)
        assert summary["incident_line"] == pytest.approx(report.q_delta[0, 0], rel=1e-12)
        # line (3, 4) misses the source entirely
        quiet_line = [(i, j) for i in range(1, 21) for j in range(i + 1, 21)].index((3, 4))
        assert report.q_delta[quiet_line, quiet_line] == pytest.approx(0.0, abs=1e-15)

    def test_sum_rule(self):
        p = params(9, 4.0, 0.8, 0.6, single_source(9, 3, 1.1))
        summary = trend_report("complete", p).variances
        total = summary["source_frequency"] + 8 * summary["other_frequency"]
        assert total == pytest.approx(1.1**2 / (2 * p.damping * p.eta), rel=1e-12)

    def test_large_size_approaches_single_machine(self):
        level, d, eta = 0.7, 0.4, 0.9
        p = params(10**6, 5.0, eta, d, single_source(10**6, 1, level))
        summary = trend_report("complete", p).variances
        assert summary["source_frequency"] == pytest.approx(
            level**2 / (2 * d * eta), rel=1e-4
        )

    def test_multiple_sources_rejected(self):
        with pytest.raises(AssumptionViolatedError):
            trend_report("complete", params(4, 1.0, 1.0, 1.0, [1.0, 1.0, 0.0, 0.0]))


class TestCompleteFirstOrder:
    # The complete graph's angle block does not depend on inertia, so the
    # closed report's block is also the zero-inertia one.
    def test_equals_inertial_angle_block(self):
        lin = to_system("complete", TABLE1)
        q_bar = first_order_variance(lin).q_delta
        np.testing.assert_allclose(q_bar, closed_form_report(lin).q_delta, atol=1e-12)

    def test_single_source_line_values(self):
        level = 0.8
        p = params(6, 2.0, 1.0, 0.5, single_source(6, 3, level))
        lin = to_system("complete", p)
        q_bar = closed_form_report(lin).q_delta
        np.testing.assert_allclose(q_bar, first_order_variance(lin).q_delta, atol=1e-12)
        expected = level**2 / (2 * p.damping * p.gamma * p.n)
        k = 0
        for i in range(1, 7):
            for j in range(i + 1, 7):
                target = expected if 3 in (i, j) else 0.0
                assert q_bar[k, k] == pytest.approx(target, abs=1e-15)
                k += 1

    def test_matches_engine(self):
        rng = np.random.default_rng(9)
        noise = rng.uniform(0, 1.5, 10)
        p = params(10, 1.7, 1.0, 0.6, noise)
        lin = to_system("complete", p)
        engine = first_order_variance(lin)
        np.testing.assert_allclose(closed_form_report(lin).q_delta, engine.q_delta, atol=1e-11)


class TestStarReport:
    def test_benchmark_point_against_numeric(self):
        report = closed_form_report(to_system("star", TABLE2))
        numeric = asymptotic_variance_numeric(to_system("star", TABLE2))
        assert max_rel(full_output_matrix(report), full_output_matrix(numeric)) <= 1e-8

    def test_delta_trace_equals_complete(self):
        rng = np.random.default_rng(2)
        noise = rng.uniform(0, 1, 8)
        p = params(8, 2.0, 0.4, 0.9, noise)
        expected = (p.n - 1) * p.trace_noise_sq / (2 * p.damping * p.gamma * p.n)
        for kind in ("star", "complete"):
            q_delta = closed_form_report(to_system(kind, p)).q_delta
            assert np.trace(q_delta) == pytest.approx(expected, rel=1e-12)

    def test_root_source_reproduces_corollary(self):
        p = params(12, 6.0, 0.3, 0.8, single_source(12, 1, 0.6))
        report = closed_form_report(to_system("star", p))
        summary = trend_report("star", p).variances
        assert report.q_omega[0, 0] == pytest.approx(summary["source_frequency"], rel=1e-12)
        assert report.q_omega[3, 3] == pytest.approx(summary["other_frequency"], rel=1e-12)
        np.testing.assert_allclose(
            np.diag(report.q_delta), summary["incident_line"], rtol=1e-12
        )


class TestStarSingleSource:
    def test_root_case_equals_complete_formulas(self):
        # A star disturbed at its root has the complete graph's scalar set.
        p = params(15, 3.0, 0.6, 0.4, single_source(15, 1, 0.9))
        root = trend_report("star", p).variances
        numeric = asymptotic_variance_numeric(to_system("star", p))
        assert root["source_frequency"] == pytest.approx(numeric.q_omega[0, 0], rel=1e-8)
        assert root["other_frequency"] == pytest.approx(numeric.q_omega[4, 4], rel=1e-8)
        np.testing.assert_allclose(np.diag(numeric.q_delta), root["incident_line"], rtol=1e-8)

    def test_leaf_sum_rule(self):
        p = params(11, 5.0, 0.7, 0.3, single_source(11, 2, 0.8))
        leaf = trend_report("star", p).variances
        total = (
            leaf["root_frequency"]
            + leaf["leaf_frequency"]
            + 9 * leaf["other_frequency"]
        )
        assert total == pytest.approx(0.8**2 / (2 * p.damping * p.eta), rel=1e-12)

    def test_leaf_against_numeric(self):
        p = params(10, 10.0, 0.5, 0.2, single_source(10, 2, 0.5))
        leaf = trend_report("star", p).variances
        numeric = asymptotic_variance_numeric(to_system("star", p))
        assert leaf["root_frequency"] == pytest.approx(numeric.q_omega[0, 0], rel=1e-8)
        assert leaf["leaf_frequency"] == pytest.approx(numeric.q_omega[1, 1], rel=1e-8)
        assert leaf["other_frequency"] == pytest.approx(numeric.q_omega[5, 5], rel=1e-8)
        assert leaf["source_line"] == pytest.approx(numeric.q_delta[0, 0], rel=1e-8)
        assert leaf["other_line"] == pytest.approx(numeric.q_delta[4, 4], rel=1e-8)

    def test_no_source_rejected(self):
        for kind in ("star", "complete"):
            with pytest.raises(AssumptionViolatedError):
                trend_report(kind, params(5, 1.0, 1.0, 1.0, np.zeros(5)))


class TestStarFirstOrder:
    def test_root_source_diagonal(self):
        level = 1.2
        p = params(9, 2.0, 1.0, 0.7, single_source(9, 1, level))
        q_bar = star_first_order(p)
        np.testing.assert_allclose(
            np.diag(q_bar), level**2 / (2 * p.damping * p.gamma * p.n), rtol=1e-12
        )

    def test_small_inertia_limit(self):
        # The gap is O(eta) with a parameter-dependent constant
        # (~2 gamma / (d^2 (n+1)) relative scale), so the 1e-6 target at
        # eta = 1e-6 needs O(1) weights and damping.
        rng = np.random.default_rng(6)
        noise = rng.uniform(0, 1, 12)
        q_bar = star_first_order(params(12, 2.0, 1.0, 1.0, noise))
        q_small = closed_form_report(to_system("star", params(12, 2.0, 1e-6, 1.0, noise))).q_delta
        assert np.abs(q_small - q_bar).max() <= 1e-6 * np.abs(q_bar).max()

    def test_inertia_limit_is_monotone(self):
        noise = single_source(8, 2, 0.5)
        q_bar = star_first_order(params(8, 10.0, 1.0, 0.4, noise))
        systems = [to_system("star", params(8, 10.0, eta, 0.4, noise))
                   for eta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
        gaps = [np.abs(closed_form_report(lin).q_delta - q_bar).max() for lin in systems]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_matches_engine(self):
        rng = np.random.default_rng(10)
        noise = rng.uniform(0, 1.5, 8)
        p = params(8, 2.3, 1.0, 0.9, noise)
        engine = first_order_variance(to_system("star", p))
        np.testing.assert_allclose(star_first_order(p), engine.q_delta, atol=1e-11)

    def test_matches_term_by_term_display(self):
        # The first-order star entries written out term by term: line k
        # joins the root (node 1) to node k + 1.
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            noise = np.where(rng.random(n) < 0.5, rng.uniform(0, 1, n), 0.0)
            p = params(n, rng.uniform(0.1, 20), 1.0, rng.uniform(0.05, 3), noise)
            b_sq, unit = p.noise_sq, 2 * p.damping * p.gamma * n
            leaf, root, rest = b_sq[1:], b_sq[0], p.trace_noise_sq - b_sq[0]
            pair = leaf[:, None] + leaf[None, :]
            expected = root / unit + ((1 - n) * pair + rest - pair) / (unit * (1 + n))
            np.fill_diagonal(
                expected,
                root / unit + ((n**2 - n + 1) * leaf + rest - leaf) / (unit * (1 + n)),
            )
            q_bar = star_first_order(p)
            assert np.array_equal(q_bar, q_bar.T)
            scale = max(np.abs(expected).max(), 1e-300)
            assert np.abs(q_bar - expected).max() <= 1e-15 * scale


# ---------------------------------------------------------------------------
# Benchmark tables: closed forms vs the numeric route across swept parameters
# ---------------------------------------------------------------------------

# Grids stay inside the regime where the numeric reference itself is
# trustworthy: the reduced Lyapunov solve loses absolute accuracy once the
# largest whitened eigenvalue gamma n / eta passes ~1e5 (the closed forms
# remain exact there, so the comparison would merely measure solver noise).
D_GRID = (0.1, 0.3, 0.6, 1.0, 2.0)
ETA_GRID = (0.05, 0.1, 0.5, 1.0, 2.0)
GAMMA_GRID = (1.0, 2.0, 5.0, 8.0, 10.0)
N_GRID = (5, 10, 20, 35, 50)

# (gamma, eta, d, source level, n) with None marking the swept axis
COMPLETE_ROWS = [
    (10.0, 0.5, None, 0.04, 20),
    (10.0, None, 0.3, 0.04, 20),
    (None, 0.02, 1.2, 0.04, 30),
    (10.0, 0.02, 1.5, 0.05, None),
    (10.0, 0.5, None, 0.8, 20),
    (10.0, None, 0.1, 0.8, 10),
    (None, 0.01, 1.2, 1.5, 50),
    (10.0, 0.1, 0.1, 1.0, None),
]
STAR_ROWS = [
    (10.0, 0.5, None, 0.04, 20),
    (10.0, None, 0.3, 0.04, 20),
    (None, 0.02, 1.2, 0.04, 30),
    (10.0, 0.02, 1.5, 0.05, None),
    (10.0, 0.5, None, 0.2, 20),
    (10.0, None, 0.2, 0.5, 10),
    (None, 0.01, 1.2, 0.5, 50),
    (10.0, 0.1, 0.4, 0.5, None),
]


def resolve_rows(rows):
    resolved = []
    for gamma, eta, d, level, n in rows:
        if gamma is None:
            resolved.extend((g, eta, d, level, n) for g in GAMMA_GRID)
        elif eta is None:
            resolved.extend((gamma, e, d, level, n) for e in ETA_GRID)
        elif d is None:
            resolved.extend((gamma, eta, dd, level, n) for dd in D_GRID)
        else:
            resolved.extend((gamma, eta, d, level, nn) for nn in N_GRID)
    return resolved


@pytest.mark.parametrize("kind", ["complete", "star"])
def test_closed_vs_numeric_across_benchmark_tables(kind):
    rows = COMPLETE_ROWS if kind == "complete" else STAR_ROWS
    worst = 0.0
    for gamma, eta, d, level, n in resolve_rows(rows):
        p = params(int(n), gamma, eta, d, single_source(int(n), 2, level))
        closed = full_output_matrix(closed_form_report(to_system(kind, p)))
        numeric = full_output_matrix(asymptotic_variance_numeric(to_system(kind, p)))
        worst = max(worst, max_rel(closed, numeric))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# The closed route in a network's own order against the canonical report
# ---------------------------------------------------------------------------


def shuffled_homogeneous(kind, n, root, rng):
    """Complete graph, or star rooted at 0-based ``root``, with lines in random
    order and orientation and homogeneous random parameters; returns the
    system and its node map to canonical order (star root first)."""
    if kind == "complete":
        node_map = np.arange(n)
        ends = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        node_map = np.arange(n) + (np.arange(n) < root)
        node_map[root] = 0
        ends = [(root, leaf) for leaf in range(n) if leaf != root]
    gamma, eta, damping = rng.uniform(0.5, 5.0, 3)
    edges = []
    for k in rng.permutation(len(ends)):
        i, j = ends[k] if rng.random() < 0.5 else ends[k][::-1]
        edges.append((i + 1, j + 1, gamma))
    noise = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
    ones = np.ones(n)
    lin = LinearizedSystem(WeightedGraph(n, edges), eta * ones, damping * ones, noise)
    return lin, node_map


def signed_permutation_reference(kind, lin, node_map):
    """The closed report of the canonical system gathered into the network's
    order, each line's entries signed by whether its orientation matches the
    canonical one.  Both systems hold the same uniform parameter arrays, so
    the closed route reads the same values from each."""
    n = lin.node_count
    canonical = (canonical_complete if kind == "complete" else canonical_star)(n)
    position = {(int(i), int(j)): k for k, (i, j) in enumerate(zip(canonical.tails, canonical.heads))}
    ci, cj = node_map[lin.graph.tails], node_map[lin.graph.heads]
    lines = np.array([position[min(a, b), max(a, b)] for a, b in zip(ci.tolist(), cj.tolist())])
    signs = np.where(ci < cj, 1.0, -1.0)
    noise = np.empty(n)
    noise[node_map] = lin.noise
    report = closed_form_report(homogeneous_system(
        kind, n, lin.graph.weights[0], lin.inertia[0], lin.damping[0], noise
    ))
    return (
        signs[:, None] * report.q_delta[np.ix_(lines, lines)] * signs[None, :],
        report.q_omega[np.ix_(node_map, node_map)],
        report.q_delta_omega[np.ix_(node_map, lines)] * signs[None, :],
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["complete", "star"]),
    n=st.integers(3, 40),
    root_fraction=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_route_is_signed_permutation_of_canonical(kind, n, root_fraction, seed):
    root = int(root_fraction * n)
    lin, node_map = shuffled_homogeneous(kind, n, root, np.random.default_rng(seed))
    report = closed_form_report(lin)
    assert report.diagnostics["canonical_kind"] == kind
    blocks = (report.q_delta, report.q_omega, report.q_delta_omega)
    for block, expected in zip(blocks, signed_permutation_reference(kind, lin, node_map)):
        if kind == "complete":
            # Same node order, so every entry is bit-identical (-0 equals 0).
            assert np.all(block == expected)
        else:
            # A star's noise trace and projector products sum in another node order.
            assert np.abs(block - expected).max() <= 1e-15 * np.abs(expected).max()


def test_closed_report_entries_are_the_trend_variances():
    # One answer per quantity: relabelled nodes, shuffled and flipped lines,
    # three-digit parameters and one source at any node; every frequency and
    # angle diagonal entry of the closed report is the trend analysis's
    # value, bit for bit.
    rng = np.random.default_rng(35)
    for _ in range(300):
        kind = ("complete", "star")[int(rng.integers(2))]
        n = int(rng.integers(2 if kind == "complete" else 3, 21))
        gamma, eta, damping, level = rng.integers(1, 1000, 4) / 100
        source = int(rng.integers(n))
        noise = np.zeros(n)
        noise[source] = level
        values = trend_report(kind, HomogeneousParams(n, gamma, eta, damping, noise)).variances

        where = rng.permutation(n)  # canonical node c is the network's node where[c]
        canonical = (canonical_complete if kind == "complete" else canonical_star)(n)
        ends = np.column_stack((canonical.tails, canonical.heads))
        flip = rng.random(len(ends)) < 0.5
        ends[flip] = ends[flip, ::-1]
        ends = where[ends[rng.permutation(len(ends))]]
        graph = WeightedGraph(n, [(int(i) + 1, int(j) + 1, gamma) for i, j in ends])
        ones = np.ones(n)
        net_noise = np.zeros(n)
        net_noise[where] = noise
        report = closed_form_report(LinearizedSystem(graph, eta * ones, damping * ones, net_noise))

        leaf = kind == "star" and source != 0
        frequency = np.full(n, values["other_frequency"])
        frequency[source] = values["leaf_frequency" if leaf else "source_frequency"]
        if leaf:
            frequency[0] = values["root_frequency"]
        assert np.all(report.q_omega.diagonal()[where] == frequency)
        touches = (ends == where[source]).any(axis=1)
        line = np.where(touches, values["source_line" if leaf else "incident_line"],
                        values["other_line"])
        assert np.all(report.q_delta.diagonal() == line)


@pytest.mark.parametrize("display", [
    closedforms.complete_source_frequency, closedforms.complete_other_frequency,
    closedforms.star_leaf_frequency, closedforms.star_other_frequency,
    closedforms.star_source_line, closedforms.star_other_line,
], ids=lambda display: display.__name__)
def test_display_is_exact_on_fractions(display):
    # Rational arguments give the display's exact rational value, which
    # rounds to within a few ulps of the float evaluation.
    args = (Fraction(20), Fraction(10), Fraction(1, 2), Fraction(3, 10), Fraction(1, 25))
    value = display(*args)
    assert isinstance(value, Fraction)
    assert float(value) == pytest.approx(display(*map(float, args)), rel=1e-14)
