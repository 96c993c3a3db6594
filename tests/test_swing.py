"""Swing model: synchronous states, security, linearization, single-machine form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfluct import (
    InsecureStateError,
    NoEquilibriumError,
    PowerNetwork,
    SynchronousState,
    WeightedGraph,
    canonical_complete,
    laplacian,
    linearize,
    security_check,
    smib_variance,
    solve_synchronous_state,
    synchronized_frequency,
)
from gridfluct.errors import NoSynchronousStateError

from conftest import lyapunov_solve_kron, random_connected_graph


def make_network(graph, inertia=None, damping=None, power=None, noise=None):
    n = graph.node_count
    ones = np.ones(n)
    return PowerNetwork(
        graph,
        ones if inertia is None else np.asarray(inertia, float),
        ones if damping is None else np.asarray(damping, float),
        np.zeros(n) if power is None else np.asarray(power, float),
        np.zeros(n) if noise is None else np.asarray(noise, float),
    )


def two_node_network(power: float, capacity: float) -> PowerNetwork:
    return make_network(
        WeightedGraph(2, ((1, 2, capacity),)), power=[power, -power]
    )


def flow_residual_oracle(net: PowerNetwork, angles: np.ndarray, sync_freq: float) -> np.ndarray:
    """Independent power-balance residual, written out per node."""
    n = net.node_count
    residual = np.zeros(n)
    for idx in range(n):
        i = idx + 1
        flow = 0.0
        for a, b, cap in net.topology.edges:
            if a == i:
                flow += cap * math.sin(angles[b - 1] - angles[a - 1])
            elif b == i:
                flow += cap * math.sin(angles[a - 1] - angles[b - 1])
        residual[idx] = net.power[idx] - net.damping[idx] * sync_freq + flow
    return residual


class TestSynchronizedFrequency:
    def test_single_injection(self):
        net = make_network(canonical_complete(3, 1.0), power=[1.0, 0.0, 0.0])
        assert synchronized_frequency(net) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_balanced(self):
        net = make_network(canonical_complete(3, 1.0), power=[0.4, -0.3, -0.1])
        assert synchronized_frequency(net) == pytest.approx(0.0, abs=1e-15)

    def test_weighted_damping(self):
        net = make_network(
            WeightedGraph(2, ((1, 2, 1.0),)), damping=[1.0, 3.0], power=[2.0, -1.0]
        )
        assert synchronized_frequency(net) == pytest.approx(0.25, abs=1e-15)


class TestSolveSynchronousState:
    def test_zero_injection_gives_flat_state(self):
        net = make_network(random_connected_graph(np.random.default_rng(0), 6))
        state = solve_synchronous_state(net)
        np.testing.assert_allclose(state.angles, 0.0, atol=1e-14)
        assert state.sync_frequency == 0.0

    def test_two_node_arcsin(self):
        # residual tolerance 1e-10 bounds the angle error by ~1e-10 / weight
        p, cap = 0.6, 2.0
        state = solve_synchronous_state(two_node_network(p, cap))
        assert state.angles[0] - state.angles[1] == pytest.approx(math.asin(p / cap), abs=1e-9)
        assert state.sync_frequency == pytest.approx(0.0, abs=1e-15)

    def test_complete_four_nodes_residual(self):
        net = make_network(
            canonical_complete(4, 2.0), power=[0.6, -0.2, -0.2, -0.2]
        )
        state = solve_synchronous_state(net)
        assert state.residual_norm <= 1e-10
        oracle = flow_residual_oracle(net, state.angles, state.sync_frequency)
        assert np.abs(oracle).max() <= 1e-10

    def test_reference_node_pinned(self):
        net = make_network(canonical_complete(5, 3.0),
                           power=[0.5, 0.3, -0.4, -0.2, -0.2])
        state = solve_synchronous_state(net)
        assert state.angles[0] == 0.0

    def test_overloaded_line_fails(self):
        with pytest.raises(NoSynchronousStateError):
            solve_synchronous_state(two_node_network(3.0, 2.0))

    @given(st.floats(-0.5, 0.5), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_injection_shift_gauge(self, shift, seed):
        # With uniform damping, a constant injection shift moves only the
        # common frequency (by n c / sum d); angle differences are untouched.
        rng = np.random.default_rng(seed)
        graph = random_connected_graph(rng, 5)
        power = rng.uniform(-0.3, 0.3, 5)
        damping = np.full(5, float(rng.uniform(0.5, 2.0)))
        base = make_network(graph, damping=damping, power=power)
        shifted = make_network(graph, damping=damping, power=power + shift)
        s0 = solve_synchronous_state(base)
        s1 = solve_synchronous_state(shifted)
        expected = s0.sync_frequency + 5 * shift / damping.sum()
        assert s1.sync_frequency == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(
            np.diff(s1.angles), np.diff(s0.angles), atol=1e-9
        )


class TestSecurityCheck:
    def test_flat_state_margins(self):
        net = make_network(canonical_complete(3, 1.0))
        state = solve_synchronous_state(net)
        report = security_check(state, net)
        assert report.secure
        np.testing.assert_allclose(report.margins, math.pi / 2, atol=1e-14)

    def test_near_capacity_margin(self):
        ratio = 0.999
        state = solve_synchronous_state(two_node_network(ratio * 2.0, 2.0))
        net = two_node_network(ratio * 2.0, 2.0)
        report = security_check(state, net)
        assert report.secure
        assert report.margins[0] == pytest.approx(math.pi / 2 - math.asin(ratio), abs=1e-9)

    def test_exact_boundary_is_insecure(self):
        net = two_node_network(0.5, 2.0)
        boundary = SynchronousState(np.array([0.0, -math.pi / 2]), 0.0, 0.0)
        assert not security_check(boundary, net).secure


class TestLinearize:
    def test_flat_state_weights_equal_capacities(self):
        net = make_network(random_connected_graph(np.random.default_rng(3), 7))
        lin = linearize(net, solve_synchronous_state(net))
        np.testing.assert_array_equal(lin.graph.weights, net.capacities)

    def test_two_node_sixty_degrees(self):
        cap = 2.0
        power = cap * math.sin(math.pi / 3)
        lin = linearize(*(lambda net: (net, solve_synchronous_state(net)))(
            two_node_network(power, cap)
        ))
        assert lin.graph.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_complete_matches_canonical_laplacian(self):
        net = make_network(canonical_complete(5, 10.0))
        lin = linearize(net, solve_synchronous_state(net))
        np.testing.assert_array_equal(lin.laplacian, laplacian(canonical_complete(5, 10.0)))

    def test_insecure_state_rejected(self):
        net = two_node_network(0.5, 2.0)
        bad = SynchronousState(np.array([0.0, -1.8]), 0.0, 0.0)
        with pytest.raises(InsecureStateError, match="line 1"):
            linearize(net, bad)


class TestSmibVariance:
    def test_reference_point(self):
        q_delta, q_omega = smib_variance(1.0, 2.0, 2.0, 0.0, 1.0)
        assert q_delta == pytest.approx(0.125, abs=1e-15)
        assert q_omega == pytest.approx(0.25, abs=1e-15)

    def test_zero_noise(self):
        assert smib_variance(1.0, 2.0, 2.0, 0.5, 0.0) == (0.0, 0.0)

    def test_angle_variance_diverges_near_capacity(self):
        capacity = 2.0
        q_far, w_far = smib_variance(1.0, 2.0, capacity, 0.0, 1.0)
        q_near, w_near = smib_variance(1.0, 2.0, capacity, 0.999 * capacity, 1.0)
        assert q_near > 10 * q_far
        assert w_near == w_far

    def test_no_equilibrium(self):
        with pytest.raises(NoEquilibriumError):
            smib_variance(1.0, 2.0, 2.0, 2.0, 1.0)

    def test_matches_two_state_lyapunov_oracle(self):
        capacity, injection, noise = 2.0, 0.5, 1.0
        stiffness = math.sqrt(capacity**2 - injection**2)
        for damping in np.linspace(0.2, 3.0, 10):
            for inertia in np.linspace(0.1, 2.0, 10):
                a = np.array([[0.0, 1.0], [-stiffness / inertia, -damping / inertia]])
                b = np.array([[0.0], [noise / inertia]])
                q = lyapunov_solve_kron(a, b @ b.T)
                q_delta, q_omega = smib_variance(inertia, damping, capacity, injection, noise)
                assert abs(q[0, 0] - q_delta) <= 1e-12
                assert abs(q[1, 1] - q_omega) <= 1e-12
                assert abs(q[0, 1]) <= 1e-12


class TestPowerNetworkValidation:
    def test_disconnected_topology_rejected(self):
        from gridfluct import DisconnectedGraphError

        with pytest.raises(DisconnectedGraphError):
            make_network(WeightedGraph(4, ((1, 2, 1.0), (3, 4, 1.0))))

    def test_nonpositive_inertia_rejected(self):
        from gridfluct import InvalidGraphError

        with pytest.raises(InvalidGraphError, match="inertia"):
            make_network(canonical_complete(3, 1.0), inertia=[1.0, 0.0, 1.0])
