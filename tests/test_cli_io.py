"""File formats, route dispatch, sweeps and the command-line surface."""

import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridfluct import (
    InternalInvariantError,
    ValidationError,
    graphs,
    load_network,
    lyapunov,
    pipeline,
    variance,
)
from gridfluct.lyapunov import LEAF
from gridfluct.cli import main
from gridfluct.montecarlo import agreement
from gridfluct.netfile import (
    HomogeneousBase,
    format_number,
    load_sweep,
    network_from_dict,
    sweep_from_dict,
)
from gridfluct.pipeline import (
    ROUTES,
    compare_variance,
    relative_discrepancy,
    run_sweep,
    run_variance,
    write_comparison,
    write_report,
    write_sweep,
)

from conftest import count_congruence_fills, random_connected_graph


STAR6 = Path(__file__).resolve().parent.parent / "scripts" / "specs" / "star6.json"


def network_doc(n, lines, inertia=0.5, damping=0.3, noise=None, capacity=10.0):
    noise = noise or {}
    return {
        "schema_version": 1,
        "nodes": [
            {
                "id": f"n{i}",
                "inertia": inertia,
                "damping": damping,
                "power": 0.0,
                "noise": noise.get(i, 0.0),
            }
            for i in range(1, n + 1)
        ],
        "lines": [{"from": f"n{i}", "to": f"n{j}", "capacity": capacity} for i, j in lines],
    }


def complete_lines(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def write_doc(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadNetwork:
    def test_minimal_two_nodes(self, tmp_path):
        path = write_doc(tmp_path, network_doc(2, [(1, 2)], noise={1: 0.2}))
        net = load_network(path)
        assert net.node_count == 2
        assert net.line_count == 1
        assert net.labels == ("n1", "n2")
        assert net.noise[0] == 0.2

    def test_duplicate_id_named(self, tmp_path):
        doc = network_doc(2, [(1, 2)])
        doc["nodes"][1]["id"] = "n1"
        with pytest.raises(ValidationError, match="duplicate node id 'n1'"):
            load_network(write_doc(tmp_path, doc))

    def test_negative_inertia_named(self, tmp_path):
        doc = network_doc(2, [(1, 2)])
        doc["nodes"][0]["inertia"] = -1.0
        with pytest.raises(ValidationError, match="inertia"):
            load_network(write_doc(tmp_path, doc))

    def test_unknown_endpoint(self, tmp_path):
        doc = network_doc(2, [(1, 2)])
        doc["lines"][0]["to"] = "ghost"
        with pytest.raises(ValidationError, match="ghost"):
            load_network(write_doc(tmp_path, doc))

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  nodes: []}')
        with pytest.raises(ValidationError, match="line 2"):
            load_network(path)

    def test_disconnected_rejected(self, tmp_path):
        from gridfluct import DisconnectedGraphError

        doc = network_doc(4, [(1, 2), (3, 4)])
        with pytest.raises(DisconnectedGraphError):
            load_network(write_doc(tmp_path, doc))

    def test_wrong_schema_version(self, tmp_path):
        doc = network_doc(2, [(1, 2)])
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            load_network(write_doc(tmp_path, doc))


class TestRunVariance:
    def test_numeric_on_file_network(self, tmp_path):
        net = load_network(write_doc(tmp_path, network_doc(4, complete_lines(4), noise={2: 0.1})))
        report = run_variance(net, "numeric")
        assert report.q_delta.shape == (6, 6)
        assert report.method == "numeric"

    def test_closed_on_ring_rejected(self):
        from gridfluct import AssumptionViolatedError

        ring = network_from_dict(network_doc(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
        with pytest.raises(AssumptionViolatedError, match="complete/star"):
            run_variance(ring, "closed")

    def test_unknown_method(self):
        net = network_from_dict(network_doc(2, [(1, 2)]))
        with pytest.raises(ValidationError, match="unknown method"):
            run_variance(net, "secret")

    def test_first_order_has_no_frequency_block(self):
        net = network_from_dict(network_doc(3, complete_lines(3), noise={1: 1.0}))
        report = run_variance(net, "first-order")
        assert report.q_omega is None
        assert report.q_delta.shape == (3, 3)

    def test_compare_discrepancy_small_at_benchmark_scale(self):
        net = network_from_dict(network_doc(20, complete_lines(20), noise={2: 0.04}))
        comparison = compare_variance(net)
        assert set(comparison.reports) == {"numeric", "uniform", "closed"}
        assert comparison.max_relative_discrepancy <= 1e-8

    def test_compare_skips_routes_whose_assumptions_fail(self):
        from gridfluct import AssumptionViolatedError

        ring = network_from_dict(network_doc(4, [(1, 2), (2, 3), (3, 4), (1, 4)], noise={1: 0.2}))
        assert set(compare_variance(ring).reports) == {"numeric", "uniform"}
        doc = network_doc(4, complete_lines(4), noise={1: 0.2})
        doc["nodes"][0]["inertia"] = 1.0
        uneven = network_from_dict(doc)
        assert set(compare_variance(uneven).reports) == {"numeric"}
        with pytest.raises(AssumptionViolatedError, match="nodes: 1"):
            compare_variance(uneven, ["uniform"])

    @pytest.mark.parametrize(
        "kind, lines",
        [
            # root at node 3; lines 1 and 3 run root -> leaf, lines 2 and 4 leaf -> root
            ("star", [(3, 1), (2, 3), (3, 5), (4, 3)]),
            # every pair once, in shuffled order, five of ten against index order
            ("complete", [(3, 1), (2, 5), (1, 4), (4, 3), (5, 1),
                          (2, 3), (4, 2), (1, 2), (5, 3), (4, 5)]),
        ],
    )
    def test_closed_route_remaps_to_network_order(self, kind, lines):
        net = network_from_dict(network_doc(5, lines, noise={1: 0.3, 3: 0.2, 4: 0.5, 5: 0.1}))
        closed = run_variance(net, "closed")
        numeric = run_variance(net, "numeric")
        assert closed.diagnostics["canonical_kind"] == kind
        for block in ("q_delta", "q_omega", "q_delta_omega"):
            assert relative_discrepancy(getattr(closed, block), getattr(numeric, block)) <= 1e-8
        np.testing.assert_array_equal(closed.q_delta, closed.q_delta.T)
        np.testing.assert_array_equal(closed.q_omega, closed.q_omega.T)


def star_doc(n=12, noise=None):
    """Homogeneous star, root at node 3, lines alternately root -> leaf and leaf -> root."""
    leaves = [j for j in range(1, n + 1) if j != 3]
    lines = [(3, j) if k % 2 else (j, 3) for k, j in enumerate(leaves)]
    return network_doc(n, lines, damping=0.2, noise=noise or {2: 0.5, 7: 0.1})


def complete60_doc():
    """A ``dense-compare``-sized network: complete n=60 (1,770 lines), one source."""
    return network_doc(60, complete_lines(60), noise={17: 0.04})


def sparse_doc(n=40):
    """Random connected graph, heterogeneous capacities and inertia, common damping ratio."""
    rng = np.random.default_rng(40)
    graph = random_connected_graph(rng, n, extra_edge_prob=0.1)
    doc = network_doc(n, [(i, j) for i, j, _ in graph.edges], noise={1: 0.3, 9: 0.2})
    for line, (_, _, weight) in zip(doc["lines"], graph.edges):
        line["capacity"] = 5.0 * weight
    for node, inertia in zip(doc["nodes"], rng.uniform(0.2, 3.0, n)):
        node["inertia"], node["damping"] = inertia, 0.6 * inertia
    return doc


def symmetric(rng, k):
    x = rng.standard_normal((k, k))
    return 0.5 * (x + x.T)


def spread_map(rng, m, k):
    """An m x k map whose row norms spread over six decades."""
    return rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))


PAIR_BOUND_CASES = ("same map", "in range", "permuted", "unrelated", "incidence")


def pair_bound_draw(rng, case):
    """((L, X), (L', Y), p) for one draw of ``case``; p None means the
    least-squares solution of L p = L'.  One draw in 12 has m > 512 lines,
    so that the tiles cut panels; k and s are 1 in a quarter of draws."""
    m = int(rng.integers(513, 700)) if rng.random() < 1 / 12 else int(rng.integers(1, 60))
    k, s = (1 if rng.random() < 0.25 else int(rng.integers(2, 9)) for _ in range(2))
    lines = spread_map(rng, m, k)
    if case == "same map":
        core = symmetric(rng, k)
        other = core + 10.0 ** rng.uniform(-16.0, -4.0) * symmetric(rng, k)
        return (lines, core), (lines, other), None
    if case == "in range":
        p, core = rng.standard_normal((k, s)), symmetric(rng, s)
        near = symmetric(rng, k) * 10.0 ** rng.uniform(-16.0, -4.0)
        return (lines, p @ core @ p.T + near), (lines @ p, core), (p, None)[int(rng.integers(2))]
    if case == "permuted":
        # L' = L P with P a signed permutation scaled by powers of 2, and
        # diagonal cores, so that A = B P^T and L' = L P hold bit for bit:
        # D and E are 0, and only the tile products' rounding is left.  Up
        # to 64 columns of one sign let that rounding grow with k.
        k = int(rng.integers(1, 65))
        lines = np.abs(spread_map(rng, m, k))
        order, scale = rng.permutation(k), rng.choice([-4.0, -1.0, 0.5, 2.0], k)
        p = np.zeros((k, k))
        p[order, np.arange(k)] = scale
        core = 10.0 ** rng.uniform(-3.0, 3.0, k)
        return (lines, np.diag(core)), (lines @ p, np.diag(core[order] / scale**2)), p
    if case == "unrelated":
        core = symmetric(rng, k) * 10.0 ** rng.uniform(-6.0, 0.0)
        p = (None, rng.standard_normal((k, s)))[int(rng.integers(2))]
        return (lines, core), (spread_map(rng, m, s), symmetric(rng, s)), p
    # The closed form's incidence factor over every node, C^T (rank n - 1),
    # against the modal-like map C^T V, V orthonormal and orthogonal to the
    # ones; either is the reference.
    n = 33 if rng.random() < 1 / 12 else int(rng.integers(2, 13))
    graph = complete_lines(n) if n == 33 else [
        (i + 1, j + 1) for i, j in zip(*np.triu_indices(n, 1)) if j == i + 1 or rng.random() < 0.4]
    incidence = np.zeros((len(graph), n))
    for line, (i, j) in enumerate(graph):
        incidence[line, i - 1], incidence[line, j - 1] = 1.0, -1.0
    v = np.linalg.qr(np.column_stack((np.ones(n), rng.standard_normal((n, n - 1)))))[0][:, 1:]
    noise = np.diag(10.0 ** rng.uniform(-3.0, 3.0, n) * (rng.random(n) < 0.8))
    modal = v.T @ noise @ v + 10.0 ** rng.uniform(-16.0, -4.0) * symmetric(rng, n - 1)
    pairs = [(incidence, noise), (incidence @ v, modal)]
    return (*pairs[:: (1, -1)[int(rng.integers(2))]], None)


class TestCompareByPanels:
    """``compare_variance`` reads the symmetric blocks by row panels."""

    @pytest.mark.parametrize(
        "doc, routes",
        [
            (network_doc(24, complete_lines(24), noise={2: 0.04, 5: 0.1, 8: 0.02}),
             {"numeric", "uniform", "closed"}),
            (complete60_doc(), {"numeric", "uniform", "closed"}),
            (star_doc(), {"numeric", "uniform", "closed"}),
            (sparse_doc(), {"numeric", "uniform"}),
        ],
        ids=["complete24", "complete60", "star", "sparse"],
    )
    def test_discrepancy_has_the_bits_of_the_built_blocks(self, doc, routes):
        # All routes at once, then each route alone against numeric.
        net = network_from_dict(doc)
        for methods in (None, *([route] for route in sorted(routes - {"numeric"}))):
            comparison = compare_variance(net, methods)
            assert set(comparison.reports) == (routes if methods is None else {"numeric", *methods})
            reference = comparison.reports.pop("numeric")
            built = max(
                relative_discrepancy(getattr(report, block), getattr(reference, block))
                for report in comparison.reports.values()
                for block in ("q_delta", "q_omega", "q_delta_omega")
            )
            assert comparison.max_relative_discrepancy.hex() == built.hex(), methods

    def test_tiles_that_cannot_raise_the_maximum_are_skipped_exactly(self):
        # Dense m = 600 blocks make five tiles: (0, 0), (0, 256), (0, 512),
        # (256, 256), (512, 512).  The largest |a - b| sits in the second
        # (against |b| = 1e6), the largest ratio in the last, where a < b
        # and max |a - b| is at most twice the ratio found in the first.
        rng = np.random.default_rng(600)
        m = 600
        b = rng.standard_normal((m, m))
        b = 0.5 * (b + b.T)
        planted = {(10, 300): (1e6, 1.0), (3, 5): (0.0, 0.4), (550, 560): (0.0, -0.5)}
        a = b.copy()
        for (i, j), (value, gap) in planted.items():
            b[i, j] = b[j, i] = value
            a[i, j] = a[j, i] = value + gap
        near = b + 1e-3 * np.abs(rng.standard_normal((m, m)))
        near = 0.5 * (near + near.T)
        tiles = [(i, j, tile.shape) for i, j, tile in variance.upper_tiles(b)]
        assert [(i, j) for i, j, _ in tiles] == [(0, 0), (0, 256), (0, 512), (256, 256), (512, 512)]
        gap = np.abs(a - b)
        ratio = gap / (1.0 + np.abs(b))
        assert np.unravel_index(gap.argmax(), gap.shape) == (10, 300)
        assert np.unravel_index(ratio.argmax(), ratio.shape) == (550, 560)
        assert ratio.max() <= 2 * ratio[:256, :256].max()
        kept = [block.copy() for block in (a, near, b)]
        whole = max(relative_discrepancy(a, b), relative_discrepancy(near, b))
        assert whole.hex() == float(ratio.max()).hex()
        for others in ([a, near], [near, a]):
            assert pipeline._symmetric_discrepancy(others, b).hex() == whole.hex()
        # The differences are formed in the tiles, never in the blocks.
        assert all(np.array_equal(x, y) for x, y in zip(kept, (a, near, b)))

    @pytest.mark.parametrize("case", PAIR_BOUND_CASES)
    def test_pair_bound_holds(self, case):
        # The bound of pipeline._pair_bound is at least max |a - b| over the
        # paired tiles of upper_tiles, whatever the projection p.
        rng = np.random.default_rng([37, PAIR_BOUND_CASES.index(case)])
        for _ in range(60):
            (lines, core), (other_lines, other_core), p = pair_bound_draw(rng, case)
            reference = variance.Congruence(lines, core)
            other = variance.Congruence(other_lines, other_core)
            if p is None:
                p = np.linalg.lstsq(lines, other_lines, rcond=None)[0]
            gap = max(float(np.abs(a - b).max()) for (_, _, a), (_, _, b)
                      in zip(variance.upper_tiles(reference), variance.upper_tiles(other)))
            bound = pipeline._pair_bound(reference, other, p)
            assert gap <= bound, (lines.shape, other_lines.shape, gap, bound)

    def test_cleared_pairs_form_no_angle_tile(self, monkeypatch):
        # On the dense-compare network the frequency block sets a worst that
        # clears both angle pairs from their factors; with numeric's angle
        # core scaled by 1.001 neither clears, and the tiles are formed.
        net = network_from_dict(complete60_doc())
        tiled = []

        def spy(block):
            tiled.append(block.shape)
            return variance.upper_tiles(block)

        monkeypatch.setattr(pipeline, "upper_tiles", spy)
        for scale, angle_blocks in ((1.0, 0), (1.001, 3)):
            def numeric(lin, mc, scale=scale):
                report = variance.asymptotic_variance_numeric(lin)
                delta = variance.Congruence(report.delta.lines, scale * report.delta.core)
                return replace(report, delta=delta)

            monkeypatch.setitem(pipeline.ROUTES, "numeric", pipeline.Route(numeric, True))
            tiled.clear()
            comparison = compare_variance(net)
            assert tiled.count((1770, 1770)) == angle_blocks
            reference = comparison.reports.pop("numeric")
            built = max(
                relative_discrepancy(getattr(report, block), getattr(reference, block))
                for report in comparison.reports.values()
                for block in ("q_delta", "q_omega", "q_delta_omega")
            )
            assert comparison.max_relative_discrepancy.hex() == built.hex()
        assert comparison.max_relative_discrepancy > 1e-9

    def test_only_tall_pairs_are_bounded(self, monkeypatch):
        # The frequency blocks' maps are square (60 x 60); only the angle
        # pairs (1770 rows) reach the bound, and the maximum keeps its bits.
        net = network_from_dict(complete60_doc())
        real_bound = pipeline._pair_bound
        bounded = []

        def spy(reference, other, p):
            bounded.append((reference.lines.shape, other.lines.shape))
            return real_bound(reference, other, p)

        monkeypatch.setattr(pipeline, "_pair_bound", spy)
        comparison = compare_variance(net)
        assert len(bounded) == 2
        assert all(ours[0] == theirs[0] == 1770 for ours, theirs in bounded), bounded
        reference = comparison.reports.pop("numeric")
        built = max(
            relative_discrepancy(getattr(report, block), getattr(reference, block))
            for report in comparison.reports.values()
            for block in ("q_delta", "q_omega", "q_delta_omega")
        )
        assert comparison.max_relative_discrepancy.hex() == built.hex()

    def test_numeric_matches_closed_across_the_leaf(self):
        # complete n=60 has 119 reduced states, so its solve recurses.  The
        # cross block is 5e4 times smaller than the frequency block and is
        # measured against the geometric mean of the two diagonal blocks,
        # which bounds a covariance (Cauchy-Schwarz).
        net = network_from_dict(complete60_doc())
        assert 2 * net.node_count - 1 > LEAF
        numeric, closed = run_variance(net, "numeric"), run_variance(net, "closed")
        scale = {block: np.abs(getattr(closed, block)).max() for block in ("q_delta", "q_omega")}
        scale["q_delta_omega"] = math.sqrt(scale["q_delta"] * scale["q_omega"])
        for block, bound in scale.items():
            error = np.abs(getattr(numeric, block) - getattr(closed, block)).max()
            assert error <= 1e-10 * bound, (block, error / bound)

    def test_two_panels_and_a_dense_angle_block_are_covered(self):
        complete = compare_variance(network_from_dict(network_doc(24, complete_lines(24))))
        assert complete.reports["numeric"].line_count > variance.PANEL_ROWS
        star = compare_variance(network_from_dict(star_doc()))
        assert isinstance(star.reports["closed"].delta, np.ndarray)

    def test_no_block_is_built(self, monkeypatch):
        builds = count_congruence_fills(monkeypatch, "array")
        comparison = compare_variance(network_from_dict(complete60_doc()))
        factored = [block for report in comparison.reports.values()
                    for block in (report.delta, report.omega)
                    if isinstance(block, variance.Congruence)]
        assert len(factored) == 5
        assert builds == [] and not any("array" in vars(block) for block in factored)

    @pytest.mark.parametrize(
        "noise",
        [{17: 0.04}, {2: 0.04, 5: 0.1, 8: 0.02}, {}, dict.fromkeys(range(1, 25), 0.04)],
        ids=["one-source", "three-sources", "no-noise", "every-node"],
    )
    def test_closed_complete_factor_has_one_column_per_noisy_node(self, noise):
        net = network_from_dict(network_doc(24, complete_lines(24), noise=noise))
        comparison = compare_variance(net)
        delta = comparison.reports["closed"].delta
        noisy = [node - 1 for node in sorted(noise)]
        assert isinstance(delta, variance.Congruence)
        assert np.array_equal(delta.lines, graphs.incidence(net.topology).T[:, noisy])
        assert delta.core.shape == (len(noisy), len(noisy))
        assert comparison.max_relative_discrepancy <= 1e-8
        if not noise:
            assert not comparison.reports["closed"].q_delta.any()

    def test_dense_compare_peaks_below_20_mb(self):
        net = network_from_dict(complete60_doc())
        compare_variance(net)  # imports and first-use set-up are not the comparison's
        tracemalloc.start()
        try:
            comparison = compare_variance(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert comparison.max_relative_discrepancy <= 1e-8 and peak <= 20e6, peak


# Exact CSV bytes on a complete n=2 graph (gamma=1, eta=1, d=5, noise 1 at
# node 1), pinned so that a change to the writers cannot change the output.
GOLDEN_NUMERIC_CSV = """\
quantity,index_i,index_j,value,method,stderr
delta,1,1,0.049999999999999933,numeric,
omega,1,1,0.098076923076923089,numeric,
omega,1,2,-9.2422493512395484e-18,numeric,
omega,2,1,-9.2422493512395484e-18,numeric,
omega,2,2,0.0019230769230769097,numeric,
cross,1,1,0.0096153846153846437,numeric,
cross,2,1,0.0096153846153846124,numeric,
"""

GOLDEN_SIMULATE_CSV = """\
quantity,index_i,index_j,value,method,stderr
delta,1,1,0.033625403909128222,monte-carlo,0.013722759261516676
omega,1,1,0.084559471080406193,monte-carlo,0.0067002441038577863
omega,1,2,-0.00044285649840527413,monte-carlo,0.00058972727948219906
omega,2,1,-0.00044285649840527413,monte-carlo,0.00058972727948219906
omega,2,2,0.0012903991979168975,monte-carlo,0.00055314394463485067
cross,1,1,0.0047956393688963119,monte-carlo,0.0031247083547473798
cross,2,1,0.0064478311747220443,monte-carlo,0.0027554553695618433
"""

GOLDEN_COMPARE_CSV = """\
quantity,index_i,index_j,value,method,stderr,max_relative_discrepancy
delta,1,1,0.050000000000000003,closed-form,,6.608470384673552e-17
omega,1,1,0.098076923076923089,closed-form,,6.608470384673552e-17
omega,1,2,1.7347234759768071e-18,closed-form,,6.608470384673552e-17
omega,2,1,1.7347234759768071e-18,closed-form,,6.608470384673552e-17
omega,2,2,0.0019230769230769232,closed-form,,6.608470384673552e-17
cross,1,1,0.0096153846153846159,closed-form,,6.608470384673552e-17
cross,2,1,0.0096153846153846159,closed-form,,6.608470384673552e-17
delta,1,1,0.049999999999999933,numeric,,6.608470384673552e-17
omega,1,1,0.098076923076923089,numeric,,6.608470384673552e-17
omega,1,2,-9.2422493512395484e-18,numeric,,6.608470384673552e-17
omega,2,1,-9.2422493512395484e-18,numeric,,6.608470384673552e-17
omega,2,2,0.0019230769230769097,numeric,,6.608470384673552e-17
cross,1,1,0.0096153846153846437,numeric,,6.608470384673552e-17
cross,2,1,0.0096153846153846124,numeric,,6.608470384673552e-17
delta,1,1,0.049999999999999975,uniform-ratio,,6.608470384673552e-17
omega,1,1,0.098076923076923034,uniform-ratio,,6.608470384673552e-17
omega,1,2,-8.6906785392027628e-19,uniform-ratio,,6.608470384673552e-17
omega,2,1,-8.6906785392027628e-19,uniform-ratio,,6.608470384673552e-17
omega,2,2,0.0019230769230769195,uniform-ratio,,6.608470384673552e-17
cross,1,1,0.0096153846153846124,uniform-ratio,,6.608470384673552e-17
cross,2,1,0.0096153846153846124,uniform-ratio,,6.608470384673552e-17
"""

GOLDEN_SWEEP_CSV = """\
eta,method,delta_1_1,delta_1_1_stderr,omega_1_1,omega_1_1_stderr
1,mc,0.033625403909128222,0.013722759261516676,0.084559471080406193,0.0067002441038577863
1,first-order,0.049999999999999982,,,
2,mc,0.033544852959535909,0.014661431649105088,0.037291421974911677,0.0044874605796318924
2,first-order,0.049999999999999982,,,
"""


def two_node_network():
    return network_from_dict(
        network_doc(2, [(1, 2)], inertia=1.0, damping=5.0, noise={1: 1.0}, capacity=1.0)
    )


class TestReportSerialization:
    def test_csv_long_format(self):
        net = network_from_dict(network_doc(3, complete_lines(3), noise={1: 0.3}))
        report = run_variance(net, "numeric")
        buffer = io.StringIO()
        write_report(report, buffer, "csv")
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "quantity,index_i,index_j,value,method,stderr"
        assert len(lines) == 1 + 9 + 9 + 9
        assert lines[1].startswith("delta,1,1,")

    def test_json_round_trips(self):
        net = network_from_dict(network_doc(3, complete_lines(3), noise={1: 0.3}))
        report = run_variance(net, "uniform")
        buffer = io.StringIO()
        write_report(report, buffer, "json")
        payload = json.loads(buffer.getvalue())
        assert payload["method"] == "uniform-ratio"
        np.testing.assert_array_equal(np.array(payload["q_delta"]), report.q_delta)

    def test_numeric_csv_bytes(self):
        buffer = io.StringIO()
        write_report(run_variance(two_node_network(), "numeric"), buffer, "csv")
        assert buffer.getvalue() == GOLDEN_NUMERIC_CSV

    def test_simulate_csv_bytes_with_stderr(self):
        report = run_variance(two_node_network(), "mc", {"trajectories": 4, "master_seed": 3})
        buffer = io.StringIO()
        write_report(report, buffer, "csv")
        assert buffer.getvalue() == GOLDEN_SIMULATE_CSV

    def test_compare_csv_bytes_with_discrepancy(self):
        buffer = io.StringIO()
        write_comparison(compare_variance(two_node_network()), buffer, "csv")
        assert buffer.getvalue() == GOLDEN_COMPARE_CSV

    def test_mc_first_order_sweep_csv_bytes(self):
        spec = two_node_mc_sweep_spec()
        buffer = io.StringIO()
        write_sweep(run_sweep(replace(spec, mc_overrides={**spec.mc_overrides, "master_seed": 3})),
                    spec, buffer)
        assert buffer.getvalue() == GOLDEN_SWEEP_CSV

    def test_comparison_json(self):
        net = network_from_dict(network_doc(4, [(1, 2), (1, 3), (1, 4)], noise={2: 0.3}))
        comparison = compare_variance(net)
        csv, text = io.StringIO(), io.StringIO()
        write_comparison(comparison, csv, "csv")
        write_comparison(comparison, text, "json")
        payload = json.loads(text.getvalue())
        assert sorted(payload["methods"]) == ["closed", "numeric", "uniform"]
        for method, blocks in payload["methods"].items():
            report = comparison.reports[method]
            assert sorted(blocks) == ["q_delta", "q_delta_omega", "q_omega"]
            assert np.shape(blocks["q_delta"]) == (3, 3)
            assert np.shape(blocks["q_omega"]) == (4, 4)
            assert np.shape(blocks["q_delta_omega"]) == (4, 3)
            for name in blocks:
                np.testing.assert_array_equal(blocks[name], getattr(report, name))
        last = {float(row.rsplit(",", 1)[1]) for row in csv.getvalue().splitlines()[1:]}
        assert last == {payload["max_relative_discrepancy"]}

    def test_seventeen_digit_numbers_round_trip(self):
        rng = np.random.default_rng(3)
        for value in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(format_number(float(value))) == float(value)

    def test_csv_number_kernel_matches_format_number(self):
        values = csv_kernel_values()
        fields = np.zeros((len(values), pipeline._WIDTH + 1), np.uint8)
        fields[:, -1] = ord("\n")
        with np.errstate(all="raise"):
            pipeline._format(values, fields[:, :-1])
        got = fields.tobytes().translate(None, b"\0").decode().splitlines()
        wrong = [(value, text) for value, text in zip(values.tolist(), got)
                 if text != format_number(value)]
        assert len(got) == len(values) and not wrong, wrong[:5]

    def test_report_csv_lines_match_format_number(self):
        # Blocks of 150 x 120 entries: indices past 99, and block rows that
        # cross a chunk boundary; Monte Carlo stderr and compare columns.
        values = csv_kernel_values()[:3 * 150 * 120].reshape(3, 150, 120)
        plain = variance.CovarianceReport(*values, "numeric")
        stderr = dict(zip(("stderr_delta", "stderr_omega", "stderr_cross"), values[::-1]))
        mc = variance.CovarianceReport(*values, "monte-carlo", stderr)
        comparison = pipeline.Comparison({"uniform": replace(plain, method="uniform-ratio"),
                                          "numeric": plain}, 1.0 / 3.0)
        header = "quantity,index_i,index_j,value,method,stderr"
        suffix = ",0.33333333333333331"
        for write, subject, expected in (
            (write_report, plain, header + "\n" + expected_csv(plain)),
            (write_report, mc, header + "\n" + expected_csv(mc)),
            (write_comparison, comparison, header + ",max_relative_discrepancy\n"
             + expected_csv(plain, suffix) + expected_csv(comparison.reports["uniform"], suffix)),
        ):
            buffer = io.StringIO()
            with np.errstate(all="raise"):
                write(subject, buffer)
            assert buffer.getvalue() == expected

    def test_report_csv_peaks_below_8_5_mb(self):
        # A seeded sparse n=300 network; the blocks are built before the count.
        rng = np.random.default_rng(300)
        graph = random_connected_graph(rng, 300, extra_edge_prob=0.005)
        noise = dict(enumerate(rng.uniform(0.02, 0.08, 300), start=1))
        net = network_from_dict(network_doc(300, [(i, j) for i, j, _ in graph.edges], noise=noise))
        report = run_variance(net, "numeric")
        assert report.q_delta.shape[0] > 500 and report.q_omega is not None
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                write_report(report, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8.5e6, peak


def csv_kernel_values():
    """Doubles on every branch of ``pipeline._format``, then 200,000 seeded
    random bit patterns."""
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    digits = 1.2345678901234567 * 10.0 ** np.arange(-6, 20)
    cases = [
        # Exact 17-digit ties: one rounds up to even, one down.
        [1234567890123456.75, 1234567890123456.25, -1234567890123456.75],
        # The switch between fixed and scientific notation.
        [1e-05, 9.9999999999999995e-05, 1e-04, 0.00012, 9.9999999999999e-06],
        # 10^16 and 10^17 and their neighbours, every power of ten and its
        # neighbours (some round up to the power, a carry), and 10^±280.
        np.nextafter([1e16, 1e17], 0), [1e16, 1e17, 1e280, 1e-280, -1e280],
        np.nextafter([1e16, 1e17, 1e280, 1e-280], np.inf), np.nextafter([1e280, 1e-280], 0),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        # The decimal point in every position, trailing zeros, integers.
        digits, -digits, [1.5, 12.25, 123.125, 1e15 + 0.5, 100.0, 1e15, 120.0, 1.0],
        np.arange(-1000.0, 1001.0), 2.0 ** np.arange(70), 3.0 ** np.arange(40),
        # Zeros, subnormals, three-digit exponents, non-finite values.
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-123, -2.5e200],
        [np.nan, np.inf, -np.inf],
    ]
    rng = np.random.default_rng(2024)
    patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    return np.concatenate([np.hstack(cases), patterns])


def expected_csv(report, suffix=""):
    """The CSV lines of ``report``, each number by ``format_number``."""
    lines = []
    for quantity, block in (("delta", report.q_delta), ("omega", report.q_omega),
                            ("cross", report.q_delta_omega)):
        stderr = report.diagnostics.get(f"stderr_{quantity}")
        for (i, j), value in np.ndenumerate(block):
            error = "" if stderr is None else format_number(stderr[i, j])
            lines.append(f"{quantity},{i + 1},{j + 1},{format_number(value)},"
                         f"{report.method},{error}{suffix}\n")
    return "".join(lines)


def sweep_doc(noise=None, axes=None, methods=None, quantities=None, kind="complete", n=20):
    return {
        "schema_version": 1,
        "base": {
            "kind": kind,
            "n": n,
            "gamma": 10.0,
            "eta": 0.5,
            "damping": 0.3 if kind == "complete" else 0.2,
            "noise": noise or {"2": 0.04},
        },
        "axes": axes or [{"parameter": "eta", "grid": [0.1, 0.2, 0.5, 1.0, 2.0]}],
        "methods": methods or ["closed", "numeric"],
        "quantities": quantities or [{"block": "omega", "i": 2, "j": 2}],
    }


def sweep_with(base=None, **fields):
    """sweep_doc() with ``base`` merged into its base and ``fields`` replacing its own."""
    doc = sweep_doc()
    doc["base"].update(base or {})
    doc.update(fields)
    return doc


TREND_QUANTITIES = [{"block": "omega", "i": 2, "j": 2}, {"block": "delta", "i": 1, "j": 1},
                    {"block": "delta", "i": 2, "j": 2}]


def two_node_mc_sweep_spec():
    doc = sweep_doc(
        noise={"1": 1.0},
        n=2,
        axes=[{"parameter": "eta", "grid": [1.0, 2.0]}],
        methods=["mc", "first-order"],
        quantities=[{"block": "delta", "i": 1, "j": 1}, {"block": "omega", "i": 1, "j": 1}],
    )
    doc["base"].update(gamma=1.0, eta=1.0, damping=5.0)
    doc["mc"] = {"trajectories": 4}
    return sweep_from_dict(doc)


class TestSweeps:
    def test_frequency_sweep_routes_agree(self):
        spec = sweep_from_dict(sweep_doc())
        rows = run_sweep(spec)
        assert len(rows) == 10  # 5 grid points x 2 methods
        by_eta = {}
        for row in rows:
            by_eta.setdefault(row["eta"], {})[row["method"]] = row["omega_2_2"]
        for eta, values in by_eta.items():
            closed, numeric = values["closed"], values["numeric"]
            assert abs(closed - numeric) <= 1e-8 * (1 + abs(numeric))

    def test_star_size_sweep_other_line_decreases(self):
        spec = sweep_from_dict(
            sweep_doc(
                kind="star",
                noise={"2": 0.5},
                axes=[{"parameter": "n", "grid": [6, 10, 16, 24, 40]}],
                methods=["closed"],
                quantities=[{"block": "delta", "i": 2, "j": 2}],
            )
        )
        rows = run_sweep(spec)
        values = [row["delta_2_2"] for row in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_empty_methods_rejected(self):
        doc = sweep_doc()
        doc["methods"] = []
        with pytest.raises(ValidationError, match="methods"):
            sweep_from_dict(doc)

    def test_unknown_axis_parameter_rejected(self):
        doc = sweep_doc(axes=[{"parameter": "voltage", "grid": [1.0]}])
        with pytest.raises(ValidationError, match="voltage"):
            sweep_from_dict(doc)

    @pytest.mark.parametrize("key", ["two", "1.5", "2_0", " 2", "+2", "\u0662"])
    def test_non_integer_noise_node_rejected(self, key):
        with pytest.raises(ValidationError, match=re.escape(f"sweep.base.noise: node index must be an integer, got {key!r}")):
            sweep_from_dict(sweep_doc(noise={key: 0.5}))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["quantities"][0].update(i=2.7), "sweep: quantities[0].i: expected an integer, got 2.7"),
            (lambda doc: doc["quantities"][0].update(j=1.5), "sweep: quantities[0].j: expected an integer, got 1.5"),
            (lambda doc: doc["base"].update(n=20.9), "sweep.base.n: expected an integer, got 20.9"),
            (lambda doc: doc.update(axes=[{"parameter": "n", "grid": [10, 20.5]}]),
             "sweep: axes[0].grid: expected an integer, got 20.5"),
            (lambda doc: doc["base"].update(noise={"2": 0.04, "02": 0.5}),
             "sweep.base.noise: node 2 is given more than once"),
        ],
        ids=["quantity-i", "quantity-j", "base-n", "n-axis", "repeated-noise-node"],
    )
    def test_truncating_sweep_field_rejected(self, tmp_path, capsys, edit, message):
        doc = sweep_doc()
        edit(doc)
        with pytest.raises(ValidationError, match=re.escape(message)):
            sweep_from_dict(doc)
        path = write_doc(tmp_path, doc, "sweep.json")
        assert main(["sweep", "--spec", str(path)]) == 2
        assert message.split(": ", 1)[1] in capsys.readouterr().err

    def test_integral_float_sweep_fields_accepted(self):
        doc = sweep_doc(axes=[{"parameter": "n", "grid": [4.0, 5]}], methods=["closed"],
                        quantities=[{"block": "omega", "i": 2.0, "j": 2}])
        doc["base"]["n"] = 6.0
        spec = sweep_from_dict(doc)
        assert spec.base.n == 6 and spec.quantities == (("omega", 2, 2),)
        assert [row["n"] for row in run_sweep(spec)] == [4, 5]

    @pytest.mark.parametrize("node", [0, 6])
    def test_base_built_in_code_rejects_a_noise_node_outside_it(self, node):
        with pytest.raises(ValidationError, match=re.escape(f"noise node {node} is outside 1..5")):
            HomogeneousBase("complete", 5, 1.0, 1.0, 1.0, ((node, 0.1),))

    def test_base_built_in_code_rejects_an_unknown_kind(self):
        with pytest.raises(ValidationError, match=re.escape("kind must be 'complete' or 'star', got 'ring'")):
            HomogeneousBase("ring", 4, 1.0, 1.0, 1.0, ((2, 0.1),))

    def test_quantity_out_of_range(self):
        doc = sweep_doc(quantities=[{"block": "omega", "i": 99, "j": 1}])
        with pytest.raises(ValidationError, match=re.escape("sweep: quantities[0]: omega[99,1] out of range")):
            sweep_from_dict(doc)
        # A spec built in code is checked when its cell is read.
        spec = replace(sweep_from_dict(sweep_doc()), quantities=(("omega", 99, 1),))
        with pytest.raises(ValidationError, match="out of range"):
            run_sweep(spec)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["base"].update(gamma=-1),
             ".base.gamma: expected a positive number, got -1"),
            (lambda doc: doc["base"].update(noise={"2": -0.04}),
             ".base.noise[2]: expected a non-negative number, got -0.04"),
            (lambda doc: doc["base"].update(noise={"0": 0.04}),
             ".base.noise: node indices start at 1, got '0'"),
            (lambda doc: doc.update(axes=[{"parameter": "eta", "grid": [0.5, 0.0]}]),
             ": axes[0].grid: expected a positive number, got 0.0"),
            (lambda doc: doc.update(axes=[{"parameter": "n", "grid": [20, 10, 5]}],
                                    base={**doc["base"], "noise": {"9": 0.1}}),
             ": axes[0].grid: expected at least 2 nodes and at least the largest noise node (9), got 5"),
            (lambda doc: doc.update(base={"kind": "network", "path": "net.json"},
                                    axes=[{"parameter": "inertia_scale", "grid": [1.0, -1.0]}]),
             ": axes[0].grid: expected a positive number, got -1.0"),
            (lambda doc: doc.update(axes=[{"parameter": "n", "grid": [5]}],
                                    quantities=[{"block": "delta", "i": 11, "j": 1}]),
             ": quantities[0]: delta[11,1] out of range for shape (10, 10) at n=5"),
            (lambda doc: doc.update(axes=[{"parameter": "eta", "grid": [0.5, 1.0]},
                                          {"parameter": "eta", "grid": [2.0, 3.0]}],
                                    base={**doc["base"], "n": 4}),
             ": axes[1]: parameter 'eta' is already swept by axes[0]"),
            (lambda doc: doc.update(quantities=[{"block": "delta", "i": 1, "j": 1},
                                                {"block": "omega", "i": 1, "j": 2},
                                                {"block": "omega", "i": 2, "j": 1},
                                                {"block": "delta", "i": 1, "j": 1}]),
             ": quantities[3]: delta[1,1] is already recorded by quantities[0]"),
        ],
        ids=["base-gamma", "base-noise", "noise-node-zero", "eta-grid", "n-grid-below-noise-node",
             "inertia-scale-grid", "quantity-index", "repeated-axis", "repeated-quantity"],
    )
    def test_bad_sweep_file_exits_two_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                       edit, message):
        write_doc(tmp_path, network_doc(4, complete_lines(4), noise={2: 0.1}))
        doc = sweep_doc()
        edit(doc)
        path = write_doc(tmp_path, doc, "spec.json")
        calls, real_linearized = [], pipeline.linearized
        monkeypatch.setattr(pipeline, "linearized",
                            lambda net: calls.append(net) or real_linearized(net))
        assert main(["sweep", "--spec", str(path)]) == 2
        assert calls == []
        assert capsys.readouterr().err == f"gridfluct: {path}{message}\n"

    def test_csv_bytes_stable_across_runs(self):
        spec = sweep_from_dict(sweep_doc(axes=[{"parameter": "gamma", "grid": [5.0, 10.0]}]))
        outputs = []
        for _ in range(2):
            rows = run_sweep(spec)
            buffer = io.StringIO()
            write_sweep(rows, spec, buffer)
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]

    def test_cells_run_on_the_calling_thread(self, monkeypatch):
        threads = []
        real_linearized = pipeline.linearized
        monkeypatch.setattr(pipeline, "linearized",
                            lambda net: threads.append(threading.get_ident()) or real_linearized(net))
        monkeypatch.setenv("GRIDFLUCT_THREADS", "3")
        spec = sweep_from_dict(sweep_doc(axes=[{"parameter": "damping", "grid": [0.2, 0.4, 0.8]}]))
        run_sweep(spec)
        assert threads == [threading.get_ident()] * 3

    @pytest.mark.parametrize("kind, noise", [("complete", {"2": 0.04}), ("star", {"2": 0.5})])
    def test_trend_sweep_builds_one_incidence_per_cell(self, monkeypatch, kind, noise):
        builds = []
        build = graphs._incidence_matrix
        monkeypatch.setattr(graphs, "_incidence_matrix",
                            lambda *args: builds.append(args) or build(*args))
        spec = sweep_from_dict(sweep_doc(
            kind=kind,
            noise=noise,
            axes=[{"parameter": "damping", "grid": [0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 1.7, 2.5]}],
            methods=["closed", "numeric", "uniform", "first-order"],
            quantities=[{"block": "omega", "i": 2, "j": 2}, {"block": "delta", "i": 1, "j": 1}],
        ))
        assert len(run_sweep(spec)) == 32
        # One per grid point: its four cells share one linearization, whose
        # graph's incidence the closed route reads.
        assert len(builds) == 8

    def test_each_grid_point_is_linearized_once_and_no_block_is_built(self, monkeypatch):
        calls = []
        real_linearized = pipeline.linearized
        monkeypatch.setattr(pipeline, "linearized",
                            lambda net: calls.append(net) or real_linearized(net))
        builds = count_congruence_fills(monkeypatch, "array")
        spec = sweep_from_dict(sweep_doc(
            axes=[{"parameter": "damping", "grid": [0.1, 0.3, 0.8]}],
            methods=["closed", "numeric", "uniform", "first-order"],
            quantities=TREND_QUANTITIES,
        ))
        assert len(run_sweep(spec)) == 12
        assert len(calls) == 3
        # Sweeps read entries from the factors; no m x m block is built.
        assert builds == []

    def test_cross_cells_are_the_reports_entries(self, monkeypatch):
        reports = []

        def recorded(run):
            return lambda lin, mc: reports.append(run(lin, mc)) or reports[-1]

        monkeypatch.setattr(pipeline, "ROUTES", {
            name: replace(route, run=recorded(route.run)) for name, route in pipeline.ROUTES.items()
        })
        builds = count_congruence_fills(monkeypatch, "array")
        entries = [(1, 1), (2, 3), (4, 6)]
        doc = sweep_doc(
            n=4,
            axes=[{"parameter": "damping", "grid": [0.3, 0.8]}],
            methods=list(pipeline.ROUTES),
            quantities=[{"block": "cross", "i": i, "j": j} for i, j in entries],
        )
        doc["mc"] = {"trajectories": 4}
        rows = run_sweep(sweep_from_dict(doc))
        assert [row["method"] for row in rows] == 2 * list(pipeline.ROUTES)
        for row, report in zip(rows, reports, strict=True):
            cross = report.cross
            if row["method"] == "first-order":
                assert cross is None
                assert all(row[f"cross_{i}_{j}"] is None for i, j in entries)
                continue
            assert isinstance(cross, np.ndarray) and cross is report.q_delta_omega
            for i, j in entries:
                assert row[f"cross_{i}_{j}"].hex() == float(cross[i - 1, j - 1]).hex(), row["method"]
        assert builds == []

    @pytest.mark.parametrize("method", ["closed", "numeric", "uniform", "first-order"])
    def test_complete_n100_cell_peaks_below_25_mb(self, method):
        def spec(n):
            axes = [{"parameter": "n", "grid": [n]}]
            return sweep_from_dict(sweep_doc(axes=axes, methods=[method], quantities=TREND_QUANTITIES))

        run_sweep(spec(4))  # imports and first-use set-up are not the cell's
        tracemalloc.start()
        try:
            rows = run_sweep(spec(100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 1 and peak <= 25e6, peak

    def test_mc_sweep_deterministic_with_stderr_column(self):
        doc = sweep_doc(
            kind="complete",
            n=2,
            noise={"1": 1.0},
            axes=[{"parameter": "damping", "grid": [4.0, 6.0]}],
            methods=["mc"],
            quantities=[{"block": "omega", "i": 1, "j": 1}],
        )
        doc["mc"] = {"trajectories": 40, "master_seed": 5}
        spec = sweep_from_dict(doc)
        rows_a = run_sweep(spec)
        rows_b = run_sweep(spec)
        assert rows_a == rows_b
        assert all(row["omega_1_1_stderr"] > 0 for row in rows_a)


class TestCommandLine:
    def test_solve_human(self, tmp_path, capsys):
        path = write_doc(tmp_path, network_doc(3, complete_lines(3), noise={2: 0.1}))
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "synchronous frequency" in out
        assert "secure: yes" in out

    def test_solve_json(self, capsys):
        assert main(["solve", str(STAR6), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["angles", "margins", "residual_norm", "secure", "sync_frequency"]
        assert len(payload["angles"]) == 6 and len(payload["margins"]) == 5
        assert payload["secure"] is True

    def test_solve_csv(self, capsys):
        assert main(["solve", str(STAR6), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "line,from,to,margin"
        rows = [line.rsplit(",", 1) for line in lines[1:]]
        assert [row[0] for row in rows] == [f"{k},hub,gen-{k + 1}" for k in range(1, 6)]
        # No power flows, so every angle difference is 0 and each margin pi/2.
        assert all(float(row[1]) == pytest.approx(math.pi / 2) for row in rows)

    def test_variance_json(self, tmp_path, capsys):
        path = write_doc(tmp_path, network_doc(3, complete_lines(3), noise={2: 0.1}))
        assert main(["variance", str(path), "--method", "uniform", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "uniform-ratio"

    def test_compare_csv_has_discrepancy_column(self, tmp_path, capsys):
        path = write_doc(tmp_path, network_doc(4, complete_lines(4), noise={2: 0.3}))
        assert main(["compare", str(path)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith("max_relative_discrepancy")

    def test_assumption_violation_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, network_doc(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
        assert main(["variance", str(path), "--method", "closed"]) == 2
        assert "complete/star" in capsys.readouterr().err

    def test_internal_invariant_failure_exits_one(self, tmp_path, capsys):
        # On this slow but valid star the Bartels-Stewart solve has to
        # perturb a near-zero eigenvalue pair, so its solution is wrong (the
        # angle block would have smallest eigenvalue -3.0e-5 against a
        # largest entry of 2.5e-5).  That reports an internal error, not a
        # traceback or a warning.
        doc = network_doc(4, [(1, 2), (1, 3), (1, 4)], inertia=1e9, damping=0.2, noise={2: 0.1})
        path = write_doc(tmp_path, doc)
        assert main(["variance", str(path), "--method", "numeric"]) == 1
        assert "internal error: Lyapunov solve perturbed the equation" in capsys.readouterr().err

    def test_overflowing_lyapunov_solution_exits_one(self, tmp_path, capsys):
        # The frequency variance is about 2.5e302, so the reduced state
        # covariance exceeds float range and trsyl scales it down.
        doc = network_doc(2, [(1, 2)], inertia=1.0, damping=1e-3, noise={1: 1e150}, capacity=1.0)
        net = network_from_dict(doc)
        for method in ("uniform", "closed"):
            assert run_variance(net, method).q_omega[0, 0] == pytest.approx(2.5e302, rel=1e-3)
        with pytest.raises(InternalInvariantError, match="trsyl scale"):
            run_variance(net, "numeric")
        path = write_doc(tmp_path, doc)
        assert main(["variance", str(path), "--method", "numeric"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gridfluct: internal error: Lyapunov solution overflows (trsyl scale")

    def test_schur_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # gees reports that its QR algorithm did not converge (info = n).
        flapack = lyapunov._flapack()
        gees = flapack.dgees

        def failing(*args, **kwargs):
            *result, _ = gees(*args, **kwargs)
            return (*result, args[1].shape[0])

        monkeypatch.setattr(flapack, "dgees", failing)
        path = write_doc(tmp_path, network_doc(4, [(1, 2), (1, 3), (1, 4)], noise={2: 0.1}))
        assert main(["variance", str(path), "--method", "numeric"]) == 1
        assert capsys.readouterr().err == (
            "gridfluct: internal error: real Schur form of A not found (gees info 7): "
            "the QR algorithm did not converge\n"
        )

    def test_angle_block_invariant_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # A solver returning a negated (negative definite) state covariance
        # fails the angle block's PSD check on its factored core.
        real_solve = variance.lyapunov_solve_with_abscissa

        def negated(a, w):
            q, abscissa = real_solve(a, w)
            return -q, abscissa

        monkeypatch.setattr(variance, "lyapunov_solve_with_abscissa", negated)
        path = write_doc(tmp_path, network_doc(4, [(1, 2), (1, 3), (1, 4)], noise={2: 0.1}))
        assert main(["variance", str(path), "--method", "numeric"]) == 1
        err = capsys.readouterr().err
        assert "internal error: angle-difference block is not positive semi-definite" in err

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize(
        "where, field",
        [("nodes[0]", "inertia"), ("nodes[1]", "power"), ("lines[0]", "capacity")],
    )
    def test_non_finite_number_exits_two(self, tmp_path, capsys, literal, where, field):
        doc = network_doc(3, complete_lines(3), noise={1: 0.1})
        kind, pos = where.rstrip("]").split("[")
        doc[kind][int(pos)][field] = float(literal)
        path = write_doc(tmp_path, doc)
        assert literal in path.read_text()
        assert main(["variance", str(path), "--method", "numeric"]) == 2
        err = capsys.readouterr().err
        assert f"{where}.{field}: expected a finite number, got {float(literal)!r}" in err

    def test_number_beyond_float_range_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, network_doc(2, [(1, 2)], noise={1: 0.1}))
        text = path.read_text()
        path.write_text(text.replace('"capacity": 10.0', '"capacity": 1' + "0" * 400))
        assert main(["solve", str(path)]) == 2
        assert "lines[0].capacity: expected a finite number" in capsys.readouterr().err
        # Beyond Python's integer digit limit, or nested deeper than its
        # recursion limit, the JSON parser itself refuses: in a network, a
        # sweep or a Monte Carlo file alike.
        huge = "1" + "0" * 5000
        deep = "[" * 10_000 + "]" * 10_000
        net_path = write_doc(tmp_path, network_doc(2, [(1, 2)], noise={1: 0.1}), "valid.json")
        sweep_path, mc_path = tmp_path / "sweep.json", tmp_path / "mc.json"
        simulate = ["simulate", str(net_path), "--mc-config", str(mc_path)]
        cases = [
            (["solve", str(path)], path, text.replace('"capacity": 10.0', f'"capacity": {huge}')),
            (["solve", str(path)], path, text.replace('"capacity": 10.0', f'"capacity": {deep}')),
            (["sweep", "--spec", str(sweep_path)], sweep_path, deep),
            (simulate, mc_path, f'{{"trajectories": {huge}}}'),
            (simulate, mc_path, f'{{"trajectories": {deep}}}'),
        ]
        for argv, bad, content in cases:
            bad.write_text(content)
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith(f"gridfluct: {bad}: "), argv

    def test_routes_without_lyapunov_solve_do_not_import_scipy(self, tmp_path):
        script = """
import contextlib, io, sys
from gridfluct.cli import main
from gridfluct.montecarlo import agreement
star, mc, sweep = sys.argv[1:]
commands = [["solve", star]]
commands += [["variance", star, "--method", m] for m in ("closed", "uniform", "first-order")]
commands += [["simulate", star, "--mc-config", mc],
             ["variance", star, "--method", "mc", "--mc-config", mc],
             ["sweep", "--spec", sweep]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        assert main(argv) == 0, argv
assert "scipy" not in sys.modules, sorted(k for k in sys.modules if k.startswith("scipy"))
"""
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        star = str(root / "scripts" / "specs" / "star6.json")
        mc, sweep = tmp_path / "mc.json", tmp_path / "sweep.json"
        mc.write_text(json.dumps({"trajectories": 4}))
        sweep.write_text(json.dumps({
            "schema_version": 1, "base": {"kind": "network", "path": star},
            "axes": [{"parameter": "noise_scale", "grid": [1.0, 2.0]}], "methods": ["mc"],
            "quantities": [{"block": "omega", "i": 2, "j": 2}], "mc": {"trajectories": 4},
        }))
        result = subprocess.run([sys.executable, "-c", script, star, str(mc), str(sweep)],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_numeric_routes_do_not_import_scipy_linalg(self, tmp_path):
        # The Lyapunov solve loads scipy's LAPACK wrapper module alone.
        script = """
import contextlib, io, sys
from gridfluct.cli import main
star, sweep = sys.argv[1:]
commands = [["variance", star, "--method", "numeric"], ["compare", star],
            ["sweep", "--spec", sweep]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        assert main(argv) == 0, argv
assert "scipy" in sys.modules
assert "scipy.linalg" not in sys.modules, sorted(k for k in sys.modules if k.startswith("scipy"))
"""
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        star = str(root / "scripts" / "specs" / "star6.json")
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "schema_version": 1, "base": {"kind": "network", "path": star},
            "axes": [{"parameter": "noise_scale", "grid": [1.0, 2.0]}], "methods": ["numeric"],
            "quantities": [{"block": "omega", "i": 2, "j": 2}],
        }))
        result = subprocess.run([sys.executable, "-c", script, star, str(sweep)],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_numerically_disconnected_network(self, tmp_path, capsys):
        doc = network_doc(3, [(1, 2), (2, 3)], inertia=1.0, damping=1.0, noise={1: 0.1})
        doc["lines"][0]["capacity"] = 1.0
        doc["lines"][1]["capacity"] = 1e-10
        path = write_doc(tmp_path, doc)
        assert main(["solve", str(path)]) == 0
        capsys.readouterr()
        assert main(["variance", str(path), "--method", "numeric"]) == 2
        assert "disconnected" in capsys.readouterr().err

    def test_sweep_with_unknown_method_exits_two(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_doc(methods=["numeric", "spectral"])))
        assert main(["sweep", "--spec", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'spectral'" in captured.err
        assert "numeric, uniform, closed, first-order, mc" in captured.err

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_repeated_method_exits_two_before_any_route(self, tmp_path, capsys, monkeypatch,
                                                         command):
        net = write_doc(tmp_path, network_doc(4, complete_lines(4), noise={2: 0.3}))
        spec = write_doc(tmp_path, sweep_doc(methods=["closed", "numeric", "closed"]), "spec.json")
        calls = []
        monkeypatch.setattr(pipeline, "linearized", lambda net: calls.append(net))
        args = {"sweep": ["sweep", "--spec", str(spec)],
                "compare": ["compare", str(net), "--methods", "closed,numeric,closed"]}[command]
        assert main(args) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gridfluct: method 'closed' is named more than once\n"

    def test_compare_rejects_inexact_route(self, tmp_path, capsys):
        path = write_doc(tmp_path, network_doc(4, complete_lines(4), noise={2: 0.3}))
        assert main(["compare", str(path), "--methods", "first-order"]) == 2
        err = capsys.readouterr().err
        assert "'first-order'" in err and "numeric, uniform, closed" in err

    @pytest.mark.parametrize("method", ["numeric", "mc"])
    def test_single_node_network_writes_frequency_entry_only(self, tmp_path, capsys, method):
        path = write_doc(tmp_path, network_doc(1, [], noise={1: 0.1}))
        config = tmp_path / "mc.json"
        config.write_text(json.dumps({"trajectories": 4}))
        assert main(["variance", str(path), "--method", method, "--mc-config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[1].startswith("omega,1,1,")

    @pytest.mark.parametrize("command", ["variance", "compare", "sweep", "simulate"])
    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    def test_unopenable_out_exits_two(self, tmp_path, capsys, monkeypatch, command, target):
        monkeypatch.chdir(tmp_path)
        write_doc(tmp_path, network_doc(2, [(1, 2)], inertia=1.0, damping=5.0, noise={1: 1.0},
                                        capacity=1.0))
        write_doc(tmp_path, {"trajectories": 4}, "mc.json")
        write_doc(tmp_path, sweep_doc(noise={"1": 1.0}, n=2), "sweep.json")
        argv = {
            "variance": ["variance", "net.json", "--method", "closed"],
            "compare": ["compare", "net.json"],
            "sweep": ["sweep", "--spec", "sweep.json"],
            "simulate": ["simulate", "net.json", "--mc-config", "mc.json"],
        }[command]
        assert main([*argv, "--out", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gridfluct: --out {target}: cannot open for writing: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config, message", [
        (None, "No such file"),
        ({"trajectories": 1}, "trajectories: expected at least 2, got 1"),
    ])
    def test_mc_config_is_checked_whatever_the_route(self, tmp_path, capsys, config, message):
        net_path = write_doc(tmp_path, network_doc(3, complete_lines(3), noise={2: 0.1}))
        mc_path = tmp_path / "mc.json"
        if config is not None:
            mc_path.write_text(json.dumps(config))
        assert main(["variance", str(net_path), "--method", "numeric",
                     "--mc-config", str(mc_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gridfluct: {mc_path}: ") and message in err

    def test_valid_mc_config_leaves_other_routes_unchanged(self, tmp_path, capsys):
        net_path = write_doc(tmp_path, network_doc(3, complete_lines(3), noise={2: 0.1}))
        mc_path = write_doc(tmp_path, {"trajectories": 4, "master_seed": 9}, "mc.json")
        argv = ["variance", str(net_path), "--method", "numeric"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--mc-config", str(mc_path)]) == 0
        assert capsys.readouterr().out == plain

    def test_single_node_network_has_no_closed_form(self, tmp_path, capsys):
        # The closed route names its assumption; compare skips it.
        path = write_doc(tmp_path, network_doc(1, [], noise={1: 0.1}))
        assert main(["variance", str(path), "--method", "closed"]) == 2
        assert capsys.readouterr().err == (
            "gridfluct: closed forms need at least 2 nodes; this network has 1\n"
        )
        assert main(["compare", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "closed" not in captured.out and "numeric" in captured.out

    def test_duplicate_line_exits_two_naming_lines_and_ids(self, tmp_path, capsys):
        path = write_doc(tmp_path, network_doc(3, [(1, 2), (2, 3), (3, 2)], noise={1: 0.1}))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: lines[2]: duplicate of lines[1] between nodes 'n3' and 'n2'" in err

    @pytest.mark.parametrize("command, doc, message", [
        ("sweep", [], ": document must be an object"),
        ("sweep", {**sweep_doc(), "schema_version": 2}, ": unsupported schema_version 2"),
        ("solve", {"schema_version": 1, "lines": []}, ": missing required field 'nodes'"),
        ("solve", {**network_doc(2, [(1, 2)]), "nodes": []}, ": 'nodes' must be a non-empty list"),
        ("solve", {**network_doc(2, [(1, 2)]), "lines": {}}, ": 'lines' must be a list"),
        ("solve", {**network_doc(2, []), "nodes": [1]}, ": nodes[0]: must be an object"),
        ("solve", {**network_doc(2, []), "lines": ["n1-n2"]}, ": lines[0]: must be an object"),
        ("solve", network_doc(2, [(1, 2), (2, 2)]),
         ": lines[1]: line endpoints must differ, got 'n2'"),
        ("sweep", {**sweep_doc(), "base": []}, ": 'base' must be an object"),
        ("sweep", sweep_with(base={"noise": []}), ".base: 'noise' must map node index to amplitude"),
        ("sweep", sweep_with(base={"kind": "ring"}),
         ".base: kind must be 'complete', 'star' or 'network', got 'ring'"),
        ("sweep", sweep_with(axes=[]), ": 'axes' must be a non-empty list"),
        ("sweep", sweep_with(axes=["eta"]), ": axes[0]: must be an object"),
        ("sweep", sweep_with(axes=[{"parameter": "eta", "grid": []}]),
         ": axes[0]: 'grid' must be a non-empty list"),
        ("sweep", sweep_with(quantities=[]), ": 'quantities' must be a non-empty list"),
        ("sweep", sweep_with(quantities=[["omega", 2, 2]]), ": quantities[0]: must be an object"),
        ("sweep", sweep_with(quantities=[{"block": "theta", "i": 1, "j": 1}]),
         ": quantities[0]: block must be one of delta, omega, cross, got 'theta'"),
        ("sweep", sweep_with(quantities=[{"block": "omega", "i": 0, "j": 1}]),
         ": quantities[0]: indices are 1-based and must be positive"),
        ("sweep", sweep_with(mc=[4]), ".mc: Monte Carlo overrides must be an object"),
    ], ids=["sweep-not-object", "sweep-schema-version", "missing-field", "empty-nodes",
            "lines-not-list", "node-not-object", "line-not-object", "self-loop", "base-not-object",
            "noise-not-map", "unknown-kind", "empty-axes", "axis-not-object", "empty-grid",
            "empty-quantities", "quantity-not-object", "unknown-block", "zero-index",
            "mc-not-object"])
    def test_malformed_file_exits_two_with_its_message(self, tmp_path, capsys, command, doc,
                                                       message):
        path = write_doc(tmp_path, doc)
        args = ["sweep", "--spec", str(path)] if command == "sweep" else ["solve", str(path)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"gridfluct: {path}{message}\n"

    def test_invalid_file_exits_two(self, tmp_path, capsys):
        doc = network_doc(2, [(1, 2)])
        doc["nodes"][0]["damping"] = 0.0
        path = write_doc(tmp_path, doc)
        assert main(["solve", str(path)]) == 2
        assert "damping" in capsys.readouterr().err

    def test_sweep_to_file(self, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_doc(axes=[{"parameter": "gamma", "grid": [10.0]}])))
        out_path = tmp_path / "rows.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "gamma,method,omega_2_2"
        assert len(lines) == 3

    def test_simulate_with_config(self, tmp_path, capsys):
        doc = network_doc(2, [(1, 2)], inertia=1.0, damping=5.0, noise={1: 1.0}, capacity=1.0)
        net_path = write_doc(tmp_path, doc)
        mc_path = tmp_path / "mc.json"
        mc_path.write_text(json.dumps({"trajectories": 30}))
        assert main([
            "simulate", str(net_path), "--mc-config", str(mc_path), "--seed", "4"
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "quantity,index_i,index_j,value,method,stderr"
        assert any(line.split(",")[-1] not in ("", "stderr") for line in lines[1:])

    @pytest.mark.parametrize("field, value, expected", [
        ("inertia", 0, "a positive number, got 0"),
        ("inertia", -1, "a positive number, got -1"),
        ("damping", 0, "a positive number, got 0"),
        ("damping", -1, "a positive number, got -1"),
        ("capacity", 0, "a positive number, got 0"),
        ("capacity", -1, "a positive number, got -1"),
        ("noise", -0.1, "a non-negative number, got -0.1"),
        ("power", "x", "a number, got 'x'"),
        ("power", True, "a number, got True"),
        ("power", None, "a number, got None"),
        ("inertia", "x", "a number, got 'x'"),
        ("inertia", True, "a number, got True"),
        ("inertia", None, "a number, got None"),
    ])
    def test_bad_network_field_exits_two_naming_it(self, tmp_path, capsys, field, value, expected):
        doc = network_doc(3, [(1, 2), (2, 3)], noise={1: 0.1})
        where = "lines" if field == "capacity" else "nodes"
        doc[where][1][field] = value
        path = write_doc(tmp_path, doc)
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == f"gridfluct: {path}: {where}[1].{field}: expected {expected}\n"

    @pytest.mark.parametrize("command", ["simulate", "variance", "sweep"])
    def test_seed_replaces_the_files_master_seed(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        write_doc(tmp_path, network_doc(2, [(1, 2)], inertia=1.0, damping=5.0, noise={1: 1.0},
                                        capacity=1.0))

        def output(master_seed, *seed):
            mc = {"trajectories": 4, "master_seed": master_seed}
            if command == "sweep":
                doc = sweep_doc(noise={"1": 1.0}, n=2, axes=[{"parameter": "eta", "grid": [1.0]}],
                                methods=["mc"], quantities=[{"block": "omega", "i": 1, "j": 1}])
                write_doc(tmp_path, {**doc, "mc": mc}, "sweep.json")
                argv = ["sweep", "--spec", "sweep.json"]
            else:
                write_doc(tmp_path, mc, "mc.json")
                argv = [command, "net.json", "--mc-config", "mc.json"]
                argv += ["--method", "mc"] if command == "variance" else []
            assert main([*argv, *seed]) == 0
            return capsys.readouterr().out

        assert output(3) == output(3, "--seed", "3") != output(7)
        assert output(3, "--seed", "7") == output(7)

    @pytest.mark.parametrize(
        "options, config, message",
        [
            (["--seed", "-1"], {}, "--seed: expected at least 0, got -1"),
            ([], {"trajectories": "ten"}, "trajectories: expected an integer, got 'ten'"),
            ([], {"trajectories": 2.5}, "trajectories: expected an integer, got 2.5"),
            ([], {"trajectories": True}, "trajectories: expected an integer, got True"),
            ([], {"sample_stride": 1}, "unknown Monte Carlo field 'sample_stride'; "
                                       "allowed: trajectories, master_seed, dt, burn_in, horizon"),
            ([], {"master_seed": None}, "master_seed: expected an integer, got None"),
            ([], {"dt": "fast"}, "dt: expected a number, got 'fast'"),
            ([], {"horizon": float("inf")}, "horizon: expected a finite number, got inf"),
            ([], {"trajectories": 1}, "trajectories: expected at least 2, got 1"),
            ([], {"dt": 0}, "dt: expected a positive number, got 0"),
            ([], {"dt": -1}, "dt: expected a positive number, got -1"),
            ([], {"burn_in": -5}, "burn_in: expected a non-negative number, got -5"),
            ([], {"horizon": 0.0}, "horizon: expected a positive number, got 0.0"),
            ([], {"horizon": -3}, "horizon: expected a positive number, got -3"),
            ([], {"master_seed": -2}, "master_seed: expected at least 0, got -2"),
        ],
    )
    def test_bad_monte_carlo_setting_exits_two(self, tmp_path, capsys, options, config, message):
        doc = network_doc(2, [(1, 2)], inertia=1.0, damping=5.0, noise={1: 1.0}, capacity=1.0)
        net_path = write_doc(tmp_path, doc)
        mc_path = tmp_path / "mc.json"
        mc_path.write_text(json.dumps(config))
        assert main(["simulate", str(net_path), "--mc-config", str(mc_path), *options]) == 2
        # A value read from the file is named after the file.
        named = f"{mc_path}: " if config else ""
        assert capsys.readouterr().err == f"gridfluct: {named}{message}\n"

    @pytest.mark.parametrize("field, value", [
        ("inertia", 1e300), ("inertia", 1e-300), ("damping", 1e300), ("damping", 1e-320),
        ("capacity", 1e308), ("capacity", 1e-320), ("noise", 1e200),
    ])
    def test_extreme_network_ends_in_an_exit_code(self, tmp_path, capsys, field, value):
        # Every route ends in exit 0 with finite values, exit 2, or exit 1
        # with an internal error, never in a traceback.
        doc = network_doc(2, [(1, 2)], inertia=1.0, damping=1.0, noise={1: 0.1, 2: 0.1},
                          capacity=1.0)
        for entry in doc["nodes"] + doc["lines"]:
            if field in entry:
                entry[field] = value
        path = write_doc(tmp_path, doc)
        config = write_doc(tmp_path, {"trajectories": 4}, "mc.json")
        out = tmp_path / "out.csv"
        for method in ROUTES:
            out.unlink(missing_ok=True)
            code = main(["variance", str(path), "--method", method, "--mc-config", str(config),
                         "--out", str(out)])
            err = capsys.readouterr().err
            if code == 0:
                # Each row's value and, for Monte Carlo, its standard error.
                cells = [row.split(",") for row in out.read_text().splitlines()[1:]]
                assert cells and all(math.isfinite(float(c[3])) for c in cells), method
                assert all(math.isfinite(float(c[5] or 0)) for c in cells), method
            else:
                assert code in (1, 2) and err.startswith("gridfluct: "), (method, code, err)
                assert err.count("\n") == 1 and ("internal error: " in err) == (code == 1)

    def test_overflowing_sweep_cell_exits_one(self, tmp_path, capsys):
        # Cells run under the command line's numpy error state.
        write_doc(tmp_path, network_doc(3, complete_lines(3), noise={1: 0.1}))
        spec = write_doc(tmp_path, {
            "schema_version": 1,
            "base": {"kind": "network", "path": "net.json"},
            "axes": [{"parameter": "noise_scale", "grid": [1.0, 1e200]}],
            "methods": ["numeric", "uniform"],
            "quantities": [{"block": "omega", "i": 1, "j": 1}],
        }, "sweep.json")
        code = main(["sweep", "--spec", str(spec)])
        assert code == 1 and "floating-point range exceeded: overflow" in capsys.readouterr().err

    def test_deep_monte_carlo_value_names_file_and_is_bounded(self, tmp_path, capsys, monkeypatch):
        # A value nested 900 deep is echoed cut short, after the file and the
        # field, in an --mc-config file and in a sweep file's mc block alike.
        monkeypatch.chdir(tmp_path)
        deep = json.loads("[" * 900 + "]" * 900)
        write_doc(tmp_path, network_doc(2, [(1, 2)], noise={1: 0.1}))
        write_doc(tmp_path, {"trajectories": deep}, "mc.json")
        write_doc(tmp_path, {**sweep_doc(), "mc": {"dt": deep}}, "sweep.json")
        cases = [
            (["simulate", "net.json", "--mc-config", "mc.json"],
             "gridfluct: mc.json: trajectories: expected an integer, got [[[["),
            (["sweep", "--spec", "sweep.json"],
             "gridfluct: sweep.json.mc: dt: expected a number, got [[[["),
        ]
        for argv, start in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(start) and "..." in err, err
            assert len(err.encode()) < 200, err

    def test_sweep_with_one_trajectory_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_doc(tmp_path, {**sweep_doc(methods=["mc"]), "mc": {"trajectories": 1}}, "sweep.json")
        assert main(["sweep", "--spec", "sweep.json"]) == 2
        assert capsys.readouterr().err == "gridfluct: sweep.json.mc: trajectories: expected at least 2, got 1\n"

    @pytest.mark.parametrize("methods", [["mc"], ["numeric"]])
    def test_bad_sweep_monte_carlo_setting_exits_two_before_any_cell(self, tmp_path, capsys,
                                                                     monkeypatch, methods):
        # The mc block is checked where the file is read, whether or not an mc cell runs.
        monkeypatch.chdir(tmp_path)
        cells = []
        monkeypatch.setattr(pipeline, "linearized", lambda net: cells.append(net))
        write_doc(tmp_path, {**sweep_doc(methods=methods), "mc": {"dt": -1}}, "sweep.json")
        assert main(["sweep", "--spec", "sweep.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "gridfluct: sweep.json.mc: dt: expected a positive number, got -1\n"
        assert captured.out == "" and cells == []

    def test_negative_sweep_seed_exits_two_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # --seed is checked when the arguments are read, whether or not an mc cell runs.
        monkeypatch.chdir(tmp_path)
        cells = []
        monkeypatch.setattr(pipeline, "linearized", lambda net: cells.append(net))
        write_doc(tmp_path, sweep_doc(methods=["numeric"]), "sweep.json")
        assert main(["sweep", "--spec", "sweep.json", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "gridfluct: --seed: expected at least 0, got -1\n"
        assert captured.out == "" and cells == []

    def test_negative_variance_seed_exits_two_whatever_the_route(self, tmp_path, capsys, monkeypatch):
        # variance reads --seed only for the mc route, but checks it for every route.
        cells = []
        monkeypatch.setattr(pipeline, "linearized", lambda net: cells.append(net))
        path = write_doc(tmp_path, network_doc(3, [(1, 2), (2, 3)], noise={1: 0.1}))
        assert main(["variance", str(path), "--method", "numeric", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "gridfluct: --seed: expected at least 0, got -1\n"
        assert captured.out == "" and cells == []

    def test_subnormal_noise_simulates(self, tmp_path, capsys):
        # A noise of 1e-160 makes the diffusion subnormal; the transition
        # covariance is factored while it is scaled to normal numbers.
        root = Path(__file__).resolve().parent.parent
        doc = json.loads((root / "scripts" / "specs" / "star6.json").read_text())
        doc["nodes"][1]["noise"] = 1e-160
        path = write_doc(tmp_path, doc)
        config = write_doc(tmp_path, {"trajectories": 20}, "mc.json")
        assert main(["simulate", str(path), "--mc-config", str(config)]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert rows and all(math.isfinite(float(row[3])) and math.isfinite(float(row[5]))
                            for row in rows)

    def test_huge_noise_simulates_in_agreement_with_numeric(self, tmp_path, capsys):
        # The divergence guard is relative to the noise: scaling every noise
        # amplitude by 2e13 changes no verdict.
        root = Path(__file__).resolve().parent.parent
        doc = json.loads((root / "scripts" / "specs" / "star6.json").read_text())
        doc["nodes"][1]["noise"] = 1e13
        path = write_doc(tmp_path, doc)
        config = write_doc(tmp_path, {"trajectories": 200}, "mc.json")
        assert main(["simulate", str(path), "--mc-config", str(config), "--seed", "3"]) == 0
        simulated = capsys.readouterr().out.splitlines()[1:]
        assert main(["variance", str(path), "--method", "numeric"]) == 0
        numeric = capsys.readouterr().out.splitlines()[1:]
        mc = np.array([row.split(",") for row in simulated])
        exact = np.array([row.split(",") for row in numeric])
        assert mc.shape == exact.shape and (mc[:, :3] == exact[:, :3]).all()
        # Each distinct entry once: the cross block and the upper triangles.
        distinct = (mc[:, 0] == "cross") | (mc[:, 1].astype(int) <= mc[:, 2].astype(int))
        check = agreement(mc[distinct, 3].astype(float), mc[distinct, 5].astype(float),
                          exact[distinct, 3].astype(float))
        assert check.entries == 66 and check.passed, check

    def test_closed_stdout_ends_without_traceback(self, tmp_path):
        # A reader that stops after one line of a multi-megabyte CSV.
        path = write_doc(tmp_path, network_doc(40, complete_lines(40), noise={1: 0.1}))
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        with subprocess.Popen([sys.executable, "-m", "gridfluct.cli", "variance", str(path),
                               "--method", "closed"], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"quantity,index_i,index_j,value,method,stderr\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        assert err == "gridfluct: output closed before it was complete\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(("args", "target"), [
        (["variance", STAR6, "--method", "numeric", "--out", "/dev/full"], "--out /dev/full"),
        (["variance", STAR6, "--method", "numeric"], "stdout"),
        (["compare", STAR6, "--out", "/dev/full"], "--out /dev/full"),
        (["solve", STAR6, "--format", "csv"], "stdout"),
    ])
    def test_full_output_exits_two_without_traceback(self, args, target):
        # /dev/full refuses every write with ENOSPC, as a full disk does.
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "gridfluct.cli", *map(str, args)],
                                  env=env, stdout=full, stderr=subprocess.PIPE, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"gridfluct: {target}: cannot write: {os.strerror(errno.ENOSPC)}\n")

    def test_null_monte_carlo_setting_means_default(self, tmp_path, capsys):
        doc = network_doc(2, [(1, 2)], inertia=1.0, damping=5.0, noise={1: 1.0}, capacity=1.0)
        net_path = write_doc(tmp_path, doc)
        outputs = []
        for config in ({"trajectories": 3},
                       {"trajectories": 3, "dt": None, "burn_in": None, "horizon": None}):
            mc_path = tmp_path / "mc.json"
            mc_path.write_text(json.dumps(config))
            assert main(["simulate", str(net_path), "--mc-config", str(mc_path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_sweep_loads_relative_network_base(self, tmp_path):
        net_path = write_doc(tmp_path, network_doc(3, complete_lines(3), noise={1: 0.5}))
        sweep_path = tmp_path / "spec.json"
        sweep_path.write_text(json.dumps({
            "schema_version": 1,
            "base": {"kind": "network", "path": net_path.name},
            "axes": [{"parameter": "noise_scale", "grid": [0.5, 1.0, 2.0]}],
            "methods": ["numeric"],
            "quantities": [{"block": "omega", "i": 1, "j": 1}],
        }))
        spec = load_sweep(sweep_path)
        rows = run_sweep(spec)
        # variance scales with the squared noise amplitude
        assert rows[1]["omega_1_1"] == pytest.approx(4 * rows[0]["omega_1_1"], rel=1e-10)
        assert rows[2]["omega_1_1"] == pytest.approx(16 * rows[0]["omega_1_1"], rel=1e-10)
