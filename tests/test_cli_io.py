"""File formats, route dispatch, sweeps and the command-line surface."""

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

from gridfluct import InternalInvariantError, ValidationError, graphs, load_network, pipeline, variance
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

    @pytest.mark.parametrize("noise", [{17: 0.04}, {2: 0.04, 5: 0.1, 8: 0.02}, {}],
                             ids=["one-source", "three-sources", "no-noise"])
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

    def test_seventeen_digit_numbers_round_trip(self):
        rng = np.random.default_rng(3)
        for value in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(format_number(float(value))) == float(value)


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
        ],
        ids=["base-gamma", "base-noise", "noise-node-zero", "eta-grid", "n-grid-below-noise-node",
             "inertia-scale-grid", "quantity-index"],
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

    def test_duplicate_line_exits_two_naming_lines_and_ids(self, tmp_path, capsys):
        path = write_doc(tmp_path, network_doc(3, [(1, 2), (2, 3), (3, 2)], noise={1: 0.1}))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: lines[2]: duplicate of lines[1] between nodes 'n3' and 'n2'" in err

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
