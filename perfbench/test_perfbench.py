"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gridfluct  # noqa: E402
from gridfluct import cli, netfile, pipeline, variance  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402
from perfbench.tracing import SpanSummary, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _generated(seed: int) -> str:
    docs = {
        "trend": workloads.trend_sweep_docs(seed),
        "dense": workloads.dense_network_docs(seed),
        "sparse": [workloads.sparse_network_doc(seed, n) for n in workloads.SPARSE_SIZES],
        "mc": workloads.mc_docs(seed),
    }
    return json.dumps(docs, sort_keys=True)


def test_generators_are_deterministic_per_seed():
    assert _generated(7) == _generated(7)
    assert _generated(7) != _generated(8)


@pytest.mark.parametrize("n", workloads.SPARSE_SIZES)
def test_sparse_networks_are_valid_and_sized(n):
    net = netfile.network_from_dict(workloads.sparse_network_doc(3, n))
    assert net.line_count == n - 1 + round(0.75 * n)
    assert abs(net.power.sum()) < 1e-9 and abs(net.power).max() > 0
    ratios = net.damping / net.inertia
    assert abs(ratios - workloads.SPARSE_DAMPING_RATIO).max() < 1e-12


def test_self_times_on_nested_span_tree():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has child c [15, 25].
    spans = [
        ("cli.main", 0, 100, -1, 0),
        ("pipeline.write_report", 10, 40, 0, 0),
        ("graphs.laplacian", 15, 25, 1, 0),
        ("variance.make_report", 50, 90, 0, 0),
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    summary = SpanSummary(spans)
    assert summary.layer_ns == {"cli": 30, "pipeline": 20, "pipeline.serialize": 20,
                                "graphs": 10, "variance": 40}
    assert summary.calls["variance.make_report"] == 1


def test_latency_percentiles_are_rank_based_on_the_typical_round():
    from perfbench.run import Outcome, end_to_end_metrics, rank_percentile

    assert rank_percentile([4.0, 1.0, 3.0, 2.0], 50) == 3.0
    assert rank_percentile([4.0, 1.0, 3.0, 2.0], 90) == 4.0
    assert rank_percentile([5.0], 90) == 5.0
    # The typical round takes each op's mean over the rounds: 4 s and 16 s.
    fast = [Outcome(1.0, 1, 0), Outcome(4.0, 2, 0)]
    slow = [Outcome(10.0, 1, 0), Outcome(40.0, 2, 0)]
    metrics = end_to_end_metrics([fast, slow, fast], [0.5, 0.7, 0.6], 2048)
    assert {name: m["value"] for name, m in metrics.items()} == {
        "ops_per_s": 9 / 60, "op_p50_s": 8.0, "op_p90_s": 8.0, "setup_s": 0.6, "peak_rss_mb": 2.0,
    }


def _bindings() -> dict:
    """Identity of every attribute of every gridfluct module and class."""
    seen = {}
    for module in tracing._package_modules():
        for attr, obj in vars(module).items():
            seen[(module.__name__, attr)] = id(obj)
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for name, member in vars(obj).items():
                    seen[(module.__name__, obj.__qualname__, name)] = id(member)
    return seen


def test_wrappers_are_installed_everywhere_and_removed_after():
    original = variance.asymptotic_variance_numeric
    before = _bindings()
    net = netfile.network_from_dict(workloads.complete_doc(4, 10.0, 0.5, 0.3, {2: 0.04}))
    with Tracer() as tracer:
        wrapped = variance.asymptotic_variance_numeric
        assert wrapped is not original
        assert pipeline.asymptotic_variance_numeric is wrapped
        assert gridfluct.asymptotic_variance_numeric is wrapped
        assert cli.run_variance is pipeline.run_variance
        pipeline.run_variance(net, "numeric")  # not recording: no spans
        assert tracer.spans == []
        with tracer.recording_op(0):
            pipeline.run_variance(net, "numeric")
    assert _bindings() == before
    assert variance.asymptotic_variance_numeric is original

    names = [span[0] for span in tracer.spans]
    assert names[0] == "pipeline.run_variance" and tracer.spans[0][3] == -1
    numeric = names.index("variance.asymptotic_variance_numeric")
    assert names[tracer.spans[numeric][3]] == "pipeline.run_variance"
    assert "graphs.WeightedGraph.__post_init__" in names
    assert all(parent < index for index, (*_, parent, _) in enumerate(tracer.spans))


def _result(argv) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = _result(["--workload", "trend-sweep", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 256
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "trend-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
