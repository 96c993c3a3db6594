#!/usr/bin/env python3
"""gridfluct benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload sparse-cli --seed 1 --seconds 10 --trace 0

Workloads: trend-sweep, dense-compare, sparse-cli, mc-oracle; BENCHMARK.json
says why each exists.  Inputs are generated from ``--seed``.  The package is
imported from this checkout's ``src/``, and CLI ops run
``python3 -m gridfluct.cli``.  OpenBLAS, OpenMP, MKL and GRIDFLUCT_THREADS
are pinned to 1 in this process and its children.

``--trace 0`` first times set-up (median of five fresh interpreters that
import the package and generate the inputs; they also warm the page cache
for the CLI ops) and, for in-process workloads, runs one untimed warm-up
round.  It then repeats rounds of ops until ``--seconds`` have passed (at
least one round) and prints the end-to-end metrics: throughput and rank
p50/p90 op latency of the typical round, whose every op takes the mean
time of its position over all rounds, set-up time and peak RSS (this
process, or the largest CLI child).

``--trace 1`` ignores ``--seconds``.  After one untimed warm-up op it runs
a fixed list of ops three times: as CLI subprocesses (CLI workloads only),
in process untraced, and in process with span wrappers installed.  It
prints the per-layer metrics and writes the spans to
``perfbench/.work/spans-<workload>.json``.

Every op's output is checked outside the timed region; ``failed`` over
``attempted`` in the result is the failed fraction.  The last stdout line
is the JSON result, and the lines before it record the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# Set in os.environ before numpy is first imported (perfbench.workloads is
# imported lazily for that reason) and inherited by every child process.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GRIDFLUCT_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

SETUP_PROBES = 5
TRACE_ROUNDS = {"trend-sweep": 1, "dense-compare": 2, "sparse-cli": 1, "mc-oracle": 1}
MC_TARGET_REL_SE2 = 1e-4  # (1% relative standard error) squared

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "variance.self_s": "s",
    "variance.make_report.self_s": "s",
    "variance.make_report.calls_per_op": "count",
    "variance.reduce_system.calls_per_op": "count",
    "graphs.self_s": "s",
    "graphs.is_connected.calls_per_op": "count",
    "graphs.whitened_spectrum.calls_per_op": "count",
    "lyapunov.self_s": "s",
    "lyapunov.lyapunov_solve.self_s": "s",
    "lyapunov.assert_hurwitz.self_s": "s",
    "pipeline.self_s": "s",
    "pipeline.serialize.self_s": "s",
    "pipeline.serialize.bytes_per_op": "B",
    "pipeline.canonicalize_homogeneous.calls_per_op": "count",
    "swing.self_s": "s",
    "swing.solve_synchronous_state.calls_per_op": "count",
    "montecarlo.self_s": "s",
    "montecarlo.traj_steps_per_op": "count",
    "montecarlo.ns_per_traj_step": "ns",
    "montecarlo.kept_step_frac": "ratio",
    "montecarlo.time_to_1pct_s": "s",
    "netfile.self_s": "s",
    "closedforms.self_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Outcome:
    """Timed result of one Op: ``count`` operations taking ``seconds``."""

    seconds: float
    count: int
    failed: int
    rss_kb: int = 0
    stats: dict = field(default_factory=dict)


def execute(op, mode: str, workdir: Path, tracer=None, index: int = 0) -> Outcome:
    """Time one op (``mode`` "subprocess" or "inprocess" for CLI ops), then check it.

    An op or a check that raises counts all the op's operations as failed;
    the run goes on.
    """
    from perfbench import workloads

    recording = tracer.recording_op(index) if tracer else contextlib.nullcontext()
    rss_kb = 0
    start = time.perf_counter()
    try:
        if op.call is not None:
            with recording:
                result = op.call()
            seconds = time.perf_counter() - start
        elif mode == "subprocess":
            seconds, result, rss_kb = workloads.run_cli_subprocess(op.argv, workdir)
        else:
            with recording:
                seconds, result = workloads.run_cli_inprocess(op.argv)
    except Exception:
        print(f"perfbench: op {op.label} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return Outcome(time.perf_counter() - start, op.count, op.count)
    try:
        failed, stats = op.check(result)
    except Exception:
        print(f"perfbench: check of op {op.label} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        failed, stats = op.count, {}
    return Outcome(seconds, op.count, failed, rss_kb, stats)


def setup_probe_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import and generate the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def rank_percentile(values: list[float], q: float) -> float:
    """Smallest value with more than q% of ``values`` at or below it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.floor(q / 100.0 * len(ordered)))]


def end_to_end_metrics(rounds: list[list[Outcome]], setup_times: list[float],
                       peak_rss_kb: int) -> dict:
    """Throughput and rank latency percentiles of the typical round.

    Every round runs the same ops in the same order.  The typical round
    gives each op the mean of its times over all rounds, so its throughput
    is the whole run's.  A shared machine switches between slow and fast
    spells; a mean over the run moves with the share of the run each took,
    where a median jumps from one to the other when the shares are close.

    Rounds mix ops of very different cost: half of a trend-sweep round is
    cheap star cells and half dear complete cells, and a sparse-cli round
    is one n=100 and one n=300 call.  A rank percentile is always the
    latency of a real op, never a midpoint between the two clusters; taking
    more than half (not at least half) of the ops puts the p50 of such a
    round on the dear side, where sweep calls are long and their timing
    least noisy.
    """
    typical = [(statistics.fmean(o.seconds for o in column), column[0].count)
               for column in zip(*rounds, strict=True)]
    latencies = [seconds / count for seconds, count in typical for _ in range(count)]
    values = {
        "ops_per_s": sum(count for _, count in typical) / sum(seconds for seconds, _ in typical),
        "op_p50_s": rank_percentile(latencies, 50),
        "op_p90_s": rank_percentile(latencies, 90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def mc_time_to_1pct(outcomes: list[Outcome]) -> float:
    """Median over ops of wall time x mean diagonal (stderr/estimate)^2 / 1e-4."""
    projected = [o.seconds * o.stats["rel_se2"] / MC_TARGET_REL_SE2
                 for o in outcomes if "rel_se2" in o.stats]
    return statistics.median(projected) if projected else 0.0


class MonteCarloCounts:
    """Trajectory steps and kept samples of every ``simulate_covariance`` call."""

    def __init__(self):
        self.traj_steps = 0
        self.kept = 0

    def observe(self, args, kwargs, report) -> None:
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        if cfg is None:
            return
        steps = int(round(cfg.burn_in / cfg.dt)) + int(round(cfg.horizon / cfg.dt))
        self.traj_steps += steps * cfg.trajectories
        self.kept += report.diagnostics["samples_per_trajectory"] * cfg.trajectories


def per_layer_metrics(summary, traced, plain, sub, mc: MonteCarloCounts) -> dict:
    ops = sum(o.count for o in traced)
    layer = {name: summary.layer_ns.get(name, 0) / 1e9 / ops for name in (
        "variance", "graphs", "lyapunov", "pipeline", "pipeline.serialize", "swing",
        "montecarlo", "netfile", "closedforms", "cli")}
    fn_s = lambda name: summary.self_ns.get(name, 0) / 1e9 / ops  # noqa: E731
    calls = lambda name: summary.calls.get(name, 0) / ops  # noqa: E731
    values = {
        "variance.self_s": layer["variance"],
        "variance.make_report.self_s": fn_s("variance.make_report"),
        "variance.make_report.calls_per_op": calls("variance.make_report"),
        "variance.reduce_system.calls_per_op": calls("variance.reduce_system"),
        "graphs.self_s": layer["graphs"],
        "graphs.is_connected.calls_per_op": calls("graphs.is_connected"),
        "graphs.whitened_spectrum.calls_per_op": calls("graphs.whitened_spectrum"),
        "lyapunov.self_s": layer["lyapunov"],
        "lyapunov.lyapunov_solve.self_s": fn_s("lyapunov.lyapunov_solve"),
        "lyapunov.assert_hurwitz.self_s": fn_s("lyapunov.assert_hurwitz"),
        "pipeline.self_s": layer["pipeline"],
        "pipeline.serialize.self_s": layer["pipeline.serialize"],
        "pipeline.serialize.bytes_per_op": sum(o.stats.get("bytes", 0) for o in traced) / ops,
        "pipeline.canonicalize_homogeneous.calls_per_op": calls("pipeline.canonicalize_homogeneous"),
        "swing.self_s": layer["swing"],
        "swing.solve_synchronous_state.calls_per_op": calls("swing.solve_synchronous_state"),
        "montecarlo.self_s": layer["montecarlo"],
        "montecarlo.traj_steps_per_op": mc.traj_steps / ops,
        "montecarlo.ns_per_traj_step": (summary.layer_ns.get("montecarlo", 0) / mc.traj_steps
                                        if mc.traj_steps else 0.0),
        "montecarlo.kept_step_frac": mc.kept / mc.traj_steps if mc.traj_steps else 0.0,
        "montecarlo.time_to_1pct_s": mc_time_to_1pct(sub),
        "netfile.self_s": layer["netfile"],
        "closedforms.self_s": layer["closedforms"],
        "cli.self_s": layer["cli"],
        "cli.startup_s": (statistics.mean(s.seconds - p.seconds for s, p in zip(sub, plain))
                          if sub else 0.0),
        "trace.overhead_frac": (sum(o.seconds for o in traced) / sum(o.seconds for o in plain) - 1.0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "cpus": os.cpu_count(),
    }


def run_untraced(workload, args, workdir: Path) -> tuple[dict, list[Outcome], str]:
    setup_times = setup_probe_seconds(args)
    # In-process ops pay first-call costs (lazy imports, allocator growth)
    # once per process; CLI ops pay them in every child, so they get none.
    warmup = [] if workload.cli else [execute(op, "inprocess", workdir) for op in workload.cycle(0)]
    rounds: list[list[Outcome]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append([execute(op, "subprocess", workdir) for op in workload.cycle(len(rounds))])
    outcomes = warmup + [o for r in rounds for o in r]
    peak_kb = (max(o.rss_kb for o in outcomes) if workload.cli
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    note = f"rounds={len(rounds)} setup_probes_s={[round(t, 4) for t in setup_times]}"
    if workload.name == "mc-oracle":
        note += f" mc_time_to_1pct_s={mc_time_to_1pct(outcomes):.6g}"
    return end_to_end_metrics(rounds, setup_times, peak_kb), outcomes, note


def run_traced(workload, args, workdir: Path) -> tuple[dict, list[Outcome], str]:
    from perfbench.tracing import SpanSummary, Tracer

    ops = [op for k in range(TRACE_ROUNDS[workload.name]) for op in workload.cycle(k)]
    # Untimed warm-up, so that neither timed in-process pass pays first-call costs.
    warmup = [execute(ops[0], "inprocess", workdir)]
    sub = [execute(op, "subprocess", workdir) for op in ops] if workload.cli else []
    plain = [execute(op, "inprocess", workdir) for op in ops]
    mc = MonteCarloCounts()
    with Tracer() as tracer:
        tracer.observers["montecarlo.simulate_covariance"] = mc.observe
        traced = [execute(op, "inprocess", workdir, tracer, i) for i, op in enumerate(ops)]
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"spans-{workload.name}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                   "spans": tracer.spans}, fh)
    metrics = per_layer_metrics(SpanSummary(tracer.spans), traced, plain, sub, mc)
    return metrics, warmup + sub + plain + traced, f"spans={len(tracer.spans)}"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the package and generate the inputs (times set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridfluct" / "__init__.py").is_file():
        print(f"perfbench: no gridfluct package under {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            return 0
        runner = run_traced if args.trace else run_untraced
        metrics, outcomes, note = runner(workload, args, workdir)
    finally:
        shutil.rmtree(workdir)
    attempted = sum(o.count for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed} {note}")
    print(f"perfbench: environment={json.dumps(environment(), sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # Unwind on SIGTERM so that running CLI children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(ROOT)]
    raise SystemExit(main())
