"""Seeded inputs, operations and correctness checks of the four workloads.

Each workload is built from ``(seed, workdir)``: the generators below turn
the seed into plain network, sweep and Monte Carlo documents, and the
workload hands the package only those documents (as files or as objects
parsed from them).  ``cycle(k)`` returns the operations of the k-th round;
the runner times each operation and then calls its ``check`` outside the
timed region.  Package functions are always reached through module
attributes (``pipeline.run_sweep``, ``cli.main``) so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gridfluct import cli, netfile, pipeline

SRC = Path(__file__).resolve().parent.parent / "src"

# Acceptance criterion 1's tolerance for route agreement.
ROUTE_RTOL = 1e-8
# Acceptance criterion 7's rule for the Monte Carlo oracle.
MC_SIGMAS = 4.0
MC_TRAJECTORIES = 200
REPORT_HEADER = "quantity,index_i,index_j,value,method,stderr"


@dataclass
class Op:
    """One timed unit of work standing for ``count`` operations.

    Exactly one of ``call`` (a library call) and ``argv`` (a command line
    for ``gridfluct``) is set.  ``check`` receives the op's result and
    returns ``(failed operations, stats)``; it never runs inside the timed
    region.
    """

    label: str
    count: int
    check: Callable[[object], tuple[int, dict]]
    call: Callable[[], object] | None = None
    argv: list[str] | None = None


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """This process's environment (thread pins included) with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def run_cli_subprocess(argv: list[str], workdir: Path) -> tuple[float, CliResult, int]:
    """Run ``gridfluct argv`` in a fresh interpreter.

    Returns (wall seconds, result, peak RSS of the child in kB).  The child
    is always reaped before returning.
    """
    err_path = workdir / "child.stderr"
    with open(err_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gridfluct.cli", *argv],
            stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=workdir,
        )
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        result = CliResult(proc.returncode, out.decode(), err.read())
    return seconds, result, usage.ru_maxrss


def run_cli_inprocess(argv: list[str]) -> tuple[float, CliResult]:
    """Run ``gridfluct.cli.main(argv)`` in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return seconds, CliResult(code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# Generators: seed -> plain documents
# ---------------------------------------------------------------------------

def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


def network_doc(inertia, damping, power, noise, lines) -> dict:
    """Network document with nodes ``bus-1..bus-n``; lines are (from, to, capacity), 0-based."""
    ids = [f"bus-{i + 1}" for i in range(len(inertia))]
    return {
        "schema_version": 1,
        "nodes": [
            {"id": ids[i], "inertia": float(inertia[i]), "damping": float(damping[i]),
             "power": float(power[i]), "noise": float(noise[i])}
            for i in range(len(ids))
        ],
        "lines": [{"from": ids[a], "to": ids[b], "capacity": float(c)} for a, b, c in lines],
    }


def complete_doc(n: int, gamma: float, eta: float, damping: float, sources: dict[int, float]) -> dict:
    """Homogeneous complete network with noise only at the 1-based ``sources``."""
    noise = np.zeros(n)
    for node, level in sources.items():
        noise[node - 1] = level
    lines = [(i, j, gamma) for i in range(n) for j in range(i + 1, n)]
    ones = np.ones(n)
    return network_doc(eta * ones, damping * ones, np.zeros(n), noise, lines)


TREND_AXES = {
    "damping": [0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 1.7, 2.5],
    "eta": [0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.2, 2.0],
    "gamma": [1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0],
    "n": [4, 6, 8, 12, 16, 20, 30, 40],
}
TREND_BASES = {
    "complete": {"kind": "complete", "n": 20, "gamma": 10.0, "eta": 0.5,
                 "damping": 0.3, "noise": {"2": 0.04}},
    "star": {"kind": "star", "n": 20, "gamma": 10.0, "eta": 0.5,
             "damping": 0.2, "noise": {"2": 0.5}},
}
TREND_METHODS = ["closed", "numeric", "uniform", "first-order"]
TREND_QUANTITIES = [
    {"block": "omega", "i": 2, "j": 2},
    {"block": "delta", "i": 1, "j": 1},
    {"block": "delta", "i": 2, "j": 2},
]


def trend_sweep_docs(seed: int) -> list[tuple[str, dict]]:
    """The paper's trend grids (2 bases x 4 axes x 8 values x 4 methods = 256
    cells).  The seed jitters every continuous value by up to 5%: the grid
    values of the damping, eta and gamma axes and the base gamma, eta and
    damping of the n axis.  The n grid itself stays fixed, because the cost
    of a complete-graph cell grows like n^6."""
    rng = _rng(seed, 1)

    def jitter(value: float) -> float:
        return float(value * rng.uniform(0.95, 1.05))

    docs = []
    for kind, base in TREND_BASES.items():
        for parameter, grid in TREND_AXES.items():
            axis_base = base
            if parameter == "n":
                axis_base = {**base, **{key: jitter(base[key]) for key in ("gamma", "eta", "damping")}}
            else:
                grid = [jitter(v) for v in grid]
            docs.append((f"{kind}-{parameter}", {
                "schema_version": 1,
                "base": axis_base,
                "axes": [{"parameter": parameter, "grid": grid}],
                "methods": TREND_METHODS,
                "quantities": TREND_QUANTITIES,
            }))
    return docs


DENSE_N = 60
DENSE_VARIANTS = 4


def dense_network_docs(seed: int) -> list[dict]:
    """Complete n=60 networks at the paper's single-source point
    (gamma=10, eta=0.5, d=0.3, noise 0.04): seeded source node, gamma/eta/d
    jittered by up to 10%."""
    rng = _rng(seed, 2)
    docs = []
    for _ in range(DENSE_VARIANTS):
        source = int(rng.integers(1, DENSE_N + 1))
        gamma, eta, damping = (v * rng.uniform(0.9, 1.1) for v in (10.0, 0.5, 0.3))
        docs.append(complete_doc(DENSE_N, gamma, eta, damping, {source: 0.04}))
    return docs


SPARSE_SIZES = (100, 300)
SPARSE_DAMPING_RATIO = 0.6
# Largest DC power-flow angle across a line; keeps every synchronous state
# well inside the security region while Newton still has work to do.
SPARSE_MAX_DC_ANGLE = 0.3


def sparse_network_doc(seed: int, n: int) -> dict:
    """Random spanning tree plus ~0.75n chords, capacities U(5,15),
    inertia U(0.5,2) with a common damping ratio, zero-mean nonzero power."""
    rng = _rng(seed, 3 + n)
    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []

    def add(a: int, b: int) -> None:
        key = (min(a, b), max(a, b))
        if a != b and key not in seen:
            seen.add(key)
            pairs.append((a, b) if rng.random() < 0.5 else (b, a))

    order = rng.permutation(n)
    for k in range(1, n):
        add(int(order[k]), int(order[rng.integers(0, k)]))
    while len(pairs) < n - 1 + round(0.75 * n):
        a, b = rng.integers(0, n, size=2)
        add(int(a), int(b))

    capacity = rng.uniform(5.0, 15.0, len(pairs))
    inertia = rng.uniform(0.5, 2.0, n)
    noise = rng.uniform(0.02, 0.08, n)
    power = rng.standard_normal(n)
    power -= power.mean()

    lap = np.zeros((n, n))
    for (a, b), c in zip(pairs, capacity):
        lap[a, b] -= c
        lap[b, a] -= c
        lap[a, a] += c
        lap[b, b] += c
    theta = np.zeros(n)
    theta[1:] = np.linalg.solve(lap[1:, 1:], power[1:])
    spread = max(abs(theta[a] - theta[b]) for a, b in pairs)
    power *= SPARSE_MAX_DC_ANGLE / spread

    lines = [(a, b, c) for (a, b), c in zip(pairs, capacity)]
    return network_doc(inertia, SPARSE_DAMPING_RATIO * inertia, power, noise, lines)


def mc_docs(seed: int) -> tuple[dict, dict, int]:
    """The n=5 complete single-source benchmark of acceptance criterion 7,
    a 200-trajectory Monte Carlo config and the first op's master seed."""
    network = complete_doc(5, 10.0, 0.5, 0.3, {2: 0.04})
    first_seed = int(_rng(seed, 4).integers(0, 2**31 - 1))
    return network, {"trajectories": MC_TRAJECTORIES}, first_seed


def write_json(doc: dict, path: Path) -> Path:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def parse_report_csv(text: str, n: int, m: int) -> tuple[dict, dict]:
    """Value and stderr blocks of a ``write_report`` CSV; raises ValueError
    when the header, a block name, an index or the row count is wrong."""
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError("unexpected CSV header")
    shapes = {"delta": (m, m), "omega": (n, n), "cross": (n, m)}
    if len(lines) - 1 != sum(r * c for r, c in shapes.values()):
        raise ValueError(f"expected {sum(r * c for r, c in shapes.values())} rows, got {len(lines) - 1}")
    values = {q: np.full(shape, np.nan) for q, shape in shapes.items()}
    stderr = {q: np.full(shape, np.nan) for q, shape in shapes.items()}
    try:
        for line in lines[1:]:
            quantity, i, j, value, _, se = line.split(",")
            values[quantity][int(i) - 1, int(j) - 1] = float(value)
            if se:
                stderr[quantity][int(i) - 1, int(j) - 1] = float(se)
    except (KeyError, IndexError) as exc:
        raise ValueError(f"bad CSV row: {exc!r}") from exc
    if any(np.isnan(block).any() for block in values.values()):
        raise ValueError("CSV does not cover every covariance entry")
    return values, stderr


def report_blocks(report) -> dict:
    return {"delta": report.q_delta, "omega": report.q_omega, "cross": report.q_delta_omega}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class TrendSweep:
    """``run_sweep`` + ``write_sweep`` over the paper's trend grids.

    One op is one sweep cell; each round is one pass of 8 sweeps (one per
    base and axis, 32 cells each), and a cell's latency is the mean cell
    time of the sweep call it belongs to.
    """

    name = "trend-sweep"
    cli = False

    def __init__(self, seed: int, workdir: Path):
        self.specs = [(label, netfile.sweep_from_dict(doc, context=label))
                      for label, doc in trend_sweep_docs(seed)]
        self.out = workdir / "sweep.csv"

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for label, spec in self.specs:
            cells = len(spec.axes[0][1]) * len(spec.methods)
            ops.append(Op(label, cells, check=lambda rows, spec=spec: self.check(spec, rows),
                          call=lambda spec=spec: self.run(spec)))
        return ops

    def run(self, spec):
        rows = pipeline.run_sweep(spec)
        with open(self.out, "w") as fh:
            pipeline.write_sweep(rows, spec, fh)
        return rows

    def check(self, spec, rows) -> tuple[int, dict]:
        """Closed, uniform and numeric agree within 1e-8 relative at every
        grid point; first-order gives finite line variances only.

        A complete graph's lines away from a single source have zero
        variance, so the tolerance is relative to the larger of the two
        values and the largest recorded value of the same block.
        """
        methods = list(spec.methods)
        points = len(spec.axes[0][1])
        failed = 0
        for p in range(points):
            cells = {row["method"]: row for row in rows[p * len(methods):(p + 1) * len(methods)]}
            if list(cells) != methods:
                failed += len(methods)
                continue
            exact = {(b, i, j): [cells[m][f"{b}_{i}_{j}"] for m in ("closed", "uniform", "numeric")]
                     for b, i, j in spec.quantities}
            scale = {}
            for (block, *_), values in exact.items():
                scale[block] = max(scale.get(block, 0.0), *(abs(v) for v in values))
            if not all(
                np.isfinite(a) and np.isfinite(b)
                and abs(a - b) <= ROUTE_RTOL * max(abs(a), abs(b), scale[block])
                for (block, *_), values in exact.items() for a in values for b in values
            ):
                failed += 3
            first_order = cells["first-order"]
            if not all(
                first_order[f"{b}_{i}_{j}"] is None if b != "delta"
                else np.isfinite(first_order[f"{b}_{i}_{j}"])
                for b, i, j in spec.quantities
            ):
                failed += 1
        with open(self.out) as fh:
            written = sum(1 for _ in fh) - 1
        if written != len(rows) or len(rows) != points * len(methods):
            failed = points * len(methods)
        return failed, {"bytes": self.out.stat().st_size}


class DenseCompare:
    """``compare_variance`` (numeric, uniform, closed) on complete n=60 networks."""

    name = "dense-compare"
    cli = False

    def __init__(self, seed: int, workdir: Path):
        self.nets = [netfile.network_from_dict(doc) for doc in dense_network_docs(seed)]

    def cycle(self, k: int) -> list[Op]:
        net = self.nets[k % len(self.nets)]
        return [Op(f"variant-{k % len(self.nets)}", 1, check=self.check,
                   call=lambda: pipeline.compare_variance(net))]

    @staticmethod
    def check(comparison) -> tuple[int, dict]:
        ok = (sorted(comparison.reports) == ["closed", "numeric", "uniform"]
              and comparison.max_relative_discrepancy <= ROUTE_RTOL)
        return int(not ok), {"bytes": 0}


class SparseCli:
    """``gridfluct variance NET --method numeric --format csv --out FILE`` on
    random sparse networks; each round is one n=100 and one n=300 call."""

    name = "sparse-cli"
    cli = True

    def __init__(self, seed: int, workdir: Path):
        self.docs = {n: sparse_network_doc(seed, n) for n in SPARSE_SIZES}
        self.paths = {n: write_json(doc, workdir / f"sparse-{n}.json") for n, doc in self.docs.items()}
        self.out = workdir / "sparse.csv"
        self.digests: dict[int, str] = {}

    def cycle(self, k: int) -> list[Op]:
        return [Op(f"n={n}", 1, check=lambda result, n=n: self.check(n, result),
                   argv=["variance", str(self.paths[n]), "--method", "numeric",
                         "--format", "csv", "--out", str(self.out)])
                for n in SPARSE_SIZES]

    def check(self, n: int, result: CliResult) -> tuple[int, dict]:
        """Exit 0; the first CSV per network matches the library uniform route
        within 1e-8 of each block's scale, later ones are byte-identical.

        The output is deleted after the check, so every op writes a new file
        and no op pays for truncating or writing back an earlier one.
        """
        if result.returncode != 0:
            print(f"sparse-cli n={n}: exit {result.returncode}: {result.stderr[-500:]}", file=sys.stderr)
            return 1, {"bytes": 0}
        data = self.out.read_bytes()
        self.out.unlink()
        digest = hashlib.sha256(data).hexdigest()
        if n in self.digests:
            return int(digest != self.digests[n]), {"bytes": len(data)}
        net = netfile.network_from_dict(self.docs[n])
        reference = report_blocks(pipeline.run_variance(net, "uniform"))
        try:
            values, _ = parse_report_csv(data.decode(), net.node_count, net.line_count)
        except ValueError as exc:
            print(f"sparse-cli n={n}: {exc}", file=sys.stderr)
            return 1, {"bytes": len(data)}
        ok = all(
            np.abs(values[q] - ref).max() <= ROUTE_RTOL * np.abs(ref).max()
            for q, ref in reference.items()
        )
        if ok:
            self.digests[n] = digest
        return int(not ok), {"bytes": len(data)}


class McOracle:
    """``gridfluct simulate NET --seed S --mc-config MC --format csv`` on the
    n=5 benchmark; each op uses the next master seed."""

    name = "mc-oracle"
    cli = True

    def __init__(self, seed: int, workdir: Path):
        network, config, self.first_seed = mc_docs(seed)
        self.net_doc = network
        self.net_path = write_json(network, workdir / "mc-network.json")
        self.config_path = write_json(config, workdir / "mc-config.json")
        self.net = None
        self.reference = None

    def cycle(self, k: int) -> list[Op]:
        argv = ["simulate", str(self.net_path), "--seed", str(self.first_seed + k),
                "--mc-config", str(self.config_path), "--format", "csv"]
        return [Op(f"seed-{self.first_seed + k}", 1, check=self.check, argv=argv)]

    def check(self, result: CliResult) -> tuple[int, dict]:
        """No entry beyond 4 standard errors of the numeric route.

        The stats carry mean over diagonal entries of (stderr/estimate)^2,
        which the runner turns into the projected time to 1% error.
        """
        if result.returncode != 0:
            print(f"mc-oracle: exit {result.returncode}: {result.stderr[-500:]}", file=sys.stderr)
            return 1, {"bytes": 0}
        if self.reference is None:
            self.net = netfile.network_from_dict(self.net_doc)
            self.reference = report_blocks(pipeline.run_variance(self.net, "numeric"))
        net = self.net
        try:
            values, stderr = parse_report_csv(result.stdout, net.node_count, net.line_count)
        except ValueError as exc:
            print(f"mc-oracle: {exc}", file=sys.stderr)
            return 1, {"bytes": len(result.stdout)}
        atol = 1e-14 * max(np.abs(ref).max() for ref in self.reference.values())
        ok = all(
            np.all(np.abs(values[q] - ref) <= MC_SIGMAS * stderr[q] + atol)
            for q, ref in self.reference.items()
        )
        diagonal = [(np.diagonal(stderr[q]) / np.diagonal(values[q])) ** 2 for q in ("delta", "omega")]
        return int(not ok), {"bytes": len(result.stdout),
                             "rel_se2": float(np.concatenate(diagonal).mean())}


WORKLOADS = {w.name: w for w in (TrendSweep, DenseCompare, SparseCli, McOracle)}
