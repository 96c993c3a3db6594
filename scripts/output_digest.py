#!/usr/bin/env python3
"""sha256 of every CLI output on a fixed set of small networks.

Runs ``gridfluct`` in process on four networks: ``scripts/specs/star6.json``,
a complete n=20 graph with shuffled lines and flipped orientations, a
random sparse n=40 graph with a common damping ratio, and a complete n=24
graph shuffled the same way, whose 276 lines take more than one row panel
of ``variance.PANEL_ROWS`` in the angle block's product.  On each it runs
``variance`` by the numeric, uniform, closed and first-order routes in csv
and json, ``compare`` in csv and json, and ``simulate --seed 3`` with 20
trajectories; then ``sweep --spec scripts/specs/complete_inertia_sweep.json``
and ``sweep --seed 3`` of an ``mc`` and ``first-order`` sweep on a complete
n=2 graph, whose CSV has empty cells and ``_stderr`` columns.
Each output's digest covers the exit code, the output file and the CLI's
error message, so a route that exits 2 is covered too.
Then come numeric ``variance`` csv and ``compare`` csv on a complete n=33
graph shuffled the same way, whose 528 lines take more than one tile of
``variance.TILE_COLS`` columns in a panel row.  Last come closed
``variance`` csv and ``compare`` csv and json on that graph with noise at
one node, whose closed angle block has a one-column factor.  Then numeric
``variance`` csv on the random sparse graph at n=60, whose 119 reduced
states take the Lyapunov solve's recursive multi-leaf path.

Prints one ``<sha256>  <name>`` line per output and a last
``<sha256>  combined`` line over all of them.  Two checkouts whose combined
digests agree produce the same bytes.  The package is imported from this
checkout's ``src/``.

Usage (from the repository root):

    python3 scripts/output_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, set before numpy loads, so the bytes do not depend on
# the host's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gridfluct.cli import main  # noqa: E402

SPECS = ROOT / "scripts" / "specs"


def node(label: str, inertia: float, damping: float, power: float, noise: float) -> dict:
    return {"id": label, "inertia": inertia, "damping": damping, "power": power, "noise": noise}


def shuffled_complete_doc(n: int = 20, noise: dict[int, float] | None = None) -> dict:
    """Homogeneous complete graph, lines listed in random order and direction,
    with ``noise`` at its 0-based nodes (by default 0.04 at 2, 0.02 at 7)."""
    rng = np.random.default_rng(20)
    labels = [f"bus-{k}" for k in rng.permutation(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lines = []
    for k in rng.permutation(len(pairs)):
        i, j = pairs[k]
        if rng.random() < 0.5:
            i, j = j, i
        lines.append({"from": labels[i], "to": labels[j], "capacity": 10.0})
    noise = {2: 0.04, 7: 0.02} if noise is None else noise
    nodes = [node(labels[i], 0.5, 0.3, 0.0, noise.get(i, 0.0)) for i in range(n)]
    return {"schema_version": 1, "nodes": nodes, "lines": lines}


def sparse_doc(n: int = 40) -> dict:
    """Random spanning tree plus n/2 chords, heterogeneous inertia with a
    common damping ratio, small zero-mean power injections."""
    rng = np.random.default_rng(40)
    seen: set[tuple[int, int]] = set()
    for k in range(1, n):
        seen.add((int(rng.integers(0, k)), k))
    while len(seen) < n - 1 + n // 2:
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        seen.add((i, j))
    inertia = rng.uniform(0.5, 2.0, n)
    power = rng.uniform(-0.5, 0.5, n)
    power -= power.mean()
    noise = np.where(rng.random(n) < 0.3, rng.uniform(0.01, 0.1, n), 0.0)
    nodes = [
        node(f"n{i}", float(inertia[i]), float(0.6 * inertia[i]), float(power[i]), float(noise[i]))
        for i in range(n)
    ]
    lines = [
        {"from": f"n{i}", "to": f"n{j}", "capacity": float(rng.uniform(5.0, 15.0))}
        for i, j in sorted(seen)
    ]
    return {"schema_version": 1, "nodes": nodes, "lines": lines}


def mc_sweep_doc() -> dict:
    """Monte Carlo and first-order cells over two inertia values."""
    return {
        "schema_version": 1,
        "base": {"kind": "complete", "n": 2, "gamma": 1.0, "eta": 1.0, "damping": 5.0,
                 "noise": {"1": 1.0}},
        "axes": [{"parameter": "eta", "grid": [1.0, 2.0]}],
        "methods": ["mc", "first-order"],
        "quantities": [{"block": "delta", "i": 1, "j": 1}, {"block": "omega", "i": 1, "j": 1}],
        "mc": {"trajectories": 4},
    }


def run(argv: list[str], out: Path) -> str:
    """sha256 over the exit code, the ``--out`` file and the CLI's own
    stderr messages (not warnings, which name source lines) of one run."""
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    messages = [line for line in err.getvalue().splitlines() if line.startswith("gridfluct:")]
    digest = hashlib.sha256(f"exit {code}\n".encode())
    digest.update(out.read_bytes() if out.exists() else b"")
    digest.update("\n".join(messages).encode())
    return digest.hexdigest()


def outputs(work: Path) -> list[tuple[str, str]]:
    mc_config = work / "mc.json"
    mc_config.write_text(json.dumps({"trajectories": 20}))
    networks = {"star6": SPECS / "star6.json"}
    docs = (
        ("complete20", shuffled_complete_doc()),
        ("sparse40", sparse_doc()),
        ("complete24", shuffled_complete_doc(24)),
    )
    for name, doc in docs:
        networks[name] = work / f"{name}.json"
        networks[name].write_text(json.dumps(doc))

    out = work / "out"
    results = []
    for name, path in networks.items():
        for method in ("numeric", "uniform", "closed", "first-order"):
            for fmt in ("csv", "json"):
                argv = ["variance", str(path), "--method", method, "--format", fmt]
                results.append((f"{name} variance {method} {fmt}", run(argv, out)))
        results.append((f"{name} compare csv", run(["compare", str(path)], out)))
        argv = ["compare", str(path), "--format", "json"]
        results.append((f"{name} compare json", run(argv, out)))
        argv = ["simulate", str(path), "--seed", "3", "--mc-config", str(mc_config)]
        results.append((f"{name} simulate", run(argv, out)))
    sweep = SPECS / "complete_inertia_sweep.json"
    results.append(("sweep complete_inertia_sweep", run(["sweep", "--spec", str(sweep)], out)))
    mc_sweep = work / "mc_sweep.json"
    mc_sweep.write_text(json.dumps(mc_sweep_doc()))
    argv = ["sweep", "--spec", str(mc_sweep), "--seed", "3"]
    results.append(("sweep mc first-order", run(argv, out)))
    complete33 = work / "complete33.json"
    complete33.write_text(json.dumps(shuffled_complete_doc(33)))
    argv = ["variance", str(complete33), "--method", "numeric"]
    results.append(("complete33 variance numeric csv", run(argv, out)))
    results.append(("complete33 compare csv", run(["compare", str(complete33)], out)))
    single33 = work / "single33.json"
    single33.write_text(json.dumps(shuffled_complete_doc(33, {5: 0.04})))
    argv = ["variance", str(single33), "--method", "closed"]
    results.append(("single33 variance closed csv", run(argv, out)))
    results.append(("single33 compare csv", run(["compare", str(single33)], out)))
    argv = ["compare", str(single33), "--format", "json"]
    results.append(("single33 compare json", run(argv, out)))
    sparse60 = work / "sparse60.json"
    sparse60.write_text(json.dumps(sparse_doc(60)))
    argv = ["variance", str(sparse60), "--method", "numeric"]
    results.append(("sparse60 variance numeric csv", run(argv, out)))
    return results


def main_digest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        results = outputs(Path(tmp))
    lines = [f"{digest}  {name}" for name, digest in results]
    combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines))
    print(f"{combined}  combined")


if __name__ == "__main__":
    main_digest()
