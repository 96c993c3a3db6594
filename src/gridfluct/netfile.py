"""Versioned JSON formats for networks and parameter sweeps.

A network file looks like::

    {
      "schema_version": 1,
      "nodes": [
        {"id": "a", "inertia": 0.5, "damping": 0.3, "power": 0.0, "noise": 0.04},
        ...
      ],
      "lines": [{"from": "a", "to": "b", "capacity": 10.0}, ...]
    }

Node order in the file defines node indices 1..n.  A sweep file names a
base (a homogeneous complete/star block or a network file), the grid
axes, the variance methods to run and the report scalars to record.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ValidationError
from .graphs import WeightedGraph, canonical_complete, canonical_star
from .swing import PowerNetwork

SCHEMA_VERSION = 1
HOMOGENEOUS_AXES = ("gamma", "eta", "damping", "n")
NETWORK_AXES = ("capacity_scale", "inertia_scale", "damping_scale", "noise_scale")
QUANTITY_BLOCKS = ("delta", "omega", "cross")
MC_OVERRIDE_KEYS = ("trajectories", "master_seed", "dt", "burn_in", "horizon")
MC_NULLABLE_KEYS = ("dt", "burn_in", "horizon")  # null: the default


def _check_mc_setting(key: str, value: Any, context: str) -> None:
    """Raise ValidationError naming ``context`` unless ``value`` suits Monte Carlo
    setting ``key``: ``dt`` and ``horizon`` positive finite numbers, ``burn_in``
    a non-negative one, ``master_seed`` an int (not a bool) of at least 0 and
    ``trajectories`` one of at least 2, the fewest that give a standard error."""
    if key in ("dt", "burn_in", "horizon"):
        _signed(value, context, positive=key != "burn_in")
    elif isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{context}: expected an integer, got {reprlib.repr(value)}")
    elif value < (least := 2 if key == "trajectories" else 0):
        raise ValidationError(f"{context}: expected at least {least}, got {value}")


def validate_mc_overrides(overrides: Any, context: str) -> dict:
    if not isinstance(overrides, dict):
        raise ValidationError(f"{context}: Monte Carlo overrides must be an object")
    for key, value in overrides.items():
        if key not in MC_OVERRIDE_KEYS:
            raise ValidationError(
                f"{context}: unknown Monte Carlo field {reprlib.repr(key)}; "
                f"allowed: {', '.join(MC_OVERRIDE_KEYS)}"
            )
        if value is not None or key not in MC_NULLABLE_KEYS:
            _check_mc_setting(key, value, f"{context}: {key}")
    return dict(overrides)


def format_number(x: float) -> str:
    """17-significant-digit decimal form, losslessly round-trippable."""
    return format(float(x), ".17g")


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ValidationError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _number(value: Any, context: str) -> float:
    """``value`` as a finite float; JSON's Infinity, -Infinity and NaN, and
    integers beyond float range, are rejected with the field named."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{context}: expected a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{context}: expected a finite number, got {reprlib.repr(value)}")
    return number


def _signed(value: Any, context: str, positive: bool = True) -> float:
    """``value`` as a finite float that is positive, or non-negative when
    ``positive`` is false."""
    number = _number(value, context)
    if not (number > 0 if positive else number >= 0):
        sign = "positive" if positive else "non-negative"
        raise ValidationError(f"{context}: expected a {sign} number, got {reprlib.repr(value)}")
    return number


def _size(value: Any, context: str, largest_node: int) -> int:
    """``value`` as a network size: an integer of at least 2 and at least
    ``largest_node``, the largest noise node."""
    n = _integer(value, context)
    if n < max(2, largest_node):
        raise ValidationError(
            f"{context}: expected at least 2 nodes and at least the largest noise node "
            f"({largest_node}), got {n}"
        )
    return n


def _integer(value: Any, context: str) -> int:
    """``value`` as an int; a number with a fractional part is rejected."""
    number = _number(value, context)
    if not number.is_integer():
        raise ValidationError(f"{context}: expected an integer, got {reprlib.repr(value)}")
    return int(number)


def _node_index(key: str, context: str) -> int:
    # ASCII digits only: int() would also read " 2", "+2", "2_0" and non-ASCII digits.
    if not (key.isascii() and key.isdigit()):
        raise ValidationError(f"{context}: node index must be an integer, got {reprlib.repr(key)}")
    return int(key)


def _load_json(path: str | Path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    # ValueError: an integer literal beyond int's digit limit; RecursionError:
    # nesting deeper than the interpreter's recursion limit.
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def network_from_dict(data: Any, context: str = "network") -> PowerNetwork:
    """Validated PowerNetwork from a parsed network document."""
    if not isinstance(data, dict):
        raise ValidationError(f"{context}: document must be an object")
    version = _require(data, "schema_version", context)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"{context}: unsupported schema_version {reprlib.repr(version)}")

    nodes = _require(data, "nodes", context)
    lines = _require(data, "lines", context)
    if not isinstance(nodes, list) or not nodes:
        raise ValidationError(f"{context}: 'nodes' must be a non-empty list")
    if not isinstance(lines, list):
        raise ValidationError(f"{context}: 'lines' must be a list")

    ids: dict[str, int] = {}
    inertia, damping, power, noise = [], [], [], []
    for pos, node in enumerate(nodes):
        where = f"{context}: nodes[{pos}]"
        if not isinstance(node, dict):
            raise ValidationError(f"{where}: must be an object")
        node_id = str(_require(node, "id", where))
        if node_id in ids:
            raise ValidationError(f"{where}: duplicate node id {node_id!r}")
        ids[node_id] = pos + 1
        inertia.append(_signed(_require(node, "inertia", where), f"{where}.inertia"))
        damping.append(_signed(_require(node, "damping", where), f"{where}.damping"))
        power.append(_number(_require(node, "power", where), f"{where}.power"))
        noise.append(_signed(_require(node, "noise", where), f"{where}.noise", positive=False))

    edges = []
    line_of_pair: dict[frozenset, int] = {}
    for pos, line in enumerate(lines):
        where = f"{context}: lines[{pos}]"
        if not isinstance(line, dict):
            raise ValidationError(f"{where}: must be an object")
        src = str(_require(line, "from", where))
        dst = str(_require(line, "to", where))
        for endpoint in (src, dst):
            if endpoint not in ids:
                raise ValidationError(f"{where}: unknown node id {endpoint!r}")
        if src == dst:
            raise ValidationError(f"{where}: line endpoints must differ, got {src!r}")
        capacity = _signed(_require(line, "capacity", where), f"{where}.capacity")
        first = line_of_pair.setdefault(frozenset((src, dst)), pos)
        if first != pos:
            raise ValidationError(
                f"{where}: duplicate of lines[{first}] between nodes {src!r} and {dst!r}"
            )
        edges.append((ids[src], ids[dst], capacity))

    topology = WeightedGraph(len(nodes), tuple(edges))
    return PowerNetwork(
        topology,
        np.array(inertia),
        np.array(damping),
        np.array(power),
        np.array(noise),
        labels=tuple(ids),
    )


def load_network(path: str | Path) -> PowerNetwork:
    """Load and validate a network file (connectivity included)."""
    return network_from_dict(_load_json(path), context=str(path))


@dataclass(frozen=True)
class HomogeneousBase:
    """Sweep base: canonical complete/star graph with uniform parameters and
    noise amplitudes on nodes 1..n."""

    kind: str
    n: int
    gamma: float
    eta: float
    damping: float
    noise_by_node: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("complete", "star"):
            raise ValidationError(f"kind must be 'complete' or 'star', got {self.kind!r}")
        for node, _ in self.noise_by_node:
            if not 1 <= node <= self.n:
                raise ValidationError(f"noise node {node} is outside 1..{self.n}")

    def network(self) -> PowerNetwork:
        graph = (canonical_complete if self.kind == "complete" else canonical_star)(self.n, self.gamma)
        ones, noise = np.ones(self.n), np.zeros(self.n)
        for node, amplitude in self.noise_by_node:
            noise[node - 1] = amplitude
        return PowerNetwork(graph, self.eta * ones, self.damping * ones, np.zeros(self.n), noise)


@dataclass(frozen=True)
class SweepSpec:
    """Parsed sweep document: base, grid axes, methods and recorded scalars."""

    base: HomogeneousBase | PowerNetwork
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    methods: tuple[str, ...]
    quantities: tuple[tuple[str, int, int], ...]
    mc_overrides: dict = field(default_factory=dict)


def sweep_from_dict(data: Any, context: str = "sweep", base_dir: Path | None = None) -> SweepSpec:
    if not isinstance(data, dict):
        raise ValidationError(f"{context}: document must be an object")
    version = _require(data, "schema_version", context)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"{context}: unsupported schema_version {reprlib.repr(version)}")

    base_doc = _require(data, "base", context)
    if not isinstance(base_doc, dict):
        raise ValidationError(f"{context}: 'base' must be an object")
    kind = str(_require(base_doc, "kind", f"{context}.base"))
    base: HomogeneousBase | PowerNetwork
    if kind in ("complete", "star"):
        noise_doc = _require(base_doc, "noise", f"{context}.base")
        if not isinstance(noise_doc, dict) or not noise_doc:
            raise ValidationError(f"{context}.base: 'noise' must map node index to amplitude")
        noise = {}
        for key, value in noise_doc.items():
            node = _node_index(key, f"{context}.base.noise")
            if node in noise:
                raise ValidationError(f"{context}.base.noise: node {node} is given more than once")
            if node < 1:
                raise ValidationError(f"{context}.base.noise: node indices start at 1, got {key!r}")
            noise[node] = _signed(value, f"{context}.base.noise[{key}]", positive=False)
        largest_node = max(noise)
        base = HomogeneousBase(
            kind=kind,
            n=_size(_require(base_doc, "n", f"{context}.base"), f"{context}.base.n", largest_node),
            gamma=_signed(_require(base_doc, "gamma", f"{context}.base"), f"{context}.base.gamma"),
            eta=_signed(_require(base_doc, "eta", f"{context}.base"), f"{context}.base.eta"),
            damping=_signed(_require(base_doc, "damping", f"{context}.base"), f"{context}.base.damping"),
            noise_by_node=tuple(sorted(noise.items())),
        )
        allowed_axes = HOMOGENEOUS_AXES
    elif kind == "network":
        path = Path(str(_require(base_doc, "path", f"{context}.base")))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        base = load_network(path)
        allowed_axes = NETWORK_AXES
        largest_node = 0
    else:
        raise ValidationError(
            f"{context}.base: kind must be 'complete', 'star' or 'network', got {kind!r}"
        )

    axes_doc = _require(data, "axes", context)
    if not isinstance(axes_doc, list) or not axes_doc:
        raise ValidationError(f"{context}: 'axes' must be a non-empty list")
    axes = []
    for pos, axis in enumerate(axes_doc):
        where = f"{context}: axes[{pos}]"
        if not isinstance(axis, dict):
            raise ValidationError(f"{where}: must be an object")
        parameter = str(_require(axis, "parameter", where))
        if parameter not in allowed_axes:
            raise ValidationError(
                f"{where}: parameter {parameter!r} not sweepable for this base; "
                f"allowed: {', '.join(allowed_axes)}"
            )
        grid = _require(axis, "grid", where)
        if not isinstance(grid, list) or not grid:
            raise ValidationError(f"{where}: 'grid' must be a non-empty list")
        if parameter == "n":
            values = tuple(_size(v, f"{where}.grid", largest_node) for v in grid)
        else:
            values = tuple(_signed(v, f"{where}.grid", parameter != "noise_scale") for v in grid)
        axes.append((parameter, values))

    methods_doc = _require(data, "methods", context)
    if not isinstance(methods_doc, list) or not methods_doc:
        raise ValidationError(f"{context}: 'methods' must be a non-empty list")
    # Names are checked against the route table by pipeline.run_sweep.
    methods = [str(method) for method in methods_doc]

    quantities_doc = _require(data, "quantities", context)
    if not isinstance(quantities_doc, list) or not quantities_doc:
        raise ValidationError(f"{context}: 'quantities' must be a non-empty list")
    # Blocks are smallest at the smallest size on the grid.
    if isinstance(base, HomogeneousBase):
        n = min((v for parameter, grid in axes if parameter == "n" for v in grid), default=base.n)
        m = n * (n - 1) // 2 if kind == "complete" else n - 1
    else:
        n, m = base.node_count, base.line_count
    shapes = {"delta": (m, m), "omega": (n, n), "cross": (n, m)}
    quantities = []
    for pos, quantity in enumerate(quantities_doc):
        where = f"{context}: quantities[{pos}]"
        if not isinstance(quantity, dict):
            raise ValidationError(f"{where}: must be an object")
        block = str(_require(quantity, "block", where))
        if block not in QUANTITY_BLOCKS:
            raise ValidationError(
                f"{where}: block must be one of {', '.join(QUANTITY_BLOCKS)}, got {block!r}"
            )
        i = _integer(_require(quantity, "i", where), f"{where}.i")
        j = _integer(_require(quantity, "j", where), f"{where}.j")
        if i < 1 or j < 1:
            raise ValidationError(f"{where}: indices are 1-based and must be positive")
        if i > shapes[block][0] or j > shapes[block][1]:
            raise ValidationError(
                f"{where}: {block}[{i},{j}] out of range for shape {shapes[block]} at n={n}"
            )
        quantities.append((block, i, j))

    mc_overrides = validate_mc_overrides(data.get("mc", {}), f"{context}.mc")
    return SweepSpec(base, tuple(axes), tuple(methods), tuple(quantities), mc_overrides)


def load_sweep(path: str | Path) -> SweepSpec:
    """Load and validate a sweep file; relative base paths resolve next to it."""
    path = Path(path)
    return sweep_from_dict(_load_json(path), context=str(path), base_dir=path.parent)
