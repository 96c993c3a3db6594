"""Variance-route dispatch, route comparison, sweeps and report serialization.

``ROUTES`` maps each variance route's name to its function and exactness;
method validation everywhere and the CLI's choices derive from it.

``run_variance`` takes a validated network through synchronous-state
solve, security check and linearization, then runs the requested route.
The closed-form route (``closedforms.closed_form_report``) additionally
requires a homogeneous complete or star topology, in any node and line
order.
"""

from __future__ import annotations

import contextvars
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Collection, Iterable, Iterator, TextIO

import numpy as np

from .closedforms import closed_form_report
from .errors import AssumptionViolatedError, ValidationError
from .montecarlo import default_sim_config, simulate_covariance
from .netfile import HomogeneousBase, SweepSpec, format_number
from .swing import LinearizedSystem, PowerNetwork, linearize, solve_synchronous_state
from .variance import (
    CovarianceReport,
    asymptotic_variance_numeric,
    asymptotic_variance_uniform_ratio,
    first_order_variance,
)


def linearized(net: PowerNetwork) -> LinearizedSystem:
    """Synchronous state, security check and linearization in one step."""
    return linearize(net, solve_synchronous_state(net))


@dataclass(frozen=True)
class Route:
    """``run(lin, mc_overrides)``; exact routes agree to rounding and are
    the ones ``compare`` runs."""

    run: Callable[[LinearizedSystem, dict | None], CovarianceReport]
    exact: bool


# Entries reach each route function through its module-global name at call
# time, so a rebinding of that name (as by a tracer) is seen.
ROUTES = {
    "numeric": Route(lambda lin, mc: asymptotic_variance_numeric(lin), True),
    "uniform": Route(lambda lin, mc: asymptotic_variance_uniform_ratio(lin), True),
    "closed": Route(lambda lin, mc: closed_form_report(lin), True),
    "first-order": Route(lambda lin, mc: first_order_variance(lin), False),
    "mc": Route(
        lambda lin, mc: simulate_covariance(lin, default_sim_config(lin, **(mc or {}))), False
    ),
}
EXACT_ROUTES = tuple(name for name, route in ROUTES.items() if route.exact)


def _require_methods(methods: Iterable[str], allowed: Collection[str], command: str) -> None:
    """Raise ValidationError naming the allowed routes for an unknown method."""
    for method in methods:
        if method not in allowed:
            raise ValidationError(
                f"unknown method {method!r}; {command} supports {', '.join(allowed)}"
            )


def run_variance(
    net: PowerNetwork,
    method: str,
    mc_overrides: dict | None = None,
) -> CovarianceReport:
    """Run one variance route on a network.

    ``method`` is a key of ``ROUTES``: numeric | uniform | closed |
    first-order | mc.  ``mc_overrides`` holds Monte Carlo config overrides
    (``default_sim_config`` keywords), built on this call's linearization.
    Method preconditions (uniform ratio, homogeneous complete/star) raise
    AssumptionViolatedError naming the violated assumption.
    """
    _require_methods([method], ROUTES, "variance")
    return ROUTES[method].run(linearized(net), mc_overrides)


@dataclass(frozen=True)
class Comparison:
    """Reports per route plus the worst entrywise relative discrepancy."""

    reports: dict[str, CovarianceReport]
    max_relative_discrepancy: float


def relative_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / (1 + |b|) over entries."""
    return float((np.abs(a - b) / (1.0 + np.abs(b))).max(initial=0.0))


def compare_variance(net: PowerNetwork, methods: Iterable[str] | None = None) -> Comparison:
    """Run exact routes and report their worst disagreement with ``numeric``.

    By default every exact route runs and any whose precondition fails
    (AssumptionViolatedError) is skipped; routes named in ``methods`` must
    all succeed.  ``numeric`` always runs as the reference.
    """
    lin = linearized(net)
    if methods is None:
        selected = list(EXACT_ROUTES)
    else:
        selected = list(methods)
        _require_methods(selected, EXACT_ROUTES, "compare")
        if "numeric" not in selected:
            selected.insert(0, "numeric")

    reports: dict[str, CovarianceReport] = {}
    for method in selected:
        try:
            reports[method] = ROUTES[method].run(lin, None)
        except AssumptionViolatedError:
            if methods is not None:
                raise

    reference = reports["numeric"]
    worst = 0.0
    for method, report in reports.items():
        if method == "numeric":
            continue
        worst = max(
            worst,
            relative_discrepancy(report.q_delta, reference.q_delta),
            relative_discrepancy(report.q_omega, reference.q_omega),
            relative_discrepancy(report.q_delta_omega, reference.q_delta_omega),
        )
    return Comparison(reports, worst)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _blocks(report: CovarianceReport) -> dict[str, tuple[np.ndarray | None, np.ndarray | None]]:
    """Quantity name -> (block, its Monte Carlo stderr or None)."""
    get = report.diagnostics.get
    return {
        "delta": (report.q_delta, get("stderr_delta")),
        "omega": (report.q_omega, get("stderr_omega")),
        "cross": (report.q_delta_omega, get("stderr_cross")),
    }


_REPORT_HEADER = "quantity,index_i,index_j,value,method,stderr"


def _field(value: Any) -> str:
    """One CSV cell: ``None`` is empty, a float has 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format_number(value)
    return str(value)


def _report_lines(report: CovarianceReport, suffix: str = "") -> Iterator[str]:
    """CSV lines ``quantity,i,j,value,method,stderr`` plus ``suffix``, block
    by block; each string holds one block row, one line per entry."""
    for quantity, (block, stderr) in _blocks(report).items():
        if block is None or block.size == 0:
            continue
        # "%.17g" is ``format_number``; each stderr follows its value.
        height, width = block.shape
        error = "" if stderr is None else "%.17g"
        cells = [f"{j},%.17g,{report.method},{error}{suffix}\n" for j in range(1, width + 1)]
        rows = block if stderr is None else np.stack((block, stderr), 2).reshape(height, 2 * width)
        for i, values in enumerate(rows.tolist(), start=1):
            head = f"{quantity},{i},"
            yield (head + head.join(cells)) % tuple(values)


def _block_payload(report: CovarianceReport) -> dict[str, Any]:
    return _jsonable({
        "q_delta": report.q_delta,
        "q_omega": report.q_omega,
        "q_delta_omega": report.q_delta_omega,
    })


def _dump_json(payload: dict, fh: TextIO) -> None:
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _unknown_format(fmt: str) -> ValidationError:
    return ValidationError(f"unknown output format {fmt!r}; use 'csv' or 'json'")


def write_report(report: CovarianceReport, fh: TextIO, fmt: str = "csv") -> None:
    """Serialize one report as CSV (long format) or JSON."""
    if fmt == "csv":
        fh.write(_REPORT_HEADER + "\n")
        fh.writelines(_report_lines(report))
    elif fmt == "json":
        _dump_json({
            "method": report.method,
            **_block_payload(report),
            "diagnostics": _jsonable(report.diagnostics),
        }, fh)
    else:
        raise _unknown_format(fmt)


def write_comparison(comparison: Comparison, fh: TextIO, fmt: str = "csv") -> None:
    """Serialize a route comparison, one row per entry per method."""
    reports = sorted(comparison.reports.items())
    if fmt == "csv":
        fh.write(_REPORT_HEADER + ",max_relative_discrepancy\n")
        suffix = "," + format_number(comparison.max_relative_discrepancy)
        for _, report in reports:
            fh.writelines(_report_lines(report, suffix))
    elif fmt == "json":
        _dump_json({
            "max_relative_discrepancy": comparison.max_relative_discrepancy,
            "methods": {method: _block_payload(report) for method, report in reports},
        }, fh)
    else:
        raise _unknown_format(fmt)


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _grid_points(spec: SweepSpec) -> list[dict[str, float]]:
    points: list[dict[str, float]] = [{}]
    for parameter, grid in spec.axes:
        points = [{**point, parameter: value} for point in points for value in grid]
    return points


def _apply_point(spec: SweepSpec, point: dict[str, float]) -> PowerNetwork:
    base = spec.base
    if isinstance(base, HomogeneousBase):
        return replace(base, **point).network()
    scales = {param: point.get(param, 1.0) for param in
              ("capacity_scale", "inertia_scale", "damping_scale", "noise_scale")}
    return PowerNetwork(
        base.topology.with_weights(base.capacities * scales["capacity_scale"]),
        base.inertia * scales["inertia_scale"],
        base.damping * scales["damping_scale"],
        base.power,
        base.noise * scales["noise_scale"],
        labels=base.labels,
    )


def _quantity_value(report: CovarianceReport, block: str, i: int, j: int) -> tuple[float | None, float | None]:
    """Entry (i, j), 1-based, of a block and its Monte Carlo stderr, read
    from the block as the report holds it: a factored block is not built."""
    values = {"delta": report.delta, "omega": report.omega, "cross": report.q_delta_omega}[block]
    stderr = report.diagnostics.get(f"stderr_{block}")
    if values is None:
        return None, None
    if not (1 <= i <= values.shape[0] and 1 <= j <= values.shape[1]):
        raise ValidationError(f"quantity {block}[{i},{j}] out of range for shape {values.shape}")
    return float(values[i - 1, j - 1]), (None if stderr is None else float(stderr[i - 1, j - 1]))


def _sweep_point(spec: SweepSpec, point: dict[str, float], seed: int | None) -> list[dict]:
    """The rows of every method at one grid point, all on one linearization."""
    overrides = dict(spec.mc_overrides)
    if seed is not None:
        overrides["master_seed"] = seed
    lin = linearized(_apply_point(spec, point))
    rows = []
    for method in spec.methods:
        # run_sweep has checked every method against ROUTES already.
        report = ROUTES[method].run(lin, overrides)
        row: dict[str, Any] = dict(point)
        row["method"] = method
        for block, i, j in spec.quantities:
            value, stderr = _quantity_value(report, block, i, j)
            row[f"{block}_{i}_{j}"] = value
            if method == "mc":
                row[f"{block}_{i}_{j}_stderr"] = stderr
        rows.append(row)
    return rows


def thread_count() -> int:
    """Worker cap from GRIDFLUCT_THREADS (default 1, i.e. serial)."""
    raw = os.environ.get("GRIDFLUCT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValidationError(f"GRIDFLUCT_THREADS must be an integer, got {raw!r}") from None


def run_sweep(spec: SweepSpec, seed: int | None = None) -> list[dict]:
    """One row per grid point per method, in deterministic order.

    Grid points enumerate the axes in file order (last axis fastest), and
    each point's rows follow ``spec.methods``.  A grid point's network is
    built and linearized once, and every method runs on that one
    linearization.  Points are independent: they may evaluate on up to
    GRIDFLUCT_THREADS workers, each taking whole points in a copy of the
    caller's context (numpy's error state included), but the output order,
    and the error raised first, are those of the serial loop.  Every method
    is checked against ``ROUTES`` first.
    """
    _require_methods(spec.methods, ROUTES, "sweep")
    points = _grid_points(spec)
    workers = thread_count()
    if workers == 1:
        groups = [_sweep_point(spec, point, seed) for point in points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(contextvars.copy_context().run, _sweep_point, spec, point, seed)
                       for point in points]
            groups = [future.result() for future in futures]
    return [row for rows in groups for row in rows]


def sweep_fieldnames(spec: SweepSpec) -> list[str]:
    names = [parameter for parameter, _ in spec.axes]
    names.append("method")
    for block, i, j in spec.quantities:
        names.append(f"{block}_{i}_{j}")
        if "mc" in spec.methods:
            names.append(f"{block}_{i}_{j}_stderr")
    return names


def write_sweep(rows: list[dict], spec: SweepSpec, fh: TextIO) -> None:
    """CSV with one line per ``run_sweep`` row; cells a row lacks are empty."""
    names = sweep_fieldnames(spec)
    fh.write(",".join(names) + "\n")
    fh.writelines(",".join(_field(row.get(name)) for name in names) + "\n" for row in rows)
