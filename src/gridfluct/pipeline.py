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

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .closedforms import closed_form_report
from .errors import AssumptionViolatedError, ValidationError
from .montecarlo import default_sim_config, simulate_covariance
from .netfile import HomogeneousBase, SweepSpec, format_number
from .swing import LinearizedSystem, PowerNetwork, linearize, solve_synchronous_state
from .variance import (
    Congruence,
    CovarianceReport,
    asymptotic_variance_numeric,
    asymptotic_variance_uniform_ratio,
    first_order_variance,
    upper_tiles,
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
    """Raise ValidationError naming the allowed routes for an unknown method,
    or naming a method that is given more than once."""
    seen = set()
    for method in methods:
        if method not in allowed:
            raise ValidationError(
                f"unknown method {method!r}; {command} supports {', '.join(allowed)}"
            )
        if method in seen:
            raise ValidationError(f"method {method!r} is named more than once")
        seen.add(method)


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


def _worst_discrepancy(worst: float, b: np.ndarray, diffs: Iterable[np.ndarray]) -> float:
    """The larger of ``worst`` and max |d| / (1 + |b|) over the entries of
    each difference d = a - b in ``diffs``, which it overwrites.

    As 1 + |b| >= 1, no ratio of a d exceeds its max |d|; so the ratios, and
    1 + |b|, are formed only for a d whose max |d| is above the running
    worst, and the result has the bits of the full maximum.
    """
    scale = None
    for diff in diffs:
        if not max(diff.max(initial=0.0), -diff.min(initial=0.0)) > worst:
            continue
        if scale is None:
            scale = np.abs(b)
            scale += 1.0
        np.abs(diff, out=diff)
        np.divide(diff, scale, out=diff)
        worst = max(worst, float(diff.max(initial=0.0)))
    return worst


def relative_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / (1 + |b|) over entries."""
    return _worst_discrepancy(0.0, b, [np.subtract(a, b)])


# Unit roundoff.  _TINY is added to each row norm in _pair_bound, where it
# covers whatever underflows; its square is the bound's absolute term.
_UNIT = 2.0**-53
_TINY = 2.0**-500


def _largest_row_norm(x: np.ndarray) -> float:
    """The largest row 2-norm of ``x`` plus _TINY; inf or NaN once a square
    overflows or an entry is NaN."""
    return math.sqrt(float(np.einsum("ij,ij->i", x, x).max(initial=0.0))) + _TINY


def _pair_bound(reference: Congruence, other: Congruence, p: np.ndarray) -> float:
    """A bound on |a - b| over the entries of every pair of tiles that
    ``variance.upper_tiles`` forms of ``reference`` (a) and ``other`` (b),
    valid for any k x s matrix ``p``, in O(m k s) and no m x m work.

    With the reference's m x k map L and left product A = L X, the other's
    m x s map L' and B = L' Y, D = A - B p^T and E = L' - L p, an entry
    a_ij - b_ij is D_i . L_j - B_i . E_j exactly, plus the rounding of the
    two tile products and of the diagonal square's average, so

        |a_ij - b_ij| <= |D_i| |L_j| + |B_i| |E_j|
                         + g (|A_i| |L_j| + |B_i| |L'_j| + 2 r |B_i| |L_j|)

    with |.| a row's 2-norm, g = (max(k, s) + 4) u and r >= the 2-norm of
    |p|; the r term covers the rounding of the products in the computed D
    and E.  Each row norm is replaced by its largest value, which bounds
    every (i, j) and so the averaged entries as well.  The factor 1 + 4 g
    covers the rounding of the subtractions in D and E and of the bound's
    own arithmetic, which is relative and below (max(k, s) + 11) u.  _TINY
    in each norm, and its square added at the end, cover underflow, so the
    bound is never 0.  A NaN or inf factor gives a NaN or inf bound.
    """
    lines, left = reference.lines, reference.left
    gap = _largest_row_norm(left - other.left @ p.T)
    miss = _largest_row_norm(other.lines - lines @ p)
    magnitude = np.abs(p)
    columns, rows = magnitude.sum(axis=0), magnitude.sum(axis=1)
    r = math.sqrt(float(columns.max(initial=0.0) * rows.max(initial=0.0)))
    a, b = _largest_row_norm(left), _largest_row_norm(other.left)
    l_ref, l_other = _largest_row_norm(lines), _largest_row_norm(other.lines)
    g = (max(p.shape) + 4) * _UNIT
    bound = gap * l_ref + b * miss + g * (a * l_ref + b * l_other + 2.0 * r * b * l_ref)
    return (1.0 + 4.0 * g) * bound + _TINY**2


def _cleared(reference: np.ndarray | Congruence, other: np.ndarray | Congruence,
             worst: float) -> bool:
    """Whether both blocks are a :class:`Congruence`, the reference's map L
    is taller than wide, and twice :func:`_pair_bound` is at most ``worst``,
    with p the least-squares solution of L p = L' from the normal equations
    (L^T L) p = L^T L'; when they are singular, the pair is not cleared.  A
    square L (a node map) makes the bound cost about what the tiles cost,
    and on the networks checked its bound never fell to the worst.

    A ratio of a tile entry is fl(|fl(a - b)| / (1 + |b|)) <= (1 + u)^2 |a - b|,
    which the factor 2 covers with room to spare.  Then no ratio of
    ``other``'s tiles exceeds ``worst``, and skipping them keeps every bit
    of the maximum.
    """
    if not (isinstance(reference, Congruence) and isinstance(other, Congruence)):
        return False
    lines = reference.lines
    if lines.shape[0] <= lines.shape[1]:
        return False
    try:
        p = np.linalg.solve(lines.T @ lines, lines.T @ other.lines)
    except np.linalg.LinAlgError:
        return False
    return 2.0 * _pair_bound(reference, other, p) <= worst


def _symmetric_discrepancy(
    others: list[np.ndarray | Congruence], reference: np.ndarray | Congruence, worst: float = 0.0
) -> float:
    """The larger of ``worst`` and the largest :func:`relative_discrepancy`
    of each symmetric block in ``others`` against ``reference``, read from
    the blocks as the reports hold them, tile by tile
    (``variance.upper_tiles``).

    First, a block that :func:`_cleared` clears against the running
    ``worst`` from its factors alone is dropped, and none of its tiles, nor
    the reference's, is formed for it; a ``worst`` of 0 clears nothing.
    Each tile entry has the bits of the built block's entry, and built
    blocks are exactly symmetric, so the upper triangle gives the same
    maximum as the whole block, in memory that does not grow with the
    block.
    """
    others = [other for other in others if not _cleared(reference, other, worst)]
    if not others:
        return worst
    for (_, _, tile), *tiles in zip(upper_tiles(reference), *map(upper_tiles, others)):
        diffs = (np.subtract(other, tile, out=other) for _, _, other in tiles)
        worst = _worst_discrepancy(worst, tile, diffs)
    return worst


def compare_variance(net: PowerNetwork, methods: Iterable[str] | None = None) -> Comparison:
    """Run exact routes and report their worst disagreement with ``numeric``.

    By default every exact route runs and any whose precondition fails
    (AssumptionViolatedError) is skipped; routes named in ``methods`` must
    all succeed.  ``numeric`` always runs as the reference.  The symmetric
    blocks are compared by :func:`_symmetric_discrepancy`, so no m x m block
    is built here; a writer builds it when it reads ``q_delta``.  The cross
    and frequency blocks go first, and the worst they set usually clears an
    angle pair from its factors (:func:`_cleared`), so that none of its
    tiles is formed; the result has the bits of the full comparison.
    """
    if methods is None:
        selected = list(EXACT_ROUTES)
    else:
        selected = list(methods)
        _require_methods(selected, EXACT_ROUTES, "compare")
        if "numeric" not in selected:
            selected.insert(0, "numeric")
    lin = linearized(net)

    reports: dict[str, CovarianceReport] = {}
    for method in selected:
        try:
            reports[method] = ROUTES[method].run(lin, None)
        except AssumptionViolatedError:
            if methods is not None:
                raise

    reference = reports["numeric"]
    others = [report for method, report in reports.items() if method != "numeric"]
    # The small blocks first: the worst they set lets most angle tiles skip
    # their ratios.
    cross = reference.q_delta_omega
    worst = _worst_discrepancy(0.0, cross, (r.q_delta_omega - cross for r in others))
    worst = _symmetric_discrepancy([r.omega for r in others], reference.omega, worst)
    worst = _symmetric_discrepancy([r.delta for r in others], reference.delta, worst)
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


# A report's CSV is made _CHUNK entries at a time, in a uint8 matrix with one
# line per row whose NUL bytes are then dropped.  A number takes a field of
# _WIDTH bytes: sign, "0.000" prefix, an 18-column window holding the 17
# digits and the dot slot, and the exponent.  At 4096 entries a chunk's
# temporaries stay below glibc's 128 KiB mmap threshold; 8192 ran slower.
_CHUNK = 4096
_WIDTH = 29
# The fast path takes magnitudes in [1e-_RANGE, 1e_RANGE]; floor(log10|x|)
# may round down to -_RANGE - 1 there.
_RANGE = 280
# Row of the layout tables for zero, after one row per decimal exponent.
_ZERO_ROW = 2 * _RANGE + 2


class _Tables(NamedTuple):
    """Tables of ``_format``.  Rows of the layout tables (``ends`` to
    ``probe``) are decimal exponents e, at e + _RANGE + 1, then zero."""

    high: np.ndarray     # H = fl(10^(16-e)), at e + _RANGE + 1
    low: np.ndarray      # fl(10^(16-e) - H)
    quads: np.ndarray    # [g + 10000 z]: g's four digits, trailing zeros NUL if z
    ends: np.ndarray     # "0.000" prefix (5 bytes) and "e+XXX" suffix (5)
    before: np.ndarray   # 0xFF in the window columns before the dot slot
    after: np.ndarray    # 0xFF in those after it
    integer: np.ndarray  # "0" in the integer digits' columns
    probe: np.ndarray    # the digit that must follow a dot (17: none)


def _layout(exponent: int | None) -> tuple[bytes, int, int]:
    """``_Tables`` ends, dot slot and number of integer digits for a value
    with this decimal exponent (None: zero), by ``%.17g``'s rule: fixed
    notation for exponents -4 to 16, else ``d.ddde±XX``."""
    if exponent is None:
        return b"0".ljust(10, b"\0"), 18, 0
    if -4 <= exponent < 0:
        return ("0." + "0" * (-exponent - 1)).encode().ljust(10, b"\0"), 18, 0
    if 0 <= exponent <= 16:
        return bytes(10), exponent + 1, exponent + 1
    return bytes(5) + f"e{exponent:+03d}".encode().ljust(5, b"\0"), 1, 0


@functools.cache
def _tables() -> _Tables:
    """The tables of ``_format``, made on first use from exact integers."""
    high, low = [], []
    for e in range(-_RANGE - 1, _RANGE + 1):
        # 10^(16-e) = p / q; integer true division rounds correctly.
        p, q = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        n, d = (p / q).as_integer_ratio()
        high.append(n / d)
        low.append((p * d - n * q) / (q * d))
    quads = (np.arange(10000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
             + ord("0")).astype(np.uint8)
    significant = np.cumsum(quads[:, ::-1] != ord("0"), 1, np.uint8)[:, ::-1] > 0
    quads = np.concatenate([quads, quads * significant])
    ends, dots, integers = zip(*map(_layout, [*range(-_RANGE - 1, _RANGE + 1), None]))
    dot, integer, column = np.array(dots)[:, None], np.array(integers)[:, None], np.arange(18)
    before = (column < dot) * np.uint8(255)
    before[_ZERO_ROW] = 0  # zero shows no digit
    tables = _Tables(
        np.array(high), np.array(low), quads.view(np.uint32)[:, 0],
        np.frombuffer(b"".join(ends), np.uint8).reshape(-1, 10),
        before, (column > dot) * np.uint8(255),
        (column < integer) * np.uint8(ord("0")), np.minimum(dot[:, 0], 17),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into two halves of 26 bits each."""
    scaled = a * 134217729.0  # 2^27 + 1
    high = scaled - (scaled - a)
    return high, a - high


def _format(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``format_number`` of each value into the rows of ``out``, a
    (len(values), _WIDTH) uint8 array, padded with NUL.

    A nonzero finite |x| in [1e-280, 1e280] with e = floor(log10|x|) has the
    significand D = round(|x| 10^(16-e)).  Dekker's two-product of |x| and
    H = fl(10^(16-e)) is exact, and adding |x| L for L = fl(10^(16-e) - H)
    leaves an error below 1e-14 on a product below 1e17.  A value whose
    product lies within 2^-30 of a rounding tie or has not 17 digits before
    rounding (e off by one near a power of ten) or after (a carry), and
    every non-finite value or magnitude out of range, is formatted by
    ``format_number``; zeros are ``0`` and ``-0``.
    """
    t = _tables()
    n = len(values)
    magnitude = np.abs(values)
    finite = np.isfinite(magnitude)
    magnitude[~finite] = 1.0
    zero = magnitude == 0.0
    fast = finite & (magnitude >= 10.0**-_RANGE) & (magnitude <= 10.0**_RANGE)
    magnitude[~fast] = 1.0
    row = np.floor(np.log10(magnitude)).astype(np.intp) + (_RANGE + 1)
    h, l = np.take(t.high, row), np.take(t.low, row)
    product = magnitude * h
    ah, al = _split(magnitude)
    hh, hl = _split(h)
    rest = ((ah * hh - product) + ah * hl + al * hh) + al * hl + magnitude * l
    floor = np.floor(rest)
    remainder = rest - floor
    truncated = product.astype(np.int64) + floor.astype(np.int64)
    significand = truncated + (remainder > 0.5)
    fast &= ((np.abs(remainder - 0.5) > 2.0**-30)
             & (truncated >= 10**16) & (significand < 10**17))

    # D's first digit, then four groups of four digits whose zeros after
    # the last nonzero digit are NUL.
    upper = significand // 10**8
    first = upper // 10**8
    groups = []
    for eight in (upper - first * 10**8, significand - upper * 10**8):
        four = eight // 10**4
        groups += [four, eight - four * 10**4]
    quads = np.empty((n, 4), np.uint32)
    trailing = np.full(n, 10000)
    for k in range(3, -1, -1):
        quads[:, k] = np.take(t.quads, groups[k] + trailing)
        trailing *= groups[k] == 0
    # One buffer seen twice: digit j in column j, and digit j - 1 there.
    buffer = np.zeros(n * 18 + 1, np.uint8)
    digits, shifted = buffer[1:].reshape(n, 18), buffer[:-1].reshape(n, 18)
    digits[:, 0] = first + ord("0")
    digits[:, 1:17] = quads.view(np.uint8)

    row[zero] = _ZERO_ROW
    before, after = np.take(t.before, row, 0), np.take(t.after, row, 0)
    window = (digits & before) | (shifted & after) | np.take(t.integer, row, 0)
    # The dot shows where a digit follows it.
    follows = np.take(buffer[1:], np.take(t.probe, row) + 18 * np.arange(n)) != 0
    window |= ~(before | after) & (follows * np.uint8(ord(".")))[:, None]
    ends = np.take(t.ends, row, 0)
    out[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    out[:, 1:6] = ends[:, :5]
    out[:, 6:24] = window
    out[:, 24:] = ends[:, 5:]
    for i in np.flatnonzero(~fast & ~zero):
        out[i] = np.frombuffer(format_number(values[i]).encode().ljust(_WIDTH, b"\0"), np.uint8)


def _text(strings: Iterable[str]) -> np.ndarray:
    """ASCII strings as the rows of a NUL-padded uint8 matrix."""
    array = np.array([s.encode() for s in strings])
    return array.view(np.uint8).reshape(len(array), array.itemsize)


def _csv_chunks(report: CovarianceReport, suffix: str = "") -> Iterator[str]:
    """CSV lines ``quantity,i,j,value,method,stderr`` plus ``suffix``, one
    string per chunk of _CHUNK entries, block by block and row by row."""
    for quantity, (block, stderr) in _blocks(report).items():
        if block is None or block.size == 0:
            continue
        height, width = block.shape
        rows = _text(f"{quantity},{i}," for i in range(1, height + 1))
        columns = _text(f"{j}," for j in range(1, width + 1))
        middle = _text([f",{report.method},"])[0]
        values = [block.reshape(-1)] + ([] if stderr is None else [stderr.reshape(-1)])
        # Column bounds: row label, column label, value, middle, stderr, end.
        bounds = np.cumsum([0, rows.shape[1], columns.shape[1], _WIDTH, len(middle),
                            _WIDTH * (len(values) - 1), len(suffix) + 1])
        line = np.empty((min(_CHUNK, block.size), bounds[-1]), np.uint8)
        line[:, bounds[3]:bounds[4]] = middle
        line[:, bounds[5]:] = _text([suffix + "\n"])[0]
        for start in range(0, block.size, _CHUNK):
            stop = min(start + _CHUNK, block.size)
            chunk = line[:stop - start]
            index = np.arange(start, stop)
            i = index // width
            chunk[:, :bounds[1]] = np.take(rows, i, 0)
            chunk[:, bounds[1]:bounds[2]] = np.take(columns, index - i * width, 0)
            for field, value in enumerate(values):
                _format(value[start:stop], chunk[:, bounds[2 + 2 * field]:bounds[3 + 2 * field]])
            yield chunk.tobytes().translate(None, b"\0").decode("ascii")


def _block_payload(report: CovarianceReport) -> dict[str, Any]:
    return _jsonable({
        "q_delta": report.q_delta,
        "q_omega": report.q_omega,
        "q_delta_omega": report.q_delta_omega,
    })


def _dump_json(payload: dict, fh: TextIO) -> None:
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _write(fh: TextIO, fmt: str, header: str, lines: Iterable[str],
           payload: Callable[[], dict]) -> None:
    """Write ``header`` and ``lines`` as CSV, or ``payload()`` as JSON."""
    if fmt == "csv":
        fh.write(header + "\n")
        fh.writelines(lines)
    elif fmt == "json":
        _dump_json(payload(), fh)
    else:
        raise ValidationError(f"unknown output format {fmt!r}; use 'csv' or 'json'")


def write_report(report: CovarianceReport, fh: TextIO, fmt: str = "csv") -> None:
    """Serialize one report as CSV (long format) or JSON."""
    _write(fh, fmt, _REPORT_HEADER, _csv_chunks(report), lambda: {
        "method": report.method,
        **_block_payload(report),
        "diagnostics": _jsonable(report.diagnostics),
    })


def write_comparison(comparison: Comparison, fh: TextIO, fmt: str = "csv") -> None:
    """Serialize a route comparison, one row per entry per method."""
    reports = sorted(comparison.reports.items())
    suffix = "," + format_number(comparison.max_relative_discrepancy)
    _write(
        fh, fmt, _REPORT_HEADER + ",max_relative_discrepancy",
        (chunk for _, report in reports for chunk in _csv_chunks(report, suffix)),
        lambda: {
            "max_relative_discrepancy": comparison.max_relative_discrepancy,
            "methods": {method: _block_payload(report) for method, report in reports},
        },
    )


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
    from the block as the report holds it: a factored angle or frequency
    block is not built."""
    values = getattr(report, block)
    stderr = report.diagnostics.get(f"stderr_{block}")
    if values is None:
        return None, None
    if not (1 <= i <= values.shape[0] and 1 <= j <= values.shape[1]):
        raise ValidationError(f"quantity {block}[{i},{j}] out of range for shape {values.shape}")
    return float(values[i - 1, j - 1]), (None if stderr is None else float(stderr[i - 1, j - 1]))


def _sweep_point(spec: SweepSpec, point: dict[str, float]) -> list[dict]:
    """The rows of every method at one grid point, all on one linearization."""
    lin = linearized(_apply_point(spec, point))
    rows = []
    for method in spec.methods:
        # run_sweep has checked every method against ROUTES already.
        report = ROUTES[method].run(lin, spec.mc_overrides)
        row: dict[str, Any] = dict(point)
        row["method"] = method
        for block, i, j in spec.quantities:
            value, stderr = _quantity_value(report, block, i, j)
            row[f"{block}_{i}_{j}"] = value
            if method == "mc":
                row[f"{block}_{i}_{j}_stderr"] = stderr
        rows.append(row)
    return rows


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid point per method, in deterministic order.

    Grid points enumerate the axes in file order (last axis fastest), and
    each point's rows follow ``spec.methods``.  A grid point's network is
    built and linearized once, and every method runs on that one
    linearization.  Every method is checked against ``ROUTES`` first.
    """
    _require_methods(spec.methods, ROUTES, "sweep")
    return [row for point in _grid_points(spec) for row in _sweep_point(spec, point)]


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
