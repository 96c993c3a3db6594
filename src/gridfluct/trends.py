"""Single-source analysis of the closed forms.

The homogeneous complete/star scalar variances for one disturbed node,
with their analytic derivatives and limits with respect to the line
weight, the network size (treated as a continuous variable here; reports
require integer sizes) and the inertia, together with sign verdicts.
Every derivative is the exact derivative of the corresponding scalar in
:mod:`gridfluct.closedforms` and is expected to match a central finite
difference to high accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closedforms import (
    HomogeneousParams,
    complete_other_frequency,
    complete_source_frequency,
    complete_source_frequency_floor,
    critical_size,
    star_leaf_frequency,
    star_other_frequency,
    star_other_line,
    star_source_line,
)
from .errors import AssumptionViolatedError


@dataclass(frozen=True)
class TrendReport:
    """The single-source scalar variances with their derivatives and limits.

    ``variances`` holds the displayed scalars themselves: the source,
    other-node and incident/other-line values (root, leaf, other-leaf,
    source-line and other-line values for a star disturbed at a leaf).
    ``sign_verdicts`` records, per named derivative, whether its sign at the
    evaluated parameters matches the expected monotonicity claim.
    """

    graph_kind: str
    source: int
    variances: dict[str, float]
    derivatives: dict[str, float]
    limits: dict[str, float]
    critical_size: int | None
    source_frequency_lower_bound: float | None
    sign_verdicts: dict[str, bool]


# -- complete graph, single source (also star graph disturbed at the root) --


def d_complete_source_frequency_d_weight(n, gamma, eta, damping, noise):
    d, b2 = damping, noise**2
    return 2 * d * (1 - n) * b2 / (n * (2 * d**2 + gamma * eta * n) ** 2)


def d_complete_other_frequency_d_weight(n, gamma, eta, damping, noise):
    d, b2 = damping, noise**2
    return 2 * d * b2 / (n * (2 * d**2 + gamma * eta * n) ** 2)


def d_complete_source_frequency_d_size(n, gamma, eta, damping, noise):
    d, g, e, b2 = damping, gamma, eta, noise**2
    return g * (g * e * n**2 - 2 * g * e * n - 2 * d**2) * b2 / (d * (2 * d**2 * n + g * e * n**2) ** 2)


def d_complete_other_frequency_d_size(n, gamma, eta, damping, noise):
    d, g, e, b2 = damping, gamma, eta, noise**2
    return -g * (2 * d**2 + 2 * g * e * n) * b2 / (d * (2 * d**2 * n + g * e * n**2) ** 2)


# -- star graph, single source at a leaf --


def d_star_leaf_frequency_d_weight(n, gamma, eta, damping, noise):
    d, g, e, b2 = damping, gamma, eta, noise**2
    w_top = 2 * d**2 + g * e * n
    w_star = 2 * d**2 * (n + 1) + e * g * (n - 1) ** 2
    w_mid = 2 * d**2 + g * e
    return (
        -2 * d * b2 / (n * w_top**2)
        - 2 * d * (n + 1) * (n - 2) * b2 / (n * w_star**2)
        - 2 * d * g * e * (4 * d**2 + g * e * (n + 1)) * (n - 2) * b2 / (n * w_mid**2 * w_top**2)
    )


def d_star_leaf_frequency_d_size(n, gamma, eta, damping, noise):
    d, g, e, b2 = damping, gamma, eta, noise**2
    w_top = 2 * d**2 + g * e * n
    w_star = 2 * d**2 * (n + 1) + g * e * (n - 1) ** 2
    w_mid = 2 * d**2 + g * e
    return (
        2 * g * b2 * (d**2 + g * e * n) / (d * n**2 * w_top**2)
        - g**2 * e * b2 * (4 * d**2 + g * e * n * (4 - n)) / (d * n**2 * w_mid * w_top**2)
        + 2 * g * b2 * (d**2 * (n**2 - 4 * n - 2) + g * e * (n - 1) * (n**2 - 3 * n + 1)) / (d * n**2 * w_star**2)
    )


def d_star_source_line_d_inertia(n, gamma, eta, damping, noise):
    d, b2 = damping, noise**2
    w_star = 2 * d**2 * (n + 1) + gamma * eta * (n - 1) ** 2
    return -4 * (n - 2) * d * b2 / w_star**2


def d_star_other_line_d_inertia(n, gamma, eta, damping, noise):
    d, b2 = damping, noise**2
    w_star = 2 * d**2 * (n + 1) + gamma * eta * (n - 1) ** 2
    return 4 * d * b2 / w_star**2


def d_star_source_line_d_size(n, gamma, eta, damping, noise):
    d, g, e, b2 = damping, gamma, eta, noise**2
    w_star = 2 * d**2 * (1 + n) + g * e * (n - 1) ** 2
    numer = (
        4 * d**4 * (2 * n**2 - 2 * n - 1)
        + 4 * d**2 * g * e * (2 * n**3 - 6 * n**2 + n - 1)
        + g**2 * e**2 * (n - 1) * (2 * n**3 - 4 * n**2 - 3 * n + 1)
    )
    return numer * b2 / (2 * d * g * n**2 * w_star**2)


def d_star_other_line_d_size(n, gamma, eta, damping, noise):
    d, g, e, b2 = damping, gamma, eta, noise**2
    w_star = 2 * d**2 * (1 + n) + g * e * (n - 1) ** 2
    numer = (
        4 * d**4 * (1 + 2 * n)
        + 4 * d**2 * g * e * (2 * n**2 - n + 1)
        + g**2 * e**2 * (n - 1) * (2 * n**2 + 3 * n - 1)
    )
    return -numer * b2 / (2 * d * g * n**2 * w_star**2)


def _single_source(p: HomogeneousParams) -> tuple[int, float]:
    """The disturbed node (1-based) and its noise amplitude."""
    nonzero = p.noise_sq.nonzero()[0]
    if nonzero.size != 1:
        raise AssumptionViolatedError(
            "exactly one disturbance source required; "
            f"nonzero noise at nodes {[int(i) + 1 for i in nonzero]}"
        )
    return int(nonzero[0]) + 1, float(p.noise[nonzero[0]])


def _complete_trend(p: HomogeneousParams, source: int, b: float, graph_kind: str) -> TrendReport:
    n, g, e, d = p.n, p.gamma, p.eta, p.damping
    b2 = b**2

    variances = {
        "source_frequency": complete_source_frequency(n, g, e, d, b),
        "other_frequency": complete_other_frequency(n, g, e, d, b),
        "incident_line": b2 / (2 * d * g * n),
        "other_line": 0.0,
    }
    derivatives = {
        "source_frequency_wrt_weight": d_complete_source_frequency_d_weight(n, g, e, d, b),
        "other_frequency_wrt_weight": d_complete_other_frequency_d_weight(n, g, e, d, b),
        "source_frequency_wrt_size": d_complete_source_frequency_d_size(n, g, e, d, b),
        "other_frequency_wrt_size": d_complete_other_frequency_d_size(n, g, e, d, b),
    }
    limits = {
        "source_frequency_weight_to_inf": b2 / (2 * d * e) - (n - 1) * b2 / (d * e * n**2),
        "other_frequency_weight_to_inf": b2 / (d * e * n**2),
        "source_frequency_size_to_inf": b2 / (2 * d * e),
    }
    n_c = critical_size(d, g, e)
    sign_verdicts = {
        "source_frequency_decreases_in_weight": derivatives["source_frequency_wrt_weight"] < 0,
        "other_frequency_increases_in_weight": derivatives["other_frequency_wrt_weight"] > 0,
        "other_frequency_decreases_in_size": derivatives["other_frequency_wrt_size"] < 0,
        "source_frequency_grows_beyond_critical_size": (
            n <= n_c or derivatives["source_frequency_wrt_size"] > 0
        ),
    }
    return TrendReport(
        graph_kind=graph_kind,
        source=source,
        variances=variances,
        derivatives=derivatives,
        limits=limits,
        critical_size=n_c,
        source_frequency_lower_bound=complete_source_frequency_floor(g, e, d, b),
        sign_verdicts=sign_verdicts,
    )


def _star_leaf_trend(p: HomogeneousParams, source: int, b: float) -> TrendReport:
    n, g, e, d = p.n, p.gamma, p.eta, p.damping
    b2 = b**2

    variances = {
        "root_frequency": complete_other_frequency(n, g, e, d, b),
        "leaf_frequency": star_leaf_frequency(n, g, e, d, b),
        "other_frequency": star_other_frequency(n, g, e, d, b),
        "source_line": star_source_line(n, g, e, d, b),
        "other_line": star_other_line(n, g, e, d, b),
    }
    derivatives = {
        "leaf_frequency_wrt_weight": d_star_leaf_frequency_d_weight(n, g, e, d, b),
        "leaf_frequency_wrt_size": d_star_leaf_frequency_d_size(n, g, e, d, b),
        "source_line_wrt_inertia": d_star_source_line_d_inertia(n, g, e, d, b),
        "other_line_wrt_inertia": d_star_other_line_d_inertia(n, g, e, d, b),
        "source_line_wrt_size": d_star_source_line_d_size(n, g, e, d, b),
        "other_line_wrt_size": d_star_other_line_d_size(n, g, e, d, b),
    }
    limits = {
        "leaf_frequency_weight_to_inf": b2 / (2 * d * e)
        - (b2 / (d * e)) * (1.0 / n - 1.0 / (n**2 * (n - 1.0) ** 2)),
        "leaf_frequency_size_to_inf": b2 / (2 * d * e),
        # The displays at eta = 0 are the first-order star block's entries.
        "source_line_inertia_to_zero": star_source_line(n, g, 0.0, d, b),
        "other_line_inertia_to_zero": star_other_line(n, g, 0.0, d, b),
    }
    sign_verdicts = {
        "leaf_frequency_decreases_in_weight": derivatives["leaf_frequency_wrt_weight"] < 0,
        "leaf_frequency_increases_in_size": derivatives["leaf_frequency_wrt_size"] > 0,
        "source_line_nonincreasing_in_inertia": derivatives["source_line_wrt_inertia"] <= 0,
        "other_line_increases_in_inertia": derivatives["other_line_wrt_inertia"] > 0,
        "source_line_increases_in_size": derivatives["source_line_wrt_size"] > 0,
        "other_line_decreases_in_size": derivatives["other_line_wrt_size"] < 0,
    }
    return TrendReport(
        graph_kind="star",
        source=source,
        variances=variances,
        derivatives=derivatives,
        limits=limits,
        critical_size=None,
        source_frequency_lower_bound=None,
        sign_verdicts=sign_verdicts,
    )


def trend_report(graph_kind: str, p: HomogeneousParams) -> TrendReport:
    """The single-source analysis: displayed variances, their derivatives
    and limits, with sign verdicts.

    ``graph_kind`` is ``"complete"`` or ``"star"`` (root at node 1).  The
    source is the one node with nonzero noise in ``p``; zero or several
    raise AssumptionViolatedError.  A star disturbed at its root behaves
    exactly like the complete graph and returns the same quantities; a star
    disturbed at any leaf gets the leaf analysis, since every leaf of a
    homogeneous star is equivalent.
    """
    if graph_kind not in ("complete", "star"):
        raise AssumptionViolatedError(f"unknown graph kind {graph_kind!r}; use 'complete' or 'star'")
    source, b = _single_source(p)
    if graph_kind == "star" and source != 1:
        return _star_leaf_trend(p, source, b)
    return _complete_trend(p, source, b, graph_kind)
