"""Stationary covariance of the linearized stochastic swing system.

The 2n-state system has a marginally stable mean-angle mode, so the
covariance is computed in whitened spectral coordinates with that mode
removed: the reduced (2n-1)-state matrix is Hurwitz and its Lyapunov
solution, mapped through the output matrix, gives the covariance blocks
of the line angle differences (Q_delta), the node frequencies (Q_omega)
and their cross terms (Q_delta_omega).

Routes provided here:

* :func:`asymptotic_variance_numeric` -- reduced Lyapunov solve, any
  parameters;
* :func:`asymptotic_variance_uniform_ratio` -- explicit solution of the
  same equation when all damping-inertia ratios d_i/m_i coincide;
* :func:`first_order_variance` -- zero-inertia (first-order) model, angle
  block only;
* :func:`trace_frequency_variance` -- trace identity
  tr(Q_omega) = tr(B^2) / (2 d eta) for uniform inertia and damping.

Every report passes :func:`make_report`'s symmetry/PSD checks once;
:func:`uniform_value` is the one uniformity test.  The numeric,
uniform-ratio and first-order routes build the angle block as L X L^T
from an m x (n-1) line map L and a small state covariance X, and hand
``delta_factor=(L, X)`` to :func:`make_report`, which then decides
positive semi-definiteness on the (n-1) x (n-1) core instead of the
m x m block.  The dense eigenvalue check still runs on the frequency
block, on Monte Carlo and star closed-form angle blocks, and whenever
L has at least as many columns as rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import AssumptionViolatedError, DisconnectedGraphError, InternalInvariantError
from .graphs import SpectralDecomposition, whitened_spectrum
from .lyapunov import assert_hurwitz, lyapunov_residual, lyapunov_solve
from .swing import LinearizedSystem

METHOD_NUMERIC = "numeric"
METHOD_UNIFORM = "uniform-ratio"
METHOD_CLOSED = "closed-form"
METHOD_FIRST_ORDER = "first-order"
METHOD_MC = "monte-carlo"

SYMMETRY_TOL = 1e-10
PSD_FLOOR = -1e-10
UNIFORMITY_TOL = 1e-9
SYMMETRIZE_TILE = 256


@dataclass(frozen=True)
class CovarianceReport:
    """Covariance blocks of the stationary output distribution.

    ``q_delta`` is line-by-line (m x m), ``q_omega`` node-by-node (n x n)
    and ``q_delta_omega`` node-by-line (n x m).  The first-order route has
    no frequency output, so the omega blocks are ``None`` there.
    ``diagnostics`` carries route-specific data (Lyapunov residual,
    Monte Carlo standard errors, ...).
    """

    q_delta: np.ndarray
    q_omega: np.ndarray | None
    q_delta_omega: np.ndarray | None
    method: str
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    @property
    def line_count(self) -> int:
        return self.q_delta.shape[0]

    @property
    def node_count(self) -> int:
        return 0 if self.q_omega is None else self.q_omega.shape[0]


def _symmetrized(block: np.ndarray) -> tuple[float, np.ndarray]:
    """max|B - B^T| and 0.5 (B + B^T), in one tiled pass over B.

    Each pair of mirror tiles is read once and written twice: addition
    commutes, so the lower tile is the upper one transposed, bit for bit.
    """
    m = block.shape[0]
    out = np.empty((m, m))
    asymmetry = 0.0
    for i in range(0, m, SYMMETRIZE_TILE):
        rows = slice(i, i + SYMMETRIZE_TILE)
        for j in range(i, m, SYMMETRIZE_TILE):
            cols = slice(j, j + SYMMETRIZE_TILE)
            upper, lower_t = block[rows, cols], block[cols, rows].T
            asymmetry = max(asymmetry, float(np.abs(upper - lower_t).max()))
            tile = upper + lower_t
            tile *= 0.5
            out[rows, cols] = tile
            out[cols, rows] = tile.T
    return asymmetry, out


def _checked_symmetric(
    block: np.ndarray, name: str, factor: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    scale = max(1.0, float(block.max(initial=0.0)), -float(block.min(initial=0.0)))
    asymmetry, block = _symmetrized(block)
    if asymmetry > SYMMETRY_TOL * scale:
        raise InternalInvariantError(f"{name} block lost symmetry beyond tolerance")
    if factor is not None and factor[0].shape[1] < factor[0].shape[0]:
        # block = L X L^T = Q (R X R^T) Q^T: the k x k core has the block's
        # nonzero eigenvalues, and the other m - k are zero.
        lines, core = factor
        r = np.linalg.qr(lines, mode="r")
        spectrum_of = r @ (0.5 * (core + core.T)) @ r.T
    else:
        spectrum_of = block
    if block.size and np.linalg.eigvalsh(spectrum_of).min() < PSD_FLOOR * scale:
        raise InternalInvariantError(f"{name} block is not positive semi-definite")
    return block


def make_report(
    q_delta: np.ndarray,
    q_omega: np.ndarray | None,
    q_delta_omega: np.ndarray | None,
    method: str,
    diagnostics: Mapping[str, Any] | None = None,
    *,
    delta_factor: tuple[np.ndarray, np.ndarray] | None = None,
) -> CovarianceReport:
    """Assemble a report, enforcing symmetry/PSD invariants on the blocks.

    ``delta_factor = (L, X)`` states that ``q_delta`` was built as
    L X L^T with L of shape m x k.  When k < m, positive semi-definiteness
    of the angle block is decided on the k x k matrix R sym(X) R^T, with R
    from the QR factorization of L: its eigenvalues are the block's nonzero
    ones, so the verdict is the dense one at O(m k^2) instead of O(m^3)
    cost.  Without a factor, or when k >= m, ``eigvalsh`` runs on the dense
    block.  Symmetry, the symmetrization and the floor's scale always use
    the dense block.

    Raises InternalInvariantError when a block breaks either invariant.
    """
    q_delta = _checked_symmetric(
        np.asarray(q_delta, dtype=float), "angle-difference", delta_factor
    )
    if q_omega is not None:
        q_omega = _checked_symmetric(np.asarray(q_omega, dtype=float), "frequency")
    if q_delta_omega is not None:
        q_delta_omega = np.asarray(q_delta_omega, dtype=float)
    return CovarianceReport(q_delta, q_omega, q_delta_omega, method, dict(diagnostics or {}))


@dataclass(frozen=True)
class ReducedSystem:
    """Hurwitz reduced system in whitened spectral coordinates.

    With eigenpairs (Lambda, U) of M^{-1/2} L M^{-1/2} and the zero-mode
    state removed, the (2n-1)-state matrix is

        A2 = [[0, A22], [A23, A24]],
        A22 = [0 I_{n-1}], A23^T = [0 -Lambda_{n-1}], A24 = -U^T M^{-1} D U,

    with input B2 = [0; U^T M^{-1/2} B] and output C2 mapping back to line
    angle differences and node frequencies.
    """

    a2: np.ndarray
    b2: np.ndarray
    c2: np.ndarray
    spectral: SpectralDecomposition
    spectral_abscissa: float


def _require_connected_spectrum(spectral: SpectralDecomposition) -> None:
    eigs = spectral.eigenvalues
    if len(eigs) > 1 and eigs[1] <= 1e-9 * max(1.0, eigs[-1]):
        raise DisconnectedGraphError("zero eigenvalue is not simple: graph is disconnected")


def reduce_system(
    lin: LinearizedSystem, spectral: SpectralDecomposition | None = None
) -> ReducedSystem:
    """Build the reduced Hurwitz system for a connected linearized network.

    ``spectral`` overrides the inertia-whitened Laplacian decomposition
    (used by basis-invariance tests); by default it is computed here.
    """
    if spectral is None:
        spectral = whitened_spectrum(lin.laplacian, lin.inertia)
    _require_connected_spectrum(spectral)

    n = lin.node_count
    u = spectral.vectors
    lam = spectral.eigenvalues
    inv_sqrt_m = 1.0 / np.sqrt(lin.inertia)

    a_full = np.zeros((2 * n, 2 * n))
    a_full[:n, n:] = np.eye(n)
    a_full[n:, :n] = -np.diag(lam)
    a_full[n:, n:] = -u.T @ ((lin.damping / lin.inertia)[:, None] * u)

    b_full = np.zeros((2 * n, n))
    b_full[n:, :] = u.T @ (inv_sqrt_m[:, None] * np.diag(lin.noise))

    m = lin.line_count
    c_full = np.zeros((m + n, 2 * n))
    c_full[:m, :n] = lin.incidence.T @ (inv_sqrt_m[:, None] * u)
    c_full[m:, n:] = inv_sqrt_m[:, None] * u

    a2 = a_full[1:, 1:]
    b2 = b_full[1:, :]
    c2 = c_full[:, 1:]
    abscissa = assert_hurwitz(a2)
    return ReducedSystem(a2, b2, c2, spectral, abscissa)


def asymptotic_variance_numeric(
    lin: LinearizedSystem, spectral: SpectralDecomposition | None = None
) -> CovarianceReport:
    """Stationary output covariance via the reduced Lyapunov equation."""
    reduced = reduce_system(lin, spectral)
    w = reduced.b2 @ reduced.b2.T
    q_x = lyapunov_solve(reduced.a2, w, check_hurwitz=False)
    q_y = reduced.c2 @ q_x @ reduced.c2.T
    m, n = lin.line_count, lin.node_count
    diagnostics = {
        "lyapunov_residual": lyapunov_residual(reduced.a2, q_x, w),
        "spectral_abscissa": reduced.spectral_abscissa,
    }
    # The line rows of c2 vanish beyond the n - 1 angle-mode columns.
    return make_report(
        q_y[:m, :m], q_y[m:, m:], q_y[m:, :m], METHOD_NUMERIC, diagnostics,
        delta_factor=(reduced.c2[:m, : n - 1], q_x[: n - 1, : n - 1]),
    )


def uniform_value(values: np.ndarray, what: str, entries: str = "nodes") -> float:
    """Common value of positive ``values``, raising when they are not uniform.

    Uniform means |x - mean| <= 1e-9 |mean| for every entry; otherwise an
    AssumptionViolatedError names ``what`` and the offending (1-based)
    ``entries``.
    """
    center = float(values.mean())
    offenders = np.flatnonzero(np.abs(values - center) > UNIFORMITY_TOL * abs(center))
    if offenders.size:
        raise AssumptionViolatedError(
            f"{what} are not uniform (tolerance {UNIFORMITY_TOL:g}); "
            f"offending {entries}: {', '.join(str(i + 1) for i in offenders)}"
        )
    return center


@dataclass(frozen=True)
class UniformRatioBlocks:
    """Pieces of the explicit stationary state covariance under a uniform ratio.

    In spectral coordinates the state covariance is [[G, S], [S^T, R]] with

        s_{i,1}   = u_{i+1}^T Xi u_1 / rho_{i+1}                      (first column)
        s_{i-1,j} = (lambda_i - lambda_j) / chi_ij u_i^T Xi u_j       (i, j >= 2)
        g_{i-1,j-1} = 2 a / chi_ij u_i^T Xi u_j
        r_11      = u_1^T Xi u_1 / (2 a)
        r_ij      = a (lambda_i + lambda_j) / chi_ij u_i^T Xi u_j     ((i,j) != (1,1))

    where a is the common ratio, Xi = M^{-1/2} B^2 M^{-1/2},
    rho_i = 2 a^2 + lambda_i and chi_ij = (lambda_i - lambda_j)^2
    + 2 a^2 (lambda_i + lambda_j).  chi is positive whenever (i, j) != (1, 1),
    including repeated eigenvalues, so no degenerate branch is needed.
    """

    g: np.ndarray
    s: np.ndarray
    r: np.ndarray
    alpha: float
    rho: np.ndarray
    chi: np.ndarray


def uniform_ratio_blocks(
    lin: LinearizedSystem, spectral: SpectralDecomposition | None = None
) -> UniformRatioBlocks:
    """Explicit spectral-coordinate covariance blocks for a uniform ratio."""
    alpha = uniform_value(lin.damping / lin.inertia, "damping-inertia ratios")
    if spectral is None:
        spectral = whitened_spectrum(lin.laplacian, lin.inertia)
    return _uniform_ratio_blocks(lin, spectral, alpha)


def _uniform_ratio_blocks(
    lin: LinearizedSystem, spectral: SpectralDecomposition, alpha: float
) -> UniformRatioBlocks:
    _require_connected_spectrum(spectral)
    lam = spectral.eigenvalues
    u = spectral.vectors
    xi = lin.noise**2 / lin.inertia
    p = u.T @ (xi[:, None] * u)

    rho = 2.0 * alpha**2 + lam
    diff = lam[:, None] - lam[None, :]
    chi = diff**2 + 2.0 * alpha**2 * (lam[:, None] + lam[None, :])

    s = (diff[1:, :] / chi[1:, :]) * p[1:, :]
    g = (2.0 * alpha / chi[1:, 1:]) * p[1:, 1:]
    chi_safe = chi.copy()
    chi_safe[0, 0] = 1.0  # only the (1,1) entry is singular; overwritten below
    r = (alpha * (lam[:, None] + lam[None, :]) / chi_safe) * p
    r[0, 0] = p[0, 0] / (2.0 * alpha)
    return UniformRatioBlocks(g, s, r, alpha, rho, chi)


def asymptotic_variance_uniform_ratio(
    lin: LinearizedSystem, spectral: SpectralDecomposition | None = None
) -> CovarianceReport:
    """Stationary output covariance from the explicit uniform-ratio solution.

    Requires max_i |d_i/m_i - alpha| <= 1e-9 alpha; raises
    AssumptionViolatedError naming the offending nodes otherwise, before
    any spectrum is computed.
    """
    alpha = uniform_value(lin.damping / lin.inertia, "damping-inertia ratios")
    if spectral is None:
        spectral = whitened_spectrum(lin.laplacian, lin.inertia)
    blocks = _uniform_ratio_blocks(lin, spectral, alpha)

    u = spectral.vectors
    u_hat = u[:, 1:]
    inv_sqrt_m = 1.0 / np.sqrt(lin.inertia)
    lines_from_modes = lin.incidence.T @ (inv_sqrt_m[:, None] * u_hat)
    nodes_from_modes = inv_sqrt_m[:, None] * u

    q_delta = lines_from_modes @ blocks.g @ lines_from_modes.T
    q_omega = nodes_from_modes @ blocks.r @ nodes_from_modes.T
    q_cross = nodes_from_modes @ blocks.s.T @ lines_from_modes.T
    diagnostics = {"alpha": blocks.alpha}
    return make_report(
        q_delta, q_omega, q_cross, METHOD_UNIFORM, diagnostics,
        delta_factor=(lines_from_modes, blocks.g),
    )


def first_order_variance(
    lin: LinearizedSystem, spectral: SpectralDecomposition | None = None
) -> CovarianceReport:
    """Stationary angle-difference covariance with inertia set to zero.

    Uses the damping-whitened Laplacian spectrum: with eigenpairs
    (lambda_bar, u_bar) the reduced state covariance has entries

        q_{ij} = u_bar_{i+1}^T D^{-1/2} B^2 D^{-1/2} u_bar_{j+1}
                 / (lambda_bar_{i+1} + lambda_bar_{j+1})

    and the angle block is its image under the incidence map.  The report
    has no frequency blocks.
    """
    if spectral is None:
        spectral = whitened_spectrum(lin.laplacian, lin.damping)
    _require_connected_spectrum(spectral)

    lam = spectral.eigenvalues
    u2 = spectral.vectors[:, 1:]
    xi = lin.noise**2 / lin.damping
    p = u2.T @ (xi[:, None] * u2)
    q_x = p / (lam[1:, None] + lam[None, 1:])

    inv_sqrt_d = 1.0 / np.sqrt(lin.damping)
    lines_from_modes = lin.incidence.T @ (inv_sqrt_d[:, None] * u2)
    q_delta = lines_from_modes @ q_x @ lines_from_modes.T
    return make_report(
        q_delta, None, None, METHOD_FIRST_ORDER, delta_factor=(lines_from_modes, q_x)
    )


def trace_frequency_variance(lin: LinearizedSystem) -> float:
    """tr(Q_omega) = tr(B^2) / (2 d eta) for uniform inertia and damping."""
    eta = uniform_value(lin.inertia, "inertia values")
    d = uniform_value(lin.damping, "damping values")
    return float((lin.noise**2).sum() / (2.0 * d * eta))
