"""Stationary covariance of the linearized stochastic swing system.

The 2n-state system has a marginally stable mean-angle mode, so the
covariance is computed in whitened spectral coordinates with that mode
removed: the reduced (2n-1)-state matrix is Hurwitz (the solver's own
Schur form says so) and its Lyapunov solution gives the covariance blocks
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
uniform-ratio and first-order routes map their modal state covariance
[[G, S], [S^T, R]] by one :func:`_modal_report`: the angle block is
L G L^T with an m x (n-1) line map L and the frequency block N R N^T with
an n x n node map N.  Each reaches :func:`make_report` as the pair (L, G)
or (N, R), whose symmetry and positive semi-definiteness are decided on
the small core, and is kept as a :class:`Congruence`: single entries are
read from the factors, and the whole block is built, exactly symmetric,
from the tiles of :func:`upper_tiles` when it is first read;
``pipeline.compare_variance`` reads the same tiles without building it, so
its memory does not grow with the block.  Monte Carlo blocks and the
closed star angle and frequency blocks arrive dense and are checked as
given.

Each route takes only the :class:`LinearizedSystem`.  Its spectrum, maps
and their PSD factors form a :class:`ModalBasis`, computed once per
linearization and whitening (inertia, or damping for the first-order
model) by :func:`modal_basis` and kept with the system, so the numeric,
uniform-ratio and Monte Carlo routes at one linearization share one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Mapping

import numpy as np

from .errors import AssumptionViolatedError, DisconnectedGraphError, InternalInvariantError
from .graphs import SpectralDecomposition, whitened_spectrum
from .lyapunov import lyapunov_residual, lyapunov_solve_with_abscissa
from .swing import LinearizedSystem

METHOD_NUMERIC = "numeric"
METHOD_UNIFORM = "uniform-ratio"
METHOD_CLOSED = "closed-form"
METHOD_FIRST_ORDER = "first-order"
METHOD_MC = "monte-carlo"

SYMMETRY_TOL = 1e-10
PSD_FLOOR = -1e-10
UNIFORMITY_TOL = 1e-9
# Rows per panel and columns per tile of the L X L^T product; a panel of at
# most two tiles' width is one tile.
PANEL_ROWS = 256
TILE_COLS = 256

# A covariance block, dense or as a pair (L, X) meaning L X L^T.
Block = np.ndarray | tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Congruence:
    """A checked symmetric block L X L^T, kept as its factors.

    ``core`` X is exactly symmetric.  Indexing reads one entry, (i, j) with
    i <= j as (L[i] X) . L[j], in O(k^2) for an m x k map L.  BLAS sums the
    built block's tiles in another order, so a read entry may differ from
    the built one in its last bits (up to about 1e-15 of the block's largest
    entry).  ``left`` is L X, formed once; ``array`` builds the whole block
    from :func:`upper_tiles` on first read, exactly symmetric, and keeps it.
    """

    lines: np.ndarray
    core: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.lines.shape[0], self.lines.shape[0]

    def __getitem__(self, index: tuple[int, int]) -> float:
        i, j = sorted(index)
        return float(self.lines[i] @ self.core @ self.lines[j])

    @cached_property
    def left(self) -> np.ndarray:
        return self.lines @ self.core

    @cached_property
    def array(self) -> np.ndarray:
        m = self.lines.shape[0]
        out = np.empty((m, m))
        for i, j, tile in upper_tiles(self):
            rows, columns = slice(i, i + tile.shape[0]), slice(j, j + tile.shape[1])
            out[rows, columns] = tile
            out[columns, rows] = tile.T
        return out


def _array(block: np.ndarray | Congruence | None) -> np.ndarray | None:
    return block.array if isinstance(block, Congruence) else block


@dataclass(frozen=True)
class CovarianceReport:
    """Covariance blocks of the stationary output distribution.

    ``q_delta`` is line-by-line (m x m), ``q_omega`` node-by-node (n x n)
    and ``q_delta_omega`` node-by-line (n x m).  The first-order route has
    no frequency output, so the omega blocks are ``None`` there.
    ``diagnostics`` carries route-specific data (Lyapunov residual,
    Monte Carlo standard errors, ...).

    ``delta`` and ``omega`` hold the symmetric blocks as :func:`make_report`
    checked them: dense, or a :class:`Congruence` whose entries can be read
    without building it.  ``q_delta`` and ``q_omega`` build a factored block
    on first access and keep it, so every reader sees the same array.
    """

    delta: np.ndarray | Congruence
    omega: np.ndarray | Congruence | None
    q_delta_omega: np.ndarray | None
    method: str
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    @property
    def q_delta(self) -> np.ndarray:
        return _array(self.delta)

    @property
    def q_omega(self) -> np.ndarray | None:
        return _array(self.omega)

    @property
    def line_count(self) -> int:
        return self.delta.shape[0]

    @property
    def node_count(self) -> int:
        return 0 if self.omega is None else self.omega.shape[0]


def _scale(block: np.ndarray, name: str) -> float:
    """max(1, largest |entry|); raises InternalInvariantError on a non-finite entry."""
    top, bottom = float(block.max(initial=0.0)), float(block.min(initial=0.0))
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise InternalInvariantError(f"{name} block has non-finite entries")
    return max(1.0, top, -bottom)


def upper_tiles(block: np.ndarray | Congruence) -> Iterator[tuple[int, int, np.ndarray]]:
    """Tiles (i, j, T) of a symmetric block's upper triangle, row panel by
    row panel.

    For i in steps of PANEL_ROWS, the panel of rows [i, i + PANEL_ROWS) from
    column i on is cut at columns j = i, i + TILE_COLS, ..., unless it is at
    most 2 TILE_COLS wide, when it is one tile; T holds the panel's columns
    [j, j + its width).  A :class:`Congruence`'s tile is
    (L X)[rows] L[columns]^T, and in the panel's first tile the leading
    square, which holds the diagonal, is averaged with its transpose; a
    dense block's tile is a view of the block, which :func:`make_report`
    keeps exactly symmetric.  Any one tile holds at most
    PANEL_ROWS x 2 TILE_COLS entries, whatever the block's size.
    """
    m = block.shape[0]
    for i in range(0, m, PANEL_ROWS):
        end = min(i + PANEL_ROWS, m)
        width = m - i if m - i <= 2 * TILE_COLS else TILE_COLS
        for j in range(i, m, width):
            stop = min(j + width, m)
            if isinstance(block, Congruence):
                tile = block.left[i:end] @ block.lines[j:stop].T
                if j == i:
                    square = tile[:, : end - i]
                    square[...] = 0.5 * (square + square.T)
            else:
                tile = block[i:end, j:stop]
            yield i, j, tile


def _diagonal_scale(block: Congruence, name: str) -> float:
    """max(1, largest diagonal entry) of L X L^T, in O(mk) once L X is formed.

    Raises InternalInvariantError when the block has a non-finite entry.
    An entry, built or read, is a sum of k products (L X)[i, t] L[j, t], and
    a diagonal tile of the build adds two such sums.  While
    4 k max(1, |L X|) max(1, |L|) is finite, none of these sums overflows
    (one factor 2 is room for rounding), so with finite factors every entry
    is finite.  Otherwise the block is built and scanned, as a dense block is.
    """
    lines, left = block.lines, block.left
    if math.isfinite(4.0 * lines.shape[1] * _scale(left, name) * _scale(lines, name)):
        diagonal = np.einsum("ij,ij->i", left, lines)
    else:
        _scale(block.array, name)
        diagonal = block.array.diagonal()
    return max(1.0, float(diagonal.max(initial=0.0)))


def _checked_symmetric(
    block: Block, name: str, factor: np.ndarray | None = None
) -> np.ndarray | Congruence:
    """The block after its finiteness, symmetry and PSD checks: a dense
    block exactly symmetric, a pair (L, X) as an unbuilt :class:`Congruence`.

    A pair (L, X) stands for L X L^T.  Symmetry is decided on X, which is
    then replaced by (X + X^T) / 2, and positive semi-definiteness on
    R X R^T with R from the QR factorization of L: L X L^T = Q (R X R^T) Q^T,
    so its eigenvalues are the block's own, apart from zeros.  R is
    ``factor`` when given (a :class:`ModalBasis` keeps one per map), else
    computed here.

    The PSD floor scales with max(1, s): s is a dense block's largest
    |entry|, and a pair's largest diagonal entry (:func:`_diagonal_scale`),
    which is never above its largest |entry|, so the floor is never lower.
    Finiteness of a pair is decided on X, L X and L: once they pass, every
    entry is a finite sum (see :func:`_diagonal_scale`), and for a block
    that passed the PSD check it is bounded by sqrt(a_ii a_jj) besides.
    """
    lines, core = block if isinstance(block, tuple) else (None, block)
    core = np.asarray(core, dtype=float)
    if SYMMETRY_TOL * _scale(core, name) < np.abs(core - core.T).max(initial=0.0):
        raise InternalInvariantError(f"{name} block lost symmetry beyond tolerance")
    core = 0.5 * (core + core.T)
    if lines is None:
        checked, scale = core, _scale(core, name)
    else:
        checked = Congruence(lines, core)
        scale = _diagonal_scale(checked, name)
        r = np.linalg.qr(lines, mode="r") if factor is None else factor
        core = r @ core @ r.T
    if core.size and np.linalg.eigvalsh(core).min() < PSD_FLOOR * scale:
        raise InternalInvariantError(f"{name} block is not positive semi-definite")
    return checked


def make_report(
    q_delta: Block,
    q_omega: Block | None,
    q_delta_omega: np.ndarray | None,
    method: str,
    diagnostics: Mapping[str, Any] | None = None,
    factors: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
) -> CovarianceReport:
    """Assemble a report, enforcing finiteness and symmetry/PSD invariants.

    ``q_delta`` and ``q_omega`` are each a dense block or a pair (L, X)
    meaning L X L^T, with L of any shape.  A pair's symmetry is decided on
    X and its positive semi-definiteness on the small matrix R X R^T (see
    :func:`_checked_symmetric`), at O(m k^2) instead of O(m^3) cost for an
    m x k map L; ``factors`` holds each pair's R from qr(L) when the caller
    has it, and None where R is to be computed here.  The PSD floor is
    scaled by the block's largest diagonal entry, read from L X in O(mk).
    The pair is kept unbuilt: the report builds it, exactly symmetric, when
    ``q_delta`` or ``q_omega`` is first read, so a caller that reads single
    entries never holds the m x m array.  A dense block is checked as given and kept as (B + B^T) / 2,
    with a PSD floor scaled by its largest |entry|.

    Raises InternalInvariantError when a block has a non-finite entry or a
    symmetric block breaks either invariant.
    """
    q_delta = _checked_symmetric(q_delta, "angle-difference", factors[0])
    if q_omega is not None:
        q_omega = _checked_symmetric(q_omega, "frequency", factors[1])
    if q_delta_omega is not None:
        q_delta_omega = np.asarray(q_delta_omega, dtype=float)
        if not np.isfinite(q_delta_omega).all():
            raise InternalInvariantError("cross block has non-finite entries")
    return CovarianceReport(q_delta, q_omega, q_delta_omega, method, dict(diagnostics or {}))


@dataclass(frozen=True)
class ModalBasis:
    """The Laplacian whitened by a positive diagonal S, with the maps from
    its modes to nodes and lines.

    ``spectral`` holds (Lambda, U) of S^{-1/2} L S^{-1/2}; ``nodes`` is the
    n x n node map N = S^{-1/2} U and ``lines`` the m x (n-1) line map
    C^T N[:, 1:], gathered as N's tail row minus its head row.
    ``node_factor`` and ``line_factor`` are R from qr(N) and qr(C^T N[:, 1:]),
    the PSD factors :func:`make_report` reads, each computed on first use.
    """

    spectral: SpectralDecomposition
    nodes: np.ndarray
    lines: np.ndarray

    @cached_property
    def node_factor(self) -> np.ndarray:
        return np.linalg.qr(self.nodes, mode="r")

    @cached_property
    def line_factor(self) -> np.ndarray:
        return np.linalg.qr(self.lines, mode="r")


def _modal_basis(lin: LinearizedSystem, whitening: str) -> ModalBasis:
    scaling = getattr(lin, whitening)
    spectral = whitened_spectrum(lin.laplacian, scaling)
    eigs = spectral.eigenvalues
    if len(eigs) > 1 and eigs[1] <= 1e-9 * max(1.0, eigs[-1]):
        raise DisconnectedGraphError("zero eigenvalue is not simple: graph is disconnected")
    nodes = (1.0 / np.sqrt(scaling))[:, None] * spectral.vectors
    modes = nodes[:, 1:]
    return ModalBasis(spectral, nodes, modes[lin.graph.tails] - modes[lin.graph.heads])


def modal_basis(lin: LinearizedSystem, whitening: str) -> ModalBasis:
    """The modal basis of ``lin``'s Laplacian whitened by its ``whitening``,
    "inertia" or "damping" (the first-order model), computed once per
    linearization and whitening.

    Raises DisconnectedGraphError unless 0 is a simple eigenvalue; a failed
    check is not kept, so each call on that system checks again.
    """
    return lin.shared(f"{whitening} basis", lambda: _modal_basis(lin, whitening))


@dataclass(frozen=True)
class ReducedSystem:
    """Reduced system in whitened spectral coordinates.

    With eigenpairs (Lambda, U) of M^{-1/2} L M^{-1/2} and the zero-mode
    state removed, the (2n-1)-state matrix is

        A2 = [[0, A22], [A23, A24]],
        A22 = [0 I_{n-1}], A23^T = [0 -Lambda_{n-1}], A24 = -U^T M^{-1} D U,

    with input B2 = [0; U^T M^{-1/2} B]; the state is angle modes 2..n,
    then frequency modes 1..n.  The Lyapunov solve checks A2 is Hurwitz.
    """

    a2: np.ndarray
    b2: np.ndarray


def reduce_system(lin: LinearizedSystem) -> ReducedSystem:
    """Build the reduced system for a connected linearized network, in the
    eigenbasis of its inertia-whitened Laplacian."""
    spectral = modal_basis(lin, "inertia").spectral
    n = lin.node_count
    u = spectral.vectors
    a_full = np.zeros((2 * n, 2 * n))
    a_full[:n, n:] = np.eye(n)
    a_full[n:, :n] = -np.diag(spectral.eigenvalues)
    a_full[n:, n:] = -u.T @ ((lin.damping / lin.inertia)[:, None] * u)

    b_full = np.zeros((2 * n, n))
    b_full[n:, :] = u.T @ ((1.0 / np.sqrt(lin.inertia))[:, None] * np.diag(lin.noise))
    return ReducedSystem(a_full[1:, 1:], b_full[1:, :])


def _modal_report(
    basis: ModalBasis, g: np.ndarray, r: np.ndarray | None, s: np.ndarray | None, method: str,
    diagnostics: Mapping[str, Any] | None = None,
) -> CovarianceReport:
    """Report of the modal state covariance [[G, S], [S^T, R]] in ``basis``.

    With node map N and line map L, the blocks are L G L^T, N R N^T and
    N S^T L^T; with R and S None, only the angle block.  The PSD checks read
    the basis's own factors of L and N.
    """
    q_omega = q_cross = node_factor = None
    if r is not None:
        q_omega = (basis.nodes, r)
        q_cross = basis.nodes @ s.T @ basis.lines.T
        node_factor = basis.node_factor
    return make_report(
        (basis.lines, g), q_omega, q_cross, method, diagnostics, (basis.line_factor, node_factor)
    )


def asymptotic_variance_numeric(lin: LinearizedSystem) -> CovarianceReport:
    """Stationary output covariance via the reduced Lyapunov equation."""
    reduced = reduce_system(lin)
    w = reduced.b2 @ reduced.b2.T
    q_x, abscissa = lyapunov_solve_with_abscissa(reduced.a2, w)
    diagnostics = {
        "lyapunov_residual": lyapunov_residual(reduced.a2, q_x, w),
        "spectral_abscissa": abscissa,
    }
    k = lin.node_count - 1
    return _modal_report(
        modal_basis(lin, "inertia"), q_x[:k, :k], q_x[k:, k:], q_x[:k, k:], METHOD_NUMERIC,
        diagnostics,
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
    """Explicit stationary state covariance under a uniform ratio.

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
    The blocks are written in the decomposition (Lambda, U) of the system's
    inertia-whitened :func:`modal_basis`.
    """

    g: np.ndarray
    s: np.ndarray
    r: np.ndarray
    alpha: float


def _ratio_weights(lam_a, lam_b, alpha: float) -> tuple:
    """Cross, angle and frequency weights (lambda_a - lambda_b) / chi,
    2 a / chi and a (lambda_a + lambda_b) / chi of the uniform-ratio
    solution, for eigenvalues (scalars or broadcast arrays) of an angle mode
    a and a frequency mode b; chi as in :class:`UniformRatioBlocks`."""
    diff, total = lam_a - lam_b, lam_a + lam_b
    chi = diff**2 + 2.0 * alpha**2 * total
    return diff / chi, 2.0 * alpha / chi, alpha * total / chi


def uniform_ratio_blocks(lin: LinearizedSystem) -> UniformRatioBlocks:
    """Explicit spectral-coordinate covariance blocks for a uniform ratio.

    Requires max_i |d_i/m_i - alpha| <= 1e-9 alpha; raises
    AssumptionViolatedError naming the offending nodes otherwise, before
    any spectrum is computed.
    """
    alpha = uniform_value(lin.damping / lin.inertia, "damping-inertia ratios")
    spectral = modal_basis(lin, "inertia").spectral
    lam = spectral.eigenvalues
    u = spectral.vectors
    xi = lin.noise**2 / lin.inertia
    p = u.T @ (xi[:, None] * u)

    # chi vanishes only at (1, 1), whose weights no block reads.
    with np.errstate(divide="ignore", invalid="ignore"):
        cross, angle, frequency = _ratio_weights(lam[:, None], lam[None, :], alpha)
    s = cross[1:, :] * p[1:, :]
    g = angle[1:, 1:] * p[1:, 1:]
    r = frequency * p
    r[0, 0] = p[0, 0] / (2.0 * alpha)
    return UniformRatioBlocks(g, s, r, alpha)


def asymptotic_variance_uniform_ratio(lin: LinearizedSystem) -> CovarianceReport:
    """Stationary output covariance from the explicit uniform-ratio solution
    (see :func:`uniform_ratio_blocks` for the uniformity requirement)."""
    blocks = uniform_ratio_blocks(lin)
    return _modal_report(
        modal_basis(lin, "inertia"), blocks.g, blocks.r, blocks.s, METHOD_UNIFORM,
        {"alpha": blocks.alpha},
    )


def first_order_variance(lin: LinearizedSystem) -> CovarianceReport:
    """Stationary angle-difference covariance with inertia set to zero.

    Uses the damping-whitened Laplacian spectrum: with eigenpairs
    (lambda_bar, u_bar) the reduced state covariance has entries

        q_{ij} = u_bar_{i+1}^T D^{-1/2} B^2 D^{-1/2} u_bar_{j+1}
                 / (lambda_bar_{i+1} + lambda_bar_{j+1})

    and the angle block is its image under the incidence map.  The report
    has no frequency blocks.
    """
    basis = modal_basis(lin, "damping")
    lam = basis.spectral.eigenvalues
    u2 = basis.spectral.vectors[:, 1:]
    xi = lin.noise**2 / lin.damping
    p = u2.T @ (xi[:, None] * u2)
    q_x = p / (lam[1:, None] + lam[None, 1:])
    return _modal_report(basis, q_x, None, None, METHOD_FIRST_ORDER)


def trace_frequency_variance(lin: LinearizedSystem) -> float:
    """tr(Q_omega) = tr(B^2) / (2 d eta) for uniform inertia and damping."""
    eta = uniform_value(lin.inertia, "inertia values")
    d = uniform_value(lin.damping, "damping values")
    return float((lin.noise**2).sum() / (2.0 * d * eta))
