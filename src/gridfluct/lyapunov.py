"""Continuous-time Lyapunov equation solver and the Hurwitz check.

:func:`lyapunov_solve_with_abscissa` solves A Q + Q A^T + W = 0 by
Bartels-Stewart (Bartels and Stewart, CACM 15(9), 1972): real Schur form
by LAPACK ``gees``, then the triangular solve.  Up to ``LEAF`` = 96 states
that is one LAPACK ``trsyl`` call, bit for bit as scipy's solver does it;
above, a recursive blocked solve in the manner of RECSY (Jonsson and
Kågström, ACM TOMS 28(4), 2002) halves the factor until ``trsyl`` runs on
leaves of at most ``LEAF`` states, with matrix-product updates in between.
The Schur form also gives the Hurwitz verdict and the spectral abscissa.
:func:`assert_hurwitz` checks stability by ``eigvals`` for callers that
solve no Lyapunov equation (Monte Carlo).

Both LAPACK routines come from scipy's f2py wrapper module ``_flapack``,
the one behind ``scipy.linalg.lapack``, loaded on the first solve without
running ``scipy/linalg/__init__.py``: that package's import loads numpy's
f2py, testing, masked-array and random packages and takes more than ten
times as long.  Routes that solve no Lyapunov equation load no scipy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util

import numpy as np

from .errors import InstabilityError, InternalInvariantError, ShapeError

HURWITZ_MARGIN = 1e-12
LEAF = 96  # largest side solved by one trsyl call


def _validate(a: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"A must be square, got shape {a.shape}")
    if w.shape != a.shape:
        raise ShapeError(f"W shape {w.shape} does not match A shape {a.shape}")
    if not a.size:
        raise ShapeError("A and W are empty 0 x 0 matrices: the equation needs at least one state")
    if not (np.isfinite(a).all() and np.isfinite(w).all()):
        raise ShapeError("A and W must have finite entries")
    if np.abs(w - w.T).max() > 1e-9 * max(1.0, np.abs(w).max()):
        raise ShapeError("W must be symmetric")
    return a, w


@functools.cache
def _flapack():
    """scipy's f2py LAPACK module, loaded from scipy.linalg's directory;
    finding that directory imports the top-level ``scipy`` only."""
    linalg = importlib.util.find_spec("scipy.linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", linalg.submodule_search_locations)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _no_sort(real, imag):
    """``gees``'s eigenvalue-selection callback, unused with ``sort_t=0``."""


def _schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur factor T and orthogonal Z of A = Z T Z^T, by the ``dgees``
    calls of ``scipy.linalg.schur(a, output="real")``: a workspace query,
    then the factorization, unsorted."""
    gees = _flapack().dgees
    lwork = gees(_no_sort, a, lwork=-1)[-2][0].real.astype(np.int_)
    result = gees(_no_sort, a, lwork=lwork, sort_t=0)
    info = result[-1]
    if info:
        raise InternalInvariantError(
            f"real Schur form of A not found (gees info {info}): "
            "the QR algorithm did not converge"
        )
    return result[0], result[-3]


def _hurwitz(spectral_abscissa: float) -> float:
    if spectral_abscissa >= -HURWITZ_MARGIN:
        raise InstabilityError(
            f"matrix is not Hurwitz: max real part of eigenvalues is {spectral_abscissa:.3e}"
        )
    return spectral_abscissa


def assert_hurwitz(a: np.ndarray) -> float:
    """Return max Re(eig(A)), raising InstabilityError unless it is < -1e-12
    and ShapeError when A is empty."""
    if not np.size(a):
        raise ShapeError("A is an empty matrix: the Hurwitz check needs at least one state")
    return _hurwitz(float(np.linalg.eigvals(a).real.max()))


def lyapunov_solve_with_abscissa(a, w) -> tuple[np.ndarray, float]:
    """Symmetric solution Q of A Q + Q A^T + W = 0 and max Re(eig(A)).

    The spectral abscissa is the largest diagonal entry of the real Schur
    factor T: each 2 x 2 block of the standardized form has both diagonal
    entries equal to its complex pair's real part.

    Args:
        a: square Hurwitz matrix.
        w: symmetric positive semi-definite matrix of matching size.

    Raises:
        InstabilityError: if A has an eigenvalue with real part >= -1e-12.
        InternalInvariantError: if ``gees`` found no real Schur form, if a
            ``trsyl`` call had to perturb the equation (an eigenvalue pair
            of A sums to nearly zero), or had to scale its solution down
            because Q would overflow, or if Q has a non-finite entry.
        ShapeError: on dimension mismatch, empty A and W, non-symmetric
            W, or a non-finite entry of A or W.
    """
    a, w = _validate(a, w)
    t, z = _schur(a)
    spectral_abscissa = _hurwitz(float(np.diag(t).max()))
    trsyl = _flapack().dtrsyl
    y = _sylvester(t, t, z.T.dot((-w).dot(z)), trsyl)
    if not np.isfinite(y).all():
        raise InternalInvariantError("Lyapunov solution overflows: Q has non-finite entries")
    q = z.dot(y).dot(z.T)
    return 0.5 * (q + q.T), spectral_abscissa


def _cut(t: np.ndarray) -> int:
    """Midpoint of quasi-triangular t, moved down one so no 2 x 2 block is cut."""
    k = t.shape[0] // 2
    return k + 1 if t[k, k - 1] != 0 else k


def _sylvester(ta, tb, c, trsyl) -> np.ndarray:
    """Y with ta Y + Y tb^T = c, for quasi-triangular ta and tb.

    The longer side is halved; the trailing part is solved first and the
    leading right-hand side updated with it.
    """
    m, n = c.shape
    if m <= LEAF and n <= LEAF:
        y, scale, info = trsyl(ta, tb, c, tranb="T")
        if info:
            raise InternalInvariantError(
                f"Lyapunov solve perturbed the equation (trsyl info {info}): "
                "A has an eigenvalue pair whose sum is nearly zero"
            )
        if scale != 1.0:
            # LAPACK scales Y down only when the solution Y / scale would overflow.
            raise InternalInvariantError(
                f"Lyapunov solution overflows (trsyl scale {scale:.3e}): "
                "Q exceeds floating-point range"
            )
        return y
    if m >= n:
        k = _cut(ta)
        y2 = _sylvester(ta[k:, k:], tb, c[k:], trsyl)
        y1 = _sylvester(ta[:k, :k], tb, c[:k] - ta[:k, k:] @ y2, trsyl)
        return np.vstack((y1, y2))
    k = _cut(tb)
    y2 = _sylvester(ta, tb[k:, k:], c[:, k:], trsyl)
    y1 = _sylvester(ta, tb[:k, :k], c[:, :k] - y2 @ tb[:k, k:].T, trsyl)
    return np.hstack((y1, y2))


def lyapunov_residual(a, q, w) -> float:
    """Relative residual ||A Q + Q A^T + W|| / max(1, ||W||) (Frobenius)."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(
        np.linalg.norm(a @ q + q @ a.T + w) / max(1.0, np.linalg.norm(w))
    )
