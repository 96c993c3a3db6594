"""Continuous-time Lyapunov equation solver and the Hurwitz check.

:func:`lyapunov_solve_with_abscissa` solves A Q + Q A^T + W = 0 by
Bartels-Stewart: real Schur form, then the triangular solve.  Up to
``LEAF`` = 96 states that is one LAPACK ``trsyl`` call, bit for bit as
scipy's solver does it; above, a recursive blocked solve in the manner of
RECSY (Jonsson and Kågström, ACM TOMS 28(4), 2002) halves the factor until
``trsyl`` runs on leaves of at most ``LEAF`` states, with matrix-product
updates in between.  The Schur form also gives the Hurwitz verdict and the
spectral abscissa.  :func:`assert_hurwitz` checks stability by ``eigvals``
for callers that solve no Lyapunov equation (Monte Carlo).
"""

from __future__ import annotations

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
    if np.abs(w - w.T).max() > 1e-9 * max(1.0, np.abs(w).max()):
        raise ShapeError("W must be symmetric")
    return a, w


def _hurwitz(spectral_abscissa: float) -> float:
    if spectral_abscissa >= -HURWITZ_MARGIN:
        raise InstabilityError(
            f"matrix is not Hurwitz: max real part of eigenvalues is {spectral_abscissa:.3e}"
        )
    return spectral_abscissa


def assert_hurwitz(a: np.ndarray) -> float:
    """Return max Re(eig(A)), raising InstabilityError unless it is < -1e-12."""
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
        InternalInvariantError: if a ``trsyl`` call had to perturb the
            equation (an eigenvalue pair of A sums to nearly zero), or had to
            scale its solution down because Q would overflow, or if Q has a
            non-finite entry.
        ShapeError: on dimension mismatch or non-symmetric W.
    """
    import scipy.linalg  # on first use: routes that solve no Lyapunov equation start faster

    a, w = _validate(a, w)
    t, z = scipy.linalg.schur(a, output="real")
    spectral_abscissa = _hurwitz(float(np.diag(t).max()))
    trsyl = scipy.linalg.get_lapack_funcs("trsyl", (t, w))
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
