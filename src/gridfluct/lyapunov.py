"""Continuous-time Lyapunov equation solvers.

Two algorithmically independent backends solve A Q + Q A^T + W = 0:

* :func:`lyapunov_solve_with_abscissa` -- Bartels-Stewart: real Schur form,
  then LAPACK ``trsyl``, as scipy's solver does it; the Schur form also
  gives the Hurwitz verdict and the spectral abscissa;
* :func:`lyapunov_solve_kron` -- dense Kronecker vectorisation, kept as an
  oracle for cross-checking the primary path on small systems; it checks
  stability by ``eigvals`` (:func:`assert_hurwitz`).
"""

from __future__ import annotations

import numpy as np

from .errors import InstabilityError, InternalInvariantError, ShapeError

HURWITZ_MARGIN = 1e-12


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
        InternalInvariantError: if ``trsyl`` had to perturb the equation
            (an eigenvalue pair of A sums to nearly zero), or had to scale
            its solution down because Q would overflow.
        ShapeError: on dimension mismatch or non-symmetric W.
    """
    import scipy.linalg  # on first use: routes that solve no Lyapunov equation start faster

    a, w = _validate(a, w)
    t, z = scipy.linalg.schur(a, output="real")
    spectral_abscissa = _hurwitz(float(np.diag(t).max()))
    trsyl = scipy.linalg.get_lapack_funcs("trsyl", (t, w))
    y, scale, info = trsyl(t, t, z.T.dot((-w).dot(z)), tranb="T")
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
    q = z.dot(y).dot(z.T)
    return 0.5 * (q + q.T), spectral_abscissa


def lyapunov_solve_kron(a, w) -> np.ndarray:
    """Solve A Q + Q A^T + W = 0 via (I (x) A + A (x) I) vec(Q) = -vec(W).

    Dense oracle; memory grows like n^4, so keep n modest (<= ~60).
    """
    a, w = _validate(a, w)
    assert_hurwitz(a)
    n = a.shape[0]
    eye = np.eye(n)
    system = np.kron(eye, a) + np.kron(a, eye)
    q = np.linalg.solve(system, -w.reshape(-1)).reshape(n, n)
    return 0.5 * (q + q.T)


def lyapunov_residual(a, q, w) -> float:
    """Relative residual ||A Q + Q A^T + W|| / max(1, ||W||) (Frobenius)."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(
        np.linalg.norm(a @ q + q @ a.T + w) / max(1.0, np.linalg.norm(w))
    )
