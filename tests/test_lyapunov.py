"""Lyapunov solver backends and their cross-checks."""

import numpy as np
import pytest
import scipy.linalg

from gridfluct import (
    InstabilityError,
    InternalInvariantError,
    ShapeError,
    lyapunov_residual,
    lyapunov_solve_kron,
)
from gridfluct.lyapunov import assert_hurwitz, lyapunov_solve_with_abscissa


def random_hurwitz(rng: np.random.Generator, size: int) -> np.ndarray:
    a = rng.standard_normal((size, size))
    shift = a.real if size == 1 else np.linalg.eigvals(a).real.max()
    return a - (shift + rng.uniform(0.5, 2.0)) * np.eye(size)


class TestLyapunovSolve:
    def test_identity_case(self):
        q = lyapunov_solve_with_abscissa(-np.eye(2), np.eye(2))[0]
        np.testing.assert_allclose(q, 0.5 * np.eye(2), atol=1e-14)

    def test_scalar(self):
        q = lyapunov_solve_with_abscissa(np.array([[-2.0]]), np.array([[4.0]]))[0]
        assert q[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_single_machine_two_state(self):
        # eta=1, d=2, stiffness=2, noise=1: variances 1/8 and 1/4, no cross term
        a = np.array([[0.0, 1.0], [-2.0, -2.0]])
        b = np.array([[0.0], [1.0]])
        expected = np.diag([0.125, 0.25])
        q, _ = lyapunov_solve_with_abscissa(a, b @ b.T)
        np.testing.assert_allclose(q, expected, atol=1e-14)
        np.testing.assert_allclose(lyapunov_solve_kron(a, b @ b.T), expected, atol=1e-14)

    def test_not_hurwitz_rejected(self):
        with pytest.raises(InstabilityError):
            lyapunov_solve_with_abscissa(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lyapunov_solve_with_abscissa(-np.eye(3), np.eye(2))

    def test_nonsymmetric_w_rejected(self):
        with pytest.raises(ShapeError):
            lyapunov_solve_with_abscissa(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_residual_and_psd_on_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            size = int(rng.integers(2, 25))
            a = random_hurwitz(rng, size)
            g = rng.standard_normal((size, size))
            w = g @ g.T
            q = lyapunov_solve_with_abscissa(a, w)[0]
            assert lyapunov_residual(a, q, w) <= 1e-9
            assert np.abs(q - q.T).max() == 0.0
            assert np.linalg.eigvalsh(q).min() >= -1e-10 * max(1.0, np.abs(q).max())

    def test_backends_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            size = int(rng.integers(2, 30))
            a = random_hurwitz(rng, size)
            g = rng.standard_normal((size, size))
            w = g @ g.T
            q_schur = lyapunov_solve_with_abscissa(a, w)[0]
            q_kron = lyapunov_solve_kron(a, w)
            scale = np.abs(q_kron).max()
            assert np.abs(q_schur - q_kron).max() <= 1e-10 * max(1.0, scale)


class TestSchurAbscissa:
    def test_matches_eigenvalue_abscissa(self):
        # Random real matrices have complex pairs, which sit in the 2 x 2
        # blocks of the real Schur form.
        rng = np.random.default_rng(41)
        pairs = 0
        for _ in range(40):
            size = int(rng.integers(2, 40))
            a = random_hurwitz(rng, size)
            pairs += int(np.iscomplex(np.linalg.eigvals(a)).sum()) // 2
            g = rng.standard_normal((size, size))
            _, abscissa = lyapunov_solve_with_abscissa(a, g @ g.T)
            expected = assert_hurwitz(a)
            assert abs(abscissa - expected) <= 1e-12 * np.abs(a).sum(axis=0).max()
        assert pairs > 100

    @pytest.mark.parametrize(
        "a",
        [
            np.diag([-1.0, -2.0, 0.5]),
            # A complex pair 0.25 +- 2i behind a stable real eigenvalue.
            np.array([[-3.0, 1.0, 0.0], [0.0, 0.25, 2.0], [0.0, -2.0, 0.25]]),
            np.zeros((2, 2)),
        ],
        ids=["real", "complex-pair", "zero"],
    )
    def test_non_hurwitz_rejected(self, a):
        with pytest.raises(InstabilityError, match="not Hurwitz"):
            lyapunov_solve_with_abscissa(a, np.eye(a.shape[0]))

    def test_overflowing_solution_is_reported(self):
        # Q = 5e309 is beyond float range; trsyl returns Y = Q * scale with
        # scale = 1e-305, which is neither the answer nor divisible back.
        with pytest.raises(InternalInvariantError, match=r"trsyl scale 1\.000e-305"):
            lyapunov_solve_with_abscissa([[-1e-5]], [[1e305]])

    def test_solution_is_scipys_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for size in (1, 5, 37):
            a = random_hurwitz(rng, size)
            g = rng.standard_normal((size, size))
            w = g @ g.T
            reference = scipy.linalg.solve_continuous_lyapunov(a, -w)
            q, _ = lyapunov_solve_with_abscissa(a, w)
            np.testing.assert_array_equal(q, 0.5 * (reference + reference.T))
