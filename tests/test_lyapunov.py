"""Lyapunov solver backends and their cross-checks."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from gridfluct import (
    InstabilityError,
    InternalInvariantError,
    ShapeError,
    lyapunov,
    lyapunov_residual,
)
from gridfluct.lyapunov import LEAF, assert_hurwitz, lyapunov_solve_with_abscissa

from conftest import lyapunov_solve_kron


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

    def test_empty_system_rejected(self):
        with pytest.raises(ShapeError, match="empty 0 x 0"):
            lyapunov_solve_with_abscissa(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_empty_hurwitz_check_rejected(self):
        with pytest.raises(ShapeError, match="empty matrix"):
            assert_hurwitz(np.zeros((0, 0)))

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
        for size in (1, 5, 37, LEAF):
            a = random_hurwitz(rng, size)
            g = rng.standard_normal((size, size))
            w = g @ g.T
            reference = scipy.linalg.solve_continuous_lyapunov(a, -w)
            q, _ = lyapunov_solve_with_abscissa(a, w)
            np.testing.assert_array_equal(q, 0.5 * (reference + reference.T))

    @pytest.mark.parametrize("size", [1, 2, 7, 97, 300])
    def test_schur_pair_is_scipys_bit_for_bit(self, size):
        a = np.random.default_rng(size).standard_normal((size, size))
        t, z = lyapunov._schur(a)
        t_ref, z_ref = scipy.linalg.schur(a, output="real")
        np.testing.assert_array_equal(t, t_ref)
        np.testing.assert_array_equal(z, z_ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ShapeError, match="finite"):
            lyapunov_solve_with_abscissa([[bad]], [[1.0]])
        with pytest.raises(ShapeError, match="finite"):
            lyapunov_solve_with_abscissa([[-1.0]], [[bad]])


def quasi_triangular(rng: np.random.Generator, size: int, pairs: list[int]) -> np.ndarray:
    """Hurwitz T in standardized real Schur form, a 2 x 2 block at each row in pairs."""
    t = np.triu(rng.standard_normal((size, size)) / np.sqrt(size), 1)
    t[np.diag_indices(size)] = -rng.uniform(0.5, 2.0, size)
    for k in pairs:
        t[k + 1, k + 1] = t[k, k]
        t[k, k + 1], t[k + 1, k] = rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)
    return t


class TestRecursiveSolve:
    """Above LEAF states the triangular solve recurses on the Schur factor."""

    @staticmethod
    def check_against_scipy(a, w):
        q, _ = lyapunov_solve_with_abscissa(a, w)
        reference = scipy.linalg.solve_continuous_lyapunov(a, -w)
        assert np.abs(q - reference).max() <= 1e-12 * np.abs(reference).max()
        assert lyapunov_residual(a, q, w) <= 1e-12
        assert np.array_equal(q, q.T)

    @pytest.mark.parametrize("size", [97, 120, 193, 300])
    def test_matches_scipy_with_complex_pairs(self, size):
        rng = np.random.default_rng(size)
        a = random_hurwitz(rng, size)
        assert np.iscomplex(np.linalg.eigvals(a)).sum() >= 20
        g = rng.standard_normal((size, size))
        self.check_against_scipy(a, g @ g.T)

    def test_no_cut_splits_a_complex_pair(self):
        # The pair in rows 59-60 straddles the first midpoint, 60.
        size = 120
        rng = np.random.default_rng(3)
        a = quasi_triangular(rng, size, [10, 59, 100])
        t = scipy.linalg.schur(a, output="real")[0]
        assert t[size // 2, size // 2 - 1] != 0
        g = rng.standard_normal((size, size))
        self.check_against_scipy(a, g @ g.T)


class TestLeafGuards:
    """Each trsyl leaf of a 200-state solve keeps the guards of the single call."""

    @pytest.fixture
    def misbehave(self, monkeypatch):
        """Install a trsyl whose call number ``leaf`` returns ``fault(y, scale, info)``."""
        flapack = lyapunov._flapack()
        trsyl = flapack.dtrsyl

        def install(fault, leaf):
            leaves = itertools.count()

            def wrapper(*args, **kwargs):
                result = trsyl(*args, **kwargs)
                return fault(*result) if next(leaves) == leaf else result

            monkeypatch.setattr(flapack, "dtrsyl", wrapper)

        return install

    @staticmethod
    def system():
        rng = np.random.default_rng(200)
        g = rng.standard_normal((200, 200))
        return random_hurwitz(rng, 200), g @ g.T

    @pytest.mark.parametrize("leaf", [0, 3])
    def test_perturbed_leaf(self, misbehave, leaf):
        misbehave(lambda y, scale, info: (y, scale, 1), leaf)
        with pytest.raises(InternalInvariantError, match="perturbed the equation"):
            lyapunov_solve_with_abscissa(*self.system())

    @pytest.mark.parametrize("leaf", [0, 3])
    def test_scaled_leaf(self, misbehave, leaf):
        misbehave(lambda y, scale, info: (0.5 * y, 0.5, info), leaf)
        with pytest.raises(InternalInvariantError, match=r"trsyl scale 5\.000e-01"):
            lyapunov_solve_with_abscissa(*self.system())

    @pytest.mark.parametrize(
        "leaf, message",
        [
            # The update carries the infinity into later leaves as NaN.
            (0, "Lyapunov solution overflows"),
            # On the last of the 16 leaves it goes straight into Q.
            (15, "Lyapunov solution overflows: Q has non-finite entries"),
        ],
    )
    def test_non_finite_leaf(self, misbehave, leaf, message):
        def infinite(y, scale, info):
            y = y.copy()
            y[0, 0] = np.inf
            return y, scale, info

        misbehave(infinite, leaf)
        with pytest.raises(InternalInvariantError, match=message):
            lyapunov_solve_with_abscissa(*self.system())
