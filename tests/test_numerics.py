import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from aeromrac.numerics import (
    NumericsError,
    bass_gura_place,
    controllability_matrix,
    eig_biorthogonal,
    solve_lyapunov,
    transmission_zeros,
)
from conftest import random_stable


class TestLyapunov:
    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = rng.integers(2, 12)
            A = random_stable(rng, n)
            Q0 = rng.normal(size=(n, n))
            Q = Q0 @ Q0.T + n * np.eye(n)
            P = solve_lyapunov(A, Q)
            P_ref = scipy.linalg.solve_continuous_lyapunov(A.T, -Q)
            assert np.allclose(P, P_ref, atol=1e-10 * np.linalg.norm(Q))

    def test_residual_and_spd(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = rng.integers(2, 16)
            A = random_stable(rng, n)
            Q = np.diag(rng.uniform(0.5, 3.0, size=n))
            P = solve_lyapunov(A, Q)
            res = np.linalg.norm(A.T @ P + P @ A + Q)
            assert res <= 1e-10 * np.linalg.norm(Q)
            assert np.allclose(P, P.T)
            assert np.linalg.eigvalsh(P).min() > 0

    def test_rejects_asymmetric_q(self):
        A = -np.eye(2)
        with pytest.raises(NumericsError, match="symmetric"):
            solve_lyapunov(A, np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NumericsError, match="Hurwitz"):
            solve_lyapunov(np.array([[0.1, 0.0], [0.0, -1.0]]), np.eye(2))

    def test_scalar_case(self):
        # a p + p a = -q  ->  p = q / (2|a|)
        P = solve_lyapunov(np.array([[-2.0]]), np.array([[4.0]]))
        assert P[0, 0] == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    def test_property_residual(self, n, seed):
        rng = np.random.default_rng(seed)
        A = random_stable(rng, n)
        Q = np.diag(rng.uniform(0.1, 5.0, size=n))
        P = solve_lyapunov(A, Q)
        assert np.linalg.norm(A.T @ P + P @ A + Q) <= 1e-10 * np.linalg.norm(Q)


class TestBiorthogonal:
    def test_biorthogonality_and_diagonalization(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = rng.normal(size=(7, 7))
            d = eig_biorthogonal(A)
            assert np.allclose(d.left_basis @ d.right_basis, np.eye(7), atol=1e-10)
            assert np.allclose(
                d.left_basis @ A @ d.right_basis, np.diag(d.eigenvalues), atol=1e-9
            )

    def test_conjugate_pairs_adjacent(self):
        A = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        d = eig_biorthogonal(A)
        imag = d.eigenvalues.imag
        # real mode first (|Im| ascending), then the pair with +Im leading
        assert abs(imag[0]) < 1e-12
        assert imag[1] > 0 and np.isclose(imag[2], -imag[1])

    def test_near_defective_raises(self):
        A = np.array([[-1.0, 1.0], [0.0, -1.0]])  # Jordan block
        with pytest.raises(NumericsError, match="condition"):
            eig_biorthogonal(A)

    def test_repeated_but_diagonalizable(self):
        # distinct eigenvectors, repeated eigenvalue: must still biorthogonalize
        A = np.diag([-1.0, -1.0, -2.0])
        d = eig_biorthogonal(A)
        assert np.allclose(d.left_basis @ d.right_basis, np.eye(3), atol=1e-12)


class TestTransmissionZeros:
    def test_known_transfer_function(self):
        # (s + 2) / (s^2 + 3 s + 2): zero at -2
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        b = np.array([0.0, 1.0])
        c = np.array([[2.0, 1.0]])
        z = transmission_zeros(A, b, c)
        assert np.allclose(z, [-2.0])

    def test_complex_zeros(self):
        # numerator s^2 + 1 over a cubic: zeros at +-j
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([[1.0, 0.0, 1.0]])
        z = transmission_zeros(A, b, c)
        assert np.allclose(sorted(z.imag), [-1.0, 1.0], atol=1e-9)
        assert np.allclose(z.real, 0.0, atol=1e-9)

    def test_invariance_under_state_feedback(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = 5
            A = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            c = rng.normal(size=(1, n))
            K = rng.normal(size=(1, n))
            z0 = transmission_zeros(A, b, c)
            z1 = transmission_zeros(A + np.outer(b, K[0]), b, c)
            assert z0.shape == z1.shape
            for z in z0:  # multiset comparison, robust to conjugate ordering
                assert np.abs(z1 - z).min() < 1e-6

    def test_nonsquare_rejected(self):
        with pytest.raises(NumericsError, match="square"):
            transmission_zeros(np.eye(3), np.ones(3), np.eye(3)[:2])


class TestPolePlacement:
    def test_matches_scipy_place_poles(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = rng.integers(2, 7)
            A = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            if np.linalg.cond(controllability_matrix(A, b)) > 1e8:
                continue
            poles = -rng.uniform(0.5, 4.0, size=n)
            K = bass_gura_place(A, b, np.poly(poles).real)
            ref = scipy.signal.place_poles(A, b[:, None], np.sort(poles))
            got = np.sort(np.linalg.eigvals(A - np.outer(b, K)).real)
            assert np.allclose(got, np.sort(ref.computed_poles.real), atol=1e-6)

    def test_achieves_characteristic_polynomial(self):
        A = np.array([[0.0, 1.0], [4.0, 0.0]])  # unstable
        b = np.array([0.0, 1.0])
        desired = np.poly([-1.0, -2.0])
        K = bass_gura_place(A, b, desired)
        assert np.allclose(np.poly(A - np.outer(b, K)), desired, atol=1e-10)

    def test_uncontrollable_rejected(self):
        A = np.diag([-1.0, -2.0])
        b = np.array([1.0, 0.0])  # second mode unreachable
        with pytest.raises(NumericsError, match="uncontrollable"):
            bass_gura_place(A, b, np.poly([-3.0, -4.0]))

    def test_wrong_degree_rejected(self):
        with pytest.raises(NumericsError, match="degree"):
            bass_gura_place(-np.eye(2), np.ones(2), np.array([1.0, 2.0]))
