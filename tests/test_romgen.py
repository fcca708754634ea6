import numpy as np
import pytest

from aeromrac.numerics import eig_biorthogonal
from aeromrac.romgen import (
    RomError,
    SelectionCriteria,
    build_nrom,
    default_rom,
    realify,
    select_modes,
)


class TestRealify:
    def test_hand_computed_pair(self):
        # lambda = -0.1 +- 2j with v = [1, j] must give the rotation block
        lam = np.array([-0.1 + 2.0j, -0.1 - 2.0j])
        v = np.array([[1.0], [1.0j]])
        phi = np.hstack([v, v.conj()])
        # left vectors for this normal pair: psi = phi^{-1}
        psi = np.linalg.inv(phi)
        A, Phi, Psi = realify(lam, phi, psi)
        assert np.allclose(A, [[-0.1, 2.0], [-2.0, -0.1]])
        assert np.allclose(Phi, [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(Psi @ Phi, np.eye(2))

    def test_real_mode_passthrough(self):
        A, Phi, Psi = realify(
            np.array([-3.0 + 0.0j]), np.array([[2.0 + 0.0j]]), np.array([[0.5 + 0.0j]])
        )
        assert A[0, 0] == -3.0 and Phi[0, 0] == 2.0 and Psi[0, 0] == 0.5

    def test_unpaired_complex_rejected(self):
        with pytest.raises(RomError, match="conjugation"):
            realify(np.array([1j, 2j]), np.eye(2).astype(complex), np.eye(2).astype(complex))

    def test_similarity_preserved(self):
        rng = np.random.default_rng(7)
        A_full = rng.normal(size=(6, 6))
        d = eig_biorthogonal(A_full)
        A, Phi, Psi = realify(d.eigenvalues, d.right_basis, d.left_basis)
        assert np.allclose(Psi @ Phi, np.eye(6), atol=1e-10)
        assert np.allclose(Psi @ A_full @ Phi, A, atol=1e-9)


class TestSelection:
    def test_criteria_parity_validation(self):
        with pytest.raises(RomError, match="conjugate pairs"):
            SelectionCriteria(n=7, n_real=2)
        with pytest.raises(RomError, match="conjugate pairs"):
            SelectionCriteria(n=1, n_real=2)

    def test_oversized_request_rejected(self, fom):
        decomp = eig_biorthogonal(fom.A_f)
        with pytest.raises(RomError, match="exceeds"):
            select_modes(decomp, fom.B_gf, SelectionCriteria(n=16))

    def test_kussner_modes_retained(self, rom):
        reals = [m for m in rom.modes if m.kind == "real-gust"]
        assert len(reals) == 2
        for m in reals:
            assert m.eigenvalue.real == pytest.approx(-0.1393, abs=1e-9)

    def test_lowest_frequency_pairs_first(self, fom, rom):
        all_eigs = np.linalg.eigvals(fom.A_f)
        osc_freqs = np.sort(np.unique(np.round(np.abs(all_eigs.imag[np.abs(all_eigs.imag) > 1e-9]), 9)))
        kept_freqs = np.sort(np.unique([abs(m.eigenvalue.imag) for m in rom.modes if m.kind == "oscillatory"]))
        assert np.allclose(kept_freqs, osc_freqs[: kept_freqs.size], atol=1e-9)


class TestReducedModel:
    def test_biorthogonality(self, rom):
        assert np.allclose(rom.Psi @ rom.Phi, np.eye(rom.n), atol=1e-12)

    def test_eigenvalues_subset_of_full(self, fom, rom):
        full = np.linalg.eigvals(fom.A_f)
        for lam in np.linalg.eigvals(rom.A):
            assert np.abs(full - lam).min() < 1e-10

    def test_nonlinearity_lift_evaluate_project(self, fom, rom):
        # oracle: the projected residual equals the cubic force mapped through
        # the bases, computed independently from the stored cubic coefficients
        rng = np.random.default_rng(8)
        x = rng.normal(scale=0.3, size=rom.n)
        w = rom.Phi @ x
        force = np.zeros(14)
        force[3:6] = -fom.M_inv @ (fom.cubic_coeffs * w[:3] ** 3)
        assert np.allclose(rom.eval_f_nr(x), rom.Psi @ force, atol=1e-14)

    def test_rhs_linear_flag(self, rom):
        rng = np.random.default_rng(9)
        x = rng.normal(size=rom.n)
        lin = rom.A @ x + rom.B_c @ [0.3] + rom.B_g @ [0.1]
        assert np.allclose(rom.rhs(x, [0.3], [0.1], nonlinear=False), lin)
        assert not np.allclose(rom.rhs(x, [0.3], [0.1], nonlinear=True), lin)

    def test_full_dimension_reduction_is_exact(self, fom):
        rom14 = default_rom(fom, n=14, n_real=8)  # full spectrum: 3 pairs + 8 reals
        # same spectrum, same input-output map
        assert np.allclose(
            np.sort(np.linalg.eigvals(rom14.A).real), np.sort(np.linalg.eigvals(fom.A_f).real), atol=1e-9
        )
        # Markov parameters agree: C A^k B matches the full model
        Af, Bf, Cf = fom.A_f, fom.B_gf, fom.C_out
        Ar, Br, Cr = rom14.A, rom14.B_g, rom14.C_out
        for k in range(4):
            assert np.allclose(
                Cr @ np.linalg.matrix_power(Ar, k) @ Br,
                Cf @ np.linalg.matrix_power(Af, k) @ Bf,
                atol=1e-9,
            )

    def test_build_from_explicit_modes(self, fom):
        decomp = eig_biorthogonal(fom.A_f)
        crit = SelectionCriteria(n=4, n_real=2, output_map=fom.C_out)
        modes = select_modes(decomp, fom.B_gf, crit, B_c=fom.B_c)
        rom4 = build_nrom(fom, modes, decomp=decomp)
        assert rom4.n == 4
        assert sum(m.kind == "real-gust" for m in rom4.modes) == 2
