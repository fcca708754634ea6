import numpy as np
import pytest

from aeromrac.mrac import (
    MracError,
    build_reference_model,
    ideal_gains,
    lipschitz_margin,
    lipschitz_ratio_series,
    lyapunov_certificate,
    make_design,
    minimum_phase_correct,
    theta_rate,
)
from aeromrac.numerics import transmission_zeros
from aeromrac.romgen import Plant, PolyNonlinearity
from conftest import random_stable


class TestReferenceModel:
    def test_identity_spec_reproduces_plant(self, rom):
        ref = build_reference_model(rom, damping_spec=1.0)
        assert np.allclose(ref.A_m, rom.A, atol=1e-12)
        assert np.allclose(ref.B_m, rom.B_c)

    def test_scalar_factor_scales_real_parts_only(self, rom):
        ref = build_reference_model(rom, damping_spec=3.0)
        e0 = np.linalg.eigvals(rom.A)
        e1 = np.linalg.eigvals(ref.A_m)
        osc0 = np.sort_complex(e0[e0.imag > 1e-9])
        osc1 = np.sort_complex(e1[e1.imag > 1e-9])
        assert np.allclose(osc1.imag, osc0.imag, atol=1e-10)
        assert np.allclose(osc1.real, 3.0 * osc0.real, atol=1e-10)

    def test_real_gust_modes_untouched(self, rom):
        ref = build_reference_model(rom, damping_spec=5.0)
        r0 = np.sort(np.linalg.eigvals(rom.A)[np.abs(np.linalg.eigvals(rom.A).imag) < 1e-9].real)
        e1 = np.linalg.eigvals(ref.A_m)
        r1 = np.sort(e1[np.abs(e1.imag) < 1e-9].real)
        assert np.allclose(r1, r0, atol=1e-10)

    def test_per_mode_dict_spec(self, rom):
        ref = build_reference_model(rom, damping_spec={0: 2.0})
        # exactly one conjugate pair is moved
        e0 = np.linalg.eigvals(rom.A)
        e1 = np.linalg.eigvals(ref.A_m)
        moved = sum(np.abs(e0 - lam).min() > 1e-9 for lam in e1)
        assert moved == 2

    def test_explicit_pair_spec(self, rom):
        ref = build_reference_model(rom, damping_spec={0: (0.7, 1.3)})
        eigs = np.linalg.eigvals(ref.A_m)
        assert np.abs(eigs - (-0.7 + 1.3j)).min() < 1e-9

    def test_destabilizing_factor_rejected(self, rom):
        with pytest.raises(MracError, match="reduces damping"):
            build_reference_model(rom, damping_spec=0.5)

    def test_destabilizing_override(self, rom):
        ref = build_reference_model(rom, damping_spec=0.9, allow_destabilizing=True)
        assert np.linalg.eigvals(ref.A_m).real.max() < 0.0

    def test_unknown_mode_ordinal_rejected(self, rom):
        with pytest.raises(MracError, match="unknown oscillatory"):
            build_reference_model(rom, damping_spec={99: 2.0})

    def test_hurwitz_enforced(self, rom):
        with pytest.raises(MracError, match="Hurwitz"):
            build_reference_model(rom, damping_spec={0: (-0.1, 1.0)}, allow_destabilizing=True)


class TestIdealGains:
    def test_invertible_input_matrix(self):
        rng = np.random.default_rng(10)
        A = random_stable(rng, 3)
        B = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        A_m = random_stable(rng, 3)
        res = ideal_gains(A, B, A_m, B)
        assert res.feasible
        assert np.allclose(res.Kx, np.linalg.solve(B, A_m - A), atol=1e-9)
        assert np.allclose(res.Kr, np.eye(3), atol=1e-10)

    def test_trivial_match_is_zero_and_identity(self, rom):
        res = ideal_gains(rom.A, rom.B_c, rom.A, rom.B_c)
        assert res.feasible
        assert np.allclose(res.Kx, 0.0, atol=1e-12)
        assert np.allclose(res.Kr, 1.0, atol=1e-12)

    def test_reachable_target_exact(self, rom):
        kx = np.linspace(-0.02, 0.02, rom.n)[None, :]
        A_m = rom.A + rom.B_c @ kx
        res = ideal_gains(rom.A, rom.B_c, A_m, rom.B_c)
        assert res.feasible and res.residual_A <= 1e-8
        assert np.allclose(res.Kx, kx, atol=1e-9)

    def test_unreachable_target_matches_lstsq_oracle(self):
        rng = np.random.default_rng(11)
        A = random_stable(rng, 4)
        b = rng.normal(size=(4, 1))
        A_m = random_stable(rng, 4)
        res = ideal_gains(A, b, A_m, b)
        # normal-equations oracle for the rank-1 column space of b
        Kx_ref = np.linalg.lstsq(b, A_m - A, rcond=None)[0]
        assert np.allclose(res.Kx, Kx_ref, atol=1e-10)
        assert not res.feasible
        assert res.residual_A == pytest.approx(np.linalg.norm(A + b @ Kx_ref - A_m))

    def test_zero_input_matrix_rejected(self):
        with pytest.raises(MracError, match="identically zero"):
            ideal_gains(-np.eye(2), np.zeros((2, 1)), -2 * np.eye(2), np.zeros((2, 1)))

    def test_theta_star_layout(self, rom):
        res = ideal_gains(rom.A, rom.B_c, rom.A, rom.B_c)
        th = res.theta_star
        assert th.shape == (rom.n + 1, 1)
        assert np.allclose(th[: rom.n, 0], res.Kx[0])
        assert th[rom.n, 0] == pytest.approx(res.Kr[0, 0])


class TestDesign:
    def test_gamma_block_structure(self):
        A_m = -np.eye(3)
        Q = np.diag([1.0, 2.0, 4.0])
        d = make_design(A_m, Q, gamma=0.5, m=1)
        assert np.allclose(d.Gamma[:3, :3], 0.5 * Q)
        assert d.Gamma[3, 3] == pytest.approx(0.5)
        assert np.allclose(d.Gamma[:3, 3], 0.0)

    def test_lyapunov_closed_form(self):
        # A_m = -I: P = Q/2, so L_F = lambda_min(Q) / ||Q||_2
        d = make_design(-np.eye(2), np.eye(2), gamma=1.0, m=1)
        assert np.allclose(d.P, 0.5 * np.eye(2))
        assert d.lipschitz_bound == pytest.approx(1.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(MracError, match="gamma"):
            make_design(-np.eye(2), np.eye(2), gamma=0.0, m=1)

    def test_indefinite_q_rejected(self):
        with pytest.raises(MracError, match="positive-definite"):
            make_design(-np.eye(2), np.diag([1.0, -1.0]), gamma=1.0, m=1)


class TestAdaptationLaw:
    def test_scalar_closed_form(self):
        # n = m = 1: theta' = -Gamma phi e P b, with P = 1, Gamma = diag(1.0, 0.5)
        d = make_design(np.array([[-1.0]]), np.array([[2.0]]), gamma=0.5, m=1)
        e, x, r = 0.3, 0.4, 0.7
        phi = np.array([x, r])
        expected = -np.array([[1.0 * x * e * 1.0 * 2.0], [0.5 * r * e * 1.0 * 2.0]])
        rate = theta_rate(np.array([e]), phi, d.Gamma, d.P @ np.array([[2.0]]))
        assert np.allclose(rate, expected, atol=1e-15)

    def test_zero_error_freezes_gains(self, rom):
        ref = build_reference_model(rom, 1.5)
        d = make_design(ref.A_m, 0.03 * np.eye(rom.n), gamma=0.5, m=1)
        phi = np.concatenate([np.ones(rom.n), [0.5]])
        rate = theta_rate(np.zeros(rom.n), phi, d.Gamma, d.P @ rom.B_c)
        assert np.all(rate == 0.0)

    def test_rate_is_rank_one_in_phi(self, rom):
        ref = build_reference_model(rom, 1.5)
        d = make_design(ref.A_m, np.eye(rom.n), gamma=1.0, m=1)
        rng = np.random.default_rng(13)
        phi = np.concatenate([rng.normal(size=rom.n), [1.0]])
        rate = theta_rate(rng.normal(size=rom.n), phi, d.Gamma, d.P @ rom.B_c)
        # single column proportional to Gamma @ phi
        direction = d.Gamma @ phi
        ratio = rate[:, 0] / direction
        assert np.allclose(ratio, ratio[0], atol=1e-12)


class TestMinimumPhaseCorrection:
    def test_minimum_phase_untouched(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        b = np.array([0.0, 1.0])
        c = np.array([[2.0, 1.0]])  # zero at -2
        K0, c_new, rep = minimum_phase_correct(A, b, c)
        assert not rep.corrected
        assert np.allclose(K0, 0.0)
        assert np.allclose(c_new, c)

    def test_rhp_zero_reflected(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        b = np.array([0.0, 1.0])
        c = np.array([[-1.0, 1.0]])  # zero at +1
        K0, c_new, rep = minimum_phase_correct(A, b, c)
        assert rep.corrected
        z = transmission_zeros(A, b, c_new)  # independent pencil oracle
        assert z.real.max() < 0.0
        assert np.allclose(np.abs(z), np.abs(rep.zeros_before), atol=1e-9)

    def test_unstable_pole_stabilized(self):
        A = np.array([[0.0, 1.0], [4.0, 0.0]])  # poles +-2
        b = np.array([0.0, 1.0])
        c = np.array([[1.0, 1.0]])
        K0, _, rep = minimum_phase_correct(A, b, c)
        closed = np.linalg.eigvals(A + np.outer(b, K0[0]))
        assert closed.real.max() < 0.0
        assert np.allclose(np.sort(closed.real), [-2.0, -2.0], atol=1e-9)
        assert np.allclose(np.sort(rep.poles_after.real), np.sort(closed.real), atol=1e-9)

    def test_uncontrollable_rejected(self):
        A = np.diag([1.0, -2.0])
        b = np.array([0.0, 1.0])
        c = np.array([[1.0, -1.0]])
        with pytest.raises(Exception, match="uncontrollable"):
            minimum_phase_correct(A, b, c)

    def test_non_siso_rejected(self):
        with pytest.raises(MracError, match="SISO"):
            minimum_phase_correct(np.eye(3), np.ones(2), np.ones(3))

    def test_corrected_channel_supports_matching(self):
        # after correcting an unstable non-minimum-phase channel, the shifted
        # plant still admits exact matching to reachable targets
        A = np.array([[0.0, 1.0], [4.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        c = np.array([[-1.0, 1.0]])
        K0, c_new, rep = minimum_phase_correct(A, b, c)
        assert rep.corrected
        A_shift = A + b @ K0
        k = np.array([[-0.3, -0.7]])
        res = ideal_gains(A_shift, b, A_shift + b @ k, b)
        assert res.feasible
        assert np.allclose(res.Kx, k, atol=1e-9)


def _two_state_plant(G, cubic):
    nl = PolyNonlinearity(G, np.array([[1.0, 0.0]]), np.zeros(1), np.array([cubic]))
    return Plant(A=-np.eye(2), B_c=np.array([[0.0], [1.0]]), B_g=np.array([[1.0], [0.0]]),
                 C_out=np.eye(2), output_labels=("y0", "y1"), nl=nl)


class TestLipschitzMonitor:
    def _design(self):
        return make_design(-np.eye(2), np.eye(2), gamma=1.0, m=1)

    # two-state plants with F(x) = 0 and F(x) = (x_0^3, 0)
    _LinearRom = _two_state_plant(np.zeros((2, 1)), 0.0)
    _CubicRom = _two_state_plant(np.array([[1.0], [0.0]]), 1.0)

    def test_bound_closed_form(self):
        # A_m = -I, Q = I: P = I/2, L_F = 1
        assert self._design().lipschitz_bound == pytest.approx(1.0)

    def test_linear_plant_never_flags(self):
        rng = np.random.default_rng(16)
        t = np.linspace(0.0, 1.0, 50)
        x = rng.normal(size=(50, 2))
        xm = rng.normal(size=(50, 2))
        mon = lipschitz_margin(self._design(), self._LinearRom, t, x, xm)
        assert not mon.violation and mon.max_ratio == 0.0

    def test_ratio_matches_hand_value(self):
        x = np.array([[2.0, 0.0]])
        xm = np.array([[1.0, 0.0]])
        r = lipschitz_ratio_series(self._CubicRom, x, xm)
        assert r[0] == pytest.approx(7.0)  # (8 - 1) / 1

    def test_series_matches_row_loop(self, rom):
        rng = np.random.default_rng(17)
        x = rng.normal(scale=0.3, size=(40, rom.n))
        xm = rng.normal(scale=0.3, size=(40, rom.n))
        xm[5] = x[5]  # one skipped row
        want = np.array([
            np.linalg.norm(rom.eval_f_nr(a) - rom.eval_f_nr(b)) / np.linalg.norm(a - b)
            if not np.array_equal(a, b) else np.nan
            for a, b in zip(x, xm)
        ])
        got = lipschitz_ratio_series(rom, x, xm)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True)

    def test_skip_on_coincident_states(self):
        x = np.array([[1.0, 0.0], [2.0, 0.0]])
        mon = lipschitz_margin(self._design(), self._CubicRom, [0.0, 1.0], x, x.copy())
        assert mon.n_skipped == 2 and mon.n_evaluated == 0
        assert not mon.violation

    def test_violation_and_first_time(self):
        t = np.array([0.0, 1.0, 2.0])
        x = np.array([[0.1, 0.0], [0.1, 0.0], [3.0, 0.0]])
        xm = np.zeros((3, 2))
        mon = lipschitz_margin(self._design(), self._CubicRom, t, x, xm)
        assert mon.violation
        assert mon.first_violation_time == 2.0
        assert mon.max_ratio == pytest.approx(9.0)


class TestCertificate:
    def test_zero_error_at_ideal_gains(self):
        d = make_design(-np.eye(2), np.eye(2), gamma=1.0, m=1)
        t = np.linspace(0, 1, 10)
        e = np.zeros((10, 2))
        th_star = np.ones((3, 1))
        th = np.repeat(th_star[None], 10, axis=0)
        cert = lyapunov_certificate(t, e, d, theta_traj=th, theta_star=th_star)
        assert cert.passed and np.allclose(cert.V, 0.0)
        assert cert.includes_theta

    def test_decaying_error_passes(self):
        d = make_design(-np.eye(2), np.eye(2), gamma=1.0, m=1)
        t = np.linspace(0, 5, 100)
        e = np.exp(-t)[:, None] * np.array([1.0, -0.5])
        cert = lyapunov_certificate(t, e, d)
        assert cert.passed and not cert.includes_theta
        assert cert.V[0] == pytest.approx(1.25 * 0.5)  # e0^T P e0 with P = I/2

    def test_growing_error_fails(self):
        d = make_design(-np.eye(2), np.eye(2), gamma=1.0, m=1)
        t = np.linspace(0, 5, 100)
        e = np.exp(0.2 * t)[:, None] * np.array([1.0, 0.0])
        assert not lyapunov_certificate(t, e, d).passed

    def test_theta_without_star_rejected(self):
        d = make_design(-np.eye(2), np.eye(2), gamma=1.0, m=1)
        with pytest.raises(MracError, match="theta_star"):
            lyapunov_certificate([0.0], np.zeros((1, 2)), d, theta_traj=np.zeros((1, 3, 1)))
