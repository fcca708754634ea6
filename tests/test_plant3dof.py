import numpy as np
import pytest
import yaml

from aeromrac.plant3dof import (
    AerofoilParams,
    PlantError,
    assemble_fom,
    default_params,
    default_params_path,
    flutter_margin,
    load_params,
    theodorsen_constants,
    wagner_function,
)


class TestParams:
    def test_default_file_matches_defaults(self):
        assert load_params(default_params_path()) == AerofoilParams()

    def test_rejects_nonpositive_u_star(self):
        with pytest.raises(PlantError, match="U_star"):
            AerofoilParams(U_star=0.0)

    def test_rejects_nonpositive_mass_ratio(self):
        with pytest.raises(PlantError, match="mass ratio"):
            AerofoilParams(mu=-1.0)

    def test_rejects_softening_cubic(self):
        with pytest.raises(PlantError, match="hardening"):
            AerofoilParams(K_alpha3=-0.5)

    def test_rejects_unstable_lag_rates(self):
        with pytest.raises(PlantError, match="lag rates"):
            AerofoilParams(kussner_rate=0.1)

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "params.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "U_star": 3.0,
                    "section": {"mu": 150.0, "omega_xi": 0.25},
                    "stiffness": {"K_alpha3": 1.5},
                    "aerodynamics": {"kussner_rate": -0.2},
                }
            )
        )
        p = load_params(path)
        assert p.U_star == 3.0
        assert p.mu == 150.0
        assert p.K_alpha3 == 1.5
        assert p.kussner_rate == -0.2
        assert p.a == AerofoilParams().a  # untouched fields keep defaults


class TestAeroCoefficients:
    def test_wagner_function_limits(self):
        p = default_params()
        tau = np.linspace(0.0, 500.0, 2000)
        w = wagner_function(tau, p)
        assert w[0] == pytest.approx(0.5)  # 1 - 0.165 - 0.335
        assert np.all(np.diff(w) > 0)  # monotone lift build-up
        assert w[-1] == pytest.approx(1.0, abs=1e-6)

    def test_theodorsen_constants_vanish_at_trailing_edge(self):
        # a zero-size flap (hinge at the trailing edge) carries no load
        T = theodorsen_constants(-0.5, 1.0)
        for name in ("T1", "T4", "T5", "T11", "T12"):
            assert T[name] == pytest.approx(0.0, abs=1e-12)

    def test_kussner_rates_repeated(self):
        params = default_params()
        assert params.kussner_rate == -0.1393
        assert sum(params.kussner_weights) == pytest.approx(1.0)


class TestFullOrderModel:
    def test_dimensions_and_structure(self, fom):
        assert fom.A_f.shape == (14, 14)
        assert fom.B_c.shape == (14, 1)
        assert fom.B_gf.shape == (14, 1)
        # gust input drives only the gust-lag states
        nz = np.flatnonzero(fom.B_gf[:, 0])
        assert list(nz) == [12, 13]
        # gust-lag rows are decoupled first-order filters
        assert np.allclose(fom.A_f[12:, :12], 0.0)

    def test_kussner_eigenvalues(self, fom):
        eigs = np.linalg.eigvals(fom.A_f)
        reals = np.sort(eigs[np.abs(eigs.imag) < 1e-9].real)
        close = np.isclose(reals, -0.1393, atol=1e-6)
        assert close.sum() >= 2

    def test_open_loop_stable_at_design_point(self, fom):
        assert np.linalg.eigvals(fom.A_f).real.max() < 0.0

    def test_flutter_boundary_above_design_point(self):
        grid, worst = flutter_margin(default_params(), np.linspace(2.0, 16.0, 29))
        assert worst[np.searchsorted(grid, 4.5)] < 0.0  # stable at design point
        unstable = grid[worst > 0]
        assert unstable.size and unstable.min() > 10.0  # flutter onset well above

    def test_linear_rhs_is_jacobian_at_origin(self, fom):
        # finite-difference oracle for A_f
        eps = 1e-7
        J = np.zeros((14, 14))
        for j in range(14):
            w = np.zeros(14)
            w[j] = eps
            J[:, j] = (fom.rhs(w, 0.0, 0.0, nonlinear=False)
                       - fom.rhs(-w, 0.0, 0.0, nonlinear=False)) / (2.0 * eps)
        assert np.allclose(J, fom.A_f, atol=1e-6)

    def test_nonlinear_residual_is_cubic(self, fom):
        rng = np.random.default_rng(5)
        w = rng.normal(scale=0.1, size=14)
        r1 = fom.rhs(w, 0.0, 0.0) - fom.rhs(w, 0.0, 0.0, nonlinear=False)
        r2 = fom.rhs(2.0 * w, 0.0, 0.0) - fom.rhs(2.0 * w, 0.0, 0.0, nonlinear=False)
        assert np.allclose(r2, 8.0 * r1, rtol=1e-12)
        # residual acts only on the structural momentum rows
        assert np.allclose(np.delete(r1, [3, 4, 5]), 0.0)

    def test_nonlinear_residual_off_for_zero_cubic(self):
        fom = assemble_fom(AerofoilParams(K_alpha3=0.0, K_xi3=0.0))
        w = np.random.default_rng(6).normal(size=14)
        assert np.allclose(fom.eval_f_nr(w), 0.0)

    def test_control_enters_through_flap_channel(self, fom):
        du = fom.rhs(np.zeros(14), 1.0, 0.0) - fom.rhs(np.zeros(14), 0.0, 0.0)
        assert np.allclose(du, fom.B_c[:, 0])
        assert np.abs(du[3:6]).max() > 0  # structural momentum rows respond

    def test_output_map(self, fom):
        C = fom.C_out
        assert C.shape == (3, 14)
        w = np.arange(14.0)
        assert np.allclose(C @ w, [w[1], w[0], w[2]])  # (pitch, plunge, flap)
        assert fom.output_labels == ("pitch", "plunge", "flap")
