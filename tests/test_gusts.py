import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from aeromrac import gusts
from aeromrac.gusts import (
    GustError,
    OneCosineGust,
    VonKarmanGust,
    ZeroGust,
    one_cosine,
    von_karman_psd,
)


class TestOneCosine:
    def test_exact_landmarks(self):
        w0, hg, u = 0.14, 55.0, 1.0
        assert one_cosine(0.0, w0, hg, u) == 0.0
        assert one_cosine(hg / u, w0, hg, u) == w0
        assert one_cosine(2.0 * hg / u, w0, hg, u) == pytest.approx(0.0, abs=1e-16)
        assert one_cosine(hg / (2.0 * u), w0, hg, u) == pytest.approx(0.5 * w0)

    def test_zero_outside_window(self):
        t = np.array([-1.0, -1e-12, 2.0 * 55.0 + 1e-9, 1e3])
        assert np.all(one_cosine(t, 0.14, 55.0) == 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(GustError):
            one_cosine(0.0, 1.0, -1.0)
        with pytest.raises(GustError):
            OneCosineGust(w_gmax=1.0, H_g=5.0, U_inf=0.0)

    def test_duration(self):
        g = OneCosineGust(w_gmax=1.0, H_g=10.0, U_inf=2.0)
        assert g.duration == 10.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.01, 1e3),
        st.floats(1e-6, 10.0),
        st.floats(0.0, 1.0),
    )
    def test_bounds_property(self, hg, w0, frac):
        t = frac * 2.0 * hg
        val = one_cosine(t, w0, hg)
        assert 0.0 <= val <= w0 * (1.0 + 1e-12)


class TestZeroGust:
    def test_identically_zero(self):
        g = ZeroGust()
        assert np.all(g(np.linspace(-5, 5, 11)) == 0.0)


class TestVonKarmanSpectrum:
    def test_psd_integrates_to_variance(self):
        sigma, L, U = 1.7, 200.0, 59.0
        val, _ = scipy.integrate.quad(
            lambda w: von_karman_psd(w, sigma, L, U), 0.0, np.inf, limit=400
        )
        assert val == pytest.approx(sigma**2, rel=1e-4)

    def test_low_frequency_plateau(self):
        sigma, L, U = 1.0, 100.0, 50.0
        assert von_karman_psd(0.0, sigma, L, U) == pytest.approx(
            sigma**2 * L / (np.pi * U)
        )


class TestVonKarmanRealization:
    def test_deterministic_per_seed(self):
        a = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 100.0, seed=11)
        b = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 100.0, seed=11)
        c = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 100.0, seed=12)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_zero_mean_and_zero_intensity(self):
        # zero-mean over one period T; the last sample, at T, repeats the first
        g = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 200.0, seed=1)
        assert g.samples[-1] == g.samples[0]
        assert abs(g.samples[:-1].mean()) < 1e-12
        z = VonKarmanGust(0.0, 50.0, 25.0, 0.05, 10.0, seed=1)
        assert np.all(z.samples == 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(GustError):
            VonKarmanGust(sigma_g=1.0, L_g=0.0, U_inf=1.0, dt=0.01, duration=1.0, seed=0)
        with pytest.raises(GustError):
            VonKarmanGust(sigma_g=-1.0, L_g=1.0, U_inf=1.0, dt=0.01, duration=1.0, seed=0)

    @pytest.mark.parametrize("sigma_g, L_g, U_inf", [
        (1e308, 12.0, 1.0), (1e154, 12.0, 1.0), (np.float64(1e308), 12.0, 1.0),
        (0.05, 1e308, 1.0), (0.05, 12.0, 1e-308)],
        ids=["sigma", "sigma-squared", "numpy-sigma", "L", "U_inf"])
    def test_overflowing_parameters(self, sigma_g, L_g, U_inf):
        # finite, but the variance overflows or the cutoff lies below 2 pi / T
        with pytest.raises(GustError, match="out of range"):
            VonKarmanGust(sigma_g, L_g, U_inf, dt=0.02, duration=4.0, seed=0)

    def test_run_shorter_than_a_step_is_out_of_range(self):
        with pytest.raises(GustError, match="out of range"):
            VonKarmanGust(1.0, 50.0, 25.0, dt=0.05, duration=0.02, seed=0)

    def test_variance_single_seed(self):
        g = VonKarmanGust(1.0, 200.0, 59.0, 0.02, 2000.0, seed=0)
        assert 0.8 < g.samples.var() < 1.2

    def test_callable_holds_samples(self):
        g = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 10.0, seed=2)
        t = 3 * g.dt
        assert g(t) == g.samples[3]
        assert g(-1.0) == 0.0
        assert g(1e9) == g.samples[-1]

    @pytest.mark.parametrize("dt", [0.01, 0.02, 0.05, 0.1])
    def test_half_steps_read_the_half_step_grid(self, dt):
        # the RK4 stage times of sim._gust_grid read the spectral sum there
        g = VonKarmanGust(1.0, 12.0, 1.0, dt, 25.0, seed=0)
        n = g.samples.shape[0] - 1
        t = 0.5 * dt * np.arange(2 * n + 1)
        w = g(t)
        assert np.array_equal(w[0::2], g.samples)
        assert np.max(np.abs(w - _direct_sum(g, t))) <= 1e-12 * np.max(np.abs(w))

    # the second grid carries only the lower part of its band
    @pytest.mark.parametrize("sigma_g, L_g, U_inf, dt", [
        (0.05, 12.0, 1.0, 0.01), (1.0, 50.0, 25.0, 0.05)])
    def test_fft_matches_the_direct_cosine_sum(self, sigma_g, L_g, U_inf, dt):
        g = VonKarmanGust(sigma_g, L_g, U_inf, dt, 10.0, seed=3)
        w = _direct_sum(g, g.dt * np.arange(g.samples.shape[0]))
        assert np.max(np.abs(g.samples - w)) <= 1e-12 * np.max(np.abs(w))

    def test_one_seed_is_one_realisation_at_every_dt(self):
        # the band sits below every grid's Nyquist rate, so each draws the same
        # phases: a shorter draw of the generator is a prefix of a longer one
        rng = np.random.default_rng
        assert np.array_equal(rng(7).uniform(0.0, 2.0 * np.pi, 10),
                              rng(7).uniform(0.0, 2.0 * np.pi, 1000)[:10])
        fine = VonKarmanGust(0.05, 12.0, 1.0, 0.005, 300.0, seed=0)
        for dt, stride in ((0.02, 4), (0.01, 2)):
            g = VonKarmanGust(0.05, 12.0, 1.0, dt, 300.0, seed=0)
            assert np.max(np.abs(g.samples - fine.samples[::stride])) <= 1e-12


def _direct_sum(g, t):
    """The spectral sum of g written out: one cosine per frequency below the
    cutoff and the half-step grid's Nyquist rate, its phase drawn in frequency
    order."""
    n = g.samples.shape[0] - 1
    d_omega = 2.0 * np.pi / (n * g.dt)
    top = min(n - 1, int(gusts._X_CUTOFF * g.U_inf / (1.339 * g.L_g) / d_omega))
    omega = d_omega * np.arange(1, top + 1)
    amp = np.sqrt(2.0 * von_karman_psd(omega, g.sigma_g, g.L_g, g.U_inf) * d_omega)
    phase = np.random.default_rng(g.seed).uniform(0.0, 2.0 * np.pi, top)
    return np.cos(np.outer(t, omega) + phase) @ amp
