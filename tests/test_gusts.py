import numpy as np
import pytest
import scipy.integrate
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

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
        g = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 200.0, seed=1)
        assert abs(g.samples.mean()) < 1e-12
        z = VonKarmanGust(0.0, 50.0, 25.0, 0.05, 10.0, seed=1)
        assert np.all(z.samples == 0.0)

    def test_short_duration_flag(self):
        short = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 50.0, seed=1)
        assert short.short_duration
        long = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 500.0, seed=1)
        assert not long.short_duration

    def test_invalid_parameters(self):
        with pytest.raises(GustError):
            VonKarmanGust(sigma_g=1.0, L_g=0.0, U_inf=1.0, dt=0.01, duration=1.0, seed=0)
        with pytest.raises(GustError):
            VonKarmanGust(sigma_g=-1.0, L_g=1.0, U_inf=1.0, dt=0.01, duration=1.0, seed=0)

    def test_variance_single_seed(self):
        g = VonKarmanGust(1.0, 200.0, 59.0, 0.02, 2000.0, seed=0)
        assert 0.8 < g.samples.var() < 1.2

    def test_callable_holds_samples(self):
        g = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 10.0, seed=2)
        t = g.time[3]
        assert g(t) == g.samples[3]
        assert g(-1.0) == 0.0
        assert g(1e9) == g.samples[-1]
