import numpy as np
import pytest
import scipy.integrate
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
        g = VonKarmanGust(1.0, 50.0, 25.0, 0.05, 200.0, seed=1)
        assert abs(g.samples.mean()) < 1e-12
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
        # finite, but the variance or the filter's section count overflows
        with pytest.raises(GustError, match="out of range"):
            VonKarmanGust(sigma_g, L_g, U_inf, dt=0.02, duration=4.0, seed=0)

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
    def test_half_steps_read_the_later_sample(self, dt):
        # the RK4 stage times of sim._gust_grid; t/dt + 0.5 lands on either
        # side of k + 1 at (k + 1/2) dt, so a plain round-half-up is not enough
        g = VonKarmanGust(1.0, 12.0, 1.0, dt, 25.0, seed=0)
        n = g.samples.shape[0] - 1
        w = g(0.5 * dt * np.arange(2 * n + 1))
        assert np.array_equal(w[0::2], g.samples)
        assert np.array_equal(w[1::2], g.samples[1:])


# Reference: the shaping filter as realised with scipy.signal (cont2discrete,
# freqz, lfilter), against which the NumPy-only filter is checked.
def _scipy_sections(L_g, U_inf, dt):
    tau = 1.339 * L_g / U_inf
    sections = [(np.array([np.sqrt(8.0 / 3.0) * tau, 1.0]), np.array([tau, 1.0]))]
    r = 10.0**gusts._LADDER_RATIO_EXP
    n_sections = int(np.ceil(np.log(tau * (np.pi / dt) * 10.0) / np.log(r)))
    pole = r**gusts._LADDER_START
    for _ in range(n_sections):
        zero = pole * r**gusts._LADDER_SLOPE
        sections.append((np.array([tau / zero, 1.0]), np.array([tau / pole, 1.0])))
        pole *= r
    discrete = []
    for num, den in sections:
        bz, az, _ = scipy.signal.cont2discrete((num, den), dt, method="bilinear")
        discrete.append((bz[0], az))
    f = np.linspace(0.0, 0.5 / dt, 20001)
    h2 = np.ones_like(f)
    for bz, az in discrete:
        _, h = scipy.signal.freqz(bz, az, worN=2.0 * np.pi * f * dt)
        h2 = h2 * np.abs(h) ** 2
    var = np.trapezoid(2.0 * np.pi * np.sqrt(L_g / (np.pi * U_inf)) ** 2 * h2, f)
    gain = np.sqrt(L_g / (np.pi * U_inf)) / np.sqrt(var)
    discrete[0] = (gain * discrete[0][0], discrete[0][1])
    return discrete


def _scipy_samples(sigma_g, L_g, U_inf, dt, duration, seed):
    n = int(round(duration / dt)) + 1
    w = np.random.default_rng(seed).standard_normal(n) * np.sqrt(sigma_g**2 * np.pi / dt)
    for bz, az in _scipy_sections(L_g, U_inf, dt):
        w = scipy.signal.lfilter(bz, az, w)
    return w - w.mean()


_FILTERS = [(12.0, 1.0, 0.01), (2.5, 1.0, 0.02), (50.0, 25.0, 0.05)]


class TestNumpyFilterAgainstScipy:
    @pytest.mark.parametrize("L_g, U_inf, dt", _FILTERS)
    def test_sections_match_cont2discrete(self, L_g, U_inf, dt):
        ours = gusts._vk_filter_sections(L_g, U_inf, dt)
        ref = _scipy_sections(L_g, U_inf, dt)
        assert len(ours) == len(ref)
        for k, ((b, a), (b_ref, a_ref)) in enumerate(zip(ours, ref)):
            assert a.shape == a_ref.shape == (2,) and a[0] == 1.0
            assert np.allclose(a, a_ref, rtol=0.0, atol=1e-15)
            if k > 0:  # the first section carries the normalising gain
                assert np.allclose(b, b_ref, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("L_g, U_inf, dt", _FILTERS)
    def test_normalised_gain_matches_freqz(self, L_g, U_inf, dt):
        b, _ = gusts._vk_filter_sections(L_g, U_inf, dt)[0]
        b_ref, _ = _scipy_sections(L_g, U_inf, dt)[0]
        assert np.allclose(b, b_ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sigma_g, L_g, U_inf, dt, duration", [
        (0.05, 12.0, 1.0, 0.01, 25.0),
        (0.05, 12.0, 1.0, 0.01, 1100.0),
        (1.0, 2.5, 1.0, 0.02, 4000.0),
        (1.0, 50.0, 25.0, 0.05, 0.02),  # 1 sample
        (1.0, 50.0, 25.0, 0.05, 63 * 0.05),  # 64 samples
    ])
    def test_samples_match_lfilter(self, sigma_g, L_g, U_inf, dt, duration):
        for seed in (0, 5):
            g = VonKarmanGust(sigma_g, L_g, U_inf, dt, duration, seed=seed)
            ref = _scipy_samples(sigma_g, L_g, U_inf, dt, duration, seed)
            assert g.samples.shape == ref.shape
            assert np.max(np.abs(g.samples - ref)) <= 1e-12 * np.max(np.abs(ref))


_K = gusts._SCAN_BLOCK


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-0.999, 0.999),
    arrays(np.float64, st.integers(1, 3 * _K * _K + 1),
           elements=st.floats(-1e6, 1e6, allow_subnormal=False)),
)
@example(0.999, np.ones(3 * _K * _K + 1))  # three rows of K x K blocks: two carry levels
@example(-0.999, np.r_[1.0, np.zeros(_K * _K)])
def test_blocked_scan_matches_recurrence(c, d):
    y_ref = np.empty_like(d)
    acc = 0.0
    for i, v in enumerate(d.tolist()):
        acc = c * acc + v
        y_ref[i] = acc
    y = gusts._first_order_scan(c, d)
    assert y.shape == d.shape
    assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))
