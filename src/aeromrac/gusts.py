"""Disturbance signals: deterministic "1-cosine" discrete gusts and seeded
stochastic turbulence realisations with the Von Karman vertical spectrum.

The Von Karman shaping filter is built and run with NumPy alone: bilinear
first-order sections in closed form, a direct |H|^2 variance normalisation
and a blocked scan of each section's recurrence.  A realisation is sampled
on the grid t_k = k dt and read at the nearest sample, ties (the RK4 half
steps) going to the later sample."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GustError(ValueError):
    """Raised for invalid gust specifications."""


def one_cosine(t, w_gmax: float, H_g: float, U_inf: float = 1.0):
    """Discrete-gust vertical velocity: (w_gmax/2)(1 - cos(pi U t / H_g)) on
    [0, 2 H_g / U_inf], zero outside; peak w_gmax at t = H_g / U_inf."""
    if H_g <= 0 or U_inf <= 0:
        raise GustError("H_g and U_inf must be positive")
    t = np.asarray(t, dtype=float)
    inside = (t >= 0.0) & (t <= 2.0 * H_g / U_inf)
    val = 0.5 * w_gmax * (1.0 - np.cos(np.pi * U_inf * t / H_g))
    return np.where(inside, val, 0.0)


@dataclass(frozen=True)
class OneCosineGust:
    """Evaluator object for Eq.-style one-cosine profiles."""

    w_gmax: float
    H_g: float
    U_inf: float = 1.0

    def __post_init__(self):
        if self.H_g <= 0 or self.U_inf <= 0:
            raise GustError("H_g and U_inf must be positive")

    @property
    def duration(self) -> float:
        return 2.0 * self.H_g / self.U_inf

    def __call__(self, t):
        return one_cosine(t, self.w_gmax, self.H_g, self.U_inf)


@dataclass(frozen=True)
class ZeroGust:
    def __call__(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


# Shaping-filter design for the vertical Von Karman spectrum.  With
# x = 1.339 L omega / U the target magnitude factors as
#
#   |H(jx)| = sigma sqrt(L/(pi U)) (1 + 8/3 x^2)^(1/2) (1 + x^2)^(-11/12)
#           = sigma sqrt(L/(pi U)) [(1+8/3 x^2)/(1+x^2)]^(1/2) (1+x^2)^(-5/12)
#
# The first bracket is exactly a first-order zero/pole section; the fractional
# (1+x^2)^(-5/12) roll-off (-5/6 amplitude decade per frequency decade) is
# approximated by a geometric pole-zero ladder: poles at x = r^(k+0.3),
# zeros a factor r^(5/6) above each pole, spacing r = 10^(1/4), extended one
# decade past the Nyquist rate.  Deterministic in-band magnitude error is
# below 1 dB for the bandwidths of interest.  Each first-order section is
# bilinear-discretised separately and the cascade gain is normalised so the
# discrete-time output variance is exactly sigma_g^2.  The filter is NumPy
# only: importing scipy.signal would take most of a short stochastic run.
_LADDER_RATIO_EXP = 0.25  # log10 of pole spacing ratio r
_LADDER_START = 0.3  # first pole at x = r^_LADDER_START
_LADDER_SLOPE = 5.0 / 6.0  # fractional amplitude slope being approximated
# Samples per row of the blocked scan.  Each level of the carry recursion
# divides the length by it, but the (K, K) products cost K multiply-adds per
# sample: a 110 001-sample gust took 31, 37, 89 and 254 ms at K = 32, 64,
# 128 and 256 on a 2-core host.
_SCAN_BLOCK = 64


def _vk_filter_sections(L_g: float, U_inf: float, dt: float):
    """Discretised first-order sections (b, a), a[0] = 1, of the unit-variance
    shaping filter cascade for white noise with per-sample variance pi/dt."""
    tau = 1.339 * L_g / U_inf
    sections = [(np.sqrt(8.0 / 3.0) * tau, 1.0, tau, 1.0)]  # (n0 s + n1)/(d0 s + d1)
    r = 10.0**_LADDER_RATIO_EXP
    x_hi = tau * (np.pi / dt) * 10.0  # one decade beyond Nyquist
    n_sections = int(np.ceil(np.log(x_hi) / np.log(r)))
    pole = r**_LADDER_START
    for _ in range(n_sections):
        zero = pole * r**_LADDER_SLOPE
        sections.append((tau / zero, 1.0, tau / pole, 1.0))
        pole *= r
    # bilinear (Tustin) map s = k (1 - z^-1)/(1 + z^-1), k = 2/dt, in closed form
    k = 2.0 / dt
    discrete = []
    for n0, n1, d0, d1 in sections:
        g = k * d0 + d1
        discrete.append((np.array([k * n0 + n1, n1 - k * n0]) / g,
                         np.array([1.0, (d1 - k * d0) / g])))

    # normalise: output variance of the cascade driven by per-sample variance
    # pi/dt equals 2 pi * integral_0^nyq |H|^2 df
    f = np.linspace(0.0, 0.5 / dt, 20001)
    zinv = np.exp(-2j * np.pi * f * dt)
    h2 = np.ones_like(f)
    for bz, az in discrete:
        h2 = h2 * np.abs((bz[0] + bz[1] * zinv) / (az[0] + az[1] * zinv)) ** 2
    var = np.trapezoid(2.0 * np.pi * np.sqrt(L_g / (np.pi * U_inf)) ** 2 * h2, f)
    gain = np.sqrt(L_g / (np.pi * U_inf)) / np.sqrt(var)
    bz0, az0 = discrete[0]
    discrete[0] = (gain * bz0, az0)
    return discrete


def _first_order_scan(c: float, d: np.ndarray) -> np.ndarray:
    """y[n] = c y[n-1] + d[n] from rest (y[-1] = 0), for |c| <= 1.

    d is cut into rows of K = _SCAN_BLOCK samples, and one product with the
    (K, K) matrix T[i, j] = c^(j-i), i <= j, gives each row's response from
    rest.  The value carried out of each row obeys the same recurrence in
    c^K, solved by one recursive call, and enters the next row as
    carry * c^(j+1).  O(n) work in about log_K n calls.

    The rows go in as a stack of (K, K) blocks: one product of many rows is
    split over BLAS threads, whose start-up made it 20 times slower on a
    2-core host (8 ms against 0.3 ms for 110 001 samples).  The CLI runs
    BLAS on one thread, so this reason holds for library use only."""
    n = d.shape[0]
    K = _SCAN_BLOCK
    rows = -(-n // K)
    lag = np.arange(K)[None, :] - np.arange(K)[:, None]
    T = np.where(lag >= 0, c ** np.maximum(lag, 0), 0.0)
    padded = np.zeros(-(-rows // K) * K * K)
    padded[:n] = d
    y = (padded.reshape(-1, K, K) @ T).reshape(-1, K)[:rows]
    if rows > 1:
        ends = _first_order_scan(c**K, y[:, -1])  # y at the end of each row
        y[1:] += ends[:-1, None] * c ** np.arange(1, K + 1)
    return y.ravel()[:n]


def von_karman_psd(omega, sigma_g: float, L_g: float, U_inf: float):
    """Analytic one-sided vertical Von Karman PSD over angular frequency
    (rad per unit time); integrates to sigma_g^2 on (0, inf)."""
    x = 1.339 * L_g * np.asarray(omega, dtype=float) / U_inf
    return (
        sigma_g**2
        * L_g
        / (np.pi * U_inf)
        * (1.0 + (8.0 / 3.0) * x**2)
        / (1.0 + x**2) ** (11.0 / 6.0)
    )


@dataclass(frozen=True)
class VonKarmanGust:
    """Seeded turbulence realisation from a discretised shaping filter driven
    by Gaussian white noise.  The realisation is precomputed at construction
    on the grid t_k = k dt.  Evaluation reads the nearest sample, and a tie
    reads the later one: t is first rounded to the nearest half step, so
    float error in an RK4 half-step time (k + 1/2) dt cannot move it, and
    that half step reads sample k + 1.  Before 0 the gust is 0; past the
    last sample it holds the last."""

    sigma_g: float
    L_g: float
    U_inf: float
    dt: float
    duration: float
    seed: int
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if min(self.L_g, self.U_inf, self.dt, self.duration) <= 0 or self.sigma_g < 0:
            raise GustError("Von Karman parameters must be positive")
        n = int(round(self.duration / self.dt)) + 1
        if self.sigma_g == 0.0:
            w = np.zeros(n)
        else:
            try:  # finite parameters whose filter or variance overflows
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    sections = _vk_filter_sections(self.L_g, self.U_inf, self.dt)
                    rng = np.random.default_rng(self.seed)
                    # unit two-sided white-noise PSD in rad/s: per-sample variance pi/dt
                    w = rng.standard_normal(n) * np.sqrt(self.sigma_g**2 * np.pi / self.dt)
                    for (b0, b1), (_, a1) in sections:
                        d = b0 * w
                        d[1:] += b1 * w[:-1]
                        w = _first_order_scan(-a1, d)
                    w = w - w.mean()
                    if not np.isfinite(w).all():
                        raise FloatingPointError
            except ArithmeticError:
                raise GustError(
                    f"Von Karman parameters out of range: sigma = {self.sigma_g:g}, "
                    f"L = {self.L_g:g}, U_inf = {self.U_inf:g}, dt = {self.dt:g}") from None
        object.__setattr__(self, "samples", w)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = (np.rint(2.0 * t / self.dt).astype(int) + 1) // 2
        idx = np.clip(idx, 0, self.samples.shape[0] - 1)
        return np.where(t < 0, 0.0, self.samples[idx])
