"""Disturbance signals: deterministic "1-cosine" discrete gusts, seeded
stochastic turbulence realisations with the Von Karman vertical spectrum, and
the worst-case gust-gradient sweep."""

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
    kind: str = "one-cosine"

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
    kind: str = "zero"
    duration: float = 0.0

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
# discrete-time output variance is exactly sigma_g^2.
_LADDER_RATIO_EXP = 0.25  # log10 of pole spacing ratio r
_LADDER_START = 0.3  # first pole at x = r^_LADDER_START
_LADDER_SLOPE = 5.0 / 6.0  # fractional amplitude slope being approximated


def _vk_filter_sections(L_g: float, U_inf: float, dt: float):
    """Discretised first-order sections (b, a) of the unit-variance shaping
    filter cascade for white noise with per-sample variance pi/dt."""
    import scipy.signal  # here, not at module load: it dominates the CLI import

    tau = 1.339 * L_g / U_inf
    sections = [(np.array([np.sqrt(8.0 / 3.0) * tau, 1.0]), np.array([tau, 1.0]))]
    r = 10.0**_LADDER_RATIO_EXP
    x_hi = tau * (np.pi / dt) * 10.0  # one decade beyond Nyquist
    n_sections = int(np.ceil(np.log(x_hi) / np.log(r)))
    pole = r**_LADDER_START
    for _ in range(n_sections):
        zero = pole * r**_LADDER_SLOPE
        sections.append((np.array([tau / zero, 1.0]), np.array([tau / pole, 1.0])))
        pole *= r
    discrete = []
    for num, den in sections:
        bz, az, _ = scipy.signal.cont2discrete((num, den), dt, method="bilinear")
        discrete.append((bz[0], az))

    # normalise: output variance of the cascade driven by per-sample variance
    # pi/dt equals 2 pi * integral_0^nyq |H|^2 df
    f = np.linspace(0.0, 0.5 / dt, 20001)
    h2 = np.ones_like(f)
    for bz, az in discrete:
        _, h = scipy.signal.freqz(bz, az, worN=2.0 * np.pi * f * dt)
        h2 = h2 * np.abs(h) ** 2
    var = np.trapezoid(2.0 * np.pi * np.sqrt(L_g / (np.pi * U_inf)) ** 2 * h2, f)
    gain = np.sqrt(L_g / (np.pi * U_inf)) / np.sqrt(var)
    bz0, az0 = discrete[0]
    discrete[0] = (gain * bz0, az0)
    return discrete


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
    by Gaussian white noise.  The realisation is precomputed at construction;
    evaluation interpolates with zero-order hold determinism on the grid."""

    sigma_g: float
    L_g: float
    U_inf: float
    dt: float
    duration: float
    seed: int
    kind: str = "von-karman"
    time: np.ndarray = field(init=False, repr=False, compare=False)
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    short_duration: bool = field(init=False, compare=False)

    def __post_init__(self):
        if min(self.L_g, self.U_inf, self.dt, self.duration) <= 0 or self.sigma_g < 0:
            raise GustError("Von Karman parameters must be positive")
        n = int(round(self.duration / self.dt)) + 1
        t = np.arange(n) * self.dt
        if self.sigma_g == 0.0:
            w = np.zeros(n)
        else:
            import scipy.signal

            sections = _vk_filter_sections(self.L_g, self.U_inf, self.dt)
            rng = np.random.default_rng(self.seed)
            # unit two-sided white-noise PSD in rad/s: per-sample variance pi/dt
            w = rng.standard_normal(n) * np.sqrt(self.sigma_g**2 * np.pi / self.dt)
            for bz, az in sections:
                w = scipy.signal.lfilter(bz, az, w)
            w = w - w.mean()
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "samples", w)
        object.__setattr__(
            self, "short_duration", self.duration < 200.0 * self.L_g / self.U_inf
        )

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip((t / self.dt + 0.5).astype(int), 0, self.samples.shape[0] - 1)
        return np.where(t < 0, 0.0, self.samples[idx])


def von_karman_realization(
    sigma_g: float, L_g: float, U_inf: float, dt: float, duration: float, seed: int
) -> VonKarmanGust:
    return VonKarmanGust(
        sigma_g=sigma_g, L_g=L_g, U_inf=U_inf, dt=dt, duration=duration, seed=seed
    )


def worst_case_gradient_sweep(run_peak, Hg_values, W0: float):
    """Sweep the gust gradient and return (H_g*, table).

    ``run_peak(gust)`` maps a OneCosineGust to the peak |output| of the chosen
    configuration (open or closed loop); the table rows are (H_g, peak)."""
    Hg_values = np.atleast_1d(np.asarray(Hg_values, dtype=float))
    if Hg_values.size == 0:
        raise GustError("empty gust-gradient range")
    table = []
    for hg in Hg_values:
        peak = float(run_peak(OneCosineGust(w_gmax=W0, H_g=float(hg))))
        table.append((float(hg), peak))
    best = max(table, key=lambda row: row[1])
    return best[0], table
