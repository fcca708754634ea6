"""Disturbance signals: deterministic "1-cosine" discrete gusts and seeded
stochastic turbulence realisations with the Von Karman vertical spectrum.

A Von Karman realisation is a spectral sum of cosines with seeded random
phases, evaluated exactly on the RK4 half-step grid by one inverse real FFT
and read at the nearest half-step point.  Its frequencies do not depend on
dt, so one seed is one realisation at every dt fine enough for its band."""

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


# Highest dimensionless frequency x = 1.339 L omega / U of a Von Karman
# realisation.  The spectrum above it falls as x^(-5/3) and holds about 1 % of
# sigma^2; below it lies criterion 10's spectrum band, which reaches x = 285
# (0.2/dt Hz at U 59, L 200, dt 0.02).
_X_CUTOFF = 1000.0


@dataclass(frozen=True)
class VonKarmanGust:
    """Seeded turbulence realisation, the spectral sum (Shinozuka & Jan, J.
    Sound Vib. 25, 1972; Shinozuka & Deodatis, Appl. Mech. Rev. 44, 1991)

        w(t) = sum_k sqrt(2 S(omega_k) d_omega) cos(omega_k t + phi_k)

    of S = von_karman_psd over omega_k = k d_omega, d_omega = 2 pi / T, T = n
    dt the run's n steps, below the cutoff x = _X_CUTOFF.  The phases phi_k
    are uniform on [0, 2 pi), drawn from default_rng(seed) in frequency
    order, so a shorter draw is a prefix of a longer one.  One inverse real
    FFT of length 2n gives the sum exactly on the RK4 half-step grid t = j
    dt/2, j = 0 .. 2n; ``samples`` is its every other point, the grid t_k = k
    dt.  That grid carries the n - 1 frequencies below its Nyquist rate, so
    a dt too coarse for the band drops the top frequencies; otherwise the
    realisation does not depend on dt.  The sum repeats with period T, so it
    is zero-mean over one period and its last sample repeats the first.  Its
    variance is the spectrum's below the cutoff, about 1 % short of
    sigma_g^2, and is not rescaled: that would lift the in-band spectrum as
    much.  Evaluation reads the nearest half-step point; before 0 the gust is
    0, past T it holds the last point."""

    sigma_g: float
    L_g: float
    U_inf: float
    dt: float
    duration: float
    seed: int
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    _half_steps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if min(self.L_g, self.U_inf, self.dt, self.duration) <= 0 or self.sigma_g < 0:
            raise GustError("Von Karman parameters must be positive")
        n = int(round(self.duration / self.dt))
        T = n * self.dt
        try:  # finite parameters whose band is empty or whose sum overflows
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                # the omega_k below the cutoff, at most the n - 1 below the
                # half-step grid's Nyquist rate
                band = _X_CUTOFF * self.U_inf / (1.339 * self.L_g) * T / (2.0 * np.pi)
                top = int(min(n - 1, band))
                if top < 1:  # a run shorter than a step, or a cutoff below 2 pi / T
                    raise FloatingPointError
                d_omega = 2.0 * np.pi / T
                omega = d_omega * np.arange(1, top + 1)
                amp = np.sqrt(2.0 * von_karman_psd(omega, self.sigma_g, self.L_g, self.U_inf)
                              * d_omega)
                phase = np.random.default_rng(self.seed).uniform(0.0, 2.0 * np.pi, top)
                spectrum = np.zeros(n + 1, dtype=complex)
                spectrum[1:top + 1] = 0.5 * amp * np.exp(1j * phase)
                half = np.fft.irfft(spectrum, 2 * n, norm="forward")
                if not np.isfinite(half).all():
                    raise FloatingPointError
        except ArithmeticError:
            raise GustError(
                f"Von Karman parameters out of range: sigma = {self.sigma_g:g}, "
                f"L = {self.L_g:g}, U_inf = {self.U_inf:g}, dt = {self.dt:g}, "
                f"duration = {self.duration:g}") from None
        half = np.append(half, half[0])  # t = T closes the period
        object.__setattr__(self, "_half_steps", half)
        object.__setattr__(self, "samples", half[::2])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.rint(2.0 * t / self.dt), 0, self._half_steps.shape[0] - 1).astype(int)
        return np.where(t < 0, 0.0, self._half_steps[idx])
