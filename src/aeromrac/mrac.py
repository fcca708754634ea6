"""Model-reference adaptive controller: reference-model synthesis by damping
augmentation, ideal-gain model matching, Lyapunov design, the adaptation law,
the Lipschitz stability monitor and the minimum-phase pre-correction.

Gust-load alleviation is regulation: there is no reference command, and the
reference model is driven by the measured gust.  So the controller is
state-feedback MRAC (Lavretsky & Wise, Robust and Adaptive Control, 2013).
The reference model (A_m, nl) carries its own springs, the plant's from
``build_reference_model``; a linear reference model has nl = None.
Gain-storage convention (fixed once to prevent transpose bugs): the adaptive
gain matrix is theta = Kx^T in R^{n x m} acting on the regression vector
phi = x, so u_c = theta^T x.  ``theta_rate`` below is the adaptation law,
with Gamma = gamma Q (``LyapunovDesign``).  The law does not read theta, so
a fixed pre-gain K0 (``minimum_phase_correct``) is part of the initial gains,
theta(0) = K0^T, and ``sim._lane_field`` writes u_c and the law, at each
lane's own gamma, as product columns of one operator that every lane shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    NumericsError,
    bass_gura_place,
    controllability_matrix,
    solve_lyapunov,
    transmission_zeros,
)
from .romgen import PolyNonlinearity

_REAL_TOL = 1e-9
_SKIP_TOL = 1e-12  # ||x - x_m|| below which the Lipschitz ratio is undefined
_CERT_EPS = 1e-8  # the certificate's per-step slack, relative to V(0)


class MracError(ValueError):
    """Raised for invalid controller-synthesis requests."""


# ---------------------------------------------------------------------------
# reference model


@dataclass(frozen=True)
class ReferenceModel:
    """Damping-augmented Hurwitz reference dynamics x_m' = A_m x_m + B_g u_d
    + F(x_m) in real block-modal form, with its own polynomial springs F
    (``nl``), or none when ``nl`` is None."""

    A_m: np.ndarray  # (n, n)
    nl: PolyNonlinearity | None


def _modal_blocks(A: np.ndarray):
    """Split a real block-modal matrix into 1x1 and 2x2 diagonal blocks,
    returned as (start_index, size) pairs."""
    n = A.shape[0]
    blocks = []
    k = 0
    while k < n:
        if k + 1 < n and abs(A[k + 1, k]) > _REAL_TOL:
            blocks.append((k, 2))
            k += 2
        else:
            blocks.append((k, 1))
            k += 1
    return blocks


def build_reference_model(rom, damping_spec=None) -> ReferenceModel:
    """Reference model with selectively increased modal damping.

    ``damping_spec`` is a scalar factor applied to every oscillatory mode, or
    a mapping from oscillatory-mode ordinal (0-based, in block order) to
    either a factor >= 1 or an explicit (sigma_m, omega_dm) pair, which may
    set any decay rate.  Real (gust-coupling) modes keep their open-loop
    eigenvalues.  The damped frequency is kept at its open-loop value unless
    explicitly overridden.  The measured gust drives the reference model
    through the plant's B_g, and it carries the plant's springs, rom.nl.
    """
    A = np.asarray(rom.A, dtype=float)
    blocks = _modal_blocks(A)
    osc = [b for b in blocks if b[1] == 2]

    if damping_spec is None:
        spec = {}
    elif np.isscalar(damping_spec):
        spec = {i: float(damping_spec) for i in range(len(osc))}
    else:
        spec = dict(damping_spec)
        bad = [i for i in spec if not 0 <= i < len(osc)]
        if bad:
            raise MracError(f"damping spec names unknown oscillatory mode(s) {bad}")

    A_m = A.copy()
    for ordinal, (start, _) in enumerate(osc):
        sigma = -A[start, start]
        omega = abs(A[start, start + 1])
        entry = spec.get(ordinal)
        if entry is None:
            sigma_m, omega_m = sigma, omega
        elif np.isscalar(entry):
            factor = float(entry)
            if factor < 1.0:
                raise MracError(f"damping factor {factor} < 1 for mode {ordinal} reduces damping")
            sigma_m, omega_m = factor * sigma, omega
        else:
            sigma_m, omega_m = float(entry[0]), float(entry[1])
        A_m[start, start] = A_m[start + 1, start + 1] = -sigma_m
        A_m[start, start + 1] = np.sign(A[start, start + 1]) * omega_m
        A_m[start + 1, start] = -A_m[start, start + 1]

    eigs = np.linalg.eigvals(A_m)
    if eigs.real.max() >= 0.0:
        worst = eigs[np.argmax(eigs.real)]
        raise MracError(f"reference model is not Hurwitz: eigenvalue {worst}")

    return ReferenceModel(A_m=A_m, nl=rom.nl)


# ---------------------------------------------------------------------------
# model matching


@dataclass(frozen=True)
class MatchingResult:
    Kx: np.ndarray  # (m, n)
    residual_A: float  # ||A + B_c Kx - A_m||_F
    feasible: bool

    @property
    def theta_star(self) -> np.ndarray:
        """Ideal gain matrix in the n x m storage convention."""
        return self.Kx.T


def ideal_gains(A, B_c, A_m, tol: float = 1e-8) -> MatchingResult:
    """Least-squares model-matching gain: A + B_c Kx = A_m.

    Exact when the matching condition holds; otherwise the normal-equations
    minimiser with the residual norm reported."""
    A = np.asarray(A, dtype=float)
    B_c = np.atleast_2d(np.asarray(B_c, dtype=float))
    if B_c.shape[0] == 1 and A.shape[0] > 1:
        B_c = B_c.T
    A_m = np.asarray(A_m, dtype=float)
    if np.linalg.matrix_rank(B_c) == 0:
        raise MracError("B_c is identically zero; matching gains undefined")

    Kx, _, _, _ = np.linalg.lstsq(B_c, A_m - A, rcond=None)
    res_A = float(np.linalg.norm(A + B_c @ Kx - A_m))
    scale = max(1.0, float(np.linalg.norm(A_m)))
    return MatchingResult(Kx=Kx, residual_A=res_A, feasible=res_A <= tol * scale)


# ---------------------------------------------------------------------------
# Lyapunov design


@dataclass(frozen=True)
class LyapunovDesign:
    """Weighting Q, Lyapunov solution P and adaptation rate gamma > 0, from
    which the adaptation-rate matrix Gamma = gamma Q and its inverse follow."""

    Q: np.ndarray  # (n, n) SPD
    P: np.ndarray  # (n, n) SPD
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise MracError("gamma must be positive")
        if not np.allclose(self.Q, self.Q.T, atol=1e-10):
            raise MracError("Q must be symmetric")
        if np.linalg.eigvalsh(self.Q).min() <= 0.0:
            raise MracError("Q must be positive-definite")

    @property
    def Gamma(self) -> np.ndarray:
        return self.gamma * self.Q

    @property
    def Gamma_inv(self) -> np.ndarray:
        return np.linalg.inv(self.Gamma)

    @property
    def lipschitz_bound(self) -> float:
        """Stability margin L_F = lambda_min(Q) / (2 ||P||_2)."""
        return float(np.linalg.eigvalsh(self.Q).min()) / (
            2.0 * float(np.linalg.norm(self.P, 2))
        )


def make_design(A_m: np.ndarray, Q: np.ndarray, gamma: float, m: int) -> LyapunovDesign:
    """Solve A_m^T P + P A_m = -Q for the design of rate gamma.

    ``m`` (the number of control inputs) does not enter the design; it is
    kept because the benchmark's checks (``perfbench/checks.py``) pass it."""
    Q = np.asarray(Q, dtype=float)
    return LyapunovDesign(Q=Q, P=solve_lyapunov(A_m, Q), gamma=gamma)


# ---------------------------------------------------------------------------
# adaptation law


def theta_rate(e, phi, Gamma, PB) -> np.ndarray:
    """Adaptation law theta_dot = -Gamma phi e^T P B_c, given PB = P B_c and
    the regressor phi = x.

    Every argument may carry a leading lane axis, so that lanes adapt in one
    call on errors e (B, n) and regressors phi (B, n), each lane at its own
    rate, Gamma = gamma_b Q (B, n, n), and with the P B_c (n, m) they share."""
    return -Gamma @ (phi[..., :, None] * (e[..., None, :] @ PB))


# ---------------------------------------------------------------------------
# minimum-phase pre-correction


@dataclass(frozen=True)
class ZeroCorrectionReport:
    zeros_before: np.ndarray
    zeros_after: np.ndarray
    poles_before: np.ndarray
    poles_after: np.ndarray
    corrected: bool


def _mirror(vals: np.ndarray, tol: float = _REAL_TOL) -> np.ndarray:
    """Reflect right-half-plane values about the imaginary axis."""
    out = np.array(vals, dtype=complex)
    rhp = out.real > tol
    out[rhp] = -np.conj(out[rhp])
    return out


def minimum_phase_correct(A, B_c, C_out, tol: float = _REAL_TOL):
    """Pre-correction for non-minimum-phase SISO channels.

    Unstable open-loop poles are relocated by a Bass-Gura state-feedback
    pre-gain K0 (mirror map about the imaginary axis).  Transmission zeros
    are invariant under state feedback, so right-half-plane zeros are instead
    reflected by reconstructing the output map in controllable canonical
    coordinates, where the output row holds the numerator-polynomial
    coefficients directly.  Returns (K0, C_corrected, report).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(B_c, dtype=float).reshape(-1)
    c = np.asarray(C_out, dtype=float).reshape(-1)
    n = A.shape[0]
    if b.shape[0] != n or c.shape[0] != n:
        raise MracError("minimum-phase correction expects a SISO channel")

    poles = np.linalg.eigvals(A)
    zeros = transmission_zeros(A, b, c[None, :])

    # pole pre-stabilisation via Bass-Gura (u = +K0 x convention)
    if poles.real.max() > tol:
        desired = np.real_if_close(np.poly(_mirror(poles, tol))).real
        K0 = -bass_gura_place(A, b, desired)[None, :]
    else:
        K0 = np.zeros((1, n))
    A_corr = A + np.outer(b, K0[0])
    poles_after = np.linalg.eigvals(A_corr)

    if zeros.size == 0 or zeros.real.max() <= tol:
        report = ZeroCorrectionReport(zeros, zeros.copy(), poles, poles_after, False)
        return K0, c[None, :].copy(), report

    # numerator reconstruction in controllable canonical coordinates
    ctrb = controllability_matrix(A, b)
    if np.linalg.matrix_rank(ctrb) < n:
        raise NumericsError("zero relocation infeasible: (A, B_c) uncontrollable")
    a = np.poly(A)
    Ac = np.zeros((n, n))
    Ac[:-1, 1:] = np.eye(n - 1)
    Ac[-1, :] = -a[1:][::-1]
    bc = np.zeros(n)
    bc[-1] = 1.0
    T = controllability_matrix(Ac, bc) @ np.linalg.inv(ctrb)  # x_c = T x
    c_canon = np.linalg.solve(T.T, c)  # numerator coeffs, ascending powers

    num = c_canon[::-1]  # descending
    lead = num[np.argmax(np.abs(num) > 1e-12 * max(1.0, np.abs(num).max()))]
    new_num = lead * np.real_if_close(np.poly(_mirror(zeros, tol))).real
    c_canon_new = np.zeros(n)
    c_canon_new[: new_num.shape[0]] = new_num[::-1]
    c_new = T.T @ c_canon_new

    zeros_after = transmission_zeros(A_corr, b, c_new[None, :])
    report = ZeroCorrectionReport(zeros, zeros_after, poles, poles_after, True)
    return K0, c_new[None, :], report


# ---------------------------------------------------------------------------
# Lipschitz monitor


@dataclass(frozen=True)
class LipschitzMonitor:
    L_F: float
    max_ratio: float
    violation: bool
    first_violation_time: float | None
    n_evaluated: int
    n_skipped: int
    ratios: np.ndarray = field(repr=False, compare=False)  # NaN where skipped


def lipschitz_ratio_series(rom, x_traj, xm_traj) -> np.ndarray:
    """Per-step ||F_NR(x) - F_NR(x_m)|| / ||x - x_m||; NaN where the ratio is
    undefined (||x - x_m|| < _SKIP_TOL)."""
    x_traj = np.atleast_2d(np.asarray(x_traj, dtype=float))
    xm_traj = np.atleast_2d(np.asarray(xm_traj, dtype=float))
    T = x_traj.shape[0]
    F = rom.eval_f_nr(np.concatenate([x_traj, xm_traj]))
    de = np.linalg.norm(x_traj - xm_traj, axis=1)
    dF = np.linalg.norm(F[:T] - F[T:], axis=1)
    out = np.full(T, np.nan)
    np.divide(dF, de, out=out, where=de >= _SKIP_TOL)
    return out


def lipschitz_margin(design: LyapunovDesign, rom, time, x_traj, xm_traj) -> LipschitzMonitor:
    """Evaluate ||F_NR(x) - F_NR(x_m)|| / ||x - x_m|| along a trajectory pair
    and compare the running max against the bound L_F = lambda_min(Q)/(2||P||).

    Steps with ||x - x_m|| < _SKIP_TOL are skipped (ratio undefined); the
    monitor carries the whole ratio series."""
    L_F = design.lipschitz_bound
    time = np.asarray(time, dtype=float)
    ratios = lipschitz_ratio_series(rom, x_traj, xm_traj)
    defined = np.isfinite(ratios)
    n_eval = int(defined.sum())
    n_skip = ratios.shape[0] - n_eval
    max_ratio = float(ratios[defined].max()) if n_eval else 0.0
    first = None
    over = defined & (ratios > L_F)
    if over.any():
        first = float(time[np.argmax(over)])
    return LipschitzMonitor(
        L_F=L_F,
        max_ratio=float(max_ratio),
        violation=first is not None,
        first_violation_time=first,
        n_evaluated=n_eval,
        n_skipped=n_skip,
        ratios=ratios,
    )


# ---------------------------------------------------------------------------
# Lyapunov certificate


@dataclass(frozen=True)
class CertificateResult:
    time: np.ndarray
    V: np.ndarray
    passed: bool
    max_increase: float  # largest per-step V increment
    tolerance: float
    includes_theta: bool


def lyapunov_certificate(time, e_traj, design: LyapunovDesign,
                         theta_traj=None, theta_star=None) -> CertificateResult:
    """V(t) = e^T P e + tr(theta_tilde^T Gamma^{-1} theta_tilde) with a
    non-increase verdict (per-step slack _CERT_EPS * V(0), or _CERT_EPS when
    V(0) = 0).

    When theta_star is unknown the caller must omit the gain term by passing
    theta_traj=None (error-only mode); requesting the full V without
    theta_star is an error."""
    time = np.asarray(time, dtype=float)
    e_traj = np.atleast_2d(np.asarray(e_traj, dtype=float))
    include_theta = theta_traj is not None
    if include_theta and theta_star is None:
        raise MracError(
            "theta_star unknown: pass theta_traj=None for the error-only certificate"
        )
    V = np.einsum("ti,ij,tj->t", e_traj, design.P, e_traj)
    if include_theta:
        td = np.asarray(theta_traj, dtype=float) - np.asarray(theta_star, dtype=float)
        V = V + np.einsum("tik,ij,tjk->t", td, design.Gamma_inv, td)
    tol = _CERT_EPS * V[0] if V[0] > 0 else _CERT_EPS
    dV = np.diff(V)
    max_inc = float(dV.max()) if dV.size else 0.0
    return CertificateResult(
        time=time,
        V=V,
        passed=bool(max_inc <= tol),
        max_increase=max_inc,
        tolerance=float(tol),
        includes_theta=include_theta,
    )
