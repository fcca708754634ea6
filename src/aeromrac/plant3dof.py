"""Pitch-plunge-flap typical-section aeroelastic model.

Builds the 14-state full-order model: 3 structural positions, 3 structural
velocities, 6 circulatory lag states (two exponential terms per degree of
freedom, Jones' rational approximation of the indicial lift build-up) and 2
gust lag states (sharp-edged-gust build-up filter).  Cubic hardening springs
act on pitch and plunge.

Everything is nondimensional; the independent variable is reduced time
(semichords travelled), so the freestream speed enters only through the
reduced velocity U* that scales the structural stiffness and damping.
Generalised coordinates are q = (xi, alpha, beta) = (plunge/semichord, pitch,
flap rotation).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .romgen import Plant, PolyNonlinearity

# Jones' two-term exponential approximation of the indicial lift function:
# phi(tau) = 1 - PSI1 exp(-EPS1 tau) - PSI2 exp(-EPS2 tau)
WAGNER_WEIGHTS = (0.165, 0.335)
WAGNER_RATES = (0.0455, 0.3)

# Sharp-edged-gust build-up filter: single exponential rate, carried by two
# lag states (lift and moment channels) so the gust block contributes a
# repeated real eigenvalue at KUSSNER_RATE.
KUSSNER_RATE = -0.1393
KUSSNER_WEIGHTS = (0.5, 0.5)


class PlantError(ValueError):
    """Raised for invalid aerofoil parameter sets."""


@dataclass(frozen=True)
class AerofoilParams:
    """Nondimensional typical-section parameters (semichord convention)."""

    U_star: float = 4.5  # reduced velocity U / (b * omega_alpha)
    mu: float = 300.0  # mass ratio m / (pi rho b^2)
    a: float = -0.5  # elastic axis aft of midchord, semichords
    c_h: float = 0.5  # flap hinge aft of midchord, semichords
    x_alpha: float = 0.25  # static unbalance, wing
    x_beta: float = 0.0125  # static unbalance, flap
    r_alpha2: float = 0.5  # radius of gyration squared, wing
    r_beta2: float = 0.0125  # radius of gyration squared, flap
    omega_xi: float = 0.3  # plunge/pitch frequency ratio
    omega_beta: float = 3.0  # flap/pitch frequency ratio
    zeta_xi: float = 0.0
    zeta_alpha: float = 0.0
    zeta_beta: float = 0.0
    K_alpha1: float = 1.0
    K_alpha3: float = 3.0  # cubic hardening, pitch
    K_xi1: float = 1.0
    K_xi3: float = 1.0  # cubic hardening, plunge
    wagner_weights: tuple[float, float] = WAGNER_WEIGHTS
    wagner_rates: tuple[float, float] = WAGNER_RATES
    kussner_rate: float = KUSSNER_RATE
    kussner_weights: tuple[float, float] = KUSSNER_WEIGHTS

    def __post_init__(self):
        if self.U_star <= 0:
            raise PlantError("U_star must be positive")
        if self.mu <= 0:
            raise PlantError("mass ratio must be positive")
        if self.K_alpha3 < 0 or self.K_xi3 < 0:
            raise PlantError("cubic stiffness coefficients must be hardening (>= 0)")
        if self.kussner_rate >= 0 or any(r <= 0 for r in self.wagner_rates):
            raise PlantError("lag rates must give strictly stable lag dynamics")


def load_params(path: str | Path) -> AerofoilParams:
    """Read an aerofoil parameter file (YAML, nested sections)."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    sec = raw.get("section", {})
    stiff = raw.get("stiffness", {})
    aero = raw.get("aerodynamics", {})
    kw = {}
    kw.update(sec)
    kw.update(stiff)
    for key in ("wagner_weights", "wagner_rates", "kussner_weights"):
        if key in aero:
            kw[key] = tuple(aero[key])
    if "kussner_rate" in aero:
        kw["kussner_rate"] = aero["kussner_rate"]
    if "U_star" in raw:
        kw["U_star"] = raw["U_star"]
    return AerofoilParams(**kw)


def default_params_path() -> Path:
    return Path(__file__).parent / "data" / "aerofoil_default.yaml"


def default_params() -> AerofoilParams:
    return load_params(default_params_path())


def theodorsen_constants(a: float, c_h: float) -> dict[str, float]:
    """Geometric constants of thin-aerofoil theory for a flapped section."""
    c = c_h
    s = np.sqrt(1.0 - c * c)
    mu = np.arccos(c)
    T = {}
    T["T1"] = -(1.0 / 3.0) * s * (2.0 + c * c) + c * mu
    T["T3"] = -(1.0 / 8.0 + c * c) * mu**2 + 0.25 * c * s * mu * (7.0 + 2.0 * c * c) - (1.0 / 8.0) * (
        1.0 - c * c
    ) * (5.0 * c * c + 4.0)
    T["T4"] = -mu + c * s
    T["T5"] = -(1.0 - c * c) - mu**2 + 2.0 * c * s * mu
    T["T7"] = -(1.0 / 8.0 + c * c) * mu + (1.0 / 8.0) * c * s * (7.0 + 2.0 * c * c)
    T["T8"] = -(1.0 / 3.0) * s * (2.0 * c * c + 1.0) + c * mu
    T["T9"] = 0.5 * ((1.0 / 3.0) * s**3 + a * T["T4"])
    T["T10"] = s + mu
    T["T11"] = mu * (1.0 - 2.0 * c) + s * (2.0 - c)
    T["T12"] = s * (2.0 + c) - mu * (2.0 * c + 1.0)
    T["T13"] = 0.5 * (-T["T7"] - (c - a) * T["T1"])
    return T


def wagner_function(tau: np.ndarray, params: AerofoilParams) -> np.ndarray:
    p1, p2 = params.wagner_weights
    e1, e2 = params.wagner_rates
    tau = np.asarray(tau, dtype=float)
    return 1.0 - p1 * np.exp(-e1 * tau) - p2 * np.exp(-e2 * tau)


def _aero_matrices(params: AerofoilParams):
    """Noncirculatory/circulatory aerodynamic operators (reduced time, b=1)."""
    a, c = params.a, params.c_h
    T = theodorsen_constants(a, c)
    T1, T3, T4, T5 = T["T1"], T["T3"], T["T4"], T["T5"]
    T7, T8, T9, T10 = T["T7"], T["T8"], T["T9"], T["T10"]
    T11, T12, T13 = T["T11"], T["T12"], T["T13"]
    pi = np.pi
    p1, p2 = params.wagner_weights
    e1, e2 = params.wagner_rates

    # apparent-mass operator
    B = np.array(
        [
            [pi, -pi * a, -T1],
            [-pi * a, pi * (1.0 / 8.0 + a * a), -(T7 + (c - a) * T1)],
            [-T1, 2.0 * T13, -T3 / pi],
        ]
    )

    # quasi-steady damping split: D1 noncirculatory, D2 circulatory
    D1 = np.array(
        [
            [0.0, pi, -T4],
            [0.0, pi * (0.5 - a), T1 - T8 - (c - a) * T4 + 0.5 * T11],
            [0.0, -2.0 * T9 - T1 + T4 * (a - 0.5), -T4 * T11 / (2.0 * pi)],
        ]
    )
    D2 = np.array(
        [
            [2.0 * pi, 2.0 * pi * (0.5 - a), T11],
            [-2.0 * pi * (a + 0.5), -2.0 * pi * (a + 0.5) * (0.5 - a), -(a + 0.5) * T11],
            [T12, T12 * (0.5 - a), T12 * T11 / (2.0 * pi)],
        ]
    )
    D = D1 + (1.0 - p1 - p2) * D2

    # quasi-steady stiffness split
    F1 = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, T4 + T10],
            [0.0, 0.0, (T5 - T4 * T10) / pi],
        ]
    )
    F2 = np.array(
        [
            [0.0, 2.0 * pi, 2.0 * T10],
            [0.0, -2.0 * pi * (a + 0.5), -2.0 * (a + 0.5) * T10],
            [0.0, T12, T12 * T10 / pi],
        ]
    )
    F3 = D2
    F = F1 + (1.0 - p1 - p2) * F2 + (p1 * e1 + p2 * e2) * F3

    # lag-state influence on the loads (3 x 6): columns ordered
    # (xi,e1), (xi,e2), (alpha,e1), (alpha,e2), (beta,e1), (beta,e2)
    w0 = np.array(
        [
            -p1 * e1**2,
            -p2 * e2**2,
            p1 * e1 * (1.0 - e1 * (0.5 - a)),
            p2 * e2 * (1.0 - e2 * (0.5 - a)),
            p1 * e1 * (T10 - e1 * T11 / 2.0) / pi,
            p2 * e2 * (T10 - e2 * T11 / 2.0) / pi,
        ]
    )
    W = np.vstack([w0 * 2.0 * pi, w0 * (-2.0 * pi * (a + 0.5)), w0 * T12])

    # lag-state dynamics: lam_dot = W1 q - E lam
    W1 = np.array(
        [
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
        ]
    )
    E = np.diag([e1, e2, e1, e2, e1, e2])

    # circulatory load distribution (per unit effective incidence)
    lift_dist = np.array([2.0 * pi, -2.0 * pi * (a + 0.5), T12])
    return B, D, F, W, W1, E, lift_dist


def _structural_matrices(params: AerofoilParams):
    p = params
    coup = p.r_beta2 + (p.c_h - p.a) * p.x_beta
    Ms = np.array(
        [
            [1.0, p.x_alpha, p.x_beta],
            [p.x_alpha, p.r_alpha2, coup],
            [p.x_beta, coup, p.r_beta2],
        ]
    )
    inv_U2 = 1.0 / p.U_star**2
    Ks = inv_U2 * np.diag(
        [
            p.K_xi1 * p.omega_xi**2,
            p.K_alpha1 * p.r_alpha2,
            p.r_beta2 * p.omega_beta**2,
        ]
    )
    inv_U = 1.0 / p.U_star
    Cs = inv_U * np.diag(
        [
            2.0 * p.zeta_xi * p.omega_xi,
            2.0 * p.zeta_alpha * p.r_alpha2,
            2.0 * p.zeta_beta * p.r_beta2 * p.omega_beta,
        ]
    )
    return Ms, Cs, Ks


@dataclass(frozen=True, kw_only=True)
class FullOrderModel(Plant):
    """First-order 14-state model: w = (q, q_dot, lag states, gust states).

    The cubic springs act on q = w[:3] and enter the momentum rows through
    -M_inv."""

    params: AerofoilParams
    M_inv: np.ndarray  # (3, 3) inverse aeroelastic mass matrix

    # Full-order names of the plant fields, still read by perfbench/checks.py.
    A_f = property(lambda self: self.A)
    B_gf = property(lambda self: self.B_g)
    cubic_coeffs = property(lambda self: self.nl.cubic)


def assemble_fom(params: AerofoilParams) -> FullOrderModel:
    """Assemble the 14-state model at the parameter set's reduced velocity."""
    Ms, Cs, Ks = _structural_matrices(params)
    Ba, Da, Fa, W, W1, E, lift_dist = _aero_matrices(params)
    ca = 1.0 / (np.pi * params.mu)

    M = Ms + ca * Ba
    cond = np.linalg.cond(M)
    if cond > 1e12:
        raise PlantError(f"aeroelastic mass matrix is singular (cond = {cond:.2e})")
    M_inv = np.linalg.inv(M)
    D = Cs + ca * Da
    K = Ks + ca * Fa

    eps3 = params.kussner_rate
    kw1, kw2 = params.kussner_weights
    # gust build-up: g_i' = eps3 g_i + w_g; effective incidence -eps3 (kw1 g1 + kw2 g2)
    G = (-eps3) * ca * np.outer(lift_dist, [kw1, kw2])

    N = 14
    A = np.zeros((N, N))
    A[0:3, 3:6] = np.eye(3)
    A[3:6, 0:3] = -M_inv @ K
    A[3:6, 3:6] = -M_inv @ D
    A[3:6, 6:12] = -M_inv @ (ca * W)
    A[3:6, 12:14] = -M_inv @ G
    A[6:12, 0:3] = W1
    A[6:12, 6:12] = -E
    A[12:14, 12:14] = eps3 * np.eye(2)

    # control: commanded flap rotation through the flap actuation stiffness
    k_flap = params.r_beta2 * params.omega_beta**2 / params.U_star**2
    B_c = np.zeros((N, 1))
    B_c[3:6, 0] = M_inv @ np.array([0.0, 0.0, k_flap])

    B_g = np.zeros((N, 1))
    B_g[12, 0] = 1.0
    B_g[13, 0] = 1.0

    cubic = np.array(
        [
            params.K_xi3 * params.omega_xi**2 / params.U_star**2,
            params.K_alpha3 * params.r_alpha2 / params.U_star**2,
            0.0,
        ]
    )

    G_nl = np.zeros((N, 3))
    G_nl[3:6] = -M_inv
    return FullOrderModel(
        A=A,
        B_c=B_c,
        B_g=B_g,
        C_out=np.eye(N)[[1, 0, 2]],  # (pitch, plunge, flap) = (alpha, xi, beta)
        output_labels=("pitch", "plunge", "flap"),
        nl=PolyNonlinearity(G_nl, np.eye(N)[:3], np.zeros(3), cubic),
        params=params,
        M_inv=M_inv,
    )


def flutter_margin(params: AerofoilParams, u_grid: np.ndarray | None = None):
    """Largest real part of the linear spectrum over a reduced-velocity grid;
    returns (grid, max Re lambda per point)."""
    if u_grid is None:
        u_grid = np.linspace(1.0, 12.0, 45)
    worst = np.empty_like(u_grid)
    for i, u in enumerate(u_grid):
        p = AerofoilParams(**{**params.__dict__, "U_star": float(u)})
        fom = assemble_fom(p)
        worst[i] = np.linalg.eigvals(fom.A).real.max()
    return u_grid, worst
