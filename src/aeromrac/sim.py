"""Fixed-step closed-loop and open-loop time integration.

The closed loop advances the augmented state (x, x_m, theta) as one coupled
ODE under classical fourth-order Runge-Kutta, so the adaptation law is
integrated with the same stages as the plant and reference states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .mrac import ControllerState, LyapunovDesign, ReferenceModel, theta_rate

DIVERGENCE_DEFAULT = 1e8


class SimulationError(RuntimeError):
    """Raised on divergence; carries the truncated trace in ``trace``."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SimulationConfig:
    dt: float
    duration: float
    plant_nonlinear: bool = True
    reference_nonlinear: bool = True
    log_stride: int = 1
    divergence_threshold: float = DIVERGENCE_DEFAULT

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must be at least one step")
        if self.log_stride < 1:
            raise ValueError("log_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True)
class SimulationTrace:
    """Write-once log of a run; all arrays share the time grid."""

    time: np.ndarray  # (T,)
    x: np.ndarray  # (T, n)
    outputs: np.ndarray  # (T, q)
    u_d: np.ndarray  # (T, p)
    output_labels: tuple[str, ...]
    x_m: np.ndarray | None = None  # (T, n) closed loop only
    e: np.ndarray | None = None  # (T, n)
    theta: np.ndarray | None = None  # (T, n+m, m)
    u_c: np.ndarray | None = None  # (T, m)
    diverged: bool = False

    @property
    def closed_loop(self) -> bool:
        return self.x_m is not None


def _check_dt(config: SimulationConfig, A: np.ndarray):
    lam = np.abs(np.linalg.eigvals(A)).max()
    if lam > 0 and config.dt > 0.1 / lam:
        warnings.warn(
            f"dt = {config.dt} exceeds stability heuristic 0.1/max|lambda| = "
            f"{0.1 / lam:.3e}",
            stacklevel=3,
        )


def integrate_closed_loop(
    model,
    reference: ReferenceModel,
    design: LyapunovDesign,
    controller: ControllerState,
    gust,
    config: SimulationConfig,
    r_fn=None,
    x0: np.ndarray | None = None,
    xm0: np.ndarray | None = None,
) -> SimulationTrace:
    """Advance plant, reference model and adaptive gains as one RK4 system.

    The measured gust drives both the plant and the reference model; the
    nonlinear residual enters both (Eq. 4/5 structure) unless disabled via the
    config flags.  r defaults to zero (gust-load-alleviation regulation)."""
    n = model.A.shape[0]
    m = model.B_c.shape[1]
    p = model.B_g.shape[1]
    if reference.A_m.shape != (n, n):
        raise ValueError("reference model dimension does not match the plant")
    _check_dt(config, model.A)

    A_m, B_m, B_g = reference.A_m, reference.B_m, model.B_g
    K0 = controller.K0
    zero_r = np.zeros(m)
    ref_nl = config.reference_nonlinear and config.plant_nonlinear

    dt = config.dt
    steps = config.n_steps
    # gust and command samples on the half-step RK4 grid
    t_half = 0.5 * dt * np.arange(2 * steps + 1)
    u_d_grid = np.atleast_2d(np.asarray(gust(t_half), dtype=float))
    if u_d_grid.shape[0] != t_half.shape[0]:
        u_d_grid = u_d_grid.T
    if u_d_grid.shape[1] == 1 and p > 1:
        u_d_grid = np.repeat(u_d_grid, p, axis=1)

    def deriv(j, t, x, xm, theta):
        u_d = u_d_grid[j]
        r = zero_r if r_fn is None else np.atleast_1d(r_fn(t))
        phi = np.concatenate([x, r])
        u_c = theta.T @ phi + K0 @ x
        dx = model.rhs(x, u_c, u_d, nonlinear=config.plant_nonlinear)
        dxm = A_m @ xm + B_m @ r + B_g @ u_d
        if ref_nl:
            dxm = dxm + model.eval_f_nr(xm)
        dtheta = theta_rate(theta, x - xm, phi, design, model.B_c)
        return dx, dxm, dtheta, u_c

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    xm = np.zeros(n) if xm0 is None else np.array(xm0, dtype=float)
    theta = np.array(controller.theta, dtype=float)

    log_t, log_x, log_xm, log_th, log_uc, log_ud = [], [], [], [], [], []

    def log(k):
        t = k * dt
        r = zero_r if r_fn is None else np.atleast_1d(r_fn(t))
        u_c = theta.T @ np.concatenate([x, r]) + K0 @ x
        log_t.append(t)
        log_x.append(x.copy())
        log_xm.append(xm.copy())
        log_th.append(theta.copy())
        log_uc.append(u_c)
        log_ud.append(u_d_grid[2 * k])

    def finish(diverged):
        t = np.array(log_t)
        xs = np.array(log_x)
        xms = np.array(log_xm)
        return SimulationTrace(
            time=t, x=xs, outputs=xs @ model.C_out.T, u_d=np.array(log_ud),
            output_labels=model.output_labels, x_m=xms, e=xs - xms,
            theta=np.array(log_th), u_c=np.array(log_uc), diverged=diverged,
        )

    log(0)
    for k in range(steps):
        t = k * dt
        j = 2 * k
        k1 = deriv(j, t, x, xm, theta)[:3]
        k2 = deriv(j + 1, t + 0.5 * dt, x + 0.5 * dt * k1[0],
                   xm + 0.5 * dt * k1[1], theta + 0.5 * dt * k1[2])[:3]
        k3 = deriv(j + 1, t + 0.5 * dt, x + 0.5 * dt * k2[0],
                   xm + 0.5 * dt * k2[1], theta + 0.5 * dt * k2[2])[:3]
        k4 = deriv(j + 2, t + dt, x + dt * k3[0], xm + dt * k3[1],
                   theta + dt * k3[2])[:3]
        x = x + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        xm = xm + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        theta = theta + (dt / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        norm = max(np.abs(x).max(), np.abs(theta).max(), np.abs(xm).max())
        if not np.isfinite(norm) or norm > config.divergence_threshold:
            if np.isfinite(norm):
                log(k + 1)
            raise SimulationError(
                f"state diverged at t = {(k + 1) * dt:.6g} "
                f"(norm {norm:.3e} > {config.divergence_threshold:.1e})",
                trace=finish(True),
            )
        if (k + 1) % config.log_stride == 0 or k + 1 == steps:
            log(k + 1)

    controller.theta = theta
    return finish(False)


def integrate_open_loop(model, gust, config: SimulationConfig,
                        x0: np.ndarray | None = None) -> SimulationTrace:
    """Uncontrolled gust response under the same RK4 scheme."""
    n = model.A.shape[0]
    m = model.B_c.shape[1]
    p = model.B_g.shape[1]
    _check_dt(config, model.A)
    u0 = np.zeros(m)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    dt = config.dt
    steps = config.n_steps
    t_half = 0.5 * dt * np.arange(2 * steps + 1)
    u_d_grid = np.atleast_2d(np.asarray(gust(t_half), dtype=float))
    if u_d_grid.shape[0] != t_half.shape[0]:
        u_d_grid = u_d_grid.T
    if u_d_grid.shape[1] == 1 and p > 1:
        u_d_grid = np.repeat(u_d_grid, p, axis=1)
    log_t, log_x, log_ud = [], [], []

    def log(k):
        log_t.append(k * dt)
        log_x.append(x.copy())
        log_ud.append(u_d_grid[2 * k])

    def finish(diverged):
        t = np.array(log_t)
        xs = np.array(log_x)
        return SimulationTrace(
            time=t, x=xs, outputs=xs @ model.C_out.T, u_d=np.array(log_ud),
            output_labels=model.output_labels, diverged=diverged,
        )

    def f(j, x):
        return model.rhs(x, u0, u_d_grid[j], nonlinear=config.plant_nonlinear)

    log(0)
    for k in range(steps):
        j = 2 * k
        k1 = f(j, x)
        k2 = f(j + 1, x + 0.5 * dt * k1)
        k3 = f(j + 1, x + 0.5 * dt * k2)
        k4 = f(j + 2, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        norm = np.abs(x).max()
        if not np.isfinite(norm) or norm > config.divergence_threshold:
            raise SimulationError(
                f"state diverged at t = {(k + 1) * dt:.6g}", trace=finish(True)
            )
        if (k + 1) % config.log_stride == 0 or k + 1 == steps:
            log(k + 1)
    return finish(False)


@dataclass(frozen=True)
class GlaMetrics:
    """Gust-load-alleviation summary for an open/closed-loop trace pair."""

    output: str
    peak_open: float
    peak_closed: float
    reduction_percent: float
    max_flap_cmd: float  # radians, peak |u_c|
    rms_open: float
    rms_closed: float
    settled: bool
    settle_ratio: float  # terminal ||e|| over peak ||e||


def compute_metrics(open_trace: SimulationTrace, closed_trace: SimulationTrace,
                    output: str | int = 0,
                    settle_tol: float = 1e-4) -> GlaMetrics:
    if open_trace.time.shape != closed_trace.time.shape or not np.array_equal(
        open_trace.time, closed_trace.time
    ):
        raise ValueError("open- and closed-loop traces do not share a time grid")
    if isinstance(output, str):
        idx = closed_trace.output_labels.index(output)
    else:
        idx = int(output)
    label = closed_trace.output_labels[idx]

    y_ol = open_trace.outputs[:, idx]
    y_cl = closed_trace.outputs[:, idx]
    peak_ol = float(np.abs(y_ol).max())
    peak_cl = float(np.abs(y_cl).max())
    reduction = 100.0 * (1.0 - peak_cl / peak_ol) if peak_ol > 0 else 0.0

    e_norm = np.linalg.norm(closed_trace.e, axis=1) if closed_trace.e is not None else None
    if e_norm is not None and e_norm.max() > 0:
        ratio = float(e_norm[-1] / e_norm.max())
    else:
        ratio = 0.0
    return GlaMetrics(
        output=label,
        peak_open=peak_ol,
        peak_closed=peak_cl,
        reduction_percent=float(reduction),
        max_flap_cmd=float(np.abs(closed_trace.u_c).max()) if closed_trace.u_c is not None else 0.0,
        rms_open=float(np.sqrt(np.mean(y_ol**2))),
        rms_closed=float(np.sqrt(np.mean(y_cl**2))),
        settled=ratio <= settle_tol,
        settle_ratio=ratio,
    )
