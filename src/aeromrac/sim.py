"""Fixed-step closed-loop and open-loop time integration.

One classical fourth-order Runge-Kutta kernel advances every run.  The
closed loop packs the augmented state as one flat vector [x, x_m, vec theta],
so the adaptation law is integrated with the same stages as the plant and
reference states.  The kernel takes one state (N,) or a batch of B lanes as
rows (B, N); a gamma sweep runs its points as the lanes of one batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .mrac import ControllerState, LyapunovDesign, ReferenceModel, theta_rate

DIVERGENCE_DEFAULT = 1e8
# Log memory one closed-loop batch may hold; it sets the lanes per batch.
BATCH_LOG_BYTES = 64 * 2**20


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


def _gust_grid(gust, config: SimulationConfig, p: int) -> np.ndarray:
    """Gust samples (2 n_steps + 1, p) on the half-step RK4 grid."""
    t_half = 0.5 * config.dt * np.arange(2 * config.n_steps + 1)
    u_d = np.atleast_2d(np.asarray(gust(t_half), dtype=float))
    if u_d.shape[0] != t_half.shape[0]:
        u_d = u_d.T
    if u_d.shape[1] == 1 and p > 1:
        u_d = np.repeat(u_d, p, axis=1)
    return u_d


def _rk4(f, y, config: SimulationConfig):
    """Classical RK4 of y' = f(j, y), with j indexing the half-step grid, on
    one state (N,) or a batch of lanes (B, N).

    Returns one (steps, states, error) per lane: the logged step numbers
    (T,), the logged states (T, N) and None; or, for a lane whose state left
    the divergence bound, its log up to that step, the diverged state
    included when finite, and the message.  The other lanes run on."""
    dt, steps, stride = config.dt, config.n_steps, config.log_stride
    threshold = config.divergence_threshold
    logged = np.arange(0, steps + 1, stride)
    if logged[-1] != steps:
        logged = np.append(logged, steps)
    log = np.empty(logged.shape + y.shape)
    lanes = log.reshape(logged.shape[0], -1, y.shape[-1])  # (T, B, N) view
    alive = np.ones(lanes.shape[1], dtype=bool)
    failed = {}  # lane -> (steps, states, message)
    log[0] = y
    row = 1
    h2, h6 = 0.5 * dt, dt / 6.0
    for k in range(steps):
        j = 2 * k
        k1 = f(j, y)
        k2 = f(j + 1, y + h2 * k1)
        k3 = f(j + 1, y + h2 * k2)
        k4 = f(j + 2, y + dt * k3)
        y = y + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        norm = np.abs(y).max()
        if not norm <= threshold:
            ys = y.reshape(-1, y.shape[-1])
            lane_norm = np.abs(ys).max(axis=1)
            for b in np.flatnonzero(alive & ~(lane_norm <= threshold)):
                states = lanes[:row, b]
                done = logged[:row]
                if np.isfinite(lane_norm[b]):
                    states = np.vstack([states, ys[b]])
                    done = np.append(done, k + 1)
                failed[b] = (done, states, (
                    f"state diverged at t = {(k + 1) * dt:.6g} "
                    f"(norm {lane_norm[b]:.3e} > {threshold:.1e})"))
                alive[b] = False
            if not alive.any():
                break
            # a failed lane restarts from zero so that its arithmetic stays
            # finite; its log ends where it failed
            ys[~alive] = 0.0
        if (k + 1) % stride == 0 or k + 1 == steps:
            log[row] = y
            row += 1
    return [failed[b] if b in failed else (logged, lanes[:, b], None)
            for b in range(lanes.shape[1])]


def _control(theta, phi, K0):
    """u_c = theta^T phi + K0 x, with K0 given as [K0^T; 0] in theta's shape;
    any leading axes are lanes or log rows."""
    return (phi[..., None, :] @ (theta + K0))[..., 0, :]


def _closed_loop(model, reference: ReferenceModel, designs, controllers, gust,
                 config: SimulationConfig, r_fn=None, x0=None, xm0=None):
    """One trace or SimulationError per (design, controller) lane.  A single
    lane runs as a 1-D state, several as the rows of one batch."""
    n, m = model.B_c.shape
    if reference.A_m.shape != (n, n):
        raise ValueError("reference model dimension does not match the plant")
    dt = config.dt
    u_d_grid = _gust_grid(gust, config, model.B_g.shape[1])
    r_grid = None if r_fn is None else np.array(
        [np.atleast_1d(r_fn(t)) for t in 0.5 * dt * np.arange(u_d_grid.shape[0])],
        dtype=float)

    def stack(arrays):
        return np.stack(arrays) if len(designs) > 1 else arrays[0]

    Gamma = stack([d.Gamma for d in designs])
    PB = stack([d.P @ model.B_c for d in designs])
    K0 = stack([np.vstack([c.K0.T, np.zeros((m, m))]) for c in controllers])
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    xm = np.zeros(n) if xm0 is None else np.array(xm0, dtype=float)
    y = stack([np.concatenate([x, xm, np.ravel(c.theta)]) for c in controllers])

    lead = y.shape[:-1]
    theta_shape = lead + (n + m, m)
    zero_r = np.zeros(lead + (m,))
    A_mT, B_mT, B_gT = reference.A_m.T, reference.B_m.T, model.B_g.T
    rhs, eval_f_nr = model.rhs, model.eval_f_nr
    plant_nl = config.plant_nonlinear
    ref_nl = config.reference_nonlinear and plant_nl

    def deriv(j, y):
        x, xm = y[..., :n], y[..., n:2 * n]
        u_d = u_d_grid[j]
        r = zero_r if r_grid is None else r_grid[j]
        phi = np.concatenate([x, r], axis=-1)
        u_c = _control(y[..., 2 * n:].reshape(theta_shape), phi, K0)
        dx = rhs(x, u_c, u_d, nonlinear=plant_nl)
        dxm = xm @ A_mT
        if r_grid is not None:
            dxm = dxm + r @ B_mT
        dxm = dxm + u_d @ B_gT
        if ref_nl:
            dxm = dxm + eval_f_nr(xm)
        dtheta = theta_rate(x - xm, phi, Gamma, PB)
        return np.concatenate([dx, dxm, dtheta.reshape(lead + (-1,))], axis=-1)

    results = []
    lane_K0 = K0.reshape(-1, n + m, m)
    for b, (steps, ys, error) in enumerate(_rk4(deriv, y, config)):
        x, xm = ys[:, :n], ys[:, n:2 * n]
        theta = ys[:, 2 * n:].reshape(-1, n + m, m)
        r = np.zeros((steps.shape[0], m)) if r_grid is None else r_grid[2 * steps]
        trace = SimulationTrace(
            time=steps * dt, x=x, outputs=x @ model.C_out.T, u_d=u_d_grid[2 * steps],
            output_labels=model.output_labels, x_m=xm, e=x - xm, theta=theta,
            u_c=_control(theta, np.concatenate([x, r], axis=1), lane_K0[b]),
            diverged=error is not None,
        )
        if error is None:
            controllers[b].theta = theta[-1].copy()
            results.append(trace)
        else:
            results.append(SimulationError(error, trace=trace))
    return results


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
    config flags.  r defaults to zero (gust-load-alleviation regulation).
    The final gains are written back to ``controller.theta``."""
    _check_dt(config, model.A)
    (result,) = _closed_loop(model, reference, [design], [controller], gust, config,
                             r_fn, x0, xm0)
    if isinstance(result, SimulationError):
        raise result
    return result


def integrate_closed_loop_batch(model, reference: ReferenceModel, designs,
                                controllers, gust, config: SimulationConfig):
    """Closed loops that share the plant, the reference model and the gust,
    one lane per (design, controller) pair, run as one batch from zero state.

    Returns one SimulationTrace, or one SimulationError carrying its partial
    trace, per lane: a lane that diverges fails alone.  The final gains of
    each finished lane are written back to its controller."""
    if not designs or len(designs) != len(controllers):
        raise ValueError("a batch needs one controller per design")
    _check_dt(config, model.A)
    return _closed_loop(model, reference, list(designs), list(controllers), gust, config)


def batch_lanes(model, config: SimulationConfig) -> int:
    """Closed-loop lanes whose logs together fit in BATCH_LOG_BYTES (at
    least one)."""
    n, m = model.B_c.shape
    rows = -(-config.n_steps // config.log_stride) + 1
    return max(1, BATCH_LOG_BYTES // (rows * (2 * n + (n + m) * m) * 8))


def integrate_open_loop(model, gust, config: SimulationConfig,
                        x0: np.ndarray | None = None) -> SimulationTrace:
    """Uncontrolled gust response under the same RK4 scheme."""
    _check_dt(config, model.A)
    u_d = _gust_grid(gust, config, model.B_g.shape[1])
    u0 = np.zeros(model.B_c.shape[1])
    x = np.zeros(model.A.shape[0]) if x0 is None else np.array(x0, dtype=float)
    rhs, nonlinear = model.rhs, config.plant_nonlinear
    ((steps, xs, error),) = _rk4(
        lambda j, x: rhs(x, u0, u_d[j], nonlinear=nonlinear), x, config)
    trace = SimulationTrace(
        time=steps * config.dt, x=xs, outputs=xs @ model.C_out.T, u_d=u_d[2 * steps],
        output_labels=model.output_labels, diverged=error is not None,
    )
    if error is not None:
        raise SimulationError(error, trace=trace)
    return trace


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
