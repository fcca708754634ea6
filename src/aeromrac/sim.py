"""Fixed-step closed-loop and open-loop time integration.

One classical fourth-order Runge-Kutta kernel advances every run on B lanes,
the unbatched open loop being B = 1: its field is one ``romgen.PolyField``
that every lane shares, an operator as data whose input coordinates are
each lane's held coordinates and the gust samples, and its buffers hold the
lanes on the minor axis.  A closed-loop lane is the row [x, x_m, vec theta]
with the held coordinates (kappa, gamma) = (1, its adaptation rate): plant
and reference model are one Plant from ``romgen.stack_plants``, and the
control theta^T x, the adaptation law and the reference model's gust
forcing kappa u_d are product columns of the same field.  A lane's gains
start from its theta(0), which holds any fixed pre-gain, as the law does
not read theta.  The open loop is lane 0 of the closed-loop batch: kappa =
gamma = 0 and theta(0) = 0 keep its theta, u_c and x_m at exactly 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .mrac import LyapunovDesign, ReferenceModel
from .romgen import Plant, PolyField, stack_plants

DIVERGENCE_DEFAULT = 1e8
# Logged rows a sweep's batch holds at a time; they are reduced to metrics.
CHUNK_ROWS = 4096


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
    theta: np.ndarray | None = None  # (T, n, m)
    u_c: np.ndarray | None = None  # (T, m)
    diverged: bool = False

    @property
    def closed_loop(self) -> bool:
        return self.x_m is not None


def _check_dt(config: SimulationConfig, *matrices: np.ndarray):
    """Warn when dt exceeds 0.1/max|lambda| of the given A (and A_m)."""
    lam = max(np.abs(np.linalg.eigvals(A)).max() for A in matrices)
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


def _rk4(f, y, config: SimulationConfig, take=None):
    """Classical RK4 of y' = field(y, held, u_d) on lanes y (B, N), with f =
    (field, held, u_d): a ``romgen.PolyField`` on the rows [y | held | u_d | 1],
    each lane's held coordinates (B, H) and the gust on the half-step grid,
    whose first p columns are the field's p gust coordinates.  A lane that
    leaves the divergence bound fails alone.
    Returns one (steps, states, error) per lane: the logged step numbers
    (T,), the logged states (T, N) and None; or, for a failed lane, its log
    up to that step, the diverged state included when finite, and the
    message.  With take, the logged states go instead to take(rows)
    CHUNK_ROWS rows at a time, (r, B, N) in a buffer that the next chunk
    overwrites, and each lane's error alone returns."""
    (field, held, u_d), (B, N) = f, y.shape
    # any stride past the last step logs the two ends; np.arange takes none past int64
    dt, steps, stride = config.dt, config.n_steps, min(config.log_stride, config.n_steps)
    threshold = config.divergence_threshold
    logged = np.arange(0, steps + 1, stride)
    if logged[-1] != steps:
        logged = np.append(logged, steps)
    size = logged.shape[0] if take is None else min(CHUNK_ROWS, logged.shape[0])
    log, alive = np.empty((size, B, N)), np.ones(B, dtype=bool)
    failed = {}  # lane -> message, or (steps, states, message) without take
    log[0] = y
    row = 1  # rows in the chunk
    (C, Z), H = field.W.shape, held.shape[1]
    p = Z - N - H - 1  # the gust coordinates: none for a plant without gust input
    # lanes are columns: z[0] holds the state, z[1] a stage's input, k[i] = h_i f_i
    z, Y, k, s = np.zeros((2, Z, B)), np.empty((C, B)), np.empty((4, N, B)), np.empty((N, B))
    x, inputs, gust, samples = z[0, :N], z[1, :N], z[:, Z - 1 - p:Z - 1], u_d[:, :p, None]
    z[:, N:Z - 1 - p], z[:, -1], x[...], gust[...] = held.T, 1.0, y.T, samples[0]
    (F, F2, F3), Yv = Y[N:].reshape(3, -1, B), Y.T[:, :, None]
    Q = Y[:N + len(F)].T[:, :, None]  # the linear part and the triple product
    stages = [(z[min(i, 1)].T[:, :, None], h * field.back, k[i].T[:, :, None])
              for i, h in enumerate((0.5 * dt, 0.5 * dt, dt, dt / 6.0))]
    for step, j in enumerate(range(0, 2 * steps, 2)):
        for i, (zi, back, ki) in enumerate(stages):
            if i:
                np.add(x, k[i - 1], out=inputs)
                if i != 2:  # stages 2 and 3 share sample j + 1; stage 4 reads j + 2
                    gust[1] = samples[j + (i + 1) // 2]
            np.matmul(field.W, zi, out=Yv)
            np.multiply(F, F2, out=F)
            np.multiply(F, F3, out=F)
            np.matmul(back, Q, out=ki)
        # y += h/6 (k1 + 2 k2 + 2 k3 + k4), at once, from k = (h/2 k1, h/2 k2, h k3, h/6 k4)
        np.add(np.add(k[0], k[2], out=s), np.add(k[1], k[1], out=k[1]), out=s)
        x += np.add(np.divide(s, 3.0, out=s), k[3], out=s)
        gust[0] = samples[j + 2]
        if not np.abs(x).max() <= threshold:
            lane_norm = np.abs(x).max(axis=0)
            for b in np.flatnonzero(alive & ~(lane_norm <= threshold)):
                failed[b] = (f"state diverged at t = {(step + 1) * dt:.6g} "
                             f"(norm {lane_norm[b]:.3e} > {threshold:.1e})")
                if take is None:  # the one chunk holds the whole log so far
                    states, done = log[:row, b], logged[:row]
                    if np.isfinite(lane_norm[b]):
                        states, done = np.vstack([states, x[:, b]]), np.append(done, step + 1)
                    failed[b] = (done, states, failed[b])
                alive[b] = False
            if not alive.any():
                break
            # a failed lane restarts from zero so that its arithmetic stays
            # finite; its log ends where it failed
            x[:, ~alive] = 0.0
        if (step + 1) % stride == 0 or step + 1 == steps:
            if row == size:  # a full chunk; the one chunk of a trace never is
                take(log)
                row = 0
            log[row] = x.T
            row += 1
    if take is not None:
        take(log[:row])
        return [failed.get(b) for b in range(B)]
    return [failed.get(b, (logged, log[:, b], None)) for b in range(B)]


def _control(theta, x):
    """u_c = theta^T x; any leading axes are lanes or log rows."""
    return (x[..., None, :] @ theta)[..., 0, :]


def _failed_control(theta, x):
    """_control over the log rows of a failed lane, whose diverged last row
    can put theta^T x past the float range.  Each row's x and theta are
    scaled by powers of two, which is exact, and a product past the range
    saturates at the largest float instead of overflowing to inf."""
    ex = np.frexp(np.abs(x).max(axis=-1))[1][:, None]
    eg = np.frexp(np.abs(theta).max(axis=(-2, -1)))[1][:, None]
    u_c = _control(np.ldexp(theta, -eg[..., None]), np.ldexp(x, -ex))
    with np.errstate(over="ignore"):
        u_c = np.ldexp(u_c, ex + eg)
    big = np.finfo(u_c.dtype).max
    return np.clip(u_c, -big, big)


def _lane_field(model, reference: ReferenceModel, config: SimulationConfig,
                design: LyapunovDesign):
    """The closed loop on rows [x, x_m, vec theta | kappa, gamma | u_d | 1]
    as one PolyField that every lane shares: the stacked plant and reference
    model give the linear block and the springs, and the product columns
    x_i theta_ij map through B_c (u_c = theta^T x), (-Q x)_i (e^T P B_c)_j
    gamma onto theta_ij (``mrac.theta_rate`` with Gamma = gamma Q) and
    u_d kappa 1 through B_g onto x_m.  A lane with kappa = gamma = 0 whose
    x_m and theta start at 0 keeps them at exactly 0: the open loop."""
    n, m = model.B_c.shape
    N, nm, ij, p = 2 * n + n * m, n * m, np.arange(n * m), model.p
    i, j, PB = ij // m, ij % m, design.P @ model.B_c
    # the reference model is a plant without control (B_c = 0); its gust reads kappa
    nl = model.nl if config.plant_nonlinear else None
    io = dict(B_g=model.B_g, C_out=model.C_out, output_labels=model.output_labels)
    plant = stack_plants(Plant(A=model.A, B_c=model.B_c, nl=nl, **io),
                         Plant(A=reference.A_m, B_c=np.zeros_like(model.B_c),
                               nl=nl if config.reference_nonlinear else None, **io))
    springs, c, G_s = plant.springs()
    k = c.shape[0]
    K = k + 2 * nm + p
    # product columns after the springs; rows of z after the state
    control, adapt, gust = k + ij, k + nm + ij, k + 2 * nm + np.arange(p)
    kappa, gamma, u_d = N, N + 1, N + 2 + np.arange(p)
    W, G = np.zeros((N + 3 * K, N + 2 + p + 1)), np.zeros((K, N))
    rows = W.T  # one row per coordinate of z
    P = rows[:, N:].reshape(-1, 3, K)  # the columns of the three factors
    rows[:2 * n, :2 * n], rows[u_d, :n] = plant.A.T, model.B_g.T  # x_m's gust reads kappa
    P[:2 * n, :, :k], P[-1, 2, :k] = np.stack(springs, axis=1), c
    P[i, 0, control] = P[2 * n + ij, 1, control] = P[-1, 2, control] = 1.0
    P[:n, 0, adapt], P[gamma, 2, adapt] = -design.Q[i].T, 1.0
    P[:2 * n, 1, adapt] = np.vstack([PB, -PB])[:, j]  # e^T P B_c, e = x - x_m
    P[u_d, 0, gust] = P[kappa, 1, gust] = P[-1, 2, gust] = 1.0
    G[:k, :2 * n], G[control, :n], G[adapt, 2 * n + ij] = G_s, model.B_c.T[j], 1.0
    G[gust, n:2 * n] = model.B_g.T
    return PolyField(W, np.hstack([np.eye(N), G.T]))


def _closed_loop(model, reference: ReferenceModel, designs, thetas, gust,
                 config: SimulationConfig, open_loop: bool = False, take=None):
    """One trace or SimulationError per (design, theta(0)) lane from zero
    state; the lanes are the rows (B, N) of one batch and share the first
    design's Q and P.  With open_loop the open loop runs as lane 0 and its
    result comes first.  With take, only each lane's error returns; the
    chunks of ``_rk4`` go to take(rows)."""
    n, m = model.B_c.shape
    if not designs or len(designs) != len(thetas):
        raise ValueError("a batch needs one theta(0) per design")
    if reference.A_m.shape != (n, n):
        raise ValueError("reference model dimension does not match the plant")
    if any(np.shape(theta) != (n, m) for theta in thetas):
        raise ValueError(f"theta(0) must have shape {(n, m)}")
    if any(not (np.array_equal(d.Q, designs[0].Q) and np.array_equal(d.P, designs[0].P))
           for d in designs):
        raise ValueError("the designs of a batch must share the first lane's Q and P")
    off = 1 if open_loop else 0  # lanes before the first closed lane
    dt, u_d_grid = config.dt, _gust_grid(gust, config, model.B_g.shape[1])
    held = np.array([(0.0, 0.0)] * off + [(1.0, d.gamma) for d in designs])  # kappa, gamma
    y = np.zeros((off + len(designs), 2 * n + n * m))
    y[off:, 2 * n:] = [np.ravel(theta) for theta in thetas]
    run = (_lane_field(model, reference, config, designs[0]), held, u_d_grid)
    if take is not None:
        return _rk4(run, y, config, take)

    results = []
    for b, (steps, ys, error) in enumerate(_rk4(run, y, config)):
        # the open trace holds a copy of x, not the batch log
        x, closed = ys[:, :n].copy() if b < off else ys[:, :n], {}
        if b >= off:
            xm, theta = ys[:, n:2 * n], ys[:, 2 * n:].reshape(-1, n, m)
            u_c = (_control if error is None else _failed_control)(theta, x)
            closed = dict(x_m=xm, e=x - xm, theta=theta, u_c=u_c)
        trace = SimulationTrace(time=steps * dt, x=x, outputs=x @ model.C_out.T,
                                u_d=u_d_grid[2 * steps], output_labels=model.output_labels,
                                diverged=error is not None, **closed)
        results.append(trace if error is None else SimulationError(error, trace=trace))
    return results


def integrate_closed_loop(
    model,
    reference: ReferenceModel,
    design: LyapunovDesign,
    theta0: np.ndarray,
    gust,
    config: SimulationConfig,
) -> SimulationTrace:
    """Advance plant, reference model and adaptive gains as one RK4 system.

    The measured gust drives both the plant and the reference model; the
    nonlinear residual enters both (Eq. 4/5 structure) unless disabled via the
    config flags.  Both start from zero and the gains from theta0 (n, m);
    there is no reference command (gust-load-alleviation regulation)."""
    _check_dt(config, model.A, reference.A_m)
    (result,) = _closed_loop(model, reference, [design], [theta0], gust, config)
    if isinstance(result, SimulationError):
        raise result
    return result


def integrate_open_and_closed(model, reference: ReferenceModel, designs,
                              thetas, gust, config: SimulationConfig):
    """The open loop and one closed loop per (design, theta(0)) pair under
    one gust, run from zero state as the lanes of one batch, lane 0 the open.

    Returns (open, closed): the open-loop trace, as ``integrate_open_loop``
    gives it, and a list of closed-loop traces; a run that diverged is a
    SimulationError carrying its partial trace instead.  A lane fails alone,
    the open lane on its plant state x alone."""
    _check_dt(config, model.A, reference.A_m)
    opened, *closed = _closed_loop(model, reference, list(designs), list(thetas), gust,
                                   config, open_loop=True)
    return opened, closed


def integrate_open_loop(model, gust, config: SimulationConfig,
                        x0: np.ndarray | None = None) -> SimulationTrace:
    """Uncontrolled gust response under the same RK4 scheme."""
    _check_dt(config, model.A)
    u_d = _gust_grid(gust, config, model.p)
    x = np.zeros((1, model.n)) if x0 is None else np.array(x0, dtype=float)[None]
    run = (model.field(config.plant_nonlinear), np.zeros((1, model.m)), u_d)  # u_c = 0
    ((steps, xs, error),) = _rk4(run, x, config)
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


def _stats(y, u_c=None, e_norm=None):
    """Per lane of the rows y (r, L), u_c (r, L, m) and ||e|| (r, L), 0 if
    absent: max |y|, max |u_c|, max ||e||, sum y^2, the row count and the
    last ||e||, as (6, L)."""
    zero = np.zeros(y.shape[1])
    e_norm = zero[None] if e_norm is None else e_norm
    return np.vstack([np.abs(y).max(axis=0),
                      np.abs(u_c).max(axis=(0, 2)) if u_c is not None else zero,
                      e_norm.max(axis=0),
                      # each lane's column summed pairwise, as np.mean sums it
                      (np.ascontiguousarray(y.T) ** 2).sum(axis=1),
                      zero + y.shape[0], e_norm[-1]])


def _finish(label: str, opened, closed, settle_tol: float = 1e-4) -> GlaMetrics:
    """GlaMetrics from the sums (6,) of the open and of the closed lane."""
    peak_ol, _, _, squares_ol, rows, _ = opened
    peak_cl, flap, e_max, squares_cl, _, e_last = closed
    ratio = float(e_last / e_max) if e_max > 0 else 0.0
    return GlaMetrics(
        output=label,
        peak_open=float(peak_ol),
        peak_closed=float(peak_cl),
        reduction_percent=float(100.0 * (1.0 - peak_cl / peak_ol)) if peak_ol > 0 else 0.0,
        max_flap_cmd=float(flap),
        rms_open=float(np.sqrt(squares_ol / rows)),
        rms_closed=float(np.sqrt(squares_cl / rows)),
        settled=ratio <= settle_tol,
        settle_ratio=ratio,
    )


def compute_metrics(open_trace: SimulationTrace, closed_trace: SimulationTrace,
                    output: str | int = 0,
                    settle_tol: float = 1e-4) -> GlaMetrics:
    if open_trace.time.shape != closed_trace.time.shape or not np.array_equal(
        open_trace.time, closed_trace.time
    ):
        raise ValueError("open- and closed-loop traces do not share a time grid")
    labels = closed_trace.output_labels
    idx = labels.index(output) if isinstance(output, str) else int(output)
    u_c = None if closed_trace.u_c is None else closed_trace.u_c[:, None]
    e_norm = None if closed_trace.e is None else np.linalg.norm(closed_trace.e, axis=1)[:, None]
    return _finish(labels[idx], _stats(open_trace.outputs[:, idx, None])[:, 0],
                   _stats(closed_trace.outputs[:, idx, None], u_c, e_norm)[:, 0], settle_tol)


def sweep_metrics(model, reference: ReferenceModel, designs, thetas, gust,
                  config: SimulationConfig, output: int = 0):
    """``compute_metrics`` of model output index ``output`` for the lanes of
    ``integrate_open_and_closed``, each chunk of logged rows reduced as it
    fills, so that no trace is kept: one GlaMetrics or SimulationError
    (without a trace) per closed loop.  If the open loop diverged, every
    closed loop gets its error."""
    _check_dt(config, model.A, reference.A_m)
    n, m = model.B_c.shape
    C_T, sums = model.C_out.T, None

    def take(rows):
        nonlocal sums
        x, theta = rows[..., :n], rows[..., 2 * n:].reshape(rows.shape[:2] + (n, m))
        # each row's figures as a trace forms them, whatever chunk holds the
        # row; e is squared in place, as np.linalg.norm sums it
        e = x - rows[..., n:2 * n]
        e = np.sqrt(np.multiply(e, e, out=e).sum(axis=-1))
        chunk = _stats((x @ C_T)[..., output], _control(theta, x), e)
        sums = chunk if sums is None else np.vstack(  # maxima, sums, the last ||e||
            [np.maximum(sums[:3], chunk[:3]), sums[3:5] + chunk[3:5], chunk[5:]])

    opened, *closed = _closed_loop(model, reference, designs, thetas, gust, config,
                                   open_loop=True, take=take)
    return [SimulationError(opened or error) if opened or error
            else _finish(model.output_labels[output], sums[:, 0], sums[:, b])
            for b, error in enumerate(closed, 1)]
