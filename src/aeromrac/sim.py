"""Fixed-step closed-loop and open-loop time integration.

One classical fourth-order Runge-Kutta kernel advances every run on B lanes,
the unbatched open loop being B = 1: its field is one ``romgen.PolyField``
that every lane shares, an operator as data whose input coordinates are
each lane's held coordinates and the gust samples.  The kernel composes the
field's operators with the RK4 stage coefficients once per run, so that a
step is five matrix products, one gemm per tile of TILE lanes whatever the
batch, and a lane runs the same bit for bit in any batch.

A lane is the row [x, x_m, vec theta] with the held coordinates (kappa,
gamma): plant and reference model are one Plant from ``romgen.stack_plants``,
each with its own springs F (a linear one has ``nl`` None), and the control
theta^T x, the adaptation law and the reference model's gust forcing kappa
u_d are product columns of the same field.  A batch (``integrate_lanes``)
takes the plant, the reference model, the weighting Q and its Lyapunov
solution P once, and per lane its adaptation rate gamma >= 0, its gust
switch kappa, 0 or 1, and its initial gains theta(0), which hold any fixed
pre-gain, as the law does not read theta.  An adaptive lane has
kappa = 1 and gamma > 0; gamma = 0 keeps theta at theta(0) bit for bit.  The
open loop is the lane kappa = gamma = 0 with theta(0) = 0, which keeps its
theta, u_c and x_m at exactly 0; with theta(0) = K^T it is the fixed-gain
loop u_c = K x.

``SimulationConfig.dt`` is the output grid, not always the step.  Under a
smooth gust (one-cosine or zero) RK4 steps at h = k dt, k the largest integer
up to MAX_STEP_MULTIPLE that divides the step count and keeps h within the
0.1/max|lambda| heuristic of the dt warning; under any other gust, such as a
Von Karman realisation, it steps at dt.  The dt-grid rows
between RK4 nodes are cubic Hermite dense output (``_dense``), within 1e-9
of stepping at dt on the packaged one-cosine runs.  The kernel hands on
every node, CHUNK_ROWS at a time, and that stage alone picks the logged
rows, at every k, for every consumer: a sweep reduces the stream to
metrics, a kept trace is the stream collected, every lane in one pass
(``_collect``).  A run that diverges fails at a node:
its partial trace holds the dense rows up to its last node within the
bound, then the diverged node at the time its message names.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .gusts import OneCosineGust, ZeroGust
from .mrac import LyapunovDesign, ReferenceModel
from .romgen import Plant, PolyField, stack_plants

DIVERGENCE_DEFAULT = 1e8
# New RK4 nodes the kernel hands on at a time to the dense stage, which
# hands on their logged dt-grid rows, to a sweep's reduction or to a trace's
# collector, CHUNK_ROWS // k at a time at a step of k dt.
CHUNK_ROWS = 4096
# Lanes per tile of ``_rk4``: each of its products is one gemm of this many
# columns per tile, whatever the batch.
TILE = 8
# Largest k of the RK4 step h = k dt under a smooth gust (``_step_multiple``).
MAX_STEP_MULTIPLE = 5
# A lane is settled when its final error norm is at most this fraction of its peak.
_SETTLE_TOL = 1e-4


class SimulationError(RuntimeError):
    """Raised on divergence; carries the truncated trace in ``trace``."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SimulationConfig:
    dt: float
    duration: float
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
    step_multiple: int = 1  # RK4 stepped at k dt; rows between its nodes are dense output


def _dt_limit(*matrices: np.ndarray) -> float:
    """The stability heuristic 0.1/max|lambda| of the given A (and A_m);
    inf for a zero spectrum."""
    lam = max(np.abs(np.linalg.eigvals(A)).max() for A in matrices)
    return 0.1 / lam if lam > 0 else np.inf


def _check_dt(config: SimulationConfig, *matrices: np.ndarray):
    """Warn when dt exceeds 0.1/max|lambda| of the given A (and A_m)."""
    limit = _dt_limit(*matrices)
    if config.dt > limit:
        warnings.warn(
            f"dt = {config.dt} exceeds stability heuristic 0.1/max|lambda| = {limit:.3e}",
            stacklevel=3,
        )


def _step_multiple(gust, config: SimulationConfig, *matrices: np.ndarray) -> int:
    """k of the RK4 step h = k dt.  Under a smooth gust (one-cosine or zero)
    it is the largest k <= MAX_STEP_MULTIPLE that divides the step count and
    keeps h within the dt heuristic of the given A (and A_m); under any other
    gust it is 1.  A Von Karman realisation is smooth, but its band reaches
    omega = 62 per unit time at L 12, U 1, and h = 5 dt would move a sweep's
    figures past the 1e-8 its benchmark check allows: at dt 0.01, duration
    25 and seed 0 it moved the open-loop pitch peak by 4.6e-6 relative."""
    if not isinstance(gust, (OneCosineGust, ZeroGust)):
        return 1
    limit = _dt_limit(*matrices)
    return max((k for k in range(2, MAX_STEP_MULTIPLE + 1)
                if config.n_steps % k == 0 and k * config.dt <= limit), default=1)


def _logged(config: SimulationConfig) -> np.ndarray:
    """The logged step numbers: every log_stride-th and the last.  Any stride
    past the last step logs the two ends; np.arange takes none past int64."""
    steps = config.n_steps
    logged = np.arange(0, steps + 1, min(config.log_stride, steps))
    return logged if logged[-1] == steps else np.append(logged, steps)


def _gust_grid(gust, config: SimulationConfig, p: int) -> np.ndarray:
    """Gust samples (2 n_steps + 1, p) on the half-step RK4 grid."""
    t_half = 0.5 * config.dt * np.arange(2 * config.n_steps + 1)
    u_d = np.atleast_2d(np.asarray(gust(t_half), dtype=float))
    if u_d.shape[0] != t_half.shape[0]:
        u_d = u_d.T
    if u_d.shape[1] == 1 and p > 1:
        u_d = np.repeat(u_d, p, axis=1)
    return u_d


def _stage_operators(field: PolyField, H: int, dt: float):
    """One RK4 step of the field, with H held coordinates, on the lane
    columns w = [v | v | phi_1 .. phi_4] of ``_rk4``, v = [y | held | u_d(j)
    u_d(j+1) u_d(j+2) | 1] and phi_i the K triple products of stage i: the
    stage operators M_1 .. M_4 on w's leading rows, whose products are stage
    i's three factor blocks, and M_y on w[V:], whose product is the step's
    increment of y.

    f_i = L z_i + G phi_i is expanded stage by stage on (v, phi_1 .. phi_i):
    z_i reads v at its gust sample, and its y is y + c_i f_{i-1}.  M_i holds
    W's own factor rows on the first copy of v and the composed c_i P_y
    f_{i-1} on the second copy and the phi blocks; M_y = sum b_i f_i.  The
    identity of y + c_i f_{i-1} stays out of every composed operator: folded
    into one copy, an entry 1 + c_i a keeps c_i a with fewer digits, and
    that rounding repeats on every step.  The operators are composed in
    extended precision and rounded once, an entry past the float range to
    the largest float, so that a lane at rest stays at rest."""
    (C, Z), N, ld = field.W.shape, field.back.shape[0], np.longdouble
    K, p = (C - N) // 3, Z - N - H - 1
    V = Z + 2 * p
    W, G = field.W.astype(ld), field.back[:, N:].astype(ld)  # back = [I | G]
    L, P = W[:N], W[N:]
    A, B = np.zeros((N, V), ld), np.zeros((N, 4 * K), ld)  # f_i on v and on phi
    M_y, stages = np.zeros((N, V + 4 * K), ld), []
    h = ld(dt)
    for i, (c, b, sample) in enumerate(zip((0, h / 2, h / 2, h), (h / 6, h / 3, h / 3, h / 6),
                                           (0, 1, 1, 2))):
        z = np.r_[:N + H, N + H + sample * p + np.arange(p), V - 1]  # v's columns of z_i
        own = np.zeros((3 * K, V))
        own[:, z] = field.W[N:]
        stages.append(np.hstack([own, c * P[:, :N] @ np.hstack([A, B[:, :i * K]])])
                      if i else own)
        A, B = c * L[:, :N] @ A, c * L[:, :N] @ B
        A[:, z] += L
        B[:, i * K:(i + 1) * K] = G
        M_y += b * np.hstack([A, B])
    big = np.finfo(float).max
    return [np.clip(M, -big, big).astype(float) for M in stages + [M_y]]


def _rk4(f, y, k: int, config: SimulationConfig, take):
    """Classical RK4 of y' = field(y, held, u_d) on lanes y (B, N) at h = k
    dt over n_steps // k steps, with f = (field, held, u_d): a
    ``romgen.PolyField`` on the rows [y | held | u_d | 1], each lane's held
    coordinates (B, H) and the gust on the half-step grid of h, whose first
    p columns are the field's p gust coordinates.  Every node goes to
    take(rows), (r, B, N) in a buffer that the next chunk overwrites,
    CHUNK_ROWS new nodes at a time; each chunk after the first starts with
    the last node of the chunk before.  A lane that leaves the divergence
    bound fails alone; per lane returns None, or its failure (message,
    steps, state): the step count at which it left the bound and its state
    there if finite, else None.  Its rows from that step on are not its own.

    A step is the five products of ``_stage_operators`` on the lanes'
    columns w, TILE to a tile: each is one gemm per tile, of one shape
    whatever the batch, so a lane's bits depend neither on its tile nor on
    its column in it.  The last tile's spare columns copy lane 0, fail with
    it and are dropped."""
    (field, held, u_d), (B, N) = f, y.shape
    h, steps, threshold = k * config.dt, config.n_steps // k, config.divergence_threshold
    log, alive = np.empty((min(CHUNK_ROWS, steps + 1) + 1, B, N)), np.ones(B, bool)
    failed = {}  # lane -> (message, steps, state)
    # the first chunk is log[1:], a later one log[0:] with the carried node in log[0]
    log[1], row, start = y, 2, 1
    (C, Z), H = field.W.shape, held.shape[1]
    K, p = (C - N) // 3, Z - N - H - 1  # p = 0 for a plant without gust input
    V, tiles = Z + 2 * p, -(-B // TILE)
    *stages, M_y = _stage_operators(field, H, h)

    def tiled(a):  # rows (r, lanes) as the stack (tiles, r, TILE) of their tiles
        return a.reshape(a.shape[0], tiles, TILE).transpose(1, 0, 2)

    # the lanes' columns w, the last tile's spare columns copies of lane 0
    w, lane = np.zeros((2 * V + 4 * K, tiles * TILE)), np.r_[:B, np.zeros(tiles * TILE - B, int)]
    v = w[:2 * V].reshape(2, V, -1)  # both copies of v
    x, ys, gust = w[:N], v[:, :N], v[:, N + H:V - 1]
    v[:, :N + H] = np.hstack([y, held])[lane].T
    v[:, -1] = 1.0
    # samples j, j + 1 and j + 2 of step j / 2, read in place
    samples = np.lib.stride_tricks.sliding_window_view(
        np.ascontiguousarray(u_d[:, :p]).ravel(), 3 * p)[::2 * p, :, None] if p else None
    F, dy = np.empty((3 * K, tiles * TILE)), np.empty((N, tiles * TILE))
    stages = [(M, tiled(w[:M.shape[1]]), tiled(F), w[2 * V + i * K:2 * V + (i + 1) * K])
              for i, M in enumerate(stages if K else [])]
    F1, F2, F3, tail, dyt = F[:K], F[K:2 * K], F[2 * K:], tiled(w[V:]), tiled(dy)
    # a squared norm within a quarter of threshold^2 puts every |x_i| within it
    flat, bound = x.reshape(-1), (threshold / 2.0) ** 2

    with np.errstate(over="ignore", invalid="ignore"):  # a diverging lane overflows
        for step in range(steps):
            if p:
                gust[...] = samples[step]
            for M, src, out, phi in stages:
                np.matmul(M, src, out=out)
                np.multiply(F1, F2, out=phi)
                np.multiply(phi, F3, out=phi)
            np.matmul(M_y, tail, out=dyt)
            np.add(x, dy, out=x)
            ys[1] = x
            if not np.dot(flat, flat) <= bound:
                lane_norm = np.abs(x).max(axis=0)
                for b in np.flatnonzero(alive & ~(lane_norm[:B] <= threshold)):
                    failed[b] = (f"state diverged at t = {(step + 1) * h:.6g} "
                                 f"(norm {lane_norm[b]:.3e} > {threshold:.1e})", step + 1,
                                 x[:, b].copy() if np.isfinite(lane_norm[b]) else None)
                    alive[b] = False
                if not alive.any():
                    break
                # a failed lane, and a spare column with lane 0, restarts from
                # zero so that its arithmetic stays finite
                ys[:, :, ~alive[lane]] = 0.0
            if row == log.shape[0]:
                take(log[start:])
                log[0], row, start = log[-1], 1, 0
            log[row] = x[:, :B].T
            row += 1
    take(log[start:row])
    return [failed.get(b) for b in range(B)]


def _fill(f, weights, ys, first: int, grid: np.ndarray) -> np.ndarray:
    """The rows (len(grid), B, N) at the dt-grid steps grid, from the node
    rows ys (T, B, N) of RK4 at h = k dt, node ``first`` first, that hold
    every node the rows lie on or between.  A row on a node is that node's
    row; a row between nodes j and j + 1 is the cubic Hermite interpolant of
    y and of the field f = (field, held, u_d) at both (Hairer, Norsett &
    Wanner, Solving ODEs I, II.6), with the weights (3, k) of its increment
    y_j+1 - y_j and of h f_j and h f_j+1, so that a coordinate at rest stays
    at rest bit for bit.  The field is evaluated on each node row alone and
    the weights act elementwise, so no row depends on the batch or the chunk
    that holds it."""
    (field, held, u_d), (B, N), k = f, ys.shape[1:], weights.shape[1]
    node, s = np.divmod(grid, k)
    node -= first
    rows = ys[node]
    between = np.flatnonzero(s)
    if between.size:
        need = np.zeros(ys.shape[0], dtype=bool)  # the nodes on either side of a row
        need[node[between]] = need[node[between] + 1] = True
        at = np.flatnonzero(need)
        H, Z = held.shape[1], field.W.shape[1]
        z = np.empty((at.size, B, Z))  # [y | held | u_d | 1] at each node
        z[..., :N], z[..., N:N + H], z[..., -1] = ys[at], held, 1.0
        z[..., N + H:-1] = u_d[2 * (first + at), None, :Z - N - H - 1]
        slopes = np.empty_like(ys)
        slopes[at] = field(z)
        for i in range(1, k):  # y_j + a (y_j+1 - y_j) + b h f_j + c h f_j+1 at s = i
            row = between[s[between] == i]
            j = node[row]
            a, b, c = weights[:, i]
            rows[row] += a * (ys[j + 1] - ys[j]) + (b * slopes[j] + c * slopes[j + 1])
    return rows


def _dense(f, k: int, config: SimulationConfig, take):
    """The dense output stage between ``_rk4`` at h = k dt (f its run) and
    take: it takes the chunks of node rows (r, B, N) in order, each after
    the first starting with the last node of the chunk before, and hands
    take the logged rows of the dt grid (``_fill``) from the first node to
    the last, at most CHUNK_ROWS // k at a time.  At k = 1 a logged row is a
    copy of its node row."""
    logged, size = _logged(config), max(CHUNK_ROWS // k, 1)
    ld = np.longdouble
    t, h = np.arange(k, dtype=ld) / k, ld(k) * ld(config.dt)
    weights = np.stack([t * t * (3 - 2 * t), h * t * (1 - t) ** 2, h * t * t * (t - 1)])
    weights = weights.astype(float)  # at t = s / k
    done, start = 0, 0  # rows handed on; the node of the next chunk's first row

    def chunk(rows):
        nonlocal done, start
        end = start + rows.shape[0] - 1
        stop = np.searchsorted(logged, end * k, side="right")
        for lo in range(done, stop, size):
            grid = logged[lo:min(lo + size, stop)]
            a, b = grid[0] // k, -(-grid[-1] // k)
            take(_fill(f, weights, rows[a - start:b + 1 - start], a, grid))
        done, start = stop, end

    return chunk


def _collect(f, y, k: int, config: SimulationConfig):
    """The stream of ``_rk4`` at h = k dt on the lanes y, through ``_dense``,
    kept: its chunks written into one (T, B, N) array, whose lane column b
    gives lane b's logged dt-grid steps (T,), times (T,), rows (T, N) and
    failure message or None.  A failed lane keeps the rows up to its last
    node within the bound, then its diverged node, when finite, at the time
    its message names."""
    logged, B, N = _logged(config), *y.shape
    out, done = np.empty((B, logged.shape[0], N)).transpose(1, 0, 2), 0  # lanes contiguous

    def take(rows):
        nonlocal done
        out[done:done + rows.shape[0]] = rows
        done += rows.shape[0]

    failures, lanes = _rk4(f, y, k, config, _dense(f, k, config, take)), []
    for b, failure in enumerate(failures):
        # a lane that did not fail keeps every row, as if it failed past its last node
        message, steps, state = failure or (None, config.n_steps // k + 1, None)
        grid = logged[:np.searchsorted(logged, (steps - 1) * k, side="right")]
        time, rows = grid * config.dt, out[:grid.shape[0], b]
        if state is not None:
            grid, rows = np.append(grid, steps * k), np.vstack([rows, state])
            time = np.append(time, steps * (k * config.dt))  # as _rk4 at h = k dt names it
        lanes.append((grid, time, rows, message))
    return lanes


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


def _lane_field(model, reference: ReferenceModel, Q, P):
    """The closed loop on rows [x, x_m, vec theta | kappa, gamma | u_d | 1]
    as one PolyField that every lane shares: the stacked plant and reference
    model give the linear block and the springs, each its own, and the
    product columns x_i theta_ij map through B_c (u_c = theta^T x), (-Q x)_i
    (e^T P B_c)_j gamma onto theta_ij (the adaptation law theta' = -Gamma x
    e^T P B_c with Gamma = gamma Q) and u_d kappa 1 through B_g onto x_m.  A
    lane with kappa = gamma = 0 whose x_m and theta start at 0 keeps them at
    exactly 0: the open loop."""
    n, m = model.B_c.shape
    N, nm, ij, p = 2 * n + n * m, n * m, np.arange(n * m), model.p
    i, j, PB = ij // m, ij % m, P @ model.B_c
    # the reference model is a plant without control (B_c = 0); its gust reads kappa
    plant = stack_plants(model, Plant(A=reference.A_m, B_c=np.zeros_like(model.B_c),
                                      B_g=model.B_g, C_out=model.C_out,
                                      output_labels=model.output_labels, nl=reference.nl))
    springs, c, G_s = plant.springs()
    k = c.shape[0]
    K = k + 2 * nm + p
    # product columns after the springs; rows of z after the state
    control, adapt, gust = k + ij, k + nm + ij, k + 2 * nm + np.arange(p)
    kappa, gamma, u_d = N, N + 1, N + 2 + np.arange(p)
    W, G = np.zeros((N + 3 * K, N + 2 + p + 1)), np.zeros((K, N))
    rows = W.T  # one row per coordinate of z
    F = rows[:, N:].reshape(-1, 3, K)  # the columns of the three factors
    rows[:2 * n, :2 * n], rows[u_d, :n] = plant.A.T, model.B_g.T  # x_m's gust reads kappa
    F[:2 * n, :, :k], F[-1, 2, :k] = np.stack(springs, axis=1), c
    F[i, 0, control] = F[2 * n + ij, 1, control] = F[-1, 2, control] = 1.0
    F[:n, 0, adapt], F[gamma, 2, adapt] = -Q[i].T, 1.0
    F[:2 * n, 1, adapt] = np.vstack([PB, -PB])[:, j]  # e^T P B_c, e = x - x_m
    F[u_d, 0, gust] = F[kappa, 1, gust] = F[-1, 2, gust] = 1.0
    G[:k, :2 * n], G[control, :n], G[adapt, 2 * n + ij] = G_s, model.B_c.T[j], 1.0
    G[gust, n:2 * n] = model.B_g.T
    return PolyField(W, np.hstack([np.eye(N), G.T]))


def integrate_lanes(model, reference: ReferenceModel, Q, P, gammas, kappas, thetas, gust,
                    config: SimulationConfig):
    """Advance plant, reference model and adaptive gains as one RK4 system on
    each lane of a batch, from zero state under one gust.

    The lanes share the plant, the reference model and the weighting Q with
    its Lyapunov solution P.  Lane b adapts at rate gammas[b] >= 0, its
    reference model reads the gust times kappas[b], 0 or 1, and its gains
    start from thetas[b] (n, m).  gamma = kappa = 0 with theta(0) = 0 is the
    open loop (``open_loop_of``); gamma = 0 holds the gains at theta(0).
    Returns one closed-loop trace per lane, or a SimulationError carrying the
    partial trace of a lane that diverged: a lane fails alone."""
    _check_dt(config, model.A, reference.A_m)
    return _lanes(model, reference, Q, P, gammas, kappas, thetas, gust, config)


def _lanes(model, reference: ReferenceModel, Q, P, gammas, kappas, thetas, gust,
           config: SimulationConfig, take=None):
    """``integrate_lanes`` after its dt check; with take, the logged dt-grid
    rows go to take(rows) as ``_dense`` hands them on and only the failure
    records of ``_rk4`` return."""
    n, m = model.B_c.shape
    gammas, kappas, thetas = (np.asarray(a, dtype=float) for a in (gammas, kappas, thetas))
    B = len(thetas)
    if reference.A_m.shape != (n, n):
        raise ValueError("reference model dimension does not match the plant")
    if not B or thetas.shape != (B, n, m) or gammas.shape != (B,) or kappas.shape != (B,):
        raise ValueError(f"a batch needs gamma (B,), kappa (B,) and theta(0) (B, {n}, {m})")
    if not ((gammas >= 0).all() and np.isin(kappas, (0.0, 1.0)).all()):
        raise ValueError("a lane needs gamma >= 0 and kappa 0 or 1")
    k = _step_multiple(gust, config, model.A, reference.A_m)
    u_d_grid = _gust_grid(gust, config, model.B_g.shape[1])
    y = np.hstack([np.zeros((B, 2 * n)), thetas.reshape(B, -1)])
    run = (_lane_field(model, reference, Q, P), np.column_stack([kappas, gammas]),
           u_d_grid[::k])
    if take is not None:
        return _rk4(run, y, k, config, _dense(run, k, config, take))

    results = []
    for steps, time, ys, error in _collect(run, y, k, config):
        x, xm, theta = ys[:, :n], ys[:, n:2 * n], ys[:, 2 * n:].reshape(-1, n, m)
        trace = SimulationTrace(
            time=time, x=x, outputs=x @ model.C_out.T, u_d=u_d_grid[2 * steps],
            output_labels=model.output_labels, x_m=xm, e=x - xm, theta=theta,
            u_c=(_control if error is None else _failed_control)(theta, x),
            diverged=error is not None, step_multiple=k)
        results.append(trace if error is None else SimulationError(error, trace=trace))
    return results


def open_loop_of(result):
    """The open-loop trace, or SimulationError, of a lane with gamma = kappa
    = 0 and theta(0) = 0: its plant state alone, as ``integrate_open_loop``
    gives it."""
    if isinstance(result, SimulationError):
        return SimulationError(str(result), trace=open_loop_of(result.trace))
    return replace(result, x_m=None, e=None, theta=None, u_c=None)


def integrate_closed_loop(model, reference: ReferenceModel, design: LyapunovDesign,
                          theta0: np.ndarray, gust, config: SimulationConfig) -> SimulationTrace:
    """The one lane of ``integrate_lanes`` with the design's Q, P and rate and
    kappa = 1: the measured gust drives plant and reference model, each
    with its own nonlinear residual (Eq. 4/5 structure) where its ``nl`` is
    set, both start from zero and the gains from theta0 (n, m); there is no
    reference command (gust-load-alleviation regulation)."""
    _check_dt(config, model.A, reference.A_m)
    (result,) = _lanes(model, reference, design.Q, design.P, [design.gamma], [1.0], [theta0],
                       gust, config)
    if isinstance(result, SimulationError):
        raise result
    return result


def integrate_open_loop(model, gust, config: SimulationConfig,
                        x0: np.ndarray | None = None) -> SimulationTrace:
    """Uncontrolled gust response under the same RK4 scheme."""
    _check_dt(config, model.A)
    k, u_d = _step_multiple(gust, config, model.A), _gust_grid(gust, config, model.p)
    x = np.zeros((1, model.n)) if x0 is None else np.array(x0, dtype=float)[None]
    run = (model.field(), np.zeros((1, model.m)), u_d[::k])  # u_c = 0
    ((steps, time, xs, error),) = _collect(run, x, k, config)
    trace = SimulationTrace(
        time=time, x=xs, outputs=xs @ model.C_out.T, u_d=u_d[2 * steps],
        output_labels=model.output_labels, diverged=error is not None, step_multiple=k)
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


def _finish(label: str, opened, closed) -> GlaMetrics:
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
        settled=ratio <= _SETTLE_TOL,
        settle_ratio=ratio,
    )


def compute_metrics(open_trace: SimulationTrace, closed_trace: SimulationTrace,
                    output: str | int = 0) -> GlaMetrics:
    if open_trace.time.shape != closed_trace.time.shape or not np.array_equal(
        open_trace.time, closed_trace.time
    ):
        raise ValueError("open- and closed-loop traces do not share a time grid")
    labels = closed_trace.output_labels
    idx = labels.index(output) if isinstance(output, str) else int(output)
    u_c = None if closed_trace.u_c is None else closed_trace.u_c[:, None]
    e_norm = None if closed_trace.e is None else np.linalg.norm(closed_trace.e, axis=1)[:, None]
    return _finish(labels[idx], _stats(open_trace.outputs[:, idx, None])[:, 0],
                   _stats(closed_trace.outputs[:, idx, None], u_c, e_norm)[:, 0])


def sweep_metrics(model, reference: ReferenceModel, Q, P, gammas, thetas, gust,
                  config: SimulationConfig, output: int = 0):
    """``compute_metrics`` of output index ``output`` for the lanes (gammas[b],
    kappa = 1, thetas[b]) of ``integrate_lanes`` against the open loop, lane 0
    of their batch, each chunk of logged rows reduced as it fills, so that no
    trace is kept: one GlaMetrics or SimulationError (without a trace) per
    lane; if the open loop diverged, every lane gets its error."""
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

    opened, *closed = (failure and failure[0] for failure in _lanes(
        model, reference, Q, P, np.r_[0.0, gammas], np.r_[0.0, np.ones(len(gammas))],
        np.vstack([np.zeros((1, n, m)), thetas]), gust, config, take))
    return [SimulationError(opened or error) if opened or error
            else _finish(model.output_labels[output], sums[:, 0], sums[:, b])
            for b, error in enumerate(closed, 1)]
