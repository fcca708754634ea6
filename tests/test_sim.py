import warnings
from dataclasses import replace

import numpy as np
import pytest

from aeromrac.gusts import OneCosineGust, VonKarmanGust, ZeroGust
from aeromrac.mrac import (
    LyapunovDesign,
    ReferenceModel,
    build_reference_model,
    make_design,
)
from aeromrac import sim
from aeromrac.romgen import Plant, PolyNonlinearity, stack_plants
from aeromrac.sim import (
    SimulationConfig,
    SimulationError,
    SimulationTrace,
    compute_metrics,
    integrate_closed_loop,
    integrate_lanes,
    integrate_open_loop,
)
from conftest import open_and_closed


def tiny_plant(A, quad=0.0):
    """Two-state test plant with the quadratic residual quad * x**2."""
    return Plant(A=np.asarray(A, dtype=float), B_c=np.array([[0.0], [1.0]]),
                 B_g=np.array([[1.0], [0.0]]), C_out=np.eye(2), output_labels=("y0", "y1"),
                 nl=PolyNonlinearity(np.eye(2), np.eye(2), np.full(2, quad), np.zeros(2)))


def _controller(rom, gamma=0.5, q_scale=0.03, damping=1.5):
    ref = build_reference_model(rom, damping)
    design = make_design(ref.A_m, q_scale * np.eye(rom.n), gamma=gamma, m=1)
    return ref, design, np.zeros((rom.n, 1))


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="dt"):
            SimulationConfig(dt=0.0, duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            SimulationConfig(dt=0.1, duration=0.05)
        with pytest.raises(ValueError, match="log_stride"):
            SimulationConfig(dt=0.1, duration=1.0, log_stride=0)

    def test_step_count(self):
        assert SimulationConfig(dt=0.02, duration=1.0).n_steps == 50

    def test_dt_heuristic_warning(self):
        plant = tiny_plant([[-0.1, 10.0], [-10.0, -0.1]])
        cfg = SimulationConfig(dt=0.1, duration=1.0)
        with pytest.warns(UserWarning, match="stability heuristic"):
            integrate_open_loop(plant, ZeroGust(), cfg)

    def test_dt_heuristic_reads_the_reference_model(self, rom):
        # |lambda(A_m)| = 30 puts the limit at 0.0033 < dt, while the plant
        # alone passes the heuristic
        ref, design, theta0 = _controller(rom, damping={0: (30.0, 0.07)})
        cfg = SimulationConfig(dt=0.01, duration=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate_open_loop(rom, ZeroGust(), cfg)
        # each entry warns at its caller's line, here
        for run in (lambda: integrate_closed_loop(rom, ref, design, theta0, ZeroGust(), cfg),
                    lambda: integrate_lanes(rom, ref, design.Q, design.P, [design.gamma], [1.0],
                                            [theta0], ZeroGust(), cfg),
                    lambda: sim.sweep_metrics(rom, ref, design.Q, design.P, [design.gamma],
                                              [theta0], ZeroGust(), cfg)):
            with pytest.warns(UserWarning, match="stability heuristic") as record:
                run()
            assert [w.filename for w in record] == [__file__]


class TestOpenLoop:
    def test_zero_gust_zero_state_stays_zero(self, rom):
        cfg = SimulationConfig(dt=0.01, duration=1.0)
        trace = integrate_open_loop(rom, ZeroGust(), cfg)
        assert np.all(trace.x == 0.0)
        assert np.all(trace.outputs == 0.0)
        assert not trace.closed_loop and not trace.diverged

    def test_linear_response_scales_with_gust(self, rom):
        cfg = SimulationConfig(dt=0.01, duration=5.0, plant_nonlinear=False)
        t1 = integrate_open_loop(rom, OneCosineGust(0.01, 1.0, 1.0), cfg)
        t2 = integrate_open_loop(rom, OneCosineGust(0.02, 1.0, 1.0), cfg)
        assert np.allclose(t2.x, 2.0 * t1.x, rtol=1e-12, atol=1e-15)

    def test_converges_in_dt_under_turbulence(self, rom):
        # one seed is one smooth realisation at every dt, so halving dt cuts
        # RK4's error sixteenfold: the Richardson ratio of the pitch traces on
        # their shared times lies in criterion 11's band (16.1 measured)
        pitch = []
        for dt in (0.02, 0.01, 0.005):
            gust = VonKarmanGust(0.05, 12.0, 1.0, dt, 300.0, seed=0)
            cfg = SimulationConfig(dt=dt, duration=300.0, log_stride=round(0.02 / dt))
            pitch.append(integrate_open_loop(rom, gust, cfg).outputs[:, 0])
        ratio = np.abs(pitch[0] - pitch[1]).max() / np.abs(pitch[1] - pitch[2]).max()
        assert 10.0 <= ratio <= 24.0

    def test_deterministic(self, rom):
        cfg = SimulationConfig(dt=0.01, duration=2.0)
        a = integrate_open_loop(rom, OneCosineGust(0.1, 1.0, 1.0), cfg)
        b = integrate_open_loop(rom, OneCosineGust(0.1, 1.0, 1.0), cfg)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.time, b.time)

    def test_normal_system_energy_envelope(self, rom):
        # the block-modal A is normal, so ||x(t)|| <= ||x0|| exp(mu t)
        cfg = SimulationConfig(dt=0.005, duration=5.0, plant_nonlinear=False)
        x0 = np.random.default_rng(20).normal(size=rom.n)
        trace = integrate_open_loop(rom, ZeroGust(), cfg, x0=x0)
        mu = np.linalg.eigvals(rom.A).real.max()
        bound = 1.01 * np.linalg.norm(x0) * np.exp(mu * trace.time)
        assert np.all(np.linalg.norm(trace.x, axis=1) <= bound)

    def test_log_stride(self, rom):
        cfg = SimulationConfig(dt=0.01, duration=1.0, log_stride=10)
        trace = integrate_open_loop(rom, ZeroGust(), cfg)
        assert trace.time.shape[0] == 11
        assert trace.time[1] == pytest.approx(0.1)

    def test_log_stride_past_the_end_logs_the_ends(self, rom):
        cfg = SimulationConfig(dt=0.01, duration=1.0, log_stride=10**30)
        trace = integrate_open_loop(rom, ZeroGust(), cfg)
        assert trace.time == pytest.approx([0.0, 1.0])

    def test_divergence_carries_partial_trace(self):
        plant = tiny_plant([[-0.5, 1.0], [-1.0, -0.5]], quad=4.0)
        cfg = SimulationConfig(dt=0.01, duration=20.0, divergence_threshold=1e6)
        with pytest.raises(SimulationError, match="diverged") as exc:
            integrate_open_loop(plant, OneCosineGust(3.0, 2.0, 1.0), cfg)
        trace = exc.value.trace
        assert isinstance(trace, SimulationTrace)
        assert trace.diverged
        assert trace.time[-1] < 20.0

    def test_divergence_logs_the_diverged_state(self):
        # as in the closed loop, the last row is the finite state that left
        # the bound, at the time the message names.  RK4 steps at h = 5 dt
        # here, so that state is a node: the rows before it are the dt grid up
        # to the last node within the bound, bit for bit the run that ends
        # there, and the diverged node follows one step later
        plant, gust = tiny_plant([[-0.5, 1.0], [-1.0, -0.5]], quad=4.0), OneCosineGust(3.0, 2.0, 1.0)
        cfg = SimulationConfig(dt=0.01, duration=20.0, divergence_threshold=1e6)
        with pytest.raises(SimulationError) as exc:
            integrate_open_loop(plant, gust, cfg)
        trace = exc.value.trace
        last = np.abs(trace.x[-1]).max()
        assert np.isfinite(last) and last > 1e6 >= np.abs(trace.x[:-1]).max()
        assert f"t = {trace.time[-1]:.6g} " in str(exc.value)
        rows, k = trace.time.shape[0] - 1, trace.step_multiple
        assert k == 5 and (rows - 1) % k == 0
        assert trace.time[-1] == pytest.approx(trace.time[-2] + k * cfg.dt, rel=1e-12)
        cut = replace(cfg, duration=trace.time[-2])
        assert cut.n_steps == rows - 1
        short = integrate_open_loop(plant, gust, cut)
        for name in ("time", "x", "outputs", "u_d"):
            assert np.array_equal(getattr(trace, name)[:-1], getattr(short, name)), name


    def test_plant_without_gust_input_is_not_driven(self):
        # B_g of shape (n, 0): the gust reaches no coordinate of the field,
        # neither the control nor a gain
        plant = Plant(A=-np.eye(2), B_c=np.ones((2, 1)), B_g=np.zeros((2, 0)),
                      C_out=np.eye(1, 2), output_labels=("y",))
        gust, cfg = OneCosineGust(0.5, 2.0, 1.0), SimulationConfig(dt=0.02, duration=6.0)
        assert np.all(integrate_open_loop(plant, gust, cfg).x == 0.0)
        ref = ReferenceModel(A_m=-2.0 * np.eye(2))
        opened, (closed,) = open_and_closed(plant, ref, make_design(ref.A_m, np.eye(2), 0.5, m=1),
                                            [0.5], [np.zeros((2, 1))], gust, cfg)
        assert np.all(opened.x == 0.0) and np.all(closed.x == 0.0)
        assert np.all(closed.theta == 0.0) and np.all(closed.u_c == 0.0)


class TestClosedLoop:
    def test_zero_gust_zero_gains_stay_zero(self, rom):
        ref, design, theta0 = _controller(rom)
        cfg = SimulationConfig(dt=0.01, duration=1.0)
        trace = integrate_closed_loop(rom, ref, design, theta0, ZeroGust(), cfg)
        assert np.all(trace.x == 0.0) and np.all(trace.x_m == 0.0)
        assert np.all(trace.theta == 0.0) and np.all(trace.u_c == 0.0)

    def test_dimension_mismatch_rejected(self, rom):
        ref, design, theta0 = _controller(rom)
        plant = tiny_plant(-np.eye(2))
        cfg = SimulationConfig(dt=0.01, duration=1.0)
        with pytest.raises(ValueError, match="dimension"):
            integrate_closed_loop(plant, ref, design, theta0, ZeroGust(), cfg)

    def test_deterministic(self, rom):
        cfg = SimulationConfig(dt=0.02, duration=10.0)
        runs = []
        for _ in range(2):
            ref, design, theta0 = _controller(rom)
            runs.append(
                integrate_closed_loop(rom, ref, design, theta0,
                                      OneCosineGust(0.14, 2.0, 1.0), cfg)
            )
        assert np.array_equal(runs[0].x, runs[1].x)
        assert np.array_equal(runs[0].theta, runs[1].theta)

    def test_initial_gains_are_not_mutated(self, rom):
        # the run integrates a copy of theta(0): the caller's array keeps its
        # values while the logged gains move away from them
        ref, design, _ = _controller(rom)
        theta0 = 0.01 * np.random.default_rng(23).normal(size=(rom.n, 1))
        given = theta0.copy()
        gust, cfg = OneCosineGust(0.14, 2.0, 1.0), SimulationConfig(dt=0.02, duration=10.0)
        _, (batched,) = open_and_closed(rom, ref, design, [design.gamma], [theta0], gust, cfg)
        for trace in (integrate_closed_loop(rom, ref, design, theta0, gust, cfg), batched):
            assert np.array_equal(trace.theta[0], given)
            assert not np.array_equal(trace.theta[-1], given)
        assert np.array_equal(theta0, given)

    def test_logged_control_is_the_law(self, rom):
        # u_c = theta^T x, theta the total gain: a pre-gain K0 is in theta(0) = K0^T
        ref, design, _ = _controller(rom)
        rng = np.random.default_rng(21)
        K0 = 0.01 * rng.normal(size=(1, rom.n))
        theta0 = 0.01 * rng.normal(size=(rom.n, 1)) + K0.T
        trace = integrate_closed_loop(rom, ref, design, theta0, OneCosineGust(0.14, 2.0, 1.0),
                                      SimulationConfig(dt=0.02, duration=10.0))
        want = np.einsum("ti,tik->tk", trace.x, trace.theta)
        assert np.abs(want).max() > 0.0
        np.testing.assert_allclose(trace.u_c, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_diverged_row_logs_a_finite_control(self):
        # one step takes x to -1e120 and theta to -1e240, so theta^T x of the
        # logged diverged row is past the float range: it saturates, silently
        plant = Plant(A=np.zeros((1, 1)), B_c=np.ones((1, 1)), B_g=np.ones((1, 1)),
                      C_out=np.eye(1), output_labels=("y",))
        ref = ReferenceModel(A_m=-np.eye(1))
        design = LyapunovDesign(Q=np.eye(1), P=np.eye(1), gamma=6e166)
        cfg = SimulationConfig(dt=0.01, duration=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError) as exc:
                integrate_closed_loop(plant, ref, design, np.full((1, 1), 1e80),
                                      lambda t: np.full_like(t, 4e-116), cfg)
        trace = exc.value.trace
        assert trace.time.shape == (2,) and trace.u_c.shape == (2, 1)
        assert abs(trace.x[-1, 0]) > 1e119 and abs(trace.theta[-1, 0, 0]) > 1e239
        assert trace.u_c[0, 0] == 0.0 and trace.u_c[-1, 0] == np.finfo(float).max

    def test_adaptation_is_gust_driven(self, rom):
        # gains start moving while the gust acts, then settle once the
        # transient has rung down
        ref, design, theta0 = _controller(rom)
        gust = OneCosineGust(0.14, 2.5, 1.0)  # active on [0, 5]
        cfg = SimulationConfig(dt=0.02, duration=120.0)
        trace = integrate_closed_loop(rom, ref, design, theta0, gust, cfg)
        drift = np.linalg.norm(trace.theta - trace.theta[0], axis=(1, 2))
        in_gust = trace.time <= gust.duration
        assert drift[in_gust][-1] > 0.0
        settle = drift[np.searchsorted(trace.time, 110.0)]
        assert abs(drift[-1] - settle) < 0.01 * drift[-1]


class TestOpenLane:
    """The open loop as lane 0 of the closed-loop batch fails on its plant
    state alone."""

    def test_reference_divergence_fails_only_the_closed_lanes(self, rom):
        # A_m = -1e-3 I barely damps: x_m integrates the gust to 7.9 while the
        # plant peaks at 3.7, and the small gains keep the closed x below 5
        ref = ReferenceModel(A_m=-1e-3 * np.eye(rom.n))
        design = make_design(ref.A_m, 0.03 * np.eye(rom.n), gamma=1e-6, m=1)
        thetas = [np.zeros((rom.n, 1))] * 2
        gust = OneCosineGust(0.14, 50.0, 1.0)
        cfg = SimulationConfig(dt=0.1, duration=110.0, divergence_threshold=5.0)
        opened, closed = open_and_closed(rom, ref, design, [1e-6, 1e-4], thetas, gust, cfg)
        assert isinstance(opened, SimulationTrace) and not opened.diverged
        want = integrate_open_loop(rom, gust, cfg)
        assert np.abs(opened.x - want.x).max() <= 1e-12 * np.abs(want.x).max()
        for result in closed:
            assert isinstance(result, SimulationError)
            assert np.abs(result.trace.x).max() < 5.0 < np.abs(result.trace.x_m[-1]).max()

    def test_open_divergence_is_the_open_loop_error(self):
        plant = tiny_plant([[-0.5, 1.0], [-1.0, -0.5]], quad=4.0)
        ref = ReferenceModel(A_m=-np.eye(2))
        design = make_design(ref.A_m, np.eye(2), gamma=0.5, m=1)
        gust = OneCosineGust(3.0, 2.0, 1.0)
        cfg = SimulationConfig(dt=0.01, duration=20.0, divergence_threshold=1e6)
        opened, _ = open_and_closed(plant, ref, design, [0.5], [np.zeros((2, 1))], gust, cfg)
        with pytest.raises(SimulationError) as alone:
            integrate_open_loop(plant, gust, cfg)
        assert isinstance(opened, SimulationError) and str(opened) == str(alone.value)
        assert not opened.trace.closed_loop and opened.trace.u_c is None
        assert np.array_equal(opened.trace.time, alone.value.trace.time)

    def test_batch_is_the_extended_precision_rk4_of_its_field(self, rom):
        # the composed stage operators are RK4 on the lane field itself, at
        # h = 5 dt under the one-cosine gust and at dt under Von Karman
        # turbulence: every output and u_c stays within 3e-13 of its largest
        # magnitude of an np.longdouble RK4 of the same field on the same gust
        # samples, its nodes filled to the dt grid by cubic Hermite dense
        # output in np.longdouble (2e-14 and 8e-14 measured at dt; an operator
        # with the identity folded in drifts to 2e-12)
        ref, design, theta0 = _controller(rom)
        cfg = SimulationConfig(dt=0.01, duration=30.0)
        for gust, k in ((OneCosineGust(0.14, 55.0, 1.0), 5),
                        (VonKarmanGust(0.05, 12.0, 1.0, cfg.dt, cfg.duration, seed=3), 1)):
            opened, (closed,) = open_and_closed(rom, ref, design, [design.gamma], [theta0],
                                                gust, cfg)
            assert opened.step_multiple == closed.step_multiple == k
            want = _extended_precision_lanes(rom, ref, design, theta0, gust, cfg, k)
            x, theta = want[:, 1, :rom.n], want[:, 1, 2 * rom.n:].reshape(-1, rom.n, rom.m)
            for got, expected in ((opened.outputs, want[:, 0, :rom.n] @ rom.C_out.T),
                                  (closed.outputs, x @ rom.C_out.T),
                                  (closed.u_c, np.einsum("ti,tij->tj", x, theta))):
                scale = np.abs(expected).max(axis=0)
                assert (scale > 0.0).all()
                assert (np.abs(got - expected).max(axis=0) <= 3e-13 * scale).all()


class TestDenseOutput:
    """Under a smooth gust RK4 steps at h = k dt and the rows between its
    nodes are cubic Hermite dense output on the dt grid."""

    GUST = OneCosineGust(0.14, 2.0, 1.0)

    def test_node_rows_are_the_run_logged_at_its_step(self, rom):
        # logged every 5 dt, every row is a node: no row is interpolated, and
        # each equals, bit for bit, the node row of the run logged every dt
        ref, design, _ = _controller(rom)
        thetas = [0.01 * np.random.default_rng(26).normal(size=(rom.n, rom.m))]
        runs = [open_and_closed(rom, ref, design, [design.gamma], thetas, self.GUST,
                                SimulationConfig(dt=0.02, duration=6.0, log_stride=stride))
                for stride in (1, 5)]
        (every_open, (every,)), (node_open, (node,)) = runs
        assert every.step_multiple == node.step_multiple == 5
        for got, want, fields in ((node_open, every_open, ("time", "x", "outputs", "u_d")),
                                  (node, every, ("time", "x", "outputs", "u_d", "x_m", "e",
                                                 "theta", "u_c"))):
            for name in fields:
                assert np.array_equal(getattr(got, name), getattr(want, name)[::5]), name


def _extended_precision_lanes(rom, ref, design, theta0, gust, cfg, k):
    """The open lane and the closed lane (design's rate, theta0) as rows (T,
    2, N) on the dt grid: an np.longdouble RK4 of ``sim._lane_field`` at h =
    k dt on the gust's dt half-step samples, its nodes filled by cubic
    Hermite dense output in np.longdouble."""
    ld, n, h = np.longdouble, rom.n, k * np.longdouble(cfg.dt)
    field = sim._lane_field(rom, ref, cfg, design.Q, design.P)
    W, back = field.W.astype(ld), field.back.astype(ld)
    N, K = back.shape[0], back.shape[1] - back.shape[0]
    u_d = sim._gust_grid(gust, cfg, rom.p).astype(ld)
    fixed = np.array([[0.0, 0.0], [1.0, design.gamma]], dtype=ld)  # the open, the closed lane

    def f(y, j):
        Y = np.hstack([y, fixed, np.repeat(u_d[j:j + 1], 2, axis=0), np.ones((2, 1), ld)]) @ W.T
        F = Y[:, N:N + K] * Y[:, N + K:N + 2 * K] * Y[:, N + 2 * K:]
        return np.hstack([Y[:, :N], F]) @ back.T

    y = np.zeros((2, N), ld)
    y[1, 2 * n:] = theta0.ravel()
    nodes = [y]
    for j in range(0, 2 * cfg.n_steps, 2 * k):
        k1 = f(y, j)
        k2 = f(y + h / 2 * k1, j + k)
        k3 = f(y + h / 2 * k2, j + k)
        k4 = f(y + h * k3, j + 2 * k)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        nodes.append(y)
    ys = []
    for i in range(cfg.n_steps + 1):
        j, t = i // k, ld(i % k) / k
        if t == 0:
            ys.append(nodes[j])
            continue
        f0, f1 = f(nodes[j], 2 * k * j), f(nodes[j + 1], 2 * k * (j + 1))
        ys.append((2 * t**3 - 3 * t**2 + 1) * nodes[j] + (t**3 - 2 * t**2 + t) * h * f0
                  + (3 * t**2 - 2 * t**3) * nodes[j + 1] + (t**3 - t**2) * h * f1)
    return np.array(ys)


class TestLaneSpec:
    """A lane of ``integrate_lanes`` is its rate gamma >= 0, its gust switch
    kappa, 0 or 1, and its theta(0), beside the batch's one Q and P."""

    def test_refuses_a_bad_lane(self, rom):
        ref, design, theta0 = _controller(rom)
        cfg = SimulationConfig(dt=0.01, duration=0.1)
        for gammas, kappas, thetas in (([-0.5], [1.0], [theta0]), ([np.nan], [1.0], [theta0]),
                                       ([0.5], [0.5], [theta0]), ([0.5] * 2, [1.0], [theta0] * 2),
                                       ([0.5], [1.0], [theta0.T]), ([], [], [])):
            with pytest.raises(ValueError, match="lane|batch"):
                integrate_lanes(rom, ref, design.Q, design.P, gammas, kappas, thetas,
                                ZeroGust(), cfg)

    def test_fixed_gain_lane_is_the_open_loop_of_the_gained_plant(self, rom):
        # gamma = kappa = 0 with theta(0) = K^T: theta stays K^T and x_m at 0,
        # x is the open loop of A + B_c K, and the lane's control is u_c = K x
        ref, design, _ = _controller(rom)
        K = 0.01 * np.random.default_rng(24).normal(size=(rom.m, rom.n))
        gust, cfg = OneCosineGust(0.14, 2.0, 1.0), SimulationConfig(dt=0.02, duration=20.0)
        (lane,) = integrate_lanes(rom, ref, design.Q, design.P, [0.0], [0.0], [K.T], gust, cfg)
        plant = Plant(A=rom.A + rom.B_c @ K, B_c=rom.B_c, B_g=rom.B_g, C_out=rom.C_out,
                      output_labels=rom.output_labels, nl=rom.nl)
        want = integrate_open_loop(plant, gust, cfg)
        for got, expected in ((lane.x, want.x), (lane.outputs, want.outputs),
                              (lane.u_c, lane.x @ K.T)):
            scale = np.abs(expected).max(axis=0)
            assert (scale > 0.0).all()
            assert (np.abs(got - expected).max(axis=0) <= 1e-12 * scale).all()
        assert np.array_equal(lane.time, want.time) and np.array_equal(lane.u_d, want.u_d)
        assert np.all(lane.x_m == 0.0) and np.all(lane.theta == K.T)

    def test_lane_without_adaptation_holds_its_gains(self, rom):
        # gamma = 0, kappa = 1: the reference model runs under the gust while
        # theta stays at theta(0) bit for bit
        ref, design, _ = _controller(rom)
        theta0 = 0.01 * np.random.default_rng(25).normal(size=(rom.n, rom.m))
        gust, cfg = OneCosineGust(0.14, 2.0, 1.0), SimulationConfig(dt=0.02, duration=20.0)
        (lane,) = integrate_lanes(rom, ref, design.Q, design.P, [0.0], [1.0], [theta0], gust,
                                  cfg)
        assert np.abs(lane.e).max() > 0.0
        assert (lane.theta.view(np.uint64) == theta0.view(np.uint64)).all()


def _written_out_run(rom, ref, design, theta0, gust, cfg, k):
    """x, x_m, theta and u_c from a serial RK4 of the written-out law at the
    step h = k dt, its nodes filled to the dt grid by cubic Hermite dense
    output: x' = A x + B_c u + B_g u_d + F(x), x_m' = A_m x_m + B_g u_d +
    [F(x_m)], theta' = -gamma Q x e^T P B_c, u = x^T theta, theta (n, m) from
    theta0."""
    n, m, h = rom.n, rom.m, k * cfg.dt
    b_g, PB = rom.B_g[:, 0], design.P @ rom.B_c
    f_plant = cfg.plant_nonlinear
    f_ref = cfg.plant_nonlinear and cfg.reference_nonlinear

    def f(t, y):
        x, xm, theta = y[:n], y[n:2 * n], y[2 * n:].reshape(n, m)
        u = x @ theta
        w = gust(t)
        dx = rom.A @ x + rom.B_c @ u + b_g * w + (rom.nl(x) if f_plant else 0.0)
        dxm = ref.A_m @ xm + b_g * w + (rom.nl(xm) if f_ref else 0.0)
        dtheta = -design.gamma * np.outer(design.Q @ x, (x - xm) @ PB)
        return np.concatenate([dx, dxm, dtheta.ravel()])

    y = np.concatenate([np.zeros(2 * n), theta0.ravel()])
    nodes = [y]
    for j in range(cfg.n_steps // k):
        t0, t1, t2 = 0.5 * h * (2 * j), 0.5 * h * (2 * j + 1), 0.5 * h * (2 * j + 2)
        k1 = f(t0, y)
        k2 = f(t1, y + 0.5 * h * k1)
        k3 = f(t1, y + 0.5 * h * k2)
        k4 = f(t2, y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        nodes.append(y)
    ys = []
    for i in range(cfg.n_steps + 1):
        j, t = i // k, (i % k) / k
        if t == 0.0:
            ys.append(nodes[j])
            continue
        f0, f1 = f(j * h, nodes[j]), f((j + 1) * h, nodes[j + 1])
        ys.append((2 * t**3 - 3 * t**2 + 1) * nodes[j] + (t**3 - 2 * t**2 + t) * h * f0
                  + (3 * t**2 - 2 * t**3) * nodes[j + 1] + (t**3 - t**2) * h * f1)
    ys = np.array(ys)
    x, theta = ys[:, :n], ys[:, 2 * n:].reshape(-1, n, m)
    u_c = np.einsum("ti,tij->tj", x, theta)
    return x, ys[:, n:2 * n], theta, u_c


class TestStackedPlant:
    """The fused closed loop (plant and reference model as one stacked
    Plant) against a serial RK4 of the written-out law."""

    GUST = OneCosineGust(0.5, 2.0, 1.0)

    def _lanes(self, rom, count):
        ref = build_reference_model(rom, 1.5)
        rng = np.random.default_rng(22 + count)
        lanes = []
        for gamma in (0.5, 0.1, 2.0)[:count]:
            design = make_design(ref.A_m, 0.03 * np.eye(rom.n), gamma=gamma, m=rom.m)
            theta = 0.01 * rng.normal(size=(rom.n, rom.m))
            K0 = 0.01 * rng.normal(size=(rom.m, rom.n))
            lanes.append((design, theta + K0.T))  # a pre-gain K0 enters as theta(0) = K0^T
        return ref, lanes

    def _assert_batch_matches(self, rom, count, cfg):
        # the one-cosine gust steps these runs at h = 5 dt
        ref, lanes = self._lanes(rom, count)
        wants = [_written_out_run(rom, ref, d, s, self.GUST, cfg, 5)
                 for d, s in lanes]
        # the lanes' designs share Q and P: a lane is its rate and theta(0)
        _, traces = open_and_closed(rom, ref, lanes[0][0], [d.gamma for d, _ in lanes],
                                    [s for _, s in lanes], self.GUST, cfg)
        for trace, want in zip(traces, wants):
            assert trace.step_multiple == 5
            for got, expected in zip((trace.x, trace.x_m, trace.theta, trace.u_c), want):
                assert got.shape == expected.shape
                scale = np.abs(expected).max()
                assert scale > 0.0
                assert np.abs(got - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("plant_nl,ref_nl", [(True, True), (True, False),
                                                 (False, True), (False, False)])
    def test_batch_matches_written_out_law(self, rom, count, plant_nl, ref_nl):
        cfg = SimulationConfig(dt=0.02, duration=6.0, plant_nonlinear=plant_nl,
                               reference_nonlinear=ref_nl)
        self._assert_batch_matches(rom, count, cfg)

    @pytest.mark.parametrize("count", [1, 3])
    def test_multi_input_batch_matches_written_out_law(self, rom, count):
        # a second control input with its own column of B_c: theta is (n, 2),
        # so its (i, j) columns and the law's outer product are told apart
        rng = np.random.default_rng(5)
        B_c = np.hstack([rom.B_c, np.abs(rom.B_c).max() * rng.normal(size=(rom.n, 1))])
        plant = Plant(A=rom.A, B_c=B_c, B_g=rom.B_g, C_out=rom.C_out,
                      output_labels=rom.output_labels, nl=rom.nl)
        self._assert_batch_matches(plant, count, SimulationConfig(dt=0.02, duration=6.0))

    def test_reference_nonlinearity_is_visible(self, rom):
        # the flag moves x_m far beyond the tolerance above, so the cases
        # with and without the reference block are told apart
        ref, [(design, theta0)] = self._lanes(rom, 1)
        runs = [_written_out_run(rom, ref, design, theta0, self.GUST,
                                 SimulationConfig(dt=0.02, duration=6.0,
                                                  reference_nonlinear=flag), 5)[1]
                for flag in (True, False)]
        assert np.abs(runs[0] - runs[1]).max() > 1e-9 * np.abs(runs[0]).max()


def _two_block_layout(model, reference, plant_nl=True, ref_nl=True):
    """The closed-loop plant written out block by block: A = diag(A, A_m),
    B_c = [B_c; 0], B_g = [B_g; B_g], G = blkdiag(G, G or 0), H =
    blkdiag(H, H), quad and cubic tiled twice; no F for a linear plant."""
    n = model.n
    nl = model.nl if plant_nl else None
    if nl is not None:
        Z = np.zeros((n, nl.H.shape[0]))
        nl = PolyNonlinearity(G=np.block([[nl.G, Z], [Z, nl.G if ref_nl else Z]]),
                              H=np.block([[nl.H, Z.T], [Z.T, nl.H]]),
                              quad=np.tile(nl.quad, 2), cubic=np.tile(nl.cubic, 2))
    Z = np.zeros((n, n))
    return Plant(A=np.block([[model.A, Z], [Z, reference.A_m]]),
                 B_c=np.vstack([model.B_c, np.zeros_like(model.B_c)]),
                 B_g=np.vstack([model.B_g, model.B_g]),
                 C_out=np.hstack([model.C_out, np.zeros_like(model.C_out)]),
                 output_labels=model.output_labels, nl=nl)


class TestStackPlants:
    GUST = OneCosineGust(0.5, 2.0, 1.0)
    CONFIG = SimulationConfig(dt=0.02, duration=6.0)

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_one_open_loop_run_matches_separate_runs(self, fom, rom, nonlinear):
        cfg = SimulationConfig(dt=0.02, duration=6.0, plant_nonlinear=nonlinear)
        stacked = integrate_open_loop(stack_plants(fom, rom), self.GUST, cfg)
        apart = [integrate_open_loop(model, self.GUST, cfg) for model in (fom, rom)]
        for got, want in ((stacked.x, [tr.x for tr in apart]),
                          (stacked.outputs, [tr.outputs for tr in apart])):
            want = np.hstack(want)
            assert got.shape == want.shape
            assert (np.abs(got - want).max(axis=0) <= 1e-12 * np.abs(want).max(axis=0)).all()
        assert np.array_equal(stacked.time, apart[0].time)
        assert stacked.output_labels == fom.output_labels + rom.output_labels

    def test_stacked_divergence_stops_at_the_diverging_part(self, rom):
        # the diverging plant, stacked under a stable part
        part = tiny_plant([[-0.5, 1.0], [-1.0, -0.5]], quad=4.0)
        gust = OneCosineGust(3.0, 2.0, 1.0)
        cfg = SimulationConfig(dt=0.01, duration=20.0, divergence_threshold=1e6)
        with pytest.raises(SimulationError) as alone:
            integrate_open_loop(part, gust, cfg)
        with pytest.raises(SimulationError) as stacked:
            integrate_open_loop(stack_plants(rom, part), gust, cfg)
        assert str(stacked.value) == str(alone.value)
        assert np.array_equal(stacked.value.trace.time, alone.value.trace.time)

    def _closed(self, rom, config):
        ref, design, theta0 = _controller(rom)
        return ref, integrate_closed_loop(rom, ref, design, theta0, self.GUST, config)

    def test_closed_loop_plant_is_the_two_block_layout(self, rom, monkeypatch):
        built = []

        def spy(*plants):
            built.append(stack_plants(*plants))
            return built[-1]

        monkeypatch.setattr(sim, "stack_plants", spy)
        ref, _ = self._closed(rom, self.CONFIG)
        [got], want = built, _two_block_layout(rom, ref)
        for name in ("A", "B_c", "B_g"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("G", "H", "quad", "cubic"):
            assert np.array_equal(getattr(got.nl, name), getattr(want.nl, name)), name

    @pytest.mark.parametrize("plant_nl,ref_nl", [(True, False), (False, True)])
    def test_closed_loop_matches_two_block_layout_run(self, rom, monkeypatch, plant_nl,
                                                      ref_nl):
        cfg = SimulationConfig(dt=0.02, duration=6.0, plant_nonlinear=plant_nl,
                               reference_nonlinear=ref_nl)
        ref, got = self._closed(rom, cfg)
        monkeypatch.setattr(sim, "stack_plants",
                            lambda *parts: _two_block_layout(rom, ref, plant_nl, ref_nl))
        _, want = self._closed(rom, cfg)
        for name in ("x", "x_m", "theta", "u_c"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


class TestMetrics:
    def _trace(self, y, with_closed=False):
        t = np.linspace(0.0, 1.0, y.shape[0])
        kw = {}
        if with_closed:
            n = y.shape[0]
            kw = dict(
                x_m=np.zeros((n, 1)),
                e=0.1 * np.ones((n, 1)) * np.linspace(1.0, 0.0, n)[:, None],
                u_c=0.2 * y[:, :1],
            )
        return SimulationTrace(
            time=t, x=y, outputs=y, u_d=np.zeros((y.shape[0], 1)),
            output_labels=("y0",), **kw,
        )

    def test_identical_traces_zero_reduction(self):
        y = np.sin(np.linspace(0, 3, 40))[:, None]
        m = compute_metrics(self._trace(y), self._trace(y, with_closed=True))
        assert m.reduction_percent == pytest.approx(0.0)
        assert m.peak_open == m.peak_closed

    def test_quarter_reduction(self):
        y = np.sin(np.linspace(0, 3, 40))[:, None]
        m = compute_metrics(self._trace(y), self._trace(0.75 * y, with_closed=True))
        assert m.reduction_percent == pytest.approx(25.0)
        assert m.rms_closed == pytest.approx(0.75 * m.rms_open)
        assert m.max_flap_cmd == pytest.approx(np.abs(0.2 * 0.75 * y).max())

    def test_output_selected_by_label(self):
        y = np.column_stack([np.ones(10), 2.0 * np.ones(10)])
        t = np.linspace(0, 1, 10)
        tr = SimulationTrace(time=t, x=y, outputs=y, u_d=np.zeros((10, 1)),
                             output_labels=("a", "b"))
        m = compute_metrics(tr, tr, output="b")
        assert m.output == "b" and m.peak_open == 2.0

    def test_settle_ratio(self):
        y = np.zeros((5, 1))
        m = compute_metrics(self._trace(y), self._trace(y, with_closed=True))
        assert m.settle_ratio == pytest.approx(0.0)
        assert m.settled

    def test_grid_mismatch_rejected(self):
        y = np.ones((10, 1))
        a = self._trace(y)
        b = SimulationTrace(
            time=np.linspace(0, 2, 10), x=y, outputs=y,
            u_d=np.zeros((10, 1)), output_labels=("y0",),
        )
        with pytest.raises(ValueError, match="time grid"):
            compute_metrics(a, b)
