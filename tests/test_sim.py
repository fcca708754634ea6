import numpy as np
import pytest

from aeromrac.gusts import OneCosineGust, ZeroGust
from aeromrac.mrac import (
    ControllerState,
    build_reference_model,
    make_design,
)
from aeromrac.sim import (
    SimulationConfig,
    SimulationError,
    SimulationTrace,
    compute_metrics,
    integrate_closed_loop,
    integrate_open_loop,
)


class TinyPlant:
    """Two-state test plant with an optional quadratic residual."""

    def __init__(self, A, quad=0.0):
        self.A = np.asarray(A, dtype=float)
        self.B_c = np.array([[0.0], [1.0]])
        self.B_g = np.array([[1.0], [0.0]])
        self.C_out = np.eye(2)
        self.output_labels = ("y0", "y1")
        self.quad = quad

    def eval_f_nr(self, x):
        return self.quad * np.asarray(x) ** 2

    def rhs(self, x, u_c, u_d, nonlinear=True):
        dx = self.A @ x + self.B_c @ np.atleast_1d(u_c) + self.B_g @ np.atleast_1d(u_d)
        return dx + self.eval_f_nr(x) if nonlinear else dx


def _controller(rom, gamma=0.5, q_scale=0.03, damping=1.5):
    ref = build_reference_model(rom, damping)
    design = make_design(ref.A_m, q_scale * np.eye(rom.n), gamma=gamma, m=1)
    state = ControllerState(theta=np.zeros((rom.n + 1, 1)), K0=np.zeros((1, rom.n)))
    return ref, design, state


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
        plant = TinyPlant([[-0.1, 10.0], [-10.0, -0.1]])
        cfg = SimulationConfig(dt=0.1, duration=1.0)
        with pytest.warns(UserWarning, match="stability heuristic"):
            integrate_open_loop(plant, ZeroGust(), cfg)


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

    def test_divergence_carries_partial_trace(self):
        plant = TinyPlant([[-0.5, 1.0], [-1.0, -0.5]], quad=4.0)
        cfg = SimulationConfig(dt=0.01, duration=20.0, divergence_threshold=1e6)
        with pytest.raises(SimulationError, match="diverged") as exc:
            integrate_open_loop(plant, OneCosineGust(3.0, 2.0, 1.0), cfg)
        trace = exc.value.trace
        assert isinstance(trace, SimulationTrace)
        assert trace.diverged
        assert trace.time[-1] < 20.0

    def test_divergence_logs_the_diverged_state(self):
        # as in the closed loop, the last row is the finite state that left
        # the bound, at the time the message names
        plant = TinyPlant([[-0.5, 1.0], [-1.0, -0.5]], quad=4.0)
        cfg = SimulationConfig(dt=0.01, duration=20.0, divergence_threshold=1e6)
        with pytest.raises(SimulationError) as exc:
            integrate_open_loop(plant, OneCosineGust(3.0, 2.0, 1.0), cfg)
        trace = exc.value.trace
        last = np.abs(trace.x[-1]).max()
        assert np.isfinite(last) and last > 1e6
        assert f"t = {trace.time[-1]:.6g} " in str(exc.value)


class TestClosedLoop:
    def test_zero_gust_zero_gains_stay_zero(self, rom):
        ref, design, state = _controller(rom)
        cfg = SimulationConfig(dt=0.01, duration=1.0)
        trace = integrate_closed_loop(rom, ref, design, state, ZeroGust(), cfg)
        assert np.all(trace.x == 0.0) and np.all(trace.x_m == 0.0)
        assert np.all(trace.theta == 0.0) and np.all(trace.u_c == 0.0)

    def test_dimension_mismatch_rejected(self, rom):
        ref, design, state = _controller(rom)
        plant = TinyPlant(-np.eye(2))
        cfg = SimulationConfig(dt=0.01, duration=1.0)
        with pytest.raises(ValueError, match="dimension"):
            integrate_closed_loop(plant, ref, design, state, ZeroGust(), cfg)

    def test_deterministic(self, rom):
        cfg = SimulationConfig(dt=0.02, duration=10.0)
        runs = []
        for _ in range(2):
            ref, design, state = _controller(rom)
            runs.append(
                integrate_closed_loop(rom, ref, design, state,
                                      OneCosineGust(0.14, 2.0, 1.0), cfg)
            )
        assert np.array_equal(runs[0].x, runs[1].x)
        assert np.array_equal(runs[0].theta, runs[1].theta)

    def test_theta_written_back(self, rom):
        ref, design, state = _controller(rom)
        cfg = SimulationConfig(dt=0.02, duration=10.0)
        trace = integrate_closed_loop(rom, ref, design, state,
                                      OneCosineGust(0.14, 2.0, 1.0), cfg)
        assert np.array_equal(state.theta, trace.theta[-1])
        assert np.abs(state.theta).max() > 0.0

    def test_logged_control_is_the_law(self, rom):
        # u_c = theta^T [x; r] + K0 x with r = 0: the Kr rows of theta stay idle
        ref, design, _ = _controller(rom)
        rng = np.random.default_rng(21)
        K0 = 0.01 * rng.normal(size=(1, rom.n))
        state = ControllerState(theta=0.01 * rng.normal(size=(rom.n + 1, 1)), K0=K0)
        trace = integrate_closed_loop(rom, ref, design, state, OneCosineGust(0.14, 2.0, 1.0),
                                      SimulationConfig(dt=0.02, duration=10.0))
        want = np.einsum("ti,tik->tk", trace.x, trace.theta[:, :rom.n]) + trace.x @ K0.T
        assert np.abs(want).max() > 0.0
        np.testing.assert_allclose(trace.u_c, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_adaptation_is_gust_driven(self, rom):
        # gains start moving while the gust acts, then settle once the
        # transient has rung down
        ref, design, state = _controller(rom)
        gust = OneCosineGust(0.14, 2.5, 1.0)  # active on [0, 5]
        cfg = SimulationConfig(dt=0.02, duration=120.0)
        trace = integrate_closed_loop(rom, ref, design, state, gust, cfg)
        drift = np.linalg.norm(trace.theta - trace.theta[0], axis=(1, 2))
        in_gust = trace.time <= gust.duration
        assert drift[in_gust][-1] > 0.0
        settle = drift[np.searchsorted(trace.time, 110.0)]
        assert abs(drift[-1] - settle) < 0.01 * drift[-1]


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
