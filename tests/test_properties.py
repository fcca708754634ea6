"""Property tests of the plant interface and the integrator: a saved
reduced model equals the original, a plant file with a block cut short is
refused naming the file and a block, a full-dimension reduction reproduces the
full-order model, a batch of states evaluates like its rows one by one, the
lanes of an open/closed batch run like the serial open and closed loops, a
lane runs the same bit for bit whatever batch holds it, a sweep's metrics,
reduced a chunk at a time, equal those of its lanes' traces, a stack of
plants evaluates like its parts, a plant's field on the rows of a gust grid
evaluates like its rhs, and a reduction keeps the states it is asked for or
refuses."""

import json
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aeromrac.gusts import OneCosineGust, VonKarmanGust
from aeromrac import sim
from aeromrac.mrac import (
    ReferenceModel,
    build_reference_model,
    make_design,
)
from aeromrac.plantio import ExternalPlantBundle, PlantIOError, load_plant, save_plant, save_rom
from aeromrac.romgen import (
    Plant,
    PolyNonlinearity,
    RomError,
    default_rom,
    stack_plants,
)
from aeromrac.sim import (
    SimulationConfig,
    SimulationError,
    integrate_closed_loop,
    integrate_open_loop,
)
from conftest import open_and_closed, theta_rate

REL_TOL = 1e-12
inputs = st.floats(-1.0, 1.0, allow_nan=False)


def states(*shape):
    return arrays(np.float64, shape, elements=st.floats(-2.0, 2.0, allow_nan=False))


@pytest.fixture(scope="module")
def reloaded(rom, tmp_path_factory):
    path = tmp_path_factory.mktemp("rom") / "rom.npz"
    save_rom(rom, path)
    return load_plant(path)


@pytest.fixture(scope="module")
def rom_full(fom):
    return default_rom(fom, n=14, n_real=8)  # full spectrum: 3 pairs + 8 reals


@settings(max_examples=50, deadline=None)
@given(x=states(8), u_c=inputs, u_d=inputs)
def test_save_load_is_bit_exact(rom, reloaded, x, u_c, u_d):
    assert np.array_equal(reloaded.eval_f_nr(x), rom.eval_f_nr(x))
    assert np.array_equal(reloaded.rhs(x, u_c, u_d), rom.rhs(x, u_c, u_d))


# the dimension each axis of a plant file's blocks is tied to: a bundle's
# springs are per state, a reduced model's act on k coordinates
PLANT_AXES = {
    "plant-bundle": {"A": "nn", "B_c": "n.", "B_g": "n.", "C_out": ".n", "quad": "n",
                     "cubic": "n"},
    "rom": {"A": "nn", "B_c": "n.", "B_g": "n.", "C_out": ".n", "Phi": "Nn", "Psi": "nN",
            "G": "nk", "H": "kn", "quad": "k", "cubic": "k", "eigenvalues": "n",
            "participation": "n", "mode_kinds": "n"},
}
PLANT_CUTS = [(kind, block, axis) for kind, blocks in PLANT_AXES.items()
              for block, axes in blocks.items() for axis, dim in enumerate(axes) if dim != "."]


@pytest.fixture(scope="module")
def plant_files(rom, tmp_path_factory):
    """A saved default reduced model and a saved nonlinear 3-state bundle."""
    tmp = tmp_path_factory.mktemp("plants")
    save_plant(ExternalPlantBundle(
        A=np.array([[-0.5, 1.0, 0.0], [-1.0, -0.5, 0.2], [0.0, 0.0, -2.0]]),
        B_c=np.array([[0.0], [1.0], [0.5]]), B_g=np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
        C_out=np.eye(2, 3), output_labels=("y0", "y1"),
        quad=np.array([0.2, 0.1, 0.0]), cubic=np.array([0.0, 0.3, -0.1])),
        tmp / "plant-bundle.npz")
    save_rom(rom, tmp / "rom.npz")
    return {"plant-bundle": tmp / "plant-bundle.npz", "rom": tmp / "rom.npz"}


def test_uncut_plant_files_load_bit_for_bit(plant_files, tmp_path):
    # saving the loaded model again writes every array of the file bit for bit
    for kind, path in plant_files.items():
        (save_rom if kind == "rom" else save_plant)(load_plant(path), tmp_path / path.name)
        with np.load(path) as want, np.load(tmp_path / path.name) as got:
            assert sorted(want.files) == sorted(got.files)
            for name in want.files:
                assert np.array_equal(want[name], got[name]), (kind, name)


@pytest.mark.parametrize("kind, block, axis", PLANT_CUTS)
@settings(max_examples=10, deadline=None)
@given(where=st.integers(0, 13))
def test_plant_file_with_a_block_cut_short_is_refused(plant_files, kind, block, axis, where):
    # one entry fewer along an axis tied to n, k or N: loading names the file
    # and a block tied to that dimension
    with np.load(plant_files[kind]) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    values = np.asarray(meta[block] if block == "mode_kinds" else arrays[block])
    values = np.delete(values, where % values.shape[axis], axis=axis)
    if block == "mode_kinds":
        meta[block] = values.tolist()
    else:
        arrays[block] = values
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    path = plant_files[kind].with_name(f"cut-{kind}.npz")
    np.savez(path, **arrays)
    with pytest.raises(PlantIOError) as exc:
        load_plant(path)
    message, prefix = str(exc.value), f"{path}: field '"
    dim = PLANT_AXES[kind][block][axis]
    assert message.startswith(prefix), message
    assert dim in PLANT_AXES[kind][message.removeprefix(prefix).split("'")[0]], message


@settings(max_examples=50, deadline=None)
@given(x=states(14), u_c=inputs, u_d=inputs)
def test_full_dimension_rom_reproduces_fom(fom, rom_full, x, u_c, u_d):
    want = rom_full.Psi @ fom.rhs(rom_full.Phi @ x, u_c, u_d)
    got = rom_full.rhs(x, u_c, u_d)
    assert np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want)


@settings(max_examples=50, deadline=None)
@given(X=st.integers(1, 20).flatmap(lambda T: states(T, 8)))
def test_batched_nonlinearity_equals_rows(rom, X):
    batch = rom.eval_f_nr(X)
    for row, x in zip(batch, X):
        want = rom.eval_f_nr(x)
        assert np.abs(row - want).max() <= REL_TOL * np.abs(want).max()


BATCH_GUST = OneCosineGust(0.14, 2.0, 1.0)
BATCH_CONFIG = SimulationConfig(dt=0.02, duration=6.0)
# RK4 steps at 5 dt under BATCH_GUST and at dt under this turbulence
BATCH_TURBULENCE = VonKarmanGust(0.05, 12.0, 1.0, 0.02, 6.0, seed=5)
OPEN_FIELDS = ("time", "x", "outputs", "u_d")
CLOSED_FIELDS = OPEN_FIELDS + ("x_m", "e", "theta", "u_c")
gamma_lists = st.lists(st.floats(0.01, 2.0), min_size=1, max_size=5)


def _lanes(rom, gammas):
    ref = build_reference_model(rom, 1.5)
    designs = [make_design(ref.A_m, 0.03 * np.eye(rom.n), g, m=rom.m) for g in gammas]
    return ref, designs, [np.zeros((rom.n, rom.m)) for _ in gammas]


def _assert_close(got, want, fields=CLOSED_FIELDS):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= REL_TOL * np.abs(b).max(), name


def _batch(rom, ref, designs, thetas, config=BATCH_CONFIG, gust=BATCH_GUST):
    # the designs share Q and P: a lane is its rate and theta(0)
    return open_and_closed(rom, ref, designs[0], [d.gamma for d in designs], thetas,
                           gust, config)


def _run(rom, gammas):
    return _batch(rom, *_lanes(rom, gammas))


@settings(max_examples=10, deadline=None)
@given(gammas=gamma_lists)
def test_batched_lanes_equal_serial_runs(rom, gammas):
    # the lane count is the length of the drawn gamma list
    opened, closed = _run(rom, gammas)
    assert opened.x_m is None and opened.theta is None and opened.u_c is None
    _assert_close(opened, integrate_open_loop(rom, BATCH_GUST, BATCH_CONFIG), OPEN_FIELDS)
    assert len(closed) == len(gammas)
    for gamma, got in zip(gammas, closed):
        ref, (design,), (serial,) = _lanes(rom, [gamma])
        want = integrate_closed_loop(rom, ref, design, serial, BATCH_GUST, BATCH_CONFIG)
        _assert_close(got, want)
    again_open, again_closed = _run(rom, gammas)
    for got, want in zip([opened, *closed], [again_open, *again_closed]):
        for name in CLOSED_FIELDS if got.x_m is not None else OPEN_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=10, deadline=None)
@given(gammas=gamma_lists, data=st.data())
def test_diverged_lane_fails_alone(rom, gammas, data):
    bad = data.draw(st.integers(0, len(gammas) - 1), label="diverging lane")
    ref, designs, thetas = _lanes(rom, gammas)
    # a gain far outside the stable range: the lane diverges within a few steps
    thetas[bad] = np.full_like(thetas[bad], 1e3)
    opened, batch = _batch(rom, ref, designs, thetas)
    failed = batch[bad]
    assert isinstance(failed, SimulationError) and failed.trace.diverged
    assert failed.trace.time[-1] < BATCH_CONFIG.duration
    _assert_close(opened, integrate_open_loop(rom, BATCH_GUST, BATCH_CONFIG), OPEN_FIELDS)
    keep = [k for k in range(len(gammas)) if k != bad]
    if keep:
        _, rest = _run(rom, [gammas[k] for k in keep])
        for k, want in zip(keep, rest):
            _assert_close(batch[k], want)


def test_diverged_lane_in_a_later_tile_fails_alone_and_silently(rom):
    # a batch of sim.TILE + 2 lanes whose one diverging lane sits in the second
    # tile fails that lane at the step and with the message it fails with
    # alone, warns of nothing, and leaves every other lane, bit for bit, as
    # in the batch without it, in chunks of sim.CHUNK_ROWS nodes and of 2.
    # The lane fails at node 3 of h = 5 dt, so in chunks of 2 its last node
    # within the bound and its failure both come after the first chunk
    gammas = np.linspace(0.05, 2.0, sim.TILE + 1).tolist()
    bad = len(gammas) - 1  # column sim.TILE + 1, after the open lane
    ref, designs, thetas = _lanes(rom, gammas)
    thetas[bad] = np.full_like(thetas[bad], 1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, (alone,) = _batch(rom, ref, designs[bad:], thetas[bad:])
        rest_open, rest = _batch(rom, ref, designs[:bad], thetas[:bad])
        for chunk in (sim.CHUNK_ROWS, 2):
            with mock.patch.object(sim, "CHUNK_ROWS", chunk):
                opened, batch = _batch(rom, ref, designs, thetas)
            _same_trace(batch[bad], alone)
            for got, want in zip([opened, *batch[:bad]], [rest_open, *rest]):
                _same_trace(got, want)
    # the cut, against the lane run on past the bound: the dt-grid rows 0 ..
    # 10 of nodes 0 .. 2, then node 3 at the time RK4 at 5 dt names, u_c
    # saturated at the largest float
    assert isinstance(alone, SimulationError)
    assert str(alone).startswith("state diverged at t = 0.3 ")
    past = SimulationConfig(dt=0.02, duration=0.3, divergence_threshold=np.inf)
    with np.errstate(all="ignore"):
        _, (whole,) = _batch(rom, ref, designs[bad:], thetas[bad:], past)
    for name in CLOSED_FIELDS:
        got, want = getattr(alone.trace, name), getattr(whole, name)[np.r_[:11, 15]]
        last = -1 if name in ("time", "u_c") else None
        assert np.array_equal(got[:last], want[:last]), name


@settings(max_examples=40, deadline=None)
@given(gammas=gamma_lists, data=st.data())
def test_streamed_metrics_equal_serial_traces(rom, gammas, data):
    # the one batch of a sweep, reduced a chunk at a time, against each
    # lane's own open/closed pair traced in full and compute_metrics, with
    # RK4 at 5 dt and at dt
    gust = data.draw(st.sampled_from([BATCH_GUST, BATCH_TURBULENCE]), label="gust")
    diverging = data.draw(st.lists(st.booleans(), min_size=len(gammas),
                                   max_size=len(gammas)), label="diverging lanes")
    config = SimulationConfig(dt=0.02, duration=6.0,
                              log_stride=data.draw(st.integers(1, 7), label="log_stride"),
                              # below the open loop's peak state norm, 0.32
                              divergence_threshold=data.draw(st.sampled_from([1e8, 0.2])))
    rows = -(-config.n_steps // config.log_stride) + 1
    chunk = data.draw(st.integers(1, rows + 1), label="CHUNK_ROWS")
    output = data.draw(st.integers(0, rom.C_out.shape[0] - 1), label="output")

    def lanes():
        ref, designs, thetas = _lanes(rom, gammas)
        for theta, bad in zip(thetas, diverging):
            if bad:  # a gain far outside the stable range
                theta[...] = 1e3
        return ref, designs, thetas

    ref, designs, thetas = lanes()
    with mock.patch.object(sim, "CHUNK_ROWS", chunk):
        got = sim.sweep_metrics(rom, ref, designs[0].Q, designs[0].P, gammas, thetas,
                                gust, config, output)
    _, designs, thetas = lanes()
    assert len(got) == len(gammas)
    for metrics, design, theta in zip(got, designs, thetas):
        opened, (closed,) = _batch(rom, ref, [design], [theta], config, gust)
        error = next((r for r in (opened, closed) if isinstance(r, SimulationError)), None)
        if error is not None:
            assert isinstance(metrics, SimulationError) and str(metrics) == str(error)
            continue
        want = sim.compute_metrics(opened, closed, output)
        for name in ("output", "peak_open", "peak_closed", "reduction_percent", "max_flap_cmd",
                     "settled", "settle_ratio"):
            assert getattr(metrics, name) == getattr(want, name), name
        for name in ("rms_open", "rms_closed"):
            assert abs(getattr(metrics, name) - getattr(want, name)) <= \
                REL_TOL * getattr(want, name), name


def _same_trace(got, want):
    assert type(got) is type(want)
    if isinstance(want, SimulationError):
        assert str(got) == str(want)
        got, want = got.trace, want.trace
    for name in CLOSED_FIELDS if want.x_m is not None else OPEN_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=25, deadline=None)
@given(gammas=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 2.0)), min_size=1,
                       max_size=2 * sim.TILE + 1),
       kappas=st.lists(st.sampled_from([0.0, 1.0]), min_size=2 * sim.TILE + 1,
                       max_size=2 * sim.TILE + 1),
       open_loop=st.booleans(), plant_nl=st.booleans(), ref_nl=st.booleans(),
       log_stride=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
@example(gammas=np.linspace(0.01, 2.0, 2 * sim.TILE + 1).tolist(),
         kappas=[1.0] * (2 * sim.TILE + 1), open_loop=True, plant_nl=True, ref_nl=True,
         log_stride=1, seed=0)
def test_lane_trace_does_not_depend_on_its_batch(rom, gammas, kappas, open_loop, plant_nl,
                                                 ref_nl, log_stride, seed):
    # a lane's trace is the same, bit for bit, whatever the lane count and its
    # position: each drawn lane alone and in the batch reversed, the open
    # lane beside the first drawn lane alone and in the reversed batch.  A
    # drawn lane has its own rate, 0 among them, and gust switch.  Past one
    # tile of sim.TILE lanes, reversing the batch moves lanes between tiles
    # and between columns of a tile.
    config = SimulationConfig(dt=0.02, duration=6.0, log_stride=log_stride)
    rng = np.random.default_rng(seed)
    K0 = 0.01 * rng.normal(size=(len(gammas), rom.m, rom.n))
    theta = 0.01 * rng.normal(size=(len(gammas), rom.n, rom.m))
    ref, (design,), (zero,) = _lanes(rom, [1.0])
    # the plant and the reference model each keep rom's springs or drop them
    plant = rom if plant_nl else replace(rom, nl=None)
    ref = ref if ref_nl else replace(ref, nl=None)

    def run(lanes, open_lane=False):
        # the open lane is gamma = kappa = 0 with theta(0) = 0; a pre-gain K0
        # enters as theta(0) = theta + K0^T
        spec = [(0.0, 0.0, zero)] * open_lane + [(gammas[b], kappas[b], theta[b] + K0[b].T)
                                                 for b in lanes]
        return sim.integrate_lanes(plant, ref, design.Q, design.P, *zip(*spec), BATCH_GUST,
                                   config)

    lanes = list(range(len(gammas)))
    off = int(open_loop)
    batch = run(lanes, open_loop)
    backwards = run(lanes[::-1], open_loop)
    if open_loop:
        # the open lane's x_m, theta and u_c stay exactly 0, in a batch of one
        # tile or of several
        opened = batch[0]
        assert not isinstance(opened, SimulationError)
        assert np.all(opened.x_m == 0.0) and np.all(opened.theta == 0.0)
        assert np.all(opened.u_c == 0.0)
    for b in lanes:
        _same_trace(batch[off + b], run([b])[0])
        _same_trace(batch[off + b], backwards[off + len(lanes) - 1 - b])
    if open_loop:
        _same_trace(batch[0], run([0], True)[0])
        _same_trace(batch[0], backwards[0])


# (n, k) per part: k spring coordinates, k = 0 for a linear part
stack_parts = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=1,
                       max_size=3)


def _random_plant(rng, n, k, m, p):
    nl = None if k == 0 else PolyNonlinearity(
        rng.normal(size=(n, k)), rng.normal(size=(k, n)), rng.normal(size=k),
        rng.normal(size=k))
    return Plant(A=rng.normal(size=(n, n)), B_c=rng.normal(size=(n, m)),
                 B_g=rng.normal(size=(n, p)), C_out=rng.normal(size=(2, n)),
                 output_labels=("a", "b"), nl=nl)


@settings(max_examples=50, deadline=None)
@given(parts=stack_parts, m=st.integers(1, 2), p=st.integers(1, 2),
       rows=st.one_of(st.none(), st.integers(1, 5)), seed=st.integers(0, 2**32 - 1),
       nonlinear=st.booleans())
def test_stack_rhs_is_its_parts_rhs(parts, m, p, rows, seed, nonlinear):
    rng = np.random.default_rng(seed)
    plants = [_random_plant(rng, n, k, m, p) for n, k in parts]
    if not nonlinear:  # every part without its springs
        plants = [replace(part, nl=None) for part in plants]
    stack = stack_plants(*plants)
    lead = () if rows is None else (rows,)
    x = rng.normal(size=lead + (stack.n,))
    u_c, u_d = rng.normal(size=lead + (m,)), rng.normal(size=lead + (p,))
    xs = np.split(x, np.cumsum([part.n for part in plants])[:-1], axis=-1)
    want = np.concatenate([part.rhs(xi, u_c, u_d) for part, xi in zip(plants, xs)], axis=-1)
    got = stack.rhs(x, u_c, u_d)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= REL_TOL * np.abs(want).max()
    outputs = np.concatenate([xi @ part.C_out.T for part, xi in zip(plants, xs)], axis=-1)
    assert np.abs(x @ stack.C_out.T - outputs).max() <= REL_TOL * np.abs(outputs).max()
    assert (stack.nl is None) == (not nonlinear or all(k == 0 for _, k in parts))
    # the operator on the rows [x | u_c | u_d | 1] of a whole gust grid at
    # once is rhs at grid row j, bit for bit, with the control or without it
    grid = rng.normal(size=(int(rng.integers(1, 40)), p))
    j = int(rng.integers(grid.shape[0]))
    field, X = stack.field(), np.atleast_2d(x)
    for control in (u_c, np.zeros_like(u_c)):
        z = np.ones((grid.shape[0], X.shape[0], stack.n + m + p + 1))
        z[..., :stack.n], z[..., stack.n:-1 - p], z[..., -1 - p:-1] = \
            X, np.atleast_2d(control), grid[:, None]
        assert np.array_equal(field(z)[j].reshape(x.shape),
                              stack.rhs(x, control, grid[j]))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(0, 3), m=st.integers(1, 2), p=st.integers(1, 2),
       lanes=st.integers(1, 5), open_loop=st.booleans(), plant_nl=st.booleans(),
       ref_nl=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_lane_field_is_plant_rhs_beside_the_law(n, k, m, p, lanes, open_loop, plant_nl,
                                                ref_nl, seed):
    # every lane reads the one operator with its own gamma and theta; with
    # open_loop, lane 0 is the open lane: kappa = gamma = 0, x_m = theta = 0
    rng = np.random.default_rng(seed)
    # the plant and the reference model each keep the drawn springs or drop them
    model = _random_plant(rng, n, k, m, p)
    reference = ReferenceModel(A_m=rng.normal(size=(n, n)), nl=model.nl if ref_nl else None)
    model = model if plant_nl else replace(model, nl=None)
    R = rng.normal(size=(n, n))
    Q, P = R @ R.T + np.eye(n), rng.normal(size=(n, n))
    kappa, gamma = np.ones(lanes), rng.uniform(0.01, 2.0, size=lanes)
    y = rng.normal(size=(lanes, 2 * n + n * m))
    if open_loop:
        kappa[0] = gamma[0] = y[0, n:] = 0.0
    u_d = rng.normal(size=p)
    field = sim._lane_field(model, reference, Q, P)
    assert field.W.ndim == 2
    got = field(np.hstack([y, kappa[:, None], gamma[:, None], np.tile(u_d, (lanes, 1)),
                           np.ones((lanes, 1))]))

    io = dict(B_g=model.B_g, C_out=model.C_out, output_labels=model.output_labels)
    stack = stack_plants(Plant(A=model.A, B_c=model.B_c, nl=model.nl, **io),
                         Plant(A=reference.A_m, B_c=np.zeros((n, m)), nl=reference.nl, **io))
    x, xm, theta = y[:, :n], y[:, n:2 * n], y[:, 2 * n:].reshape(lanes, n, m)
    Gamma = gamma[:, None, None] * Q
    want = np.hstack([stack.rhs(y[:, :2 * n], sim._control(theta, x), u_d),
                      theta_rate(x - xm, x, Gamma, P @ model.B_c).reshape(lanes, -1)])
    assert got.shape == want.shape
    if open_loop:  # its reference model and gains stay exactly at rest
        assert np.all(got[0, n:] == 0.0)
    for b in range(lanes):
        for rows in ((slice(0, n),) if open_loop and b == 0
                     else (slice(0, 2 * n), slice(2 * n, None))):
            scale = np.abs(want[b, rows]).max()
            assert np.abs(got[b, rows] - want[b, rows]).max() <= REL_TOL * scale


@settings(max_examples=100, deadline=None)
@given(n=st.integers(-4, 16), n_real=st.integers(-4, 10))
@example(n=0, n_real=0)
@example(n=-2, n_real=-4)
@example(n=8, n_real=2)
def test_rom_has_the_requested_states_or_is_refused(fom, n, n_real):
    # the 14-state section has 3 oscillatory pairs and 8 real modes
    try:
        rom = default_rom(fom, n=n, n_real=n_real)
    except RomError:
        return
    assert rom.n == n
    assert sum(mode.kind == "real-gust" for mode in rom.modes) == n_real
