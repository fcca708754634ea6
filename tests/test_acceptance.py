"""End-to-end acceptance checks.

Each test covers one numbered release criterion and prints a single
``CRITERION nn: PASS/FAIL`` line with the measured figures.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.signal
import yaml

from aeromrac import cli, mrac, sim
from aeromrac.gusts import (
    OneCosineGust,
    VonKarmanGust,
    ZeroGust,
    one_cosine,
    von_karman_psd,
)
from aeromrac.numerics import solve_lyapunov, transmission_zeros
from aeromrac.romgen import Plant, default_rom
from aeromrac.sim import (
    SimulationConfig,
    compute_metrics,
    integrate_closed_loop,
    integrate_open_and_closed,
    integrate_open_loop,
)
from conftest import random_stable


def _verdict(num, ok, detail):
    print(f"\nCRITERION {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def linear_plant(A, B_c, B_g):
    """Linear plant with the one output y = x_0, for synthetic closed-loop
    checks; B_c and B_g may be given as flat vectors."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return Plant(A=A, B_c=np.reshape(B_c, (n, -1)), B_g=np.reshape(B_g, (n, -1)),
                 C_out=np.eye(n)[:1], output_labels=("y",))


def _random_adaptive_config(rng):
    """Random stable, controllable, matching-feasible configuration."""
    n = int(rng.choice([2, 4, 6]))
    while True:
        A = random_stable(rng, n)
        B = rng.normal(size=(n, 1))
        ctrb = np.column_stack([np.linalg.matrix_power(A, k) @ B[:, 0] for k in range(n)])
        if np.linalg.cond(ctrb) > 1e6:
            continue
        for _ in range(50):
            K = rng.normal(scale=0.5, size=(1, n))
            A_m = A + B @ K
            if np.linalg.eigvals(A_m).real.max() < -0.4:
                break
        else:
            continue
        break
    B_g = rng.normal(size=(n, 1))
    Q = np.diag(rng.uniform(0.5, 2.0, size=n))
    gamma = rng.uniform(0.01, 1.0)
    return A, B, B_g, Q, gamma, A_m


def _canonical_controller(rom, gamma=0.5, q_scale=0.03):
    ref = mrac.build_reference_model(rom, 1.5)
    design = mrac.make_design(ref.A_m, q_scale * np.eye(rom.n), gamma, m=1)
    return ref, design, np.zeros((rom.n, 1))


def _open_and_closed(rom, gust, cfg, gammas, q_scale=0.03):
    """The open loop and one canonical closed loop per gamma, run as one
    batch; a run that diverged raises its SimulationError."""
    runs = [_canonical_controller(rom, gamma=g, q_scale=q_scale) for g in gammas]
    tr_open, closed = integrate_open_and_closed(
        rom, runs[0][0], [d for _, d, _ in runs], [s for _, _, s in runs], gust, cfg)
    for tr in (tr_open, *closed):
        if isinstance(tr, sim.SimulationError):
            raise tr
    return tr_open, closed


def test_criterion_01_lyapunov_batch():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        A = random_stable(rng, n)
        Q = np.diag(rng.uniform(0.5, 3.0, size=n))
        P = solve_lyapunov(A, Q)
        res = np.linalg.norm(A.T @ P + P @ A + Q) / np.linalg.norm(Q)
        worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(1, ok, f"1000 solves, worst relative residual {worst:.2e}, {elapsed:.2f} s")


@pytest.mark.filterwarnings("ignore:dt")
def test_criterion_02_random_config_stability():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    failures = []
    for i in range(50):
        A, B, B_g, Q, gamma, A_m = _random_adaptive_config(rng)
        n = A.shape[0]
        plant = linear_plant(A, B, B_g)
        ref = mrac.ReferenceModel(A_m=A_m)
        design = mrac.make_design(A_m, Q, gamma, m=1)
        gust = OneCosineGust(w_gmax=1.0, H_g=10.0)
        cfg = SimulationConfig(dt=0.02, duration=5 * gust.duration, plant_nonlinear=False)
        trace = integrate_closed_loop(plant, ref, design, np.zeros((n, 1)), gust, cfg)
        theta_star = mrac.ideal_gains(A, B, A_m).theta_star
        cert = mrac.lyapunov_certificate(trace.time, trace.e, design, trace.theta, theta_star)
        e_norm = np.linalg.norm(trace.e, axis=1)
        if not (cert.passed and e_norm[-1] <= 1e-4 * e_norm.max()):
            failures.append(i)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _verdict(2, ok, f"{50 - len(failures)}/50 configs stable, {elapsed:.1f} s")


def test_criterion_03_ideal_gain_tracking(rom):
    kx = np.array([[-0.02, 0.01, 0.03, -0.01, 0.02, 0.0, 0.01, -0.02]])
    A_m = rom.A + np.atleast_2d(rom.B_c) @ kx
    ref = mrac.ReferenceModel(A_m=A_m)
    design = mrac.make_design(A_m, 0.03 * np.eye(8), 0.5, m=1)
    theta_star = mrac.ideal_gains(rom.A, rom.B_c, A_m).theta_star
    worst = 0.0
    for gust in (
        OneCosineGust(0.14, 55.0),
        VonKarmanGust(0.05, 12.0, 1.0, 0.02, 200.0, seed=3),
        ZeroGust(),
    ):
        cfg = SimulationConfig(dt=0.02, duration=200.0, plant_nonlinear=False)
        trace = integrate_closed_loop(rom, ref, design, theta_star.copy(), gust, cfg)
        worst = max(worst, float(np.abs(trace.e).max()))
    ok = worst <= 1e-9
    _verdict(3, ok, f"max ||x - x_m|| over 3 gust types = {worst:.2e}")


def test_criterion_04_rom_fidelity(fom, rom):
    gust = OneCosineGust(0.14, 55.0)
    cfg = SimulationConfig(dt=0.02, duration=3 * gust.duration, log_stride=5)
    tr_full = integrate_open_loop(fom, gust, cfg)
    tr_rom = integrate_open_loop(rom, gust, cfg)
    details = []
    ok = True
    for j, label in enumerate(("pitch", "plunge")):
        yf = tr_full.outputs[:, j]
        yr = tr_rom.outputs[:, j]
        peak_err = 100.0 * abs(np.abs(yr).max() - np.abs(yf).max()) / np.abs(yf).max()
        rms_err = 100.0 * np.sqrt(np.mean((yr - yf) ** 2)) / np.sqrt(np.mean(yf**2))
        ok = ok and peak_err <= 5.0 and rms_err <= 2.0
        details.append(f"{label}: peak {peak_err:.3f}%, rms {rms_err:.3f}%")
    _verdict(4, ok, "; ".join(details))


def test_criterion_05_gamma_trend_deterministic(rom):
    gust = OneCosineGust(0.14, 55.0)
    cfg = SimulationConfig(dt=0.02, duration=5 * gust.duration, log_stride=5)
    tr_open, closed = _open_and_closed(rom, gust, cfg, (0.1, 0.5, 1.0))
    reductions, flaps = [], []
    for tr_closed in closed:
        m = compute_metrics(tr_open, tr_closed, "pitch")
        reductions.append(m.reduction_percent)
        flaps.append(np.degrees(m.max_flap_cmd))
    mono_red = all(a <= b for a, b in zip(reductions, reductions[1:]))
    mono_flap = all(a <= b for a, b in zip(flaps, flaps[1:]))
    ok = mono_red and mono_flap and all(r > 0 for r in reductions)
    _verdict(
        5, ok,
        "reduction % = " + "/".join(f"{r:.2f}" for r in reductions)
        + ", flap deg = " + "/".join(f"{f:.3f}" for f in flaps),
    )


def test_criterion_06_coincident_gust_lag_modes(fom, rom):
    eigs = np.linalg.eigvals(fom.A_f)
    reals = eigs[np.abs(eigs.imag) < 1e-9].real
    hits = np.abs(reals - (-0.1393)) <= 1e-6
    retained = [m for m in rom.modes if m.kind == "real-gust"]
    ok = (
        hits.sum() >= 2
        and len(retained) == 2
        and all(abs(m.eigenvalue.real + 0.1393) <= 1e-6 for m in retained)
    )
    _verdict(
        6, ok,
        f"{hits.sum()} full-model eigenvalues at -0.1393, "
        f"{len(retained)} retained in the reduced model",
    )


def test_criterion_07_zero_relocation_and_adaptive_run():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    b = np.array([0.0, 1.0])
    c = np.array([[-1.0, 1.0]])  # transmission zero at +1
    K0, c_new, report = mrac.minimum_phase_correct(A, b, c)
    z_after = transmission_zeros(A + np.outer(b, K0[0]), b, c_new)
    relocated = report.corrected and z_after.real.max() < 0.0

    A_m = np.array([[0.0, 1.0], [-3.0, -4.0]])  # A + b k, k = [-1, -1]
    plant = linear_plant(A, b, np.array([1.0, 0.0]))
    ref = mrac.ReferenceModel(A_m=A_m)
    design = mrac.make_design(A_m, np.eye(2), 0.5, m=1)
    gust = OneCosineGust(1.0, 10.0)
    cfg = SimulationConfig(dt=0.01, duration=5 * gust.duration, plant_nonlinear=False)
    # the pre-gain starts the gains, theta(0) = K0^T, so theta is the total gain
    trace = integrate_closed_loop(plant, ref, design, K0.T, gust, cfg)
    # and is matched on the raw plant: A + b Kx* = A_m
    theta_star = mrac.ideal_gains(A, b[:, None], A_m).theta_star
    cert = mrac.lyapunov_certificate(trace.time, trace.e, design, trace.theta, theta_star)
    e_norm = np.linalg.norm(trace.e, axis=1)
    settled = e_norm[-1] <= 1e-4 * e_norm.max()
    ok = relocated and cert.passed and settled
    _verdict(
        7, ok,
        f"zeros {report.zeros_before.real} -> {z_after.real}, certificate "
        f"{'passed' if cert.passed else 'failed'}, settle ratio "
        f"{e_norm[-1] / e_norm.max():.2e}",
    )


def test_criterion_08_lipschitz_monitor_consistency(rom):
    ref, design, theta0 = _canonical_controller(rom)
    # (a) bound recomputed from first principles
    lam_min = np.linalg.eigvalsh(design.Q).min()
    p_norm = np.linalg.svd(design.P, compute_uv=False).max()
    bound_ok = abs(design.lipschitz_bound - lam_min / (2 * p_norm)) <= 1e-12

    # (b) a linear model never triggers the monitor
    rom_lin = dataclasses.replace(rom, nl=None)
    gust = OneCosineGust(0.14, 55.0)
    cfg = SimulationConfig(dt=0.02, duration=2 * gust.duration, log_stride=5)
    tr_lin = integrate_closed_loop(rom_lin, ref, design, theta0, gust, cfg)
    mon_lin = mrac.lipschitz_margin(design, rom_lin, tr_lin.time, tr_lin.x, tr_lin.x_m)

    # (c) five-fold gust amplitude: online flag matches offline recomputation
    ref, design, theta0 = _canonical_controller(rom)
    tr = integrate_closed_loop(rom, ref, design, theta0, OneCosineGust(0.7, 55.0), cfg)
    mon = mrac.lipschitz_margin(design, rom, tr.time, tr.x, tr.x_m)
    ratios = mrac.lipschitz_ratio_series(rom, tr.x, tr.x_m)
    offline_max = float(np.nanmax(ratios))
    consistent = (
        abs(mon.max_ratio - offline_max) <= 1e-12 * max(offline_max, 1.0)
        and mon.violation == (offline_max > design.lipschitz_bound)
    )
    ok = bound_ok and not mon_lin.violation and consistent
    _verdict(
        8, ok,
        f"L_F = {design.lipschitz_bound:.3e}, linear max ratio "
        f"{mon_lin.max_ratio:.1e}, nonlinear max ratio {mon.max_ratio:.3e} "
        f"(violation = {mon.violation}, consistent with offline recomputation)",
    )


def test_criterion_09_one_cosine_landmarks():
    w0, hg, u = 0.14, 55.0, 1.0
    errs = [
        abs(one_cosine(0.0, w0, hg, u)),
        abs(one_cosine(hg / u, w0, hg, u) - w0),
        abs(one_cosine(2 * hg / u, w0, hg, u)),
        abs(one_cosine(hg / (2 * u), w0, hg, u) - 0.5 * w0),
        abs(one_cosine(-1e-12, w0, hg, u)),
        abs(one_cosine(2 * hg / u + 1e-12, w0, hg, u)),
    ]
    worst = max(errs)
    ok = worst <= 1e-15
    _verdict(9, ok, f"worst landmark error {worst:.2e}")


def test_criterion_10_stochastic_gust(rom):
    t0 = time.perf_counter()
    U, L, sigma, dt, duration = 59.0, 200.0, 1.0, 0.02, 2000.0
    variances, psds = [], []
    for seed in range(20):
        g = VonKarmanGust(sigma, L, U, dt, duration, seed)
        variances.append(g.samples.var())
        f, P = scipy.signal.welch(g.samples, fs=1.0 / dt, nperseg=8192)
        psds.append(P)
    var_mean = float(np.mean(variances))
    P = np.mean(psds, axis=0)
    band = (f >= 0.1 * U / L) & (f <= 0.2 / dt)
    analytic = 2 * np.pi * von_karman_psd(2 * np.pi * f[band], sigma, L, U)
    db = 10 * np.log10(P[band] / analytic)
    spectrum_ok = var_mean >= 0.9 and var_mean <= 1.1 and np.abs(db).max() <= 3.0

    # closed-loop stochastic runs: alleviation strengthens with gamma
    ordering_ok = True
    details = []
    for seed in (0, 1):
        gust = VonKarmanGust(0.05, 12.0, 1.0, 0.02, 600.0, seed)
        cfg = SimulationConfig(dt=0.02, duration=600.0, log_stride=5)
        tr_open, closed = _open_and_closed(rom, gust, cfg, (0.01, 0.1, 1.0), q_scale=0.003)
        peak_red, rms_red = [], []
        for tr_closed in closed:
            m = compute_metrics(tr_open, tr_closed, "pitch")
            peak_red.append(m.reduction_percent)
            rms_red.append(100.0 * (1.0 - m.rms_closed / m.rms_open))
        mono = (
            all(a <= b for a, b in zip(peak_red, peak_red[1:]))
            and all(a <= b for a, b in zip(rms_red, rms_red[1:]))
        )
        ordering_ok = ordering_ok and mono
        details.append(f"seed {seed} peak red {peak_red[-1]:.2f}% (monotone: {mono})")
    elapsed = time.perf_counter() - t0
    ok = spectrum_ok and ordering_ok and elapsed < 180.0
    _verdict(
        10, ok,
        f"variance mean {var_mean:.4f}, PSD error within "
        f"[{db.min():.2f}, {db.max():.2f}] dB; " + "; ".join(details)
        + f"; {elapsed:.1f} s",
    )


def test_criterion_11_rk4_convergence_order(rom):
    gust = OneCosineGust(0.14, 55.0)
    finals = []
    for dt in (0.1, 0.05, 0.025):
        ref, design, theta0 = _canonical_controller(rom)
        cfg = SimulationConfig(dt=dt, duration=220.0, plant_nonlinear=False,
                               log_stride=10**9)
        tr = integrate_closed_loop(rom, ref, design, theta0, gust, cfg)
        finals.append(np.concatenate([tr.x[-1], tr.x_m[-1], tr.theta[-1].ravel()]))
    ratio = np.linalg.norm(finals[0] - finals[1]) / np.linalg.norm(finals[1] - finals[2])
    ok = 10.0 <= ratio <= 24.0
    _verdict(11, ok, f"Richardson error ratio {ratio:.2f} (expect ~16 for RK4)")


def test_criterion_12_cli_determinism(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "gust": {"kind": "one-cosine", "w_gmax": 0.14, "H_g": 2.0, "U_inf": 1.0},
        "sim": {"dt": 0.02, "duration": 20.0},
        "controller": {"certificate": "error-only"},
    }))
    files = ("trace_open.csv", "trace_closed.csv", "metrics.csv", "summary.txt")
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)
    _verdict(12, identical, f"{len(files)} artifacts bit-identical across reruns")
