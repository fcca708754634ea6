"""Correctness checks on the artifacts of one workload run.

Every check recomputes its expected values apart from the program: it takes
the model matrices from the program (as a user's own analysis would) but
writes out the nonlinearity, the adaptation law, the gust and the time
integration itself.  Each check returns a list of problems; an empty list
means the artifacts are correct.

Tolerances are set beforehand, not fitted to the output:

* REL_TOL (1e-8, relative) compares the program's fixed-step RK4 figures
  with a DOP853 reference at rtol 1e-12.  RK4 at dt = 0.01 on these
  dynamics is accurate to about 1e-12, so reassociated arithmetic or a
  finer step passes, while any change visible in the six decimals the CLI
  prints fails.
* The reduced model's fidelity limits are the documented 5 % (peak) and
  2 % (RMS) of the rom-build defaults.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg

REL_TOL = 1e-8
ODE_RTOL, ODE_ATOL = 1e-12, 1e-16
BASIS_TOL = 1e-10


def _rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _numeric_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def _text_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def one_cosine(t, w_gmax, H_g, U_inf):
    """w_g(t) = (w_gmax / 2)(1 - cos(pi U t / H_g)) on [0, 2 H_g / U]."""
    t = np.asarray(t, dtype=float)
    inside = (t >= 0.0) & (t <= 2.0 * H_g / U_inf)
    return np.where(inside, 0.5 * w_gmax * (1.0 - np.cos(np.pi * U_inf * t / H_g)), 0.0)


def program_models():
    """The full-order model and the default 8-state reduced model, built by
    the program."""
    from aeromrac.plant3dof import assemble_fom, default_params
    from aeromrac.romgen import default_rom

    fom = assemble_fom(default_params())
    return fom, default_rom(fom)


def cubic_force(fom):
    """Full-order nonlinearity F_NL(w) from M_inv and the cubic coefficients:
    -M_inv (k3 * q^3) in the momentum rows, q = w[:3]."""
    M_inv, k3 = fom.M_inv, fom.cubic_coeffs

    def f(w):
        out = np.zeros_like(w)
        out[3:6] = -M_inv @ (k3 * w[:3] ** 3)
        return out

    return f


def reduced_force(fom, rom):
    """Projected residual F_NR(x) = Psi F_NL(Phi x), batched over rows of x."""
    M_inv, k3 = fom.M_inv, fom.cubic_coeffs
    Phi_q = rom.Phi[:3]  # positions of the lifted state
    Psi_p = rom.Psi[:, 3:6]  # only the momentum rows of F_NL are nonzero

    def f(x):
        q = x @ Phi_q.T
        return (-(k3 * q**3) @ M_inv.T) @ Psi_p.T

    return f


def _dop853(f, n, grid, breaks):
    """Integrate y' = f(t, y) from y(0) = 0 and sample it on ``grid``,
    restarting at each break, where the forcing has a kink."""
    y = np.zeros(n)
    out = np.empty((grid.shape[0], n))
    edges = [0.0] + [b for b in breaks if 0.0 < b < grid[-1]] + [grid[-1]]
    for a, b in zip(edges, edges[1:]):
        sel = (grid >= a) & (grid < b)
        t_eval = np.append(grid[sel], b)
        sol = scipy.integrate.solve_ivp(f, (a, b), y, method="DOP853", t_eval=t_eval,
                                        rtol=ODE_RTOL, atol=ODE_ATOL)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        out[sel] = sol.y[:, :-1].T
        y = sol.y[:, -1]
    out[-1] = y
    return out


def _lyapunov_P(A_m, Q):
    return scipy.linalg.solve_continuous_lyapunov(A_m.T, -Q)


def _gamma_matrix(gamma, Q, m):
    return gamma * scipy.linalg.block_diag(Q, np.eye(m))


# ---------------------------------------------------------------------------
# simulate


def check_simulate(outdir: Path, spec: dict) -> list[str]:
    """metrics.csv against a DOP853 open/closed-loop reference, P against
    SciPy's Lyapunov solver, the u_d trace columns against the 1-cosine
    formula, and a positive peak reduction."""
    from aeromrac import mrac

    problems = []
    fom, rom = program_models()
    reference = mrac.build_reference_model(rom, spec["damping"])
    Q = spec["q_scale"] * np.eye(rom.n)
    design = mrac.make_design(reference.A_m, Q, spec["gamma"], m=rom.m)
    P = _lyapunov_P(reference.A_m, Q)
    err_P = np.linalg.norm(design.P - P) / np.linalg.norm(P)
    if not err_P <= BASIS_TOL:
        problems.append(f"Lyapunov P differs from SciPy's by {err_P:.2e} (relative)")

    dt, T = spec["dt"], spec["duration"]
    grid = np.arange(int(round(T / dt)) + 1) * dt
    gust_args = (spec["w_gmax"], spec["H_g"], spec["U_inf"])
    kinks = [2.0 * spec["H_g"] / spec["U_inf"]]
    n = rom.n
    A, B_c, B_g = rom.A, rom.B_c[:, 0], rom.B_g[:, 0]
    A_m = reference.A_m
    F = reduced_force(fom, rom)
    Gamma = _gamma_matrix(spec["gamma"], Q, rom.m)
    PB = P @ B_c

    def f_open(t, x):
        return A @ x + B_g * one_cosine(t, *gust_args) + F(x)

    def f_closed(t, y):
        x, xm, theta = y[:n], y[n:2 * n], y[2 * n:]
        phi = np.append(x, 0.0)  # regression vector [x; r], r = 0
        u = theta @ phi
        w = one_cosine(t, *gust_args)
        dx = A @ x + B_c * u + B_g * w + F(x)
        dxm = A_m @ xm + B_g * w + F(xm)
        dtheta = -Gamma @ phi * ((x - xm) @ PB)  # theta' = -Gamma phi e^T P B_c
        return np.concatenate([dx, dxm, dtheta])

    y_open = _dop853(f_open, n, grid, kinks)
    y_closed = _dop853(f_closed, 2 * n + n + 1, grid, kinks)
    pitch = rom.C_out[0]
    x_c = y_closed[:, :n]
    u_c = np.einsum("ti,ti->t", y_closed[:, 2 * n:], np.hstack([x_c, np.zeros((len(grid), 1))]))
    expected = {
        "peak_open": np.abs(y_open @ pitch).max(),
        "peak_closed": np.abs(x_c @ pitch).max(),
        "max_flap_deg": np.degrees(np.abs(u_c).max()),
    }

    rows = _text_csv(outdir / "metrics.csv")
    row = next((r for r in rows if r["output"] == "pitch"), None)
    if row is None:
        return problems + ["metrics.csv has no pitch row"]
    for key, want in expected.items():
        got = float(row[key])
        if not _rel_err(got, want) <= REL_TOL:
            problems.append(f"metrics.csv {key} = {got!r}, reference {float(want)!r} "
                            f"(relative error {_rel_err(got, want):.2e})")
    if not float(row["reduction_percent"]) > 0.0:
        problems.append(f"pitch reduction {row['reduction_percent']} % is not above 0")

    for name in ("trace_open.csv", "trace_closed.csv"):
        cols = _numeric_csv(outdir / name)
        if cols["t"].shape != grid.shape or not np.allclose(cols["t"], grid, rtol=0,
                                                            atol=1e-12 * T):
            problems.append(f"{name}: time column is not the {dt} grid to {T}")
            continue
        err = np.abs(cols["u_d"] - one_cosine(cols["t"], *gust_args)).max()
        if not err <= 1e-14:
            problems.append(f"{name}: u_d differs from the 1-cosine formula by {err:.2e}")
    return problems


# ---------------------------------------------------------------------------
# rom-build


def rom_fidelity(cols, label):
    """(peak error %, RMS error %) of rom_<label> against full_<label>."""
    yf, yr = cols[f"full_{label}"], cols[f"rom_{label}"]
    peak = 100.0 * abs(np.abs(yr).max() - np.abs(yf).max()) / np.abs(yf).max()
    rms = 100.0 * np.sqrt(np.mean((yr - yf) ** 2)) / np.sqrt(np.mean(yf**2))
    return peak, rms


def check_rom_build(outdir: Path, spec: dict) -> list[str]:
    """full_* columns against a DOP853 integration of the 14-state model,
    the saved spectrum and bases against the full-order spectrum, and the
    documented fidelity limits recomputed from validation.csv."""
    problems = []
    fom, _ = program_models()
    dt, T = spec["dt"], spec["duration"]
    grid = np.arange(int(round(T / dt)) + 1) * dt
    gust_args = (spec["w_gmax"], spec["H_g"], spec["U_inf"])
    A_f, B_gf = fom.A_f, fom.B_gf[:, 0]
    F = cubic_force(fom)

    def f_full(t, w):
        return A_f @ w + B_gf * one_cosine(t, *gust_args) + F(w)

    w = _dop853(f_full, A_f.shape[0], grid, [2.0 * spec["H_g"] / spec["U_inf"]])
    positions = {"plunge": w[:, 0], "pitch": w[:, 1], "flap": w[:, 2]}

    cols = _numeric_csv(outdir / "validation.csv")
    if cols["t"].shape != grid.shape:
        return problems + [f"validation.csv has {cols['t'].shape[0]} rows, "
                           f"expected {grid.shape[0]}"]
    for label, want in positions.items():
        err = np.abs(cols[f"full_{label}"] - want).max() / np.abs(want).max()
        if not err <= REL_TOL:
            problems.append(f"validation.csv full_{label} differs from the reference "
                            f"by {err:.2e} of its peak")
        peak, rms = rom_fidelity(cols, label)
        if not (peak <= spec["peak_tol_percent"] and rms <= spec["rms_tol_percent"]):
            problems.append(f"{label}: peak error {peak:.3f} %, rms error {rms:.3f} % "
                            f"outside {spec['peak_tol_percent']} % / "
                            f"{spec['rms_tol_percent']} %")

    with np.load(outdir / "rom.npz", allow_pickle=False) as data:
        eigs, Phi, Psi = data["eigenvalues"], data["Phi"], data["Psi"]
    full_eigs = np.linalg.eigvals(A_f)
    for lam in eigs:
        gap = np.abs(full_eigs - lam).min()
        if not gap <= 1e-9 * max(1.0, abs(lam)):
            problems.append(f"rom.npz eigenvalue {lam} is not in the full spectrum "
                            f"(nearest at {gap:.2e})")
    err = np.abs(Psi @ Phi - np.eye(Phi.shape[1])).max()
    if not err <= BASIS_TOL:
        problems.append(f"rom.npz: Psi Phi differs from I by {err:.2e}")
    return problems


# ---------------------------------------------------------------------------
# sweep


def check_sweep(outdir: Path, spec: dict) -> list[str]:
    """Every point ok with one shared open-loop peak, and each point's figures
    against a separate RK4 integration of all points at once.

    The turbulence is piecewise constant on the gust grid, which defeats an
    adaptive integrator, so the reference repeats the program's scheme
    instead: classical RK4 with the gust read at the half-step times.  The
    gust samples are the program's; the integrator, the nonlinearity and the
    adaptation law are written out here and run batched over the points."""
    from aeromrac import mrac
    from aeromrac.gusts import VonKarmanGust

    problems = []
    rows = _text_csv(outdir / "sweep.csv")
    grid_gamma = [float(g) for g in spec["grid"]]
    if [float(r["gamma"]) for r in rows] != grid_gamma:
        return [f"sweep.csv gamma column {[r['gamma'] for r in rows]} is not {grid_gamma}"]
    bad = [r["status"] for r in rows if r["status"] != "ok"]
    if bad:
        problems.append(f"sweep points failed: {bad}")
        return problems
    if len({r["peak_open"] for r in rows}) != 1:
        problems.append("peak_open differs between sweep points sharing one gust")

    fom, rom = program_models()
    reference = mrac.build_reference_model(rom, spec["damping"])
    Q = spec["q_scale"] * np.eye(rom.n)
    P = _lyapunov_P(reference.A_m, Q)
    B = len(grid_gamma)
    Gammas = np.stack([_gamma_matrix(g, Q, rom.m) for g in grid_gamma])  # (B, 9, 9)

    dt, T = spec["dt"], spec["duration"]
    steps = int(round(T / dt))
    gust = VonKarmanGust(sigma_g=spec["sigma"], L_g=spec["L"], U_inf=spec["U_inf"],
                         dt=dt, duration=T, seed=spec["seed"])
    w_half = np.asarray(gust(0.5 * dt * np.arange(2 * steps + 1)), dtype=float)

    n = rom.n
    A, B_c, B_g, A_m = rom.A, rom.B_c[:, 0], rom.B_g[:, 0], reference.A_m
    F = reduced_force(fom, rom)
    PB = P @ B_c
    pitch = rom.C_out[0]

    def deriv(x, xm, th, w):
        phi = np.hstack([x, np.zeros((x.shape[0], 1))])
        u = np.einsum("bi,bi->b", th, phi)
        dx = x @ A.T + np.outer(u, B_c) + w * B_g + F(x)
        dxm = xm @ A_m.T + w * B_g + F(xm)
        dth = -np.einsum("bij,bj->bi", Gammas, phi) * ((x - xm) @ PB)[:, None]
        return dx, dxm, dth

    def f_open(x, w):
        return x @ A.T + w * B_g + F(x)

    # lane 0 of xo is the open loop; x, xm, th carry one lane per gamma
    xo = np.zeros((1, n))
    x, xm, th = np.zeros((B, n)), np.zeros((B, n)), np.zeros((B, n + 1))
    y_open = np.empty(steps + 1)
    y_closed = np.empty((steps + 1, B))
    u_log = np.empty((steps + 1, B))
    y_open[0], y_closed[0], u_log[0] = 0.0, 0.0, 0.0
    h = dt
    for k in range(steps):
        w0, w1, w2 = w_half[2 * k], w_half[2 * k + 1], w_half[2 * k + 2]
        k1 = f_open(xo, w0)
        k2 = f_open(xo + 0.5 * h * k1, w1)
        k3 = f_open(xo + 0.5 * h * k2, w1)
        k4 = f_open(xo + h * k3, w2)
        xo = xo + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        s1 = deriv(x, xm, th, w0)
        s2 = deriv(x + 0.5 * h * s1[0], xm + 0.5 * h * s1[1], th + 0.5 * h * s1[2], w1)
        s3 = deriv(x + 0.5 * h * s2[0], xm + 0.5 * h * s2[1], th + 0.5 * h * s2[2], w1)
        s4 = deriv(x + h * s3[0], xm + h * s3[1], th + h * s3[2], w2)
        x = x + (h / 6.0) * (s1[0] + 2 * s2[0] + 2 * s3[0] + s4[0])
        xm = xm + (h / 6.0) * (s1[1] + 2 * s2[1] + 2 * s3[1] + s4[1])
        th = th + (h / 6.0) * (s1[2] + 2 * s2[2] + 2 * s3[2] + s4[2])
        y_open[k + 1] = xo[0] @ pitch
        y_closed[k + 1] = x @ pitch
        u_log[k + 1] = np.einsum("bi,bi->b", th[:, :n], x)

    peak_open = np.abs(y_open).max()
    rms_open = np.sqrt(np.mean(y_open**2))
    for b, row in enumerate(rows):
        expected = {
            "peak_open": peak_open,
            "rms_open": rms_open,
            "peak_closed": np.abs(y_closed[:, b]).max(),
            "rms_closed": np.sqrt(np.mean(y_closed[:, b] ** 2)),
            "max_flap_deg": np.degrees(np.abs(u_log[:, b]).max()),
        }
        for key, want in expected.items():
            got = float(row[key])
            if not _rel_err(got, want) <= REL_TOL:
                problems.append(f"gamma {row['gamma']}: {key} = {got!r}, reference "
                                f"{float(want)!r} (relative error {_rel_err(got, want):.2e})")
    return problems
