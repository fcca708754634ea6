"""Batch command-line front end.

Subcommands build reduced models, run open/closed-loop gust simulations,
sweep the adaptation rate or the gust gradient, and generate gust signals.
Every run writes CSV artifacts, a plain-text report, a renderer-agnostic
plot script and a resolved copy of its configuration, so each output
directory is reproducible from its own contents.

Exit codes: 0 success, 2 validation failure, 3 configuration error,
4 simulation divergence.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np
import yaml

from . import mrac, plantio, sim
from .gusts import GustError, OneCosineGust, VonKarmanGust, ZeroGust
from .numerics import NumericsError
from .plant3dof import PlantError, assemble_fom, default_params_path, load_params
from .romgen import RomError, default_rom, stack_plants

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_DIVERGED = 4

CONFIG_SCHEMA_VERSION = 1
_FLOAT_FMT = "%.17g"

_DEFAULTS = {
    "schema_version": CONFIG_SCHEMA_VERSION,
    "seed": 0,
    "output_dir": "out",
    "plant": {"source": "aerofoil", "params": None, "bundle": None},
    "rom": {"n": 8, "n_real": 2, "peak_tol_percent": 5.0, "rms_tol_percent": 2.0},
    "controller": {
        "damping": 1.5,
        "Q": {"kind": "identity", "scale": 0.03, "diag": None},
        "gamma": 0.5,
        "zero_correction": False,
        "zero_output": 0,
        "certificate": "off",
    },
    "gust": {
        "kind": "one-cosine",
        "w_gmax": 0.14,
        "H_g": 55.0,
        "U_inf": 1.0,
        "sigma": 0.05,
        "L": 12.0,
    },
    "sim": {
        "dt": 0.01,
        "duration": None,
        "plant_nonlinear": True,
        "reference_nonlinear": True,
        "log_stride": 1,
        "metrics_output": 0,
    },
    "sweep": {"axis": "gamma", "grid": [0.01, 0.1, 1.0]},
}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


# ---------------------------------------------------------------------------
# configuration


def _merge(defaults, user, path="config"):
    if user is None:
        return defaults
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(user).__name__}")
    out = dict(defaults)
    for key, val in user.items():
        if key not in defaults:
            raise ConfigError(f"{path}.{key}: unknown field")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], val, f"{path}.{key}")
        else:
            out[key] = val
    return out


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    cfg = _merge(_DEFAULTS, raw)
    if cfg["schema_version"] > CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema version {cfg['schema_version']} is newer than "
            f"supported version {CONFIG_SCHEMA_VERSION}"
        )
    validate_config(cfg)
    return cfg


def _number(value, field: str) -> float:
    """float(value), as the commands read it, or ConfigError."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected a number, got {value!r}") from None


def validate_config(cfg: dict) -> None:
    for field in ("rom.n", "rom.n_real", "sim.log_stride"):
        section, key = field.split(".")
        if type(cfg[section][key]) is not int:
            raise ConfigError(f"{field}: expected an integer, got {cfg[section][key]!r}")
    plant = cfg["plant"]
    if plant["source"] not in ("aerofoil", "external"):
        raise ConfigError(f"plant.source: unknown source {plant['source']!r}")
    if plant["source"] == "external" and not plant["bundle"]:
        raise ConfigError("plant.source = external requires plant.bundle")
    if plant["source"] == "aerofoil" and plant["params"] is not None:
        if not Path(plant["params"]).exists():
            raise ConfigError(f"plant.params: file not found: {plant['params']}")
    q = cfg["controller"]["Q"]
    if q["kind"] not in ("identity", "diag"):
        raise ConfigError(f"controller.Q.kind: unknown kind {q['kind']!r}")
    if q["kind"] == "diag" and not q["diag"]:
        raise ConfigError("controller.Q.kind = diag requires controller.Q.diag")
    _number(q["scale"], "controller.Q.scale")
    if not isinstance(cfg["controller"]["damping"], (dict, type(None))):
        _number(cfg["controller"]["damping"], "controller.damping")
    if _number(cfg["controller"]["gamma"], "controller.gamma") <= 0:
        raise ConfigError("controller.gamma must be positive")
    if cfg["controller"]["certificate"] not in ("off", "error-only"):
        raise ConfigError("controller.certificate must be 'off' or 'error-only'")
    gust = cfg["gust"]
    if gust["kind"] not in ("one-cosine", "von-karman", "zero"):
        raise ConfigError(f"gust.kind: unknown kind {gust['kind']!r}")
    for field in ("gust.w_gmax", "gust.H_g", "gust.U_inf", "gust.sigma", "gust.L",
                  "rom.peak_tol_percent", "rom.rms_tol_percent"):
        section, key = field.split(".")
        _number(cfg[section][key], field)
    s = cfg["sim"]
    if _number(s["dt"], "sim.dt") <= 0:
        raise ConfigError("sim.dt must be positive")
    if s["duration"] is not None:
        _number(s["duration"], "sim.duration")
    if gust["kind"] != "one-cosine" and s["duration"] is None:
        raise ConfigError(f"gust.kind = {gust['kind']} requires an explicit sim.duration")
    if cfg["sweep"]["axis"] not in ("gamma", "gust-gradient"):
        raise ConfigError("sweep.axis must be 'gamma' or 'gust-gradient'")
    grid = cfg["sweep"]["grid"]
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep.grid must be a non-empty list")
    for value in grid:
        _number(value, "sweep.grid")


def _sim_duration(cfg) -> float:
    if cfg["sim"]["duration"] is not None:
        return float(cfg["sim"]["duration"])
    # discrete-gust default: ten gust windows
    g = cfg["gust"]
    return 10.0 * 2.0 * float(g["H_g"]) / float(g["U_inf"])


# ---------------------------------------------------------------------------
# model / gust / controller assembly


def build_plant(cfg):
    """(full model, rom, params_path or None) from the plant and rom blocks."""
    plant = cfg["plant"]
    if plant["source"] == "external":
        full = plantio.load_plant(plant["bundle"])
        params_path = None
    else:
        params_path = Path(plant["params"]) if plant["params"] else default_params_path()
        full = assemble_fom(load_params(params_path))
    source_hash = plantio.file_sha256(params_path) if params_path else ""
    rom = default_rom(full, n=cfg["rom"]["n"], n_real=cfg["rom"]["n_real"],
                      source_hash=source_hash)
    return full, rom, params_path


def build_gust(cfg, seed: int):
    g = cfg["gust"]
    if g["kind"] == "zero":
        return ZeroGust()
    if g["kind"] == "one-cosine":
        return OneCosineGust(w_gmax=float(g["w_gmax"]), H_g=float(g["H_g"]),
                             U_inf=float(g["U_inf"]))
    return VonKarmanGust(
        sigma_g=float(g["sigma"]), L_g=float(g["L"]), U_inf=float(g["U_inf"]),
        dt=float(cfg["sim"]["dt"]), duration=_sim_duration(cfg), seed=seed,
    )


def build_weighting(cfg, n: int) -> np.ndarray:
    q = cfg["controller"]["Q"]
    if q["kind"] == "diag":
        diag = np.asarray(q["diag"], dtype=float)
        if diag.shape != (n,):
            raise ConfigError(
                f"controller.Q.diag: expected {n} entries, got {diag.shape[0]}"
            )
        return np.diag(diag) * float(q["scale"])
    return float(q["scale"]) * np.eye(n)


def _output_index(cfg, rom, section: str, key: str) -> int:
    """The model output that cfg[section][key] selects by label or index."""
    sel, labels = cfg[section][key], rom.output_labels
    if sel in labels:
        return labels.index(sel)
    if type(sel) is not int or not -len(labels) <= sel < len(labels):
        raise ConfigError(f"{section}.{key}: {sel!r} selects none of the outputs {labels}")
    return sel


def _check_outputs(cfg, rom) -> int:
    """Resolve the output selectors before any integration; returns the
    metrics output."""
    if cfg["controller"]["zero_correction"]:
        _output_index(cfg, rom, "controller", "zero_output")
    return _output_index(cfg, rom, "sim", "metrics_output")


def build_controller(cfg, rom, gamma: float | None = None):
    """(reference, design, controller state, zero-correction report or None)."""
    ctl = cfg["controller"]
    reference = mrac.build_reference_model(rom, ctl["damping"])
    Q = build_weighting(cfg, rom.n)
    design = mrac.make_design(
        reference.A_m, Q, float(ctl["gamma"]) if gamma is None else gamma, m=rom.m
    )
    report = None
    K0 = np.zeros((rom.m, rom.n))
    if ctl["zero_correction"]:
        idx = _output_index(cfg, rom, "controller", "zero_output")
        K0, _, report = mrac.minimum_phase_correct(rom.A, rom.B_c, rom.C_out[idx])
    state = mrac.ControllerState(theta=np.zeros((rom.n, rom.m)), K0=K0)
    return reference, design, state, report


def sim_config(cfg) -> sim.SimulationConfig:
    s = cfg["sim"]
    try:
        return sim.SimulationConfig(
            dt=float(s["dt"]), duration=_sim_duration(cfg), plant_nonlinear=s["plant_nonlinear"],
            reference_nonlinear=s["reference_nonlinear"], log_stride=s["log_stride"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(val) -> str:
    if isinstance(val, (bool, np.bool_)):
        return str(bool(val))
    if isinstance(val, (float, np.floating)):
        return _FLOAT_FMT % val
    return str(val)


def write_csv(path, header: list[str], rows) -> None:
    """Header, then one line per row; a float array is formatted a row at a time."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            line = ",".join([_FLOAT_FMT] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row) for row in rows.tolist())
            return
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_resolved_config(cfg, outdir: Path) -> None:
    (outdir / "resolved_config.yaml").write_text(
        yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)
    )


def trace_columns(trace: sim.SimulationTrace, V=None, monitor=None):
    """Fixed trace CSV layout: t, outputs, u_c, u_d, V, monitor_ratio."""
    q = trace.outputs.shape[1]
    m = trace.u_c.shape[1] if trace.u_c is not None else 1
    p = trace.u_d.shape[1]
    header = (
        ["t"]
        + [f"y_{label}" for label in trace.output_labels]
        + ([f"u_c_{k}" for k in range(m)] if m > 1 else ["u_c"])
        + ([f"u_d_{k}" for k in range(p)] if p > 1 else ["u_d"])
        + ["V", "monitor_ratio"]
    )
    T = trace.time.shape[0]
    u_c = trace.u_c if trace.u_c is not None else np.zeros((T, m))
    V = np.full(T, np.nan) if V is None else V
    monitor = np.full(T, np.nan) if monitor is None else monitor
    rows = np.column_stack([trace.time, trace.outputs, u_c, trace.u_d, V, monitor])
    return header, rows


def write_plot_script(path: Path, csv_name: str, title: str, columns: list[str]) -> None:
    """Self-contained plotting helper referencing only the CSV beside it."""
    cols = ", ".join(repr(c) for c in columns)
    path.write_text(f'''"""Plot {title} from {csv_name} (kept beside this script)."""
import csv
import pathlib

import matplotlib.pyplot as plt

here = pathlib.Path(__file__).parent
with open(here / "{csv_name}", newline="") as fh:
    reader = csv.DictReader(fh)
    rows = [row for row in reader]

x = [float(r[reader.fieldnames[0]]) for r in rows]
fig, ax = plt.subplots()
for col in [{cols}]:
    ax.plot(x, [float(r[col]) if r[col] != "nan" else float("nan") for r in rows],
            label=col)
ax.set_xlabel(reader.fieldnames[0])
ax.set_title({title!r})
ax.legend()
fig.savefig(here / "{csv_name}".replace(".csv", ".png"), dpi=150)
''')


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cfg, outdir: Path, args) -> int:
    print("configuration is valid")
    print(f"plant source: {cfg['plant']['source']}")
    print(f"gust: {cfg['gust']['kind']}")
    print(f"rom: n = {cfg['rom']['n']}, n_real = {cfg['rom']['n_real']}")
    return EXIT_OK


def cmd_gust_gen(cfg, outdir: Path, args) -> int:
    gust = build_gust(cfg, cfg["seed"])
    dt = float(cfg["sim"]["dt"])
    duration = _sim_duration(cfg)
    t = np.arange(int(round(duration / dt)) + 1) * dt
    w = np.asarray(gust(t), dtype=float)
    write_csv(outdir / "gust.csv", ["t", "w_g"], np.column_stack([t, w]))
    write_plot_script(outdir / "plot_gust.py", "gust.csv", "gust velocity", ["w_g"])
    write_resolved_config(cfg, outdir)
    print(f"wrote {outdir / 'gust.csv'} ({t.shape[0]} samples)")
    return EXIT_OK


def cmd_rom_build(cfg, outdir: Path, args) -> int:
    full, rom, _ = build_plant(cfg)
    plantio.save_rom(rom, outdir / "rom.npz")

    gust = build_gust(cfg, cfg["seed"])
    trace = sim.integrate_open_loop(stack_plants(full, rom), gust, sim_config(cfg))
    y_full, y_rom = np.hsplit(trace.outputs, [full.C_out.shape[0]])
    header = ["t"] + [f"{s}_{label}" for label in rom.output_labels for s in ("full", "rom")]
    pairs = np.dstack([y_full, y_rom]).reshape(len(trace.time), -1)  # full_j, rom_j
    write_csv(outdir / "validation.csv", header, np.column_stack([trace.time, pairs]))
    write_plot_script(outdir / "plot_validation.py", "validation.csv",
                      "full vs reduced gust response", header[1:])

    lines = [f"reduced model: n = {rom.n} of N = {full.n}"]
    tol_peak, tol_rms = (float(cfg["rom"][k]) for k in ("peak_tol_percent", "rms_tol_percent"))
    ok = True
    for label, yf, yr in zip(rom.output_labels, y_full.T, y_rom.T):
        peak, rms = np.abs(yf).max(), np.sqrt(np.mean(yf**2))
        peak_err = 100.0 * abs(np.abs(yr).max() - peak) / peak if peak > 0 else 0.0
        rms_err = 100.0 * np.sqrt(np.mean((yr - yf) ** 2)) / rms if rms > 0 else 0.0
        ok = ok and peak_err <= tol_peak and rms_err <= tol_rms
        lines.append(f"{label}: peak error {peak_err:.3f}% "
                     f"({'ok' if peak_err <= tol_peak else 'FAIL'}), "
                     f"rms error {rms_err:.3f}% ({'ok' if rms_err <= tol_rms else 'FAIL'})")
    lines += ["retained modes:"] + [
        f"  {i.kind}: lambda = {i.eigenvalue:.6g}, participation = {i.gust_participation:.3e}"
        for i in rom.modes]
    report = "\n".join(lines) + "\n"
    (outdir / "validation_report.txt").write_text(report)
    write_resolved_config(cfg, outdir)
    print(report, end="")
    return EXIT_OK if ok else EXIT_VALIDATION


def _run_pair(cfg, rom, gust):
    """Open/closed-loop pair on the same grid; returns (open, closed, design,
    reference, report)."""
    config = sim_config(cfg)
    reference, design, state, report = build_controller(cfg, rom)
    tr_open = sim.integrate_open_loop(rom, gust, config)
    tr_closed = sim.integrate_closed_loop(rom, reference, design, state, gust, config)
    return tr_open, tr_closed, design, reference, report


_METRICS_HEADER = [
    "output", "peak_open", "peak_closed", "reduction_percent", "max_flap_deg",
    "rms_open", "rms_closed", "settled", "settle_ratio",
]


def _metrics_row(metrics: sim.GlaMetrics):
    return [
        metrics.output, metrics.peak_open, metrics.peak_closed,
        metrics.reduction_percent, float(np.degrees(metrics.max_flap_cmd)),
        metrics.rms_open, metrics.rms_closed, metrics.settled, metrics.settle_ratio,
    ]


def cmd_simulate(cfg, outdir: Path, args) -> int:
    full, rom, _ = build_plant(cfg)
    idx = _check_outputs(cfg, rom)
    gust = build_gust(cfg, cfg["seed"])
    try:
        tr_open, tr_closed, design, reference, zreport = _run_pair(cfg, rom, gust)
    except sim.SimulationError as exc:
        if exc.trace is not None:
            header, rows = trace_columns(exc.trace)
            write_csv(outdir / "trace_partial.csv", header, rows)
        write_resolved_config(cfg, outdir)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    V = monitor_series = None
    cert_lines = []
    if cfg["controller"]["certificate"] == "error-only":
        cert = mrac.lyapunov_certificate(tr_closed.time, tr_closed.e, design)
        V = cert.V
        cert_lines.append(
            "error-only certificate (gain term omitted: ideal gains unknown)"
        )
        cert_lines.append(
            f"V(0) = {cert.V[0]:.6e}, max per-step increase = "
            f"{cert.max_increase:.3e}, tolerance = {cert.tolerance:.3e}: "
            f"{'PASS' if cert.passed else 'FAIL'}"
        )
    if cfg["sim"]["plant_nonlinear"]:
        monitor = mrac.lipschitz_margin(design, rom, tr_closed.time, tr_closed.x,
                                        tr_closed.x_m)
        monitor_series = monitor.ratios
        cert_lines.append(
            f"Lipschitz monitor: L_F = {monitor.L_F:.6e}, max ratio = "
            f"{monitor.max_ratio:.6e}, violation = {monitor.violation}"
        )
        if monitor.violation:  # L_F = lambda_min(Q)/(2||P||) is invariant to Q's scale
            logging.getLogger(__name__).warning(
                "Lipschitz bound violated: max ratio %.3e > L_F = %.3e; scaling Q leaves L_F "
                "unchanged, more reference-model damping (controller.damping) raises it",
                monitor.max_ratio, monitor.L_F)

    header, rows = trace_columns(tr_open)
    write_csv(outdir / "trace_open.csv", header, rows)
    header, rows = trace_columns(tr_closed, V=V, monitor=monitor_series)
    write_csv(outdir / "trace_closed.csv", header, rows)
    write_plot_script(outdir / "plot_traces.py", "trace_closed.csv",
                      "closed-loop response", [f"y_{l}" for l in rom.output_labels])

    metrics_rows = [
        _metrics_row(sim.compute_metrics(tr_open, tr_closed, j))
        for j in range(len(rom.output_labels))
    ]
    write_csv(outdir / "metrics.csv", _METRICS_HEADER, metrics_rows)

    m = sim.compute_metrics(tr_open, tr_closed, idx)
    lines = [
        f"output {m.output}: peak open {m.peak_open:.6e}, peak closed "
        f"{m.peak_closed:.6e}, reduction {m.reduction_percent:.2f}%",
        f"max flap command {np.degrees(m.max_flap_cmd):.3f} deg",
    ]
    if zreport is not None:
        lines.append(
            f"zero correction: zeros before {zreport.zeros_before}, "
            f"after {zreport.zeros_after}"
        )
    lines += cert_lines
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
    write_resolved_config(cfg, outdir)
    print("\n".join(lines))
    return EXIT_OK


# errors that fail one sweep point; the gust, controller, numerics and ROM
# errors and SimulationConfig's are all ValueErrors
_POINT_ERRORS = (sim.SimulationError, ValueError)


def _gamma_points(cfg, rom, grid):
    """(metrics, error) per gamma point.  The points share one gust and one
    open loop; their closed loops run as the lanes of batches."""
    idx = _output_index(cfg, rom, "sim", "metrics_output")
    try:
        gust = build_gust(cfg, cfg["seed"])
        config = sim_config(cfg)
    except _POINT_ERRORS as exc:
        return [(None, str(exc))] * len(grid)
    results = [None] * len(grid)
    lanes = []  # (point, reference, design, controller state)
    for k, gamma in enumerate(grid):
        try:
            reference, design, state, _ = build_controller(cfg, rom, gamma=gamma)
        except _POINT_ERRORS as exc:
            results[k] = (None, str(exc))
        else:
            lanes.append((k, reference, design, state))
    if not lanes:
        return results
    try:
        tr_open = sim.integrate_open_loop(rom, gust, config)
    except _POINT_ERRORS as exc:
        for k, *_ in lanes:
            results[k] = (None, str(exc))
        return results
    size = sim.batch_lanes(rom, config)
    for start in range(0, len(lanes), size):
        batch = lanes[start:start + size]
        closed = sim.integrate_closed_loop_batch(
            rom, batch[0][1], [lane[2] for lane in batch], [lane[3] for lane in batch],
            gust, config)
        for (k, *_), tr in zip(batch, closed):
            if isinstance(tr, sim.SimulationError):
                results[k] = (None, str(tr))
            else:
                results[k] = (sim.compute_metrics(tr_open, tr, idx), None)
        del closed, tr  # the traces hold the batch log: free it before the next
    return results


def _gradient_point(cfg, rom, H_g):
    point_cfg = {**cfg, "gust": {**cfg["gust"], "H_g": H_g}}
    gust = build_gust(point_cfg, cfg["seed"])
    tr_open, tr_closed, _, _, _ = _run_pair(point_cfg, rom, gust)
    return sim.compute_metrics(tr_open, tr_closed,
                               _output_index(cfg, rom, "sim", "metrics_output"))


def cmd_sweep(cfg, outdir: Path, args) -> int:
    full, rom, _ = build_plant(cfg)
    _check_outputs(cfg, rom)  # a bad selector ends the sweep, not each point
    axis = cfg["sweep"]["axis"]
    grid = [float(v) for v in cfg["sweep"]["grid"]]
    if axis == "gamma":
        results = _gamma_points(cfg, rom, grid)
    else:
        results = []
        for value in grid:
            try:
                results.append((_gradient_point(cfg, rom, value), None))
            except _POINT_ERRORS as exc:
                results.append((None, str(exc)))

    peaks = [r[0].peak_open if r[0] is not None else -np.inf for r in results]
    worst = int(np.argmax(peaks)) if axis == "gust-gradient" else -1
    header = [axis, "status", "worst_case"] + _METRICS_HEADER
    rows = []
    for k, (value, (metrics, err)) in enumerate(zip(grid, results)):
        if metrics is None:
            rows.append([value, f"error: {err}", False] + [""] * len(_METRICS_HEADER))
        else:
            rows.append([value, "ok", k == worst] + _metrics_row(metrics))
    write_csv(outdir / "sweep.csv", header, rows)
    write_plot_script(outdir / "plot_sweep.py", "sweep.csv", f"{axis} sweep",
                      ["reduction_percent", "max_flap_deg"])
    write_resolved_config(cfg, outdir)
    n_fail = sum(1 for m, _ in results if m is None)
    print(f"sweep over {axis}: {len(grid)} points, {n_fail} failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "rom-build": cmd_rom_build,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "gust-gen": cmd_gust_gen,
    "validate": cmd_validate,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeromrac",
        description="Adaptive gust-load-alleviation toolbox (batch CLI)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration (YAML)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; no effect (a gamma "
                            "sweep runs its points as lanes of one batch)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        outdir = Path(args.out if args.out is not None else cfg["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, outdir, args)
    except (ConfigError, plantio.PlantIOError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PlantError, RomError, mrac.MracError, NumericsError, GustError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except sim.SimulationError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
