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
import functools
import logging
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import mrac, plantio, sim
from .gusts import GustError, OneCosineGust, VonKarmanGust, ZeroGust
from .numerics import NumericsError
from .plant3dof import (ParamsFileError, PlantError, assemble_fom, default_params_path,
                        load_params)
from .romgen import RomError, default_rom, stack_plants

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_DIVERGED = 4

CONFIG_SCHEMA_VERSION = 1
# longest run any command starts, about 91 times the default 110 000 steps
MAX_STEPS = 10**7
_FLOAT_FMT = "%.17g"
# Rows of a float array that write_csv formats with one % at a time.
_CSV_BLOCK = 1024


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


# ---------------------------------------------------------------------------
# configuration: one table gives each leaf a default and a kind (see _read)


def _number(value, positive: bool = False) -> float:
    """A finite float, positive if asked; not a bool.  A string is read too,
    since YAML 1.1 reads 2e0 as one."""
    try:
        out = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not math.isfinite(out) or positive and out <= 0:
        raise ValueError(f"a {'positive ' * positive}number, got {value!r}")
    return out


def _numbers(value) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"a non-empty list of numbers, got {value!r}")
    return [_number(v) for v in value]


def _where(what: str, ok):
    """The kind of the values for which ok holds."""
    def kind(value):
        if not ok(value):
            raise ValueError(f"{what}, got {value!r}")
        return value
    return kind


def _choice(*options: str):
    return _where(f"one of {', '.join(options)}", lambda v: v in options)


_positive = functools.partial(_number, positive=True)
_int = _where("an integer", lambda v: type(v) is int)  # a bool is not an int
_version = _where(f"a schema version up to {CONFIG_SCHEMA_VERSION}",
                  lambda v: type(v) is int and v <= CONFIG_SCHEMA_VERSION)
_seed = _where("a non-negative integer", lambda v: type(v) is int and v >= 0)
_bool = _where("true or false", lambda v: type(v) is bool)
_path = _where("a file path", lambda v: isinstance(v, str) and "\0" not in v)
_selector = _where("an output label or index", lambda v: isinstance(v, str) or type(v) is int)


def _damping(value):
    """null, one factor for all oscillatory modes, or {ordinal: factor or [sigma_m, omega_dm]}."""
    if not isinstance(value, dict):
        return None if value is None else _number(value)
    return {_int(k): _numbers(v) if isinstance(v, list) and len(v) == 2 else _number(v)
            for k, v in value.items()}


# leaf: (default, kind); a leaf whose default is null may be null
_SCHEMA = {
    "schema_version": (CONFIG_SCHEMA_VERSION, _version),
    "seed": (0, _seed),
    "output_dir": ("out", _path),
    "plant": {"source": ("aerofoil", _choice("aerofoil", "external")),
              "params": (None, _path), "bundle": (None, _path)},
    "rom": {"n": (8, _int), "n_real": (2, _int),
            "peak_tol_percent": (5.0, _number), "rms_tol_percent": (2.0, _number)},
    "controller": {
        "damping": (1.5, _damping), "gamma": (0.5, _positive),
        "Q": {"kind": ("identity", _choice("identity", "diag")), "scale": (0.03, _number),
              "diag": (None, _numbers)},
        "certificate": ("off", _choice("off", "error-only")),
    },
    "gust": {
        "kind": ("one-cosine", _choice("one-cosine", "von-karman", "zero")),
        "w_gmax": (0.14, _number), "H_g": (55.0, _number), "U_inf": (1.0, _number),
        "sigma": (0.05, _number), "L": (12.0, _number),
    },
    "sim": {
        "dt": (0.01, _positive), "duration": (None, _number),
        "plant_nonlinear": (True, _bool), "reference_nonlinear": (True, _bool),
        "log_stride": (1, _int), "metrics_output": (0, _selector),
    },
    "sweep": {"axis": ("gamma", _choice("gamma", "gust-gradient")),
              "grid": ([0.01, 0.1, 1.0], _numbers)},
}


def _read(leaf, value, path: str):
    """value as the leaf's kind reads it.  A kind returns the value typed or
    raises ValueError saying what it expects; the ConfigError names the path."""
    default, kind = leaf
    try:
        return None if value is None and default is None else kind(value)
    except ValueError as exc:
        raise ConfigError(f"{path}: expected {exc}") from None


def _walk(schema: dict, user, prefix: str = "") -> dict:
    """Each leaf of schema read by its kind from user, or its default."""
    user = {} if user is None else user
    if not isinstance(user, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'}: expected a mapping, got {user!r}")
    for key in user:  # the first unknown field in the file's order
        if key not in schema:
            raise ConfigError(f"{prefix}{key}: unknown field")
    return {key: _walk(spec, user.get(key), f"{prefix}{key}.") if isinstance(spec, dict)
            else _read(spec, user.get(key, spec[0]), prefix + key)
            for key, spec in schema.items()}


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the configuration: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    cfg = _walk(_SCHEMA, raw)
    plant, gust = cfg["plant"], cfg["gust"]["kind"]
    if plant["source"] == "external" and not plant["bundle"]:
        raise ConfigError("plant.source = external requires plant.bundle")
    key = "bundle" if plant["source"] == "external" else "params"
    if plant[key] and not Path(plant[key]).is_file():
        raise ConfigError(f"plant.{key}: file not found: {plant[key]}")
    if cfg["controller"]["Q"]["kind"] == "diag" and cfg["controller"]["Q"]["diag"] is None:
        raise ConfigError("controller.Q.kind = diag requires controller.Q.diag")
    if gust != "one-cosine" and cfg["sim"]["duration"] is None:
        raise ConfigError(f"gust.kind = {gust} requires an explicit sim.duration")
    if gust != "one-cosine" and cfg["sweep"]["axis"] == "gust-gradient":
        raise ConfigError("sweep.axis = gust-gradient requires gust.kind = one-cosine, "
                          "the only gust with a gradient H_g")
    return cfg


def _sim_duration(cfg) -> float:
    """sim.duration, or ten one-cosine gust windows; at most MAX_STEPS steps."""
    duration, dt = cfg["sim"]["duration"], cfg["sim"]["dt"]
    if duration is None:
        duration = 10.0 * 2.0 * cfg["gust"]["H_g"] / cfg["gust"]["U_inf"]
    if duration / dt > MAX_STEPS:
        raise ConfigError(f"sim.dt = {dt:g} takes over {MAX_STEPS} steps to reach t = {duration:g}")
    return duration


# ---------------------------------------------------------------------------
# model / gust / controller assembly


def _read_plant_file(cfg):
    """(contents, params_path or None) of the file the plant block names: an
    external plant bundle, or aerofoil parameters and their path."""
    plant = cfg["plant"]
    if plant["source"] == "external":
        return plantio.load_plant(plant["bundle"]), None
    params_path = Path(plant["params"]) if plant["params"] else default_params_path()
    return load_params(params_path), params_path


def build_plant(cfg):
    """(full model, rom, params_path or None) from the plant and rom blocks."""
    full, params_path = _read_plant_file(cfg)
    if params_path:
        full = assemble_fom(full)
    source_hash = plantio.file_sha256(params_path) if params_path else ""
    rom = default_rom(full, n=cfg["rom"]["n"], n_real=cfg["rom"]["n_real"],
                      source_hash=source_hash)
    return full, rom, params_path


def build_gust(cfg, seed: int):
    g = cfg["gust"]
    if g["kind"] == "zero":
        return ZeroGust()
    if g["kind"] == "one-cosine":
        return OneCosineGust(w_gmax=g["w_gmax"], H_g=g["H_g"], U_inf=g["U_inf"])
    return VonKarmanGust(sigma_g=g["sigma"], L_g=g["L"], U_inf=g["U_inf"],
                         dt=cfg["sim"]["dt"], duration=_sim_duration(cfg), seed=seed)


def build_weighting(cfg, n: int) -> np.ndarray:
    q = cfg["controller"]["Q"]
    if q["kind"] == "diag":
        if len(q["diag"]) != n:
            raise ConfigError(f"controller.Q.diag: expected {n} entries, got {len(q['diag'])}")
        return np.diag(q["diag"]) * q["scale"]
    return q["scale"] * np.eye(n)


def _output_index(cfg, rom) -> int:
    """The model output that sim.metrics_output selects by label or index;
    each command resolves it once, before any integration."""
    sel, labels = cfg["sim"]["metrics_output"], rom.output_labels
    if sel in labels:
        return labels.index(sel)
    if type(sel) is not int or not -len(labels) <= sel < len(labels):
        raise ConfigError(f"sim.metrics_output: {sel!r} selects none of the outputs {labels}")
    return sel


def _require_gust_input(model):
    """Refuse a plant that no gust drives: its gust responses are all zero."""
    if model.p == 0:
        raise PlantError("the plant has no gust input: B_g has no columns")


def build_controller(cfg, rom):
    """(reference, design); every lane starts from zero gains."""
    if rom.m == 0:
        raise mrac.MracError("the plant has no control input: B_c has no columns")
    _require_gust_input(rom)
    ctl = cfg["controller"]
    reference = mrac.build_reference_model(rom, ctl["damping"])
    Q = build_weighting(cfg, rom.n)
    design = mrac.make_design(reference.A_m, Q, ctl["gamma"], m=rom.m)
    return reference, design


def sim_config(cfg) -> sim.SimulationConfig:
    s = cfg["sim"]
    try:
        return sim.SimulationConfig(
            dt=s["dt"], duration=_sim_duration(cfg), plant_nonlinear=s["plant_nonlinear"],
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
    """Header, then one line per row; a float array is formatted _CSV_BLOCK
    rows at a time."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            line = ",".join([_FLOAT_FMT] * rows.shape[1]) + "\n"
            for start in range(0, rows.shape[0], _CSV_BLOCK):
                block = rows[start:start + _CSV_BLOCK]
                fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
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
    _read_plant_file(cfg)  # the plant file a run loads, with its checks
    print("configuration is valid")
    print(f"plant source: {cfg['plant']['source']}")
    print(f"gust: {cfg['gust']['kind']}")
    print(f"rom: n = {cfg['rom']['n']}, n_real = {cfg['rom']['n_real']}")
    return EXIT_OK


def cmd_gust_gen(cfg, outdir: Path, args) -> int:
    config = sim_config(cfg)  # a run's checks of dt and duration
    gust = build_gust(cfg, cfg["seed"])
    t = np.arange(config.n_steps + 1) * config.dt
    w = np.asarray(gust(t), dtype=float)
    write_csv(outdir / "gust.csv", ["t", "w_g"], np.column_stack([t, w]))
    write_plot_script(outdir / "plot_gust.py", "gust.csv", "gust velocity", ["w_g"])
    write_resolved_config(cfg, outdir)
    print(f"wrote {outdir / 'gust.csv'} ({t.shape[0]} samples)")
    return EXIT_OK


def cmd_rom_build(cfg, outdir: Path, args) -> int:
    full, rom, _ = build_plant(cfg)
    _require_gust_input(rom)  # the validation compares gust responses
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
    tol_peak, tol_rms = cfg["rom"]["peak_tol_percent"], cfg["rom"]["rms_tol_percent"]
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
    idx = _output_index(cfg, rom)
    gust = build_gust(cfg, cfg["seed"])
    config = sim_config(cfg)
    reference, design = build_controller(cfg, rom)
    tr_open, (tr_closed,) = sim.integrate_open_and_closed(
        rom, reference, [design], [np.zeros((rom.n, rom.m))], gust, config)
    for result in (tr_open, tr_closed):  # an open loop that diverged is reported first
        if isinstance(result, sim.SimulationError):
            header, rows = trace_columns(result.trace)
            write_csv(outdir / "trace_partial.csv", header, rows)
            write_resolved_config(cfg, outdir)
            print(f"error: {result}", file=sys.stderr)
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

    metrics = [sim.compute_metrics(tr_open, tr_closed, j) for j in range(len(rom.output_labels))]
    write_csv(outdir / "metrics.csv", _METRICS_HEADER, [_metrics_row(m) for m in metrics])

    m = metrics[idx]
    lines = [
        f"output {m.output}: peak open {m.peak_open:.6e}, peak closed "
        f"{m.peak_closed:.6e}, reduction {m.reduction_percent:.2f}%",
        f"max flap command {np.degrees(m.max_flap_cmd):.3f} deg",
    ]
    lines += cert_lines
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
    write_resolved_config(cfg, outdir)
    print("\n".join(lines))
    return EXIT_OK


def _gamma_points(cfg, rom, grid, idx):
    """(metrics of output idx, error) per gamma point.  The points share one
    gust, one reference model and one Q and P; their closed loops run beside
    the open loop as the lanes of one batch, reduced to metrics as they run
    (``sim.sweep_metrics``).  A gust, config, controller, numerics or ROM
    error, each a ValueError, fails the points it reaches."""
    try:
        gust = build_gust(cfg, cfg["seed"])
        config = sim_config(cfg)
        reference, design = build_controller(cfg, rom)
    except ValueError as exc:
        return [(None, str(exc))] * len(grid)
    results = [None] * len(grid)
    lanes = []  # (point, design)
    for k, gamma in enumerate(grid):
        try:
            lanes.append((k, mrac.LyapunovDesign(design.Q, design.P, gamma)))
        except ValueError as exc:
            results[k] = (None, str(exc))
    if lanes:
        points, designs = zip(*lanes)
        thetas = [np.zeros((rom.n, rom.m))] * len(designs)
        metrics = sim.sweep_metrics(rom, reference, designs, thetas, gust, config, idx)
        for k, m in zip(points, metrics):
            results[k] = (None, str(m)) if isinstance(m, sim.SimulationError) else (m, None)
    return results


def cmd_sweep(cfg, outdir: Path, args) -> int:
    full, rom, _ = build_plant(cfg)
    idx = _output_index(cfg, rom)  # a bad selector ends the sweep, not each point
    axis = cfg["sweep"]["axis"]
    grid = cfg["sweep"]["grid"]
    if axis == "gamma":
        results = _gamma_points(cfg, rom, grid, idx)
    else:  # each gradient is a one-point gamma sweep under its own gust
        results = [_gamma_points({**cfg, "gust": {**cfg["gust"], "H_g": H_g}}, rom,
                                 [cfg["controller"]["gamma"]], idx)[0] for H_g in grid]

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
                       help="accepted for compatibility; no effect (a sweep runs "
                            "its points as the lanes of one batch per gust)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = _read(_SCHEMA["seed"], args.seed, "--seed")
        outdir = Path(args.out if args.out is not None else cfg["output_dir"])
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {outdir}: {exc.strerror}") from exc
        return _COMMANDS[args.command](cfg, outdir, args)
    except (ConfigError, plantio.PlantIOError, ParamsFileError, FileNotFoundError) as exc:
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
