"""End-to-end benchmark of the aeromrac batch CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is a fresh ``aeromrac`` process, started from this script and
run on the package sources in ``src/`` of the checkout holding this file.
A run repeats whole rounds of its workload's command until ``--seconds``
have passed (at least MIN_ROUNDS rounds) and reports the median per round.
With ``--trace 1`` every round runs the command twice, untraced and then
traced, and the run reports the per-layer figures of the traced processes
and the tracing overhead.

Outside the timed region the run checks the artifacts: every round must be
byte-identical to the first, and the first must pass the workload's
correctness check (checks.py).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import yaml

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
MIN_ROUNDS = {0: 3, 1: 2}

# Packaged defaults of the 1-cosine case (src/aeromrac/cli.py, _DEFAULTS).
ONE_COSINE = {"w_gmax": 0.14, "H_g": 55.0, "U_inf": 1.0, "dt": 0.01}
# 1.5 gust windows: past the open-loop pitch peak (t = 128.1), so every
# metric equals that of the default 10-window run at 15 % of its steps.
ONE_COSINE_DURATION = 165.0
GAMMA_GRID = [0.01, 0.1, 0.3, 1.0]
SWEEP_DURATION = 25.0


def simulate_workload(seed):
    config = {"seed": seed, "sim": {"duration": ONE_COSINE_DURATION}}
    spec = dict(ONE_COSINE, duration=ONE_COSINE_DURATION, damping=1.5, q_scale=0.03,
                gamma=0.5)
    return "simulate", config, spec


def rom_build_workload(seed):
    config = {"seed": seed, "sim": {"duration": ONE_COSINE_DURATION}}
    spec = dict(ONE_COSINE, duration=ONE_COSINE_DURATION, peak_tol_percent=5.0,
                rms_tol_percent=2.0)
    return "rom-build", config, spec


def sweep_workload(seed):
    config = {
        "seed": seed,
        "gust": {"kind": "von-karman", "sigma": 0.05, "L": 12.0},
        "controller": {"Q": {"scale": 0.003}},
        "sim": {"duration": SWEEP_DURATION},
        "sweep": {"axis": "gamma", "grid": GAMMA_GRID},
    }
    spec = {"seed": seed, "sigma": 0.05, "L": 12.0, "U_inf": 1.0, "dt": 0.01,
            "duration": SWEEP_DURATION, "damping": 1.5, "q_scale": 0.003,
            "grid": GAMMA_GRID}
    return "sweep", config, spec


WORKLOADS = {
    "simulate-1cos": (simulate_workload, 1, checks.check_simulate),
    "rom-build": (rom_build_workload, 1, checks.check_rom_build),
    "sweep-gamma-vk": (sweep_workload, len(GAMMA_GRID), checks.check_sweep),
}


def run_process(wdir: Path, name: str, cli_args: list[str], trace: bool) -> dict:
    """One CLI process; wall, CPU and peak RSS from the parent's side."""
    outdir = wdir / name
    marks_path = wdir / f"{name}.marks.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "launch.py"), str(marks_path), str(int(trace)),
           *cli_args, "--out", str(outdir)]
    with open(wdir / f"{name}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=wdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    return {
        "outdir": outdir,
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": marks["rom_ready"] - t0 if "rom_ready" in marks else float("nan"),
        "marks": marks,
    }


def _files(d: Path) -> list[str]:
    return sorted(str(p.relative_to(d)) for p in d.rglob("*") if p.is_file())


def same_artifacts(a: Path, b: Path) -> bool:
    files = _files(a)
    return files == _files(b) and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files)


def failed_points(proc: dict, ops: int) -> int:
    """Operations of one process that failed: all of them if the process
    did not exit 0, else the sweep rows whose status is not ok."""
    if proc["rc"] != 0:
        return ops
    sweep_csv = proc["outdir"] / "sweep.csv"
    if sweep_csv.exists():
        lines = sweep_csv.read_text().splitlines()[1:]
        return sum(1 for line in lines if line.split(",")[1] != "ok")
    return 0


def layer_metrics(marks: dict) -> dict:
    """Per-layer figures of one traced process, as {name: (value, unit)}."""
    tr = marks["trace"]
    tot, cnt = tr["totals"], tr["counters"]

    def total(name):
        return tot.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    rom_rhs, rom_fnr = "romgen.ReducedOrderModel.rhs", "romgen.ReducedOrderModel.eval_f_nr"
    fom_rhs = "plant3dof.FullOrderModel.rhs"
    closed, opened = "sim.integrate_closed_loop", "sim.integrate_open_loop"
    open_steps, closed_steps = cnt.get("open_steps", 0), cnt.get("closed_steps", 0)
    return {
        "sim.closed_loop_s": (total(closed), "s"),
        "sim.open_loop_s": (total(opened), "s"),
        "sim.closed_step_self_us": (1e6 * ratio(self_s(closed), closed_steps), "us"),
        "sim.open_step_self_us": (1e6 * ratio(self_s(opened), open_steps), "us"),
        "sim.steps": (open_steps + closed_steps, "count"),
        "sim.open_runs_per_gust": (ratio(cnt["open_runs"], cnt["distinct_open_runs"]),
                                   "ratio"),
        "romgen.rhs_us": (1e6 * ratio(total(rom_rhs), calls(rom_rhs)), "us"),
        "romgen.rhs_calls": (calls(rom_rhs), "count"),
        "romgen.eval_f_nr_us": (1e6 * ratio(total(rom_fnr), calls(rom_fnr)), "us"),
        "romgen.eval_f_nr_calls": (calls(rom_fnr), "count"),
        "romgen.default_rom_ms": (1e3 * total("romgen.default_rom"), "ms"),
        "plant3dof.rhs_us": (1e6 * ratio(total(fom_rhs), calls(fom_rhs)), "us"),
        "plant3dof.rhs_calls": (calls(fom_rhs), "count"),
        "plant3dof.assemble_fom_ms": (1e3 * total("plant3dof.assemble_fom"), "ms"),
        "numerics.eig_biorthogonal_ms": (1e3 * total("numerics.eig_biorthogonal"), "ms"),
        "numerics.solve_lyapunov_ms": (1e3 * total("numerics.solve_lyapunov"), "ms"),
        "mrac.lipschitz_s": (total("mrac.lipschitz_ratio_series"), "s"),
        "mrac.lipschitz_rows_per_trace_row": (
            ratio(cnt.get("lipschitz_rows", 0), cnt.get("closed_rows", 0)), "ratio"),
        "mrac.design_ms": (1e3 * total("mrac.make_design"), "ms"),
        "gusts.build_ms": (1e3 * total("gusts.build"), "ms"),
        "gusts.builds_per_distinct_gust": (
            ratio(cnt["gust_builds"], cnt["distinct_gusts"]), "ratio"),
        "plantio.save_rom_ms": (1e3 * total("plantio.save_rom"), "ms"),
        "cli.import_s": (marks["import_end"] - marks["import_start"], "s"),
        "cli.write_csv_s": (total("cli.write_csv"), "s"),
        "cli.csv_rows": (cnt.get("csv_rows", 0), "count"),
        "cli.csv_mb_per_s": (
            ratio(cnt.get("csv_bytes", 0) / 1e6, total("cli.write_csv")), "MB/s"),
        "cli.trace_log_mb": (cnt.get("trace_bytes", 0) / 1e6, "MB"),
    }


def median_metrics(samples: list[dict]) -> dict:
    return {name: {"value": statistics.median(s[name][0] for s in samples),
                   "unit": samples[0][name][1]}
            for name in samples[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aeromrac" / "cli.py").is_file():
        print(f"error: no aeromrac sources under {SRC}", file=sys.stderr)
        return 2

    make, ops, check = WORKLOADS[args.workload]
    command, config, spec = make(args.seed)
    wdir = RUNS / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    (wdir / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=True))
    cli_args = [command, "--config", str(wdir / "config.yaml")]
    if command == "sweep":
        cli_args += ["--workers", str(len(os.sched_getaffinity(0)))]

    # Whole rounds only; after the minimum, start another round only if it
    # is expected to end within --seconds.
    plain, traced = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_ROUNDS[args.trace] and (
                elapsed * (len(plain) + 1) / len(plain) > args.seconds):
            break
        k = len(plain)
        plain.append(run_process(wdir, f"round{k}", cli_args, trace=False))
        if args.trace:
            traced.append(run_process(wdir, f"round{k}_traced", cli_args, trace=True))

    # --- outside the timed region: determinism and correctness
    procs = plain + traced
    attempted = ops * len(procs)
    failed = sum(failed_points(p, ops) for p in procs)
    problems = []
    first = next((p for p in procs if p["rc"] == 0), None)
    if first is None:
        problems.append("no round exited 0")
    else:
        for p in procs:
            if p["rc"] == 0 and p is not first and not same_artifacts(first["outdir"],
                                                                      p["outdir"]):
                problems.append(f"{p['outdir'].name} differs from {first['outdir'].name}")
                failed += ops - failed_points(p, ops)
        sys.path.insert(0, str(SRC))  # the checks take model matrices from the program
        try:
            found = check(first["outdir"], spec)
        except Exception as exc:  # unreadable or malformed artifacts: report, not crash
            traceback.print_exc()
            found = [f"check raised {exc!r}"]
        if found:
            problems += found
            failed = attempted
    for p in procs:
        if p is not first:
            shutil.rmtree(p["outdir"], ignore_errors=True)

    ok = [p for p in plain if p["rc"] == 0] or plain
    if args.trace:
        samples = [layer_metrics(p["marks"]) for p in traced if "trace" in p["marks"]]
        metrics = median_metrics(samples) if samples else {}
        wall_plain = statistics.median(p["wall_s"] for p in ok)
        wall_traced = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_s"] = {"value": wall_traced - wall_plain, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (wall_traced - wall_plain) / wall_plain, "unit": "%"}
    else:
        metrics = median_metrics([{k: (p[k], u) for k, u in (
            ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))}
            for p in ok])

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(plain)} rounds"
          + (f" + {len(traced)} traced" if traced else "")
          + f", {attempted} operations, {failed} failed")
    for p in procs:
        print(f"  {p['outdir'].name:16s} exit {p['rc']}  wall {p['wall_s']:.3f} s  "
              f"cpu {p['cpu_s']:.3f} s  setup {p['setup_s']:.3f} s  "
              f"rss {p['peak_rss_mb']:.1f} MB")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
