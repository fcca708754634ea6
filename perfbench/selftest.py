"""Self-test of the benchmark's checks: each check must pass on real
artifacts and report a failure on each deliberately perturbed copy.

Usage: python3 perfbench/selftest.py

Runs each workload's command once (seed 0), then perturbs copies of its
artifacts one way at a time.  Exits 0 when every check passes on the real
artifacts and catches every perturbation; prints one line per case.
"""

from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path

import numpy as np
import yaml

import run

sys.path.insert(0, str(run.SRC))  # the checks take model matrices from the program


def edit_csv(name, row, col, change):
    """Perturbation: apply ``change`` to one cell of a CSV artifact, or to
    the whole column when ``row`` is None."""

    def apply(d: Path):
        path = d / name
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        j = table[0].index(col)
        for r in table[1:] if row is None else [table[row + 1]]:
            r[j] = change(r[j])
        path.write_text("\n".join(",".join(r) for r in table) + "\n")

    return apply


def scale(factor):
    return lambda s: repr(float(s) * factor)


def edit_npz(key, change):
    def apply(d: Path):
        path = d / "rom.npz"
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data)
        arrays[key] = change(arrays[key])
        np.savez(path, **arrays)

    return apply


def patch_lyapunov(_d: Path):
    """The design's P, not an artifact: perturb the program's solver."""
    from aeromrac import mrac

    solve = mrac.solve_lyapunov
    mrac.solve_lyapunov = lambda A, Q: solve(A, Q) * (1.0 + 1e-6)
    return lambda: setattr(mrac, "solve_lyapunov", solve)


def flip_byte(d: Path):
    path = d / "resolved_config.yaml"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))


def drop_last_row(name):
    def apply(d: Path):
        path = d / name
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

    return apply


PERTURBATIONS = {
    "simulate-1cos": {
        "peak_open +1e-6": edit_csv("metrics.csv", 0, "peak_open", scale(1 + 1e-6)),
        "peak_closed +1e-6": edit_csv("metrics.csv", 0, "peak_closed", scale(1 + 1e-6)),
        "max_flap_deg -1e-6": edit_csv("metrics.csv", 0, "max_flap_deg", scale(1 - 1e-6)),
        "reduction_percent negative": edit_csv("metrics.csv", 0, "reduction_percent",
                                               lambda s: repr(-abs(float(s)))),
        "u_d off the formula": edit_csv("trace_closed.csv", 5000, "u_d",
                                        lambda s: repr(float(s) + 1e-9)),
        "trace cut short": drop_last_row("trace_open.csv"),
        "Lyapunov P +1e-6": patch_lyapunov,
    },
    "rom-build": {
        "full_pitch off the reference": edit_csv("validation.csv", 12000, "full_pitch",
                                                 scale(1 + 1e-6)),
        "rom_plunge 6 % high": edit_csv("validation.csv", None, "rom_plunge", scale(1.06)),
        "eigenvalue moved": edit_npz("eigenvalues", lambda e: e + 1e-6),
        "Psi Phi != I": edit_npz("Psi", lambda m: m * (1 + 1e-6)),
    },
    "sweep-gamma-vk": {
        "failed point": edit_csv("sweep.csv", 1, "status", lambda s: "error: injected"),
        "peak_open not shared": edit_csv("sweep.csv", 2, "peak_open", scale(1 + 1e-15)),
        "peak_closed +1e-6": edit_csv("sweep.csv", 3, "peak_closed", scale(1 + 1e-6)),
        "rms_closed -1e-6": edit_csv("sweep.csv", 0, "rms_closed", scale(1 - 1e-6)),
        "max_flap_deg +1e-6": edit_csv("sweep.csv", 2, "max_flap_deg", scale(1 + 1e-6)),
        "gamma grid changed": edit_csv("sweep.csv", 0, "gamma", lambda s: "0.02"),
    },
}


def main() -> int:
    failures = 0

    def report(ok, text):
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {text}")

    for workload, cases in PERTURBATIONS.items():
        make, _, check = run.WORKLOADS[workload]
        command, config, spec = make(0)
        wdir = run.RUNS / "selftest" / workload
        shutil.rmtree(wdir, ignore_errors=True)
        wdir.mkdir(parents=True)
        cfg_path = wdir / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(config, sort_keys=True))
        proc = run.run_process(wdir, "real", [command, "--config", str(cfg_path)],
                               trace=False)
        if proc["rc"] != 0:
            report(False, f"{workload}: command exited {proc['rc']}")
            continue
        real = proc["outdir"]
        problems = check(real, spec)
        report(not problems, f"{workload}: real artifacts pass ({problems or 'no problems'})")

        copy = wdir / "copy"
        shutil.copytree(real, copy)
        report(run.same_artifacts(real, copy), f"{workload}: identical copy is identical")
        flip_byte(copy)
        report(not run.same_artifacts(real, copy),
               f"{workload}: determinism check catches one flipped bit")

        for name, perturb in cases.items():
            shutil.rmtree(copy)
            shutil.copytree(real, copy)
            restore = perturb(copy)
            try:
                problems = check(copy, spec)
            finally:
                if callable(restore):
                    restore()
            report(bool(problems), f"{workload}: {name}: "
                   + (problems[0] if problems else "NOT DETECTED"))
        shutil.rmtree(wdir)
    print(f"{failures} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
