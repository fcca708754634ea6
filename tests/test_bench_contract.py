"""The benchmark in perfbench/ wraps program functions and methods by name
and recomputes the nonlinearity on its own.  This test runs the traced
program in a fresh interpreter (so the class patches stay there) and checks
that the names it hooks still exist, that its reduced force matches the
program's, that a gamma sweep builds one gust and runs its open loop once,
as lane 0 of its one batch, and that rom-build runs the full-order and
reduced models as one open loop."""

import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import sys
import numpy as np

sys.path.insert(0, {perfbench!r})
import checks
import tracer
from aeromrac import cli, gusts, mrac, sim

t = tracer.Tracer()
tracer.install(t)
fom, rom = checks.program_models()
X = np.random.default_rng(0).normal(scale=0.3, size=(64, rom.n))
got, want = rom.eval_f_nr(X), checks.reduced_force(fom, rom)(X)
err = np.abs(got - want).max() / np.abs(want).max()
assert err <= 1e-12, f"reduced force differs by {{err:.2e}}"

gust = gusts.OneCosineGust(0.14, 2.0, 1.0)
config = sim.SimulationConfig(dt=0.02, duration=4.0)
reference = mrac.build_reference_model(rom, 1.5)
design = mrac.make_design(reference.A_m, 0.03 * np.eye(rom.n), 0.5, m=rom.m)
sim.integrate_open_loop(fom, gust, config)
sim.integrate_open_loop(rom, gust, config)
# the integrators evaluate a plant field, not rhs: one direct call each
# checks that the hooked rhs names exist and are wrapped
fom.rhs(np.zeros(fom.n), 0.0, 0.0)
rom.rhs(np.zeros(rom.n), 0.0, 0.0)
tr = sim.integrate_closed_loop(rom, reference, design, np.zeros((rom.n, 1)), gust, config)
mon = mrac.lipschitz_margin(design, rom, tr.time, tr.x, tr.x_m)
cli.write_csv({csv!r}, ["t", "ratio"], np.column_stack([tr.time, mon.ratios]))

dump = t.dump()
for name in ("romgen.ReducedOrderModel.rhs", "romgen.ReducedOrderModel.eval_f_nr",
             "plant3dof.FullOrderModel.rhs"):
    assert dump["totals"][name]["calls"] > 0, name
c = dump["counters"]
assert c["open_runs"] == 2 and c["closed_rows"] == tr.time.shape[0], c
assert c["lipschitz_rows"] == tr.time.shape[0] and c["csv_rows"] == tr.time.shape[0], c

def runs():
    batches = t.dump()["totals"].get("sim.sweep_metrics", {{"calls": 0}})["calls"]
    return np.array([len(t.open_runs), batches, len(t.gust_builds)])


before = runs()
assert cli.main(["sweep", "--config", {sweep_cfg!r}, "--out", {sweep_out!r}]) == 0
# no open-loop run of its own: the open loop is lane 0 of the one batch
assert list(runs() - before) == [0, 1, 1], runs() - before

open_runs = len(t.open_runs)
code = cli.main(["rom-build", "--config", {sweep_cfg!r}, "--out", {rom_out!r}])
assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION), code
assert len(t.open_runs) - open_runs == 1, len(t.open_runs) - open_runs
print("ok")
"""


def test_traced_program_matches_benchmark_checks(tmp_path):
    sweep_cfg = tmp_path / "sweep.yaml"
    sweep_cfg.write_text(yaml.safe_dump({
        "gust": {"kind": "one-cosine", "w_gmax": 0.14, "H_g": 2.0, "U_inf": 1.0},
        "sim": {"dt": 0.02, "duration": 4.0},
        "sweep": {"axis": "gamma", "grid": [0.1, 1.0]},
    }))
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), csv=str(tmp_path / "r.csv"),
                           sweep_cfg=str(sweep_cfg), sweep_out=str(tmp_path / "sweep"),
                           rom_out=str(tmp_path / "rom"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")
