"""The benchmark in perfbench/ wraps program functions and methods by name
and recomputes the nonlinearity on its own.  This test runs the traced
program in a fresh interpreter (so the class patches stay there) and checks
that the names it hooks still exist and that its reduced force matches the
program's."""

import os
import subprocess
import sys
from pathlib import Path

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
state = mrac.ControllerState(theta=np.zeros((rom.n + 1, 1)), K0=np.zeros((1, rom.n)))
sim.integrate_open_loop(fom, gust, config)
sim.integrate_open_loop(rom, gust, config)
tr = sim.integrate_closed_loop(rom, reference, design, state, gust, config)
mon = mrac.lipschitz_margin(design, rom, tr.time, tr.x, tr.x_m)
cli.write_csv({csv!r}, ["t", "ratio"], np.column_stack([tr.time, mon.ratios]))

dump = t.dump()
for name in ("romgen.ReducedOrderModel.rhs", "romgen.ReducedOrderModel.eval_f_nr",
             "plant3dof.FullOrderModel.rhs"):
    assert dump["totals"][name]["calls"] > 0, name
c = dump["counters"]
assert c["open_runs"] == 2 and c["closed_rows"] == tr.time.shape[0], c
assert c["lipschitz_rows"] == tr.time.shape[0] and c["csv_rows"] == tr.time.shape[0], c
print("ok")
"""


def test_traced_program_matches_benchmark_checks(tmp_path):
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), csv=str(tmp_path / "r.csv"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")
