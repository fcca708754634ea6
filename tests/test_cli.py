import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from aeromrac import cli
from aeromrac.plantio import ExternalPlantBundle, save_plant


def write_config(path, **sections):
    base = {
        "gust": {"kind": "one-cosine", "w_gmax": 0.14, "H_g": 2.0, "U_inf": 1.0},
        "sim": {"dt": 0.02, "duration": 20.0},
    }
    for key, val in sections.items():
        if isinstance(val, dict) and key in base:
            base[key] = {**base[key], **val}
        else:
            base[key] = val
    path.write_text(yaml.safe_dump(base))
    return path


def test_import_leaves_scipy_signal_unloaded():
    # only Von Karman gusts need scipy.signal; loading it costs most of the import
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, aeromrac.cli; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml")
        code = cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_OK
        assert "configuration is valid" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["validate", "--config", str(tmp_path / "nope.yaml")])
        assert code == cli.EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_unknown_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"no_such_section": 1}))
        code = cli.main(["validate", "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG
        assert "unknown field" in capsys.readouterr().err

    def test_missing_params_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml",
                           plant={"source": "aerofoil", "params": "missing.yaml"})
        code = cli.main(["validate", "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG

    def test_von_karman_needs_duration(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml",
                           gust={"kind": "von-karman"}, sim={"dt": 0.02, "duration": None})
        assert cli.main(["validate", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_newer_schema_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", schema_version=99)
        assert cli.main(["validate", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_reference_input_map_is_not_a_field(self, tmp_path, capsys):
        # regulation (r = 0) leaves B_m nothing to act on
        cfg = write_config(tmp_path / "run.yaml", controller={"B_m": [[1.0]]})
        assert cli.main(["validate", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "controller.B_m: unknown field" in capsys.readouterr().err


# each malformed value stops the command with exit 3 before any integration
_BAD_NUMBERS = [
    ("simulate", {"controller": {"gamma": "abc"}}, "controller.gamma"),
    ("simulate", {"sim": {"dt": "abc"}}, "sim.dt"),
    ("sweep", {"sweep": {"axis": "gamma", "grid": [0.5, "a"]}}, "sweep.grid"),
    ("simulate", {"sim": {"log_stride": 0}}, "log_stride"),
    ("simulate", {"sim": {"dt": 0.02, "duration": 0.01}}, "duration"),
]


@pytest.mark.parametrize("command, sections, message", _BAD_NUMBERS,
                         ids=[m for _, _, m in _BAD_NUMBERS])
def test_malformed_number_is_a_config_error(tmp_path, capsys, command, sections, message):
    cfg = write_config(tmp_path / "run.yaml", **sections)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


_BAD_SELECTORS = [
    {"sim": {"metrics_output": 7}},
    {"sim": {"metrics_output": "yaw"}},
    {"controller": {"zero_correction": True, "zero_output": 7}},
    {"controller": {"zero_correction": True, "zero_output": "yaw"}},
]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("sections", _BAD_SELECTORS,
                         ids=["metrics-7", "metrics-yaw", "zero-7", "zero-yaw"])
def test_bad_output_selector_is_a_config_error(tmp_path, capsys, command, sections):
    cfg = write_config(tmp_path / "run.yaml", sweep={"axis": "gamma", "grid": [0.5]},
                       **sections)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "selects none of the outputs" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


class TestGustGen:
    def test_deterministic_and_artifacts(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.yaml",
            gust={"kind": "von-karman", "sigma": 0.05, "L": 12.0},
            sim={"dt": 0.02, "duration": 10.0},
        )
        for out in ("a", "b"):
            assert cli.main(["gust-gen", "--config", str(cfg),
                             "--out", str(tmp_path / out)]) == cli.EXIT_OK
        a = (tmp_path / "a" / "gust.csv").read_bytes()
        b = (tmp_path / "b" / "gust.csv").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "plot_gust.py").exists()
        assert (tmp_path / "a" / "resolved_config.yaml").exists()

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.yaml",
            gust={"kind": "von-karman", "sigma": 0.05, "L": 12.0},
            sim={"dt": 0.02, "duration": 10.0},
        )
        cli.main(["gust-gen", "--config", str(cfg), "--out", str(tmp_path / "s0")])
        cli.main(["gust-gen", "--config", str(cfg), "--out", str(tmp_path / "s7"),
                  "--seed", "7"])
        assert (tmp_path / "s0" / "gust.csv").read_bytes() != \
            (tmp_path / "s7" / "gust.csv").read_bytes()


class TestRomBuild:
    def test_report_and_cache(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml")
        out = tmp_path / "rb"
        assert cli.main(["rom-build", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        report = (out / "validation_report.txt").read_text()
        assert "reduced model: n = 8 of N = 14" in report
        assert "FAIL" not in report
        assert (out / "rom.npz").exists()
        assert (out / "validation.csv").exists()

    def test_tolerance_failure_exit_code(self, tmp_path):
        # a 2-state reduction of the 14-state plant cannot track the outputs
        cfg = write_config(tmp_path / "run.yaml",
                           rom={"n": 2, "n_real": 2, "peak_tol_percent": 0.001,
                                "rms_tol_percent": 0.001})
        out = tmp_path / "rb"
        assert cli.main(["rom-build", "--config", str(cfg),
                         "--out", str(out)]) == cli.EXIT_VALIDATION
        assert "FAIL" in (out / "validation_report.txt").read_text()


class TestSimulate:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml",
                           controller={"certificate": "error-only"})
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(out)]) == cli.EXIT_OK
            outs.append(out)
        for fname in ("trace_open.csv", "trace_closed.csv", "metrics.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        summary = (outs[0] / "summary.txt").read_text()
        assert "reduction" in summary
        assert "certificate" in summary
        assert "Lipschitz monitor" in summary
        header, rows = read_csv(outs[0] / "trace_closed.csv")
        assert header[:4] == ["t", "y_pitch", "y_plunge", "y_flap"]
        assert header[-2:] == ["V", "monitor_ratio"]
        assert (outs[0] / "plot_traces.py").exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        bundle = ExternalPlantBundle(
            A=np.array([[-0.5, 1.0], [-1.0, -0.5]]),
            B_c=np.array([[0.0], [1.0]]),
            B_g=np.array([[1.0], [0.0]]),
            C_out=np.array([[1.0, 0.0]]),
            output_labels=("y",),
            quad=np.array([4.0, 4.0]),
        )
        bpath = tmp_path / "plant.npz"
        save_plant(bundle, bpath)
        cfg = write_config(
            tmp_path / "run.yaml",
            plant={"source": "external", "bundle": str(bpath)},
            rom={"n": 2, "n_real": 0},
            gust={"kind": "one-cosine", "w_gmax": 3.0, "H_g": 2.0, "U_inf": 1.0},
            sim={"dt": 0.01, "duration": 20.0},
        )
        out = tmp_path / "div"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().err
        assert (out / "trace_partial.csv").exists()


class TestSweep:
    def test_single_point_matches_simulate(self, tmp_path):
        base = dict(controller={"gamma": 0.5})
        cfg = write_config(tmp_path / "run.yaml", sweep={"axis": "gamma", "grid": [0.5]},
                           **base)
        out_sweep = tmp_path / "sw"
        out_sim = tmp_path / "si"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out_sweep)]) == cli.EXIT_OK
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_sim)]) == cli.EXIT_OK
        sw_header, sw_rows = read_csv(out_sweep / "sweep.csv")
        m_header, m_rows = read_csv(out_sim / "metrics.csv")
        assert sw_rows[0][sw_header.index("status")] == "ok"
        for col in ("peak_open", "peak_closed", "reduction_percent", "max_flap_deg"):
            assert sw_rows[0][sw_header.index(col)] == m_rows[0][m_header.index(col)]

    def test_gust_gradient_flags_worst_case(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml",
                           sweep={"axis": "gust-gradient", "grid": [1.0, 2.0, 3.0]},
                           sim={"dt": 0.02, "duration": 30.0})
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--workers", "2"]) == cli.EXIT_OK
        header, rows = read_csv(out / "sweep.csv")
        flags = [r[header.index("worst_case")] for r in rows]
        assert flags.count("True") == 1
        peaks = [float(r[header.index("peak_open")]) for r in rows]
        assert flags[int(np.argmax(peaks))] == "True"

    def test_failed_point_becomes_error_row(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", sweep={"axis": "gamma", "grid": [-1.0, 0.5]},
                           sim={"dt": 0.02, "duration": 10.0})
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        header, rows = read_csv(out / "sweep.csv")
        status = [r[header.index("status")] for r in rows]
        assert status == ["error: gamma must be positive", "ok"]

    def test_diverged_point_fails_alone(self, tmp_path):
        # gamma = 1e6 diverges near t = 2.5; the other points run on
        outs = {}
        for name, grid in (("with", [0.5, 1.0e6, 1.0]), ("without", [0.5, 1.0])):
            cfg = write_config(tmp_path / f"{name}.yaml",
                               sweep={"axis": "gamma", "grid": grid},
                               sim={"dt": 0.02, "duration": 10.0})
            out = tmp_path / name
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
            outs[name] = read_csv(out / "sweep.csv")
        header, rows = outs["with"]
        status = [r[header.index("status")] for r in rows]
        assert status[0] == status[2] == "ok"
        assert status[1].startswith("error: state diverged at t = ")
        col = header.index("peak_closed")
        for got, want in zip([rows[0], rows[2]], outs["without"][1]):
            assert float(got[col]) == pytest.approx(float(want[col]), rel=1e-12)

    def test_too_short_gust_point_becomes_error_row(self, tmp_path):
        # H_g = 0.0005 gives a default duration of 0.01 < dt
        cfg = write_config(tmp_path / "run.yaml",
                           sweep={"axis": "gust-gradient", "grid": [0.0005, 2.0]},
                           sim={"dt": 0.02, "duration": None})
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        header, rows = read_csv(out / "sweep.csv")
        status = [r[header.index("status")] for r in rows]
        assert status == ["error: duration must be at least one step", "ok"]
