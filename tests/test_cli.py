import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def _python(*args, blas_threads=None) -> str:
    """The last line a fresh interpreter prints, run with args on this
    source tree and OPENBLAS_NUM_THREADS set to blas_threads, or unset."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _loaded_scipy_modules(code: str) -> str:
    """The scipy modules loaded after running code in a fresh interpreter."""
    return _python("-c", "import sys; " + code +
                   "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")


def test_import_leaves_scipy_signal_unloaded():
    # scipy.linalg serves only the library's transmission zeros and pole
    # placement, which no command calls; the CLI import loads no scipy module
    assert _loaded_scipy_modules("import aeromrac.cli") == "[]"


def test_von_karman_runs_load_no_scipy(tmp_path):
    # every command, in one interpreter, at a short duration (the reduced
    # model meets rom-build's tolerances over the default 20 s)
    vk = write_config(tmp_path / "vk.yaml", gust={"kind": "von-karman"},
                      sim={"dt": 0.02, "duration": 4.0},
                      sweep={"axis": "gamma", "grid": [0.1, 1.0]})
    one_cos = write_config(tmp_path / "1cos.yaml", controller={"certificate": "error-only"},
                           sweep={"axis": "gust-gradient", "grid": [1.0, 2.0]})
    runs = [("validate", one_cos), ("gust-gen", vk), ("rom-build", one_cos),
            ("simulate", one_cos), ("sweep", vk), ("sweep", one_cos)]
    code = "from aeromrac import cli; " + "; ".join(
        f"assert cli.main([{command!r}, '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / str(k))!r}]) == 0" for k, (command, cfg) in enumerate(runs))
    assert _loaded_scipy_modules(code) == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("blas_threads", [None, "2"])
def test_cli_runs_blas_on_one_thread_unless_told(tmp_path, blas_threads):
    # the command leaves no OpenBLAS worker beside the main thread; a value
    # the user set is kept (its thread count follows the host's cores)
    cfg = write_config(tmp_path / "run.yaml")
    code = ("import os; from aeromrac import cli; "
            f"assert cli.main(['simulate', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'o')!r}]) == 0; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    value, tasks = _python("-c", code, blas_threads=blas_threads).split()
    assert value == (blas_threads or "1")
    if blas_threads is None:
        assert tasks == "1"


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # at duration 165 the monitor's product has 33 002 rows, past OpenBLAS's
    # threshold for splitting it over threads
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"sim": {"duration": 165.0}}))
    outs = [tmp_path / "one", tmp_path / "two"]
    for out, blas_threads in zip(outs, (None, "2")):
        _python("-m", "aeromrac.cli", "simulate", "--config", str(cfg), "--out", str(out),
                blas_threads=blas_threads)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "trace_closed.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_float_array_csv_matches_value_by_value_format(tmp_path):
    rows = np.array([[np.nan, np.inf, -np.inf, -0.0],
                     [5e-324, 1e308, 0.1, -1.0 / 3.0]])
    cli.write_csv(tmp_path / "a.csv", ["a", "b", "c", "d"], rows)
    want = "a,b,c,d\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "a.csv").read_text() == want



@pytest.mark.parametrize("n_rows", [0, 1, 7, cli._CSV_BLOCK, cli._CSV_BLOCK + 1,
                                    2 * cli._CSV_BLOCK + 3])
def test_float_array_csv_matches_row_by_row_format(tmp_path, n_rows):
    # blocks of rows formatted with one % write the bytes that formatting one
    # row at a time writes, across block boundaries and with nan, inf and -0.0
    rng = np.random.default_rng(n_rows)
    rows = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(n_rows, 3))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])
    at = rng.choice(rows.size, size=min(rows.size, special.size), replace=False)
    rows.flat[at] = special[:at.size]
    line = ",".join([cli._FLOAT_FMT] * 3) + "\n"
    want = "x,y,z\n" + "".join(line % tuple(row) for row in rows.tolist())
    cli.write_csv(tmp_path / "a.csv", ["x", "y", "z"], rows)
    assert (tmp_path / "a.csv").read_bytes() == want.encode()


def test_csv_field_that_holds_a_comma_or_a_quote_is_quoted(tmp_path):
    # output labels are user strings: a header or a generic row reads back
    # field by field, on the float-block path and the generic one
    header = ["t", "y_a,b", 'y_"c"']
    for name, rows, want in (("floats.csv", np.array([[0.5, 1.0, -2.0]]), ["0.5", "1", "-2"]),
                             ("rows.csv", [[0.5, "a, b", True]], ["0.5", "a, b", "True"])):
        cli.write_csv(tmp_path / name, header, rows)
        with open(tmp_path / name, newline="") as fh:
            assert list(csv.reader(fh)) == [header, want]

def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


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

    def test_missing_bundle_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml",
                           plant={"source": "external", "bundle": str(tmp_path / "missing.npz")})
        assert cli.main(["validate", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "plant.bundle: file not found" in capsys.readouterr().err

    def test_von_karman_needs_duration(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml",
                           gust={"kind": "von-karman"}, sim={"dt": 0.02, "duration": None})
        assert cli.main(["validate", "--config", str(cfg)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["von-karman", "zero"])
    def test_gust_gradient_sweep_needs_one_cosine(self, tmp_path, capsys, kind):
        # only the one-cosine gust has the gradient H_g that the sweep varies
        cfg = write_config(tmp_path / "run.yaml", gust={"kind": kind},
                           sweep={"axis": "gust-gradient", "grid": [1.0, 2.0]})
        assert cli.main(["validate", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "sweep.axis = gust-gradient requires gust.kind = one-cosine" \
            in capsys.readouterr().err

    def test_newer_schema_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", schema_version=99)
        assert cli.main(["validate", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_reference_input_map_is_not_a_field(self, tmp_path, capsys):
        # regulation (r = 0) leaves B_m nothing to act on
        cfg = write_config(tmp_path / "run.yaml", controller={"B_m": [[1.0]]})
        assert cli.main(["validate", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "controller.B_m: unknown field" in capsys.readouterr().err


def _unusable_paths(tmp_path, case):
    """(config, out) for a command whose config or output path cannot be used."""
    cfg = write_config(tmp_path / "run.yaml")
    (tmp_path / "file").write_text("")
    if case == "out_is_file":
        return cfg, tmp_path / "file"
    if case == "out_below_file":
        return cfg, tmp_path / "file" / "o"
    if case == "config_is_dir":
        return tmp_path, tmp_path / "o"
    cfg.write_bytes(b"seed: 1\n# \xff\xfe\n")
    return cfg, tmp_path / "o"


@pytest.mark.parametrize("case, message", [
    ("out_is_file", "output directory"), ("out_below_file", "output directory"),
    ("config_is_dir", "cannot read the configuration"),
    ("config_not_utf8", "cannot read the configuration")])
def test_unusable_path_is_a_config_error(tmp_path, capsys, case, message):
    cfg, out = _unusable_paths(tmp_path, case)
    assert cli.main(["validate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, artifact", [("simulate", "trace_open.csv"),
                                               ("rom-build", "rom.npz")])
def test_unwritable_artifact_is_a_config_error(tmp_path, capsys, command, artifact):
    # a directory where an artifact goes: exit 3 with its path, as for an
    # output directory that cannot be made, not a traceback
    out = tmp_path / "o"
    (out / artifact).mkdir(parents=True)
    cfg = write_config(tmp_path / "run.yaml")
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"configuration error: cannot write {out / artifact}: " in capsys.readouterr().err


def _npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.zeros(1))
    return buf.getvalue()


def _bundle_bytes(labels=("y",), cut=None, A=None, **flags):
    """A stable 2-state plant bundle with the given metadata output_labels
    (None: no such entry) and flags, its array named cut cut short and its
    A, when given, replaced."""
    buf = io.BytesIO()
    save_plant(ExternalPlantBundle(A=-np.eye(2), B_c=np.ones((2, 1)), B_g=np.ones((2, 1)),
                                   C_out=np.eye(1, 2), output_labels=("y",)), buf)
    with np.load(io.BytesIO(buf.getvalue())) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta.pop("output_labels")
    if labels is not None:
        meta["output_labels"] = labels
    meta.update(flags)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if A is not None:
        arrays["A"] = A
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    if cut is None:
        return buf.getvalue()
    out = io.BytesIO()
    with zipfile.ZipFile(buf) as src, zipfile.ZipFile(out, "w") as dst:
        for name in src.namelist():
            data = src.read(name)
            dst.writestr(name, data[:20] if name == f"{cut}.npy" else data)
    return out.getvalue()


# plant files that a run cannot load, by name and contents, and the exit code
# that validate and a run both give them
_BAD_PLANT_FILES = [
    pytest.param("bundle", _bundle_bytes(), cli.EXIT_OK, "", id="bundle-valid"),
    pytest.param("bundle", b"not an archive\n", cli.EXIT_CONFIG, "not a readable .npz archive",
                 id="bundle-text"),
    pytest.param("bundle", _npy_bytes(), cli.EXIT_CONFIG, "not a readable .npz archive",
                 id="bundle-npy"),
    pytest.param("bundle", _bundle_bytes(cut="A"), cli.EXIT_CONFIG,
                 "not a readable .npz archive", id="bundle-cut-array"),
    pytest.param("bundle", _bundle_bytes(labels=None), cli.EXIT_CONFIG,
                 "'output_labels' is not a list of names", id="bundle-no-labels"),
    pytest.param("bundle", _bundle_bytes(labels=5), cli.EXIT_CONFIG,
                 "'output_labels' is not a list of names", id="bundle-labels-not-names"),
    pytest.param("bundle", _bundle_bytes(has_quad=True), cli.EXIT_CONFIG,
                 "missing matrix block 'quad'", id="bundle-flagged-block-missing"),
    pytest.param("bundle", _bundle_bytes(A=np.array([["a", "b"], ["c", "d"]])), cli.EXIT_CONFIG,
                 "matrix block 'A' holds <U1 entries, not real numbers", id="bundle-string-A"),
    pytest.param("bundle", _bundle_bytes(A=-np.eye(2) + 0j), cli.EXIT_CONFIG,
                 "matrix block 'A' holds complex128 entries", id="bundle-complex-A"),
    pytest.param("bundle", _bundle_bytes(A=-np.eye(2, dtype=int)), cli.EXIT_OK, "",
                 id="bundle-integer-A"),
    pytest.param("bundle", _bundle_bytes(A=np.array(-1.0)), cli.EXIT_CONFIG,
                 "field 'A': shape () is not (n, n)", id="bundle-scalar-A"),
    pytest.param("bundle", _bundle_bytes(A=np.zeros((0, 0))), cli.EXIT_CONFIG,
                 "field 'A': shape (0, 0) is not (n, n) with n >= 1", id="bundle-empty-A"),
    pytest.param("params", b"- 1\n- 2\n", cli.EXIT_CONFIG, "expected a mapping",
                 id="params-list"),
    pytest.param("params", b"section: {mu: 300.0, typo: 1.0}\n", cli.EXIT_CONFIG,
                 "typo: unknown field", id="params-unknown-key"),
    pytest.param("params", b"section: {mu: abc}\n", cli.EXIT_CONFIG, "mu: expected a number",
                 id="params-non-numeric"),
    pytest.param("params", b"section: {mu: .nan}\n", cli.EXIT_CONFIG, "mu: expected a number",
                 id="params-nan"),
    pytest.param("params", b"aerodynamics: {wagner_rates: [0.1]}\n", cli.EXIT_CONFIG,
                 "wagner_rates: expected a list of 2 numbers", id="params-short-list"),
    pytest.param("params", b"U_star: 4.5 # \xff\n", cli.EXIT_CONFIG, "cannot read parameters",
                 id="params-non-utf8"),
    pytest.param("params", b"U_star: -1.0\n", cli.EXIT_VALIDATION, "U_star must be positive",
                 id="params-out-of-range"),
]


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("kind, contents, code, message", _BAD_PLANT_FILES)
def test_bad_plant_file_names_the_file(tmp_path, capsys, command, kind, contents, code,
                                       message):
    path = tmp_path / f"plant.{'npz' if kind == 'bundle' else 'yaml'}"
    path.write_bytes(contents)
    source = "external" if kind == "bundle" else "aerofoil"
    cfg = write_config(tmp_path / "run.yaml", plant={"source": source, kind: str(path)},
                       rom={"n": 2, "n_real": 2} if kind == "bundle" else {})
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert message in err and (code != cli.EXIT_CONFIG or str(path) in err)


def test_plant_without_control_input_is_a_validation_error(tmp_path, capsys):
    # B_c of shape (n, 0) loads and reduces, but no controller can act on it;
    # B_g of shape (n, 0) loads too, but no gust drives it: its gust
    # responses, which rom-build compares, are all zero
    cases = [(np.zeros((2, 0)), np.ones((2, 1)), cli.EXIT_OK,
              "the plant has no control input: B_c has no columns"),
             (np.ones((2, 1)), np.zeros((2, 0)), cli.EXIT_VALIDATION,
              "the plant has no gust input: B_g has no columns")]
    for case, (B_c, B_g, rom_build, message) in enumerate(cases):
        out, path = tmp_path / str(case), tmp_path / f"plant{case}.npz"
        save_plant(ExternalPlantBundle(A=-np.eye(2), B_c=B_c, B_g=B_g, C_out=np.eye(1, 2),
                                       output_labels=("y",)), path)
        cfg = write_config(tmp_path / "run.yaml",
                           plant={"source": "external", "bundle": str(path)},
                           rom={"n": 2, "n_real": 2}, sweep={"axis": "gamma", "grid": [0.5, 1.0]})
        assert cli.main(["validate", "--config", str(cfg), "--out", str(out / "v")]) == 0
        assert cli.main(["rom-build", "--config", str(cfg),
                         "--out", str(out / "rom")]) == rom_build
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out / "sim")]) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out / "sw")]) == cli.EXIT_OK
        header, rows = read_csv(out / "sw" / "sweep.csv")
        assert [r[header.index("status")] for r in rows] == [f"error: {message}"] * 2


# each malformed value stops the command with exit 3 before any integration
_BAD_NUMBERS = [
    ("simulate", {"controller": {"gamma": "abc"}}, "controller.gamma"),
    ("simulate", {"sim": {"dt": "abc"}}, "sim.dt"),
    ("sweep", {"sweep": {"axis": "gamma", "grid": [0.5, "a"]}}, "sweep.grid"),
    ("simulate", {"sim": {"log_stride": 0}}, "log_stride"),
    ("simulate", {"sim": {"dt": 0.02, "duration": 0.01}}, "duration"),
    ("simulate", {"rom": {"n": "abc"}}, "rom.n: expected an integer"),
    ("simulate", {"rom": {"n_real": "abc"}}, "rom.n_real"),
    ("simulate", {"controller": {"damping": "abc"}}, "controller.damping"),
    ("simulate", {"controller": {"Q": {"scale": "abc"}}}, "controller.Q.scale"),
    ("simulate", {"controller": {"Q": {"kind": "diag", "diag": [1.0] * 8, "scale": "abc"}}},
     "Q.scale: expected a number"),
    ("rom-build", {"rom": {"peak_tol_percent": "abc"}}, "rom.peak_tol_percent"),
    ("rom-build", {"rom": {"rms_tol_percent": "abc"}}, "rom.rms_tol_percent"),
    ("simulate", {"controller": {"Q": {"kind": "diag", "diag": 5}}}, "controller.Q.diag"),
    ("simulate", {"controller": {"Q": {"kind": "diag", "diag": ["a"] + [1.0] * 7}}},
     "controller.Q.diag: expected a number"),
    ("simulate", {"controller": {"damping": {0: "abc"}}}, "controller.damping: expected a number"),
    ("simulate", {"controller": {"damping": {"a": 2}}}, "controller.damping: expected an integer"),
    ("validate", {"schema_version": "abc"}, "schema_version"),
    ("simulate", {"seed": "abc", "gust": {"kind": "von-karman"}}, "seed"),
    ("simulate", {"sim": {"dt": float("nan")}}, "sim.dt: expected a positive number"),
    ("simulate", {"plant": {"params": 5}}, "plant.params"),
    ("simulate", {"sim": {"dt": 1e-12}}, "sim.dt = 1e-12 takes over"),
    ("gust-gen", {"sim": {"dt": 1e-12}}, "sim.dt = 1e-12 takes over 10000000 steps"),
    ("simulate", {"sim": {"plant_nonlinear": "false"}}, "sim.plant_nonlinear"),
    # zero correction is not a run option: even its old default is unknown
    ("simulate", {"controller": {"zero_correction": False}}, "controller.zero_correction"),
    ("gust-gen", {"seed": -1, "gust": {"kind": "von-karman"}}, "seed: expected a non-negative"),
    ("validate", {"output_dir": "a\0b"}, "output_dir"),
]


@pytest.mark.parametrize("command, sections, message", _BAD_NUMBERS,
                         ids=[m for _, _, m in _BAD_NUMBERS])
def test_malformed_number_is_a_config_error(tmp_path, capsys, command, sections, message):
    cfg = write_config(tmp_path / "run.yaml", **sections)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("axis", ["gamma", "gust-gradient"])
def test_step_ceiling_fails_each_sweep_point(tmp_path, axis):
    cfg = write_config(tmp_path / "run.yaml", sweep={"axis": axis, "grid": [0.5, 1.0]},
                       sim={"dt": 1e-12})
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    header, rows = read_csv(out / "sweep.csv")
    assert [r[header.index("status")] for r in rows] == [
        f"error: sim.dt = 1e-12 takes over {cli.MAX_STEPS} steps to reach t = 20"] * 2


def _leaves(schema, prefix=()):
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _leaves(spec, prefix + (key,))
        else:
            yield prefix + (key,)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
            | st.sampled_from(["von-karman", "zero", "diag", "external", "error-only", "flap"]))
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.integers() | st.text(max_size=3), inner, max_size=3), max_leaves=5)


def _steps(path) -> float:
    """The configured run's step count, 0 when the config is rejected first."""
    try:
        cfg = cli.load_config(path)
        return cli._sim_duration(cfg) / cfg["sim"]["dt"]
    except cli.ConfigError:
        return 0


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(leaf=st.sampled_from(list(_leaves(cli._SCHEMA))), value=_VALUES)
def test_any_value_of_any_leaf_exits_with_a_documented_code(tmp_path, leaf, value):
    sections = {"gust": {"kind": "one-cosine", "H_g": 2.0}, "sim": {"dt": 0.02, "duration": 4.0}}
    node = sections
    for key in leaf[:-1]:
        node = node.setdefault(key, {})
    node[leaf[-1]] = value
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(sections, sort_keys=False))
    args = ["--config", str(cfg), "--out", str(tmp_path / "o")]
    codes = {cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_CONFIG, cli.EXIT_DIVERGED}
    assert cli.main(["validate", *args]) in codes
    if _steps(cfg) <= 10_000:  # longer runs stop at the step ceiling, tested above
        assert cli.main(["simulate", *args]) in codes


def test_documented_config_block_is_the_defaults(tmp_path):
    doc = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    block = doc.split("## Run configuration (YAML)")[1].split("```yaml\n")[1].split("```")[0]
    (tmp_path / "doc.yaml").write_text(block)
    (tmp_path / "empty.yaml").write_text("")
    defaults = cli.load_config(tmp_path / "empty.yaml")
    assert yaml.safe_load(block) == defaults
    assert cli.load_config(tmp_path / "doc.yaml") == defaults


def test_run_reproduces_from_its_resolved_config(tmp_path):
    # a string number is written as the float it reads as; the seed as overridden
    cfg = write_config(tmp_path / "run.yaml", gust={"kind": "von-karman", "sigma": "5e-2"},
                       controller={"certificate": "error-only"},
                       sim={"dt": 0.02, "duration": 10.0})
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(first),
                     "--seed", "7"]) == cli.EXIT_OK
    resolved = first / "resolved_config.yaml"
    assert yaml.safe_load(resolved.read_text())["gust"]["sigma"] == 0.05
    assert cli.load_config(resolved) == {**cli.load_config(cfg), "seed": 7}
    assert cli.main(["simulate", "--config", str(resolved), "--out", str(second)]) == cli.EXIT_OK
    for name in ("trace_open.csv", "trace_closed.csv", "metrics.csv", "summary.txt",
                 "resolved_config.yaml"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("key, kind", [("w_gmax", "one-cosine"), ("H_g", "one-cosine"),
                                       ("U_inf", "one-cosine"), ("sigma", "von-karman"),
                                       ("L", "von-karman")])
def test_malformed_gust_number_is_a_config_error(tmp_path, capsys, command, key, kind):
    cfg = write_config(tmp_path / "run.yaml", gust={"kind": kind, key: "abc"},
                       sim={"dt": 0.02, "duration": 4.0})
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG
    assert f"gust.{key}: expected a number" in capsys.readouterr().err


@pytest.mark.parametrize("gust", [{"kind": "one-cosine", "w_gmax": "1.4e-1", "H_g": "2e0"},
                                  {"kind": "von-karman", "sigma": "5e-2", "L": "1.2e1"}])
def test_gust_numbers_read_as_validated(tmp_path, gust):
    # YAML reads 2e0 as a string; float() accepts it, so the command must too
    cfg = write_config(tmp_path / "run.yaml", gust=gust, sim={"dt": 0.02, "duration": 4.0})
    assert cli.main(["gust-gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_OK


# (sections, message); the zero-correction selector is no longer a field
_BAD_SELECTORS = [
    ({"sim": {"metrics_output": 7}}, "sim.metrics_output: 7 selects none of the outputs"),
    ({"sim": {"metrics_output": "yaw"}}, "sim.metrics_output: 'yaw' selects none of the outputs"),
    ({"controller": {"zero_correction": True, "zero_output": 7}},
     "controller.zero_correction: unknown field"),
    ({"controller": {"zero_output": "yaw"}}, "controller.zero_output: unknown field"),
]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("sections, message", _BAD_SELECTORS,
                         ids=["metrics-7", "metrics-yaw", "zero-7", "zero-yaw"])
def test_bad_output_selector_is_a_config_error(tmp_path, capsys, command, sections, message):
    cfg = write_config(tmp_path / "run.yaml", sweep={"axis": "gamma", "grid": [0.5]},
                       **sections)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "rom-build"])
@pytest.mark.parametrize("n, n_real", [(0, 0), (-2, -4), (2, -2)])
def test_rom_size_out_of_range_is_a_validation_error(tmp_path, capsys, command, n, n_real):
    cfg = write_config(tmp_path / "run.yaml", rom={"n": n, "n_real": n_real},
                       sweep={"axis": "gamma", "grid": [0.5]})
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_VALIDATION
    assert f"need n >= 1 and n_real >= 0, got n = {n}, n_real = {n_real}" \
        in capsys.readouterr().err
    assert not any(out.iterdir())


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

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", gust={"kind": "von-karman"})
        assert cli.main(["gust-gen", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--seed", "-1"]) == cli.EXIT_CONFIG
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err


    def test_duration_below_one_step_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", sim={"dt": 0.02, "duration": -1.0})
        out = tmp_path / "o"
        assert cli.main(["gust-gen", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "duration must be at least one step" in capsys.readouterr().err
        assert not (out / "gust.csv").exists()


# finite Von Karman numbers whose variance overflows or whose band is empty
_OVERFLOWING_GUSTS = [{"sigma": 1e308}, {"L": 1e308}, {"U_inf": 1e-308}]


@pytest.mark.parametrize("command", ["simulate", "rom-build", "gust-gen"])
@pytest.mark.parametrize("gust", _OVERFLOWING_GUSTS, ids=lambda g: next(iter(g)))
def test_overflowing_von_karman_gust_is_a_validation_error(tmp_path, capsys, command, gust):
    cfg = write_config(tmp_path / "run.yaml", gust={"kind": "von-karman", **gust},
                       sim={"dt": 0.02, "duration": 4.0})
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == \
        cli.EXIT_VALIDATION
    assert "Von Karman parameters out of range" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["gamma", "gust-gradient"])
@pytest.mark.parametrize("gust", _OVERFLOWING_GUSTS, ids=lambda g: next(iter(g)))
def test_overflowing_von_karman_gust_fails_each_sweep_point(tmp_path, capsys, axis, gust):
    cfg = write_config(tmp_path / "run.yaml", gust={"kind": "von-karman", **gust},
                       sim={"dt": 0.02, "duration": 4.0}, sweep={"axis": axis, "grid": [0.5, 1.0]})
    out = tmp_path / "sw"
    if axis == "gust-gradient":  # a Von Karman gust has no gradient to sweep
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "sweep.axis = gust-gradient requires gust.kind = one-cosine" \
            in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        return
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    header, rows = read_csv(out / "sweep.csv")
    for row in rows:
        assert row[header.index("status")].startswith("error: Von Karman parameters out of range")


# a run shorter than one step is a config error under every gust, and a
# one-cosine gust without a gradient a validation error, in every command
_CHECK_ORDER = [
    ({"gust": {"kind": "von-karman"}, "sim": {"duration": 0.004}},
     cli.EXIT_CONFIG, "duration must be at least one step"),
    ({"gust": {"H_g": 0.0}, "sim": {"duration": None}},
     cli.EXIT_VALIDATION, "H_g and U_inf must be positive"),
]


@pytest.mark.parametrize("command", ["simulate", "rom-build", "gust-gen", "sweep"])
@pytest.mark.parametrize("sections, code, message", _CHECK_ORDER, ids=["short-vk", "flat-1cos"])
def test_every_command_checks_gust_and_run_in_one_order(tmp_path, capsys, command, sections,
                                                        code, message):
    cfg = write_config(tmp_path / "run.yaml", sweep={"axis": "gamma", "grid": [0.5]}, **sections)
    out = tmp_path / "o"
    if command == "sweep":  # each point fails with the error
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        header, (row,) = read_csv(out / "sweep.csv")
        assert row[header.index("status")] == f"error: {message}"
        return
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == code
    assert message in capsys.readouterr().err


def test_sweep_csv_status_with_commas_stays_one_field(tmp_path):
    # each point fails on an out-of-range Von Karman gust, a message whose
    # commas, unquoted, would split it over four more columns than the header
    cfg = write_config(tmp_path / "run.yaml", gust={"kind": "von-karman", "L": 1.0e+300},
                       sweep={"axis": "gamma", "grid": [0.5, 1.0]})
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    header, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2
    for row in rows:
        assert len(row) == len(header)
        assert row[header.index("status")] == (
            "error: Von Karman parameters out of range: sigma = 0.05, L = 1e+300, "
            "U_inf = 1, dt = 0.02, duration = 20")
        assert row[header.index("worst_case")] == "False"


def _diverging_config(tmp_path):
    """A stable 2-state bundle whose quadratic residual a strong gust drives
    past the divergence bound, with a configuration that runs it."""
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
    return write_config(
        tmp_path / "run.yaml",
        plant={"source": "external", "bundle": str(bpath)},
        rom={"n": 2, "n_real": 0},
        gust={"kind": "one-cosine", "w_gmax": 3.0, "H_g": 2.0, "U_inf": 1.0},
        sim={"dt": 0.01, "duration": 20.0},
    )


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

    def test_divergence_exit_code(self, tmp_path, capsys):
        out = tmp_path / "div"
        assert cli.main(["rom-build", "--config", str(_diverging_config(tmp_path)),
                         "--out", str(out)]) == cli.EXIT_DIVERGED
        assert "state diverged at t = " in capsys.readouterr().err
        assert not (out / "validation.csv").exists()


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
        # error-only V starts at 0 and leaves out the gain term: the gust fails it
        [verdict] = [line for line in summary.splitlines() if line.startswith("V(0) = ")]
        assert verdict.endswith(": FAIL")
        assert "Lipschitz monitor" in summary
        header, rows = read_csv(outs[0] / "trace_closed.csv")
        assert header[:4] == ["t", "y_pitch", "y_plunge", "y_flap"]
        assert header[-2:] == ["V", "monitor_ratio"]
        assert (outs[0] / "plot_traces.py").exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = _diverging_config(tmp_path)
        out = tmp_path / "div"
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().err
        # the open loop diverges: the partial trace is the open loop's, no control
        header, rows = read_csv(out / "trace_partial.csv")
        assert rows and {r[header.index("u_c")] for r in rows} == {"0"}

    def test_nonlinearity_flags_resolve_into_the_models(self, tmp_path):
        # plant_nonlinear: false drops the plant's springs and with them the
        # reference model's, which it builds from the plant;
        # reference_nonlinear: false drops the reference model's alone
        def run(plant, reference):
            name = f"{plant}-{reference}"
            cfg = write_config(tmp_path / f"{name}.yaml",
                               sim={"plant_nonlinear": plant, "reference_nonlinear": reference})
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(tmp_path / name)]) == cli.EXIT_OK
            return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                    if p.name != "resolved_config.yaml"}

        assert run(False, True) == run(False, False)
        assert run(True, False)["trace_closed.csv"] != run(True, True)["trace_closed.csv"]

    def test_weakened_damping_factor_is_refused_and_a_pair_is_not(self, tmp_path, capsys):
        # a factor below 1 is refused; a [sigma_m, omega_dm] pair sets the
        # decay rate outright, below the plant's too
        cfg = write_config(tmp_path / "factor.yaml", controller={"damping": 0.9})
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "f")]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == \
            "validation error: damping factor 0.9 < 1 for mode 0 reduces damping\n"
        cfg = write_config(tmp_path / "pair.yaml", controller={"damping": {0: [0.001, 0.1]}})
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "p")]) == cli.EXIT_OK

    # a gust large enough to drive the plant's cubic stiffness past the bound
    LIPSCHITZ_GUST = {"kind": "one-cosine", "w_gmax": 1.0, "H_g": 10.0, "U_inf": 1.0}

    def test_lipschitz_violation_warns(self, tmp_path, caplog):
        cfg = write_config(tmp_path / "run.yaml", gust=self.LIPSCHITZ_GUST)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        assert "violation = True" in (out / "summary.txt").read_text()
        [record] = [r for r in caplog.records if "Lipschitz" in r.getMessage()]
        assert record.levelname == "WARNING"
        assert "L_F = 4.244e-03" in record.getMessage()
        assert "controller.damping" in record.getMessage()

    def test_stiff_reference_model_warns_on_dt(self, tmp_path):
        # mode 0 of the reference model at |lambda| = 30: dt 0.01 exceeds 0.1/30
        cfg = write_config(tmp_path / "run.yaml", controller={"damping": {0: [30.0, 0.07]}},
                           sim={"dt": 0.01, "duration": 1.0})
        with pytest.warns(UserWarning, match="stability heuristic"):
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(tmp_path / "o")]) == cli.EXIT_OK

    def test_stiff_reference_model_steps_at_dt(self, tmp_path, capsys):
        # damping 1e300 puts the step heuristic far below dt, so the one-cosine
        # run steps at dt and diverges at its first step, t = 0.02
        cfg = write_config(tmp_path / "run.yaml", controller={"damping": 1e300})
        with pytest.warns(UserWarning, match="stability heuristic"):
            code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_DIVERGED
        assert "error: state diverged at t = 0.02 (norm nan > 1.0e+08)\n" in capsys.readouterr().err

    def test_reports_name_the_step(self, tmp_path, capsys):
        # one-cosine at dt 0.02: RK4 steps at 5 dt; Von Karman turbulence at dt
        lines = []
        for gust in ({}, {"kind": "von-karman"}):
            cfg = write_config(tmp_path / "run.yaml", gust=gust)
            for command, report in (("simulate", "summary.txt"),
                                    ("rom-build", "validation_report.txt")):
                out = tmp_path / f"{command}{len(lines)}"
                cli.main([command, "--config", str(cfg), "--out", str(out)])
                lines += [line for line in (out / report).read_text().splitlines()
                          if line.startswith("RK4 step")]
        dense = "RK4 step 0.1 = 5 dt; rows on the dt grid by cubic Hermite dense output"
        assert lines == [dense, dense, "RK4 step 0.02 = dt; rows at its nodes",
                         "RK4 step 0.02 = dt; rows at its nodes"]

    def test_linear_plant_does_not_warn(self, tmp_path, caplog):
        cfg = write_config(tmp_path / "run.yaml", gust=self.LIPSCHITZ_GUST,
                           sim={"plant_nonlinear": False})
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == cli.EXIT_OK
        assert not [r for r in caplog.records if r.levelname == "WARNING"]


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

    def test_non_positive_gammas_leave_the_other_point_as_alone(self, tmp_path):
        # gamma 0 and -1 are error rows; the remaining point's row is, byte for
        # byte, that of a one-point sweep at its gamma
        outs = {}
        for name, grid in (("mixed", [0, -1, 0.5]), ("alone", [0.5])):
            cfg = write_config(tmp_path / f"{name}.yaml", sweep={"axis": "gamma", "grid": grid},
                               sim={"dt": 0.02, "duration": 10.0})
            out = tmp_path / name
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
            outs[name] = read_csv(out / "sweep.csv")
        header, rows = outs["mixed"]
        status = header.index("status")
        assert [r[status] for r in rows] == ["error: gamma must be positive"] * 2 + ["ok"]
        assert rows[2][status:] == outs["alone"][1][0][status:]

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

    @pytest.mark.parametrize("points", [5, 3, 1])
    def test_grid_runs_as_one_batch(self, tmp_path, monkeypatch, points):
        # any grid is one RK4 run of its points and the open loop as lanes,
        # whose 101 nodes here (h = 5 dt) take two chunks and whose 501
        # logged rows are reduced 12 at a time; every row reads the one open
        # loop
        cfg = write_config(tmp_path / "run.yaml",
                           sweep={"axis": "gamma", "grid": [0.01, 0.1, 0.3, 1.0, 2.0][:points]},
                           sim={"dt": 0.02, "duration": 10.0})
        rk4, sizes = cli.sim._rk4, []
        monkeypatch.setattr(cli.sim, "_rk4",
                            lambda f, y, *rest: sizes.append(len(y)) or rk4(f, y, *rest))
        monkeypatch.setattr(cli.sim, "CHUNK_ROWS", 64)
        out = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        header, rows = read_csv(out / "sweep.csv")
        assert sizes == [points + 1]
        assert [r[header.index("status")] for r in rows] == ["ok"] * points
        assert len({r[header.index("peak_open")] for r in rows}) == 1

    def test_peak_memory_does_not_grow_with_duration(self, tmp_path, monkeypatch, fom, rom):
        # a sweep keeps one chunk of logged rows, not its log: from one to four
        # chunks of rows its traced peak grows by less than one chunk's log
        # (the gust enters each RK4 stage as input coordinates, a few numbers
        # per lane, so no forcing grows with the run)
        chunk = 600
        monkeypatch.setattr(cli.sim, "CHUNK_ROWS", chunk)
        monkeypatch.setattr(cli, "build_plant", lambda cfg: (fom, rom))
        grid = [0.01, 0.1, 0.3, 1.0, 2.0, 5.0]
        peaks = []
        for chunks in (1, 2, 4):
            cfg = write_config(tmp_path / f"{chunks}.yaml", sweep={"axis": "gamma", "grid": grid},
                               sim={"dt": 0.02, "duration": 0.02 * chunk * chunks})
            tracemalloc.start()
            try:
                assert cli.main(["sweep", "--config", str(cfg),
                                 "--out", str(tmp_path / str(chunks))]) == cli.EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk_log = chunk * (len(grid) + 1) * (2 * rom.n + rom.n * rom.m) * 8
        assert peaks[-1] - peaks[0] < chunk_log, (peaks, chunk_log)

    def test_peak_memory_per_lane_is_its_chunk_log_and_half_an_operator(self, tmp_path,
                                                                        monkeypatch, fom, rom):
        # from 7 to 64 lanes a sweep's traced peak grows by less than the added
        # lanes' chunk logs and half an operator W each: the lanes share one W,
        # and a lane's design, gains and stage buffers take less than half of
        # one.  Nothing a lane holds grows with the gust grid, here 1 201 half
        # steps.
        chunk = 16
        monkeypatch.setattr(cli.sim, "CHUNK_ROWS", chunk)
        monkeypatch.setattr(cli, "build_plant", lambda cfg: (fom, rom))
        peaks = {}
        for lanes in (7, 64):
            cfg = write_config(tmp_path / f"{lanes}.yaml",
                               sweep={"axis": "gamma",
                                      "grid": np.geomspace(0.01, 5.0, lanes - 1).tolist()},
                               sim={"dt": 0.02, "duration": 12.0})
            tracemalloc.start()
            try:
                assert cli.main(["sweep", "--config", str(cfg),
                                 "--out", str(tmp_path / str(lanes))]) == cli.EXIT_OK
                peaks[lanes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a lane's state [x, x_m, vec theta]; an operator's product columns are
        # the springs of plant and reference model, then u_c and the law
        N, K = 2 * rom.n + rom.n * rom.m, 2 * rom.nl.H.shape[0] + 2 * rom.n * rom.m
        operator = (N + 3 * K) * (N + rom.p + 1) * 8
        budget = (64 - 7) * (chunk * N * 8 + operator / 2)
        assert peaks[64] - peaks[7] < budget, (peaks, budget)

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
