import json

import numpy as np
import pytest

from aeromrac.gusts import OneCosineGust
from aeromrac.plantio import (
    ExternalPlantBundle,
    PlantIOError,
    file_sha256,
    load_plant,
    load_rom,
    save_plant,
    save_rom,
)
from aeromrac.plant3dof import default_params_path
from aeromrac.romgen import default_rom
from aeromrac.sim import SimulationConfig, integrate_open_loop


def _bundle(**overrides):
    kw = dict(
        A=np.array([[-0.5, 1.0], [-1.0, -0.5]]),
        B_c=np.array([[0.0], [1.0]]),
        B_g=np.array([[1.0], [0.0]]),
        C_out=np.array([[1.0, 0.0]]),
        output_labels=("y",),
        name="test-plant",
        quad=np.array([0.2, 0.1]),
        cubic=np.array([0.0, 0.3]),
    )
    kw.update(overrides)
    return ExternalPlantBundle(**kw)


class TestBundleValidation:
    def test_shape_mismatch_names_field(self):
        with pytest.raises(PlantIOError, match="'B_c'"):
            _bundle(B_c=np.zeros((3, 1)))
        with pytest.raises(PlantIOError, match="'C_out'"):
            _bundle(C_out=np.zeros((1, 3)))
        with pytest.raises(PlantIOError, match="'quad'"):
            _bundle(quad=np.zeros(5))

    def test_label_count_mismatch(self):
        with pytest.raises(PlantIOError, match="output_labels"):
            _bundle(output_labels=("a", "b"))

    def test_nonfinite_rejected(self):
        with pytest.raises(PlantIOError, match="non-finite"):
            _bundle(A=np.array([[np.nan, 0.0], [0.0, -1.0]]))

    def test_stable_flag_cross_checked(self):
        with pytest.raises(PlantIOError, match="'stable'"):
            _bundle(A=np.array([[0.5, 0.0], [0.0, -1.0]]), stable=True)
        # declaring it unstable is accepted
        b = _bundle(A=np.array([[0.5, 0.0], [0.0, -1.0]]), stable=False)
        assert not b.stable

    def test_nonlinear_rhs(self):
        b = _bundle()
        x = np.array([2.0, -1.0])
        lin = b.A @ x + b.B_c @ [0.5] + b.B_g @ [0.1]
        assert np.allclose(b.rhs(x, [0.5], [0.1], nonlinear=False), lin)
        assert np.allclose(
            b.rhs(x, [0.5], [0.1]) - lin, [0.2 * 4.0, 0.1 * 1.0 + 0.3 * -1.0]
        )


class TestPlantRoundTrip:
    def test_bit_exact(self, tmp_path):
        b = _bundle()
        path = tmp_path / "plant.npz"
        save_plant(b, path)
        b2 = load_plant(path)
        for name in ("A", "B_c", "B_g", "C_out", "quad", "cubic"):
            assert np.array_equal(getattr(b, name), getattr(b2, name))
        assert b2.output_labels == b.output_labels
        assert b2.name == "test-plant"

    def test_optional_nonlinearity_absent(self, tmp_path):
        b = _bundle(quad=None, cubic=None)
        path = tmp_path / "plant.npz"
        save_plant(b, path)
        b2 = load_plant(path)
        assert b2.quad is None and b2.cubic is None
        assert np.all(b2.eval_f_nr(np.ones(2)) == 0.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PlantIOError, match="not found"):
            load_plant(tmp_path / "nope.npz")

    def test_missing_block_rejected(self, tmp_path):
        path = tmp_path / "broken.npz"
        meta = {"schema_version": 1, "kind": "plant-bundle", "output_labels": ["y"]}
        np.savez(path, A=np.eye(2),
                 meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        with pytest.raises(PlantIOError, match="missing matrix block"):
            load_plant(path)

    def test_wrong_kind_rejected(self, tmp_path):
        b = _bundle()
        path = tmp_path / "plant.npz"
        save_plant(b, path)
        with pytest.raises(PlantIOError, match="expected a rom"):
            load_rom(path)

    def test_newer_schema_fails_closed(self, tmp_path):
        path = tmp_path / "future.npz"
        meta = {"schema_version": 99, "kind": "plant-bundle", "output_labels": ["y"]}
        np.savez(path, A=np.eye(2), B_c=np.ones((2, 1)), B_g=np.ones((2, 1)),
                 C_out=np.ones((1, 2)),
                 meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        with pytest.raises(PlantIOError, match="schema version 99"):
            load_plant(path)

    def test_corrupt_meta_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        np.savez(path, A=np.eye(2),
                 meta=np.frombuffer(b"not json at all", dtype=np.uint8))
        with pytest.raises(PlantIOError, match="corrupt metadata"):
            load_plant(path)

    def test_loaded_bundle_simulates_identically(self, tmp_path):
        b = _bundle()
        path = tmp_path / "plant.npz"
        save_plant(b, path)
        b2 = load_plant(path)
        cfg = SimulationConfig(dt=0.01, duration=5.0)
        gust = OneCosineGust(0.1, 1.0, 1.0)
        t1 = integrate_open_loop(b, gust, cfg)
        t2 = integrate_open_loop(b2, gust, cfg)
        assert np.array_equal(t1.x, t2.x)


class TestRomRoundTrip:
    def test_matrices_and_modes(self, fom, tmp_path):
        src = default_params_path()
        rom = default_rom(fom, source_hash=file_sha256(src))
        path = tmp_path / "rom.npz"
        save_rom(rom, path)
        rom2 = load_rom(path, source_path=src)
        for name in ("A", "B_c", "B_g", "Phi", "Psi", "C_out"):
            assert np.array_equal(getattr(rom, name), getattr(rom2, name))
        assert rom2.output_labels == rom.output_labels
        e1 = np.sort_complex(np.linalg.eigvals(rom.A))
        e2 = np.sort_complex(np.linalg.eigvals(rom2.A))
        assert np.abs(e1 - e2).max() < 1e-12
        assert [m.kind for m in rom2.modes] == [m.kind for m in rom.modes]

    def test_schema_v1_loads_linear_with_warning(self, rom, tmp_path):
        path = tmp_path / "rom.npz"
        save_rom(rom, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data if k not in ("G", "H", "quad", "cubic")}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["schema_version"] = 1
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.warns(UserWarning, match="schema-v1"):
            rom1 = load_rom(path)
        assert rom1.nl is None
        assert np.all(rom1.eval_f_nr(np.ones(rom.n)) == 0.0)
        assert np.array_equal(rom1.A, rom.A)

    def test_stale_source_warns(self, fom, tmp_path):
        src = tmp_path / "params.yaml"
        src.write_text("U_star: 4.5\n")
        rom = default_rom(fom, source_hash=file_sha256(src))
        path = tmp_path / "rom.npz"
        save_rom(rom, path)
        load_rom(path, source_path=src)  # unchanged: silent
        src.write_text("U_star: 4.6\n")
        with pytest.warns(UserWarning, match="stale"):
            load_rom(path, source_path=src)

    def test_corrupt_matrix_rejected(self, rom, tmp_path):
        path = tmp_path / "rom.npz"
        save_rom(rom, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["A"] = arrays["A"].copy()
        arrays["A"][0, 0] = np.inf
        np.savez(path, **arrays)
        with pytest.raises(PlantIOError, match="corrupt matrix block 'A'"):
            load_rom(path)


class TestHashing:
    def test_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        p = tmp_path / "f.bin"
        p.write_bytes(b"abc123")
        assert file_sha256(p) == hashlib.sha256(b"abc123").hexdigest()
