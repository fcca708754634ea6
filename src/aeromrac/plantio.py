"""Persistence: externally supplied state-space plants and reduced-model
caching.

All containers are NumPy ``.npz`` archives carrying a JSON metadata record
with their kind and schema version.  One reader, ``load_plant``, returns the
model of either kind; loading a file written by a newer schema fails closed.
Matrices round-trip at full binary precision.  See ``docs/formats.md``.
"""

from __future__ import annotations

import hashlib
import json
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .romgen import ModeInfo, Plant, PolyNonlinearity, ReducedOrderModel

PLANT_SCHEMA_VERSION = 1
ROM_SCHEMA_VERSION = 2
_SCHEMA_VERSIONS = {"plant-bundle": PLANT_SCHEMA_VERSION, "rom": ROM_SCHEMA_VERSION}
_NL_BLOCKS = ("G", "H", "quad", "cubic")


class PlantIOError(ValueError):
    """Raised for schema violations, dimension mismatches and bad data."""


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True, kw_only=True)
class ExternalPlantBundle(Plant):
    """User-supplied linear plant with an optional per-state polynomial
    nonlinearity f_i(x) = quad_i x_i^2 + cubic_i x_i^3 (``nl`` with
    G = H = I, derived from ``quad`` and ``cubic``)."""

    name: str = "external"
    provenance_hash: str = ""
    stable: bool = True
    quad: np.ndarray | None = None  # (n,) quadratic coefficients
    cubic: np.ndarray | None = None  # (n,) cubic coefficients
    nl: PolyNonlinearity | None = field(default=None, init=False)

    def __post_init__(self):
        if self.quad is not None or self.cubic is not None:
            n = self.A.shape[0] if self.A.ndim else 0  # the plant contract checks A
            quad, cubic = (np.zeros(n) if c is None else c for c in (self.quad, self.cubic))
            object.__setattr__(self, "nl", PolyNonlinearity(np.eye(n), np.eye(n), quad, cubic))
        try:
            super().__post_init__()
        except ValueError as exc:
            raise PlantIOError(str(exc)) from exc
        if (np.linalg.eigvals(self.A).real.max() < 0.0) != self.stable:
            raise PlantIOError(f"field 'stable': declared {self.stable} but eigenvalue check "
                               f"gives {not self.stable}")


def save_plant(bundle: ExternalPlantBundle, path) -> None:
    meta = {
        "schema_version": PLANT_SCHEMA_VERSION,
        "kind": "plant-bundle",
        "name": bundle.name,
        "provenance_hash": bundle.provenance_hash,
        "stable": bundle.stable,
        "output_labels": list(bundle.output_labels),
        "has_quad": bundle.quad is not None,
        "has_cubic": bundle.cubic is not None,
    }
    arrays = {
        "A": bundle.A, "B_c": bundle.B_c, "B_g": bundle.B_g, "C_out": bundle.C_out,
        "meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
    }
    if bundle.quad is not None:
        arrays["quad"] = bundle.quad
    if bundle.cubic is not None:
        arrays["cubic"] = bundle.cubic
    np.savez(path, **arrays)


def _read_meta(data, path) -> dict:
    if "meta" not in data:
        raise PlantIOError(f"{path}: missing metadata record")
    try:
        meta = json.loads(bytes(data["meta"]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PlantIOError(f"{path}: corrupt metadata record: {exc}") from exc
    current_version = _SCHEMA_VERSIONS.get(meta.get("kind"))
    if current_version is None:
        raise PlantIOError(f"{path}: unknown kind {meta.get('kind')!r}, "
                           f"expected one of {', '.join(_SCHEMA_VERSIONS)}")
    version = meta.get("schema_version")
    if not isinstance(version, int) or version > current_version:
        raise PlantIOError(
            f"{path}: schema version {version} is newer than supported "
            f"version {current_version}"
        )
    return meta


def _read_npz(path: Path) -> dict:
    """The arrays of the .npz archive at path by name; a missing file, a file
    of another kind or an unreadable array raises PlantIOError naming it."""
    if not path.exists():
        raise PlantIOError(f"plant file not found: {path}")
    name = None  # the array being read
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a single .npy array")
        with data:
            arrays = {}
            for name in data.files:
                arrays[name] = data[name]
            return arrays
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        block = "" if name is None else f"block '{name}': "
        raise PlantIOError(f"{path}: not a readable .npz archive: {block}{exc}") from exc


def _real(arrays: dict, name: str, path: Path) -> np.ndarray:
    """Block name of a loaded archive as float64; a block of strings, complex
    numbers or objects raises PlantIOError naming the file and the block."""
    block = arrays[name]
    if block.dtype.kind not in "biuf":
        raise PlantIOError(f"{path}: matrix block '{name}' holds {block.dtype} entries, "
                           "not real numbers")
    return block.astype(float)


def load_plant(path, source_path=None) -> ExternalPlantBundle | ReducedOrderModel:
    """The model in the archive at path, by the kind its metadata names: an
    ExternalPlantBundle for "plant-bundle", a ReducedOrderModel, nonlinearity
    included, for "rom".

    A schema-v1 reduced model carries no nonlinearity and loads as a linear
    model with a warning.  ``source_path`` triggers a staleness warning when a
    reduced model's stored source hash no longer matches the parameter file."""
    path = Path(path)
    arrays = _read_npz(path)
    meta = _read_meta(arrays, path)
    rom = meta["kind"] == "rom"
    if rom:
        nl_blocks = _NL_BLOCKS if "G" in arrays else ()
        # the eigenvalues are complex
        real = ("A", "B_c", "B_g", "Phi", "Psi", "C_out", *nl_blocks, "participation")
    else:
        real = ("A", "B_c", "B_g", "C_out",
                *[name for name in ("quad", "cubic") if meta.get(f"has_{name}")])
    for name in real + (("eigenvalues",) if rom else ()):
        if name not in arrays:
            raise PlantIOError(f"{path}: missing matrix block '{name}'")
    for key in ("output_labels", "mode_kinds") if rom else ("output_labels",):
        names = meta.get(key)
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise PlantIOError(f"{path}: metadata '{key}' is not a list of names")
    blocks = {name: _real(arrays, name, path) for name in real}
    try:
        if not rom:
            return ExternalPlantBundle(
                **blocks,
                output_labels=tuple(meta["output_labels"]),
                name=meta.get("name", "external"),
                provenance_hash=meta.get("provenance_hash", ""),
                stable=bool(meta.get("stable", True)),
            )
        A, n = blocks["A"], blocks["A"].shape[:1]
        modes = {"eigenvalues": arrays["eigenvalues"], "participation": blocks["participation"],
                 "mode_kinds": meta["mode_kinds"]}
        for name, values in modes.items():  # one per state; the plant contract checks A
            if A.size and A.shape == 2 * n and np.shape(values) != n:
                raise ValueError(f"field '{name}': shape {np.shape(values)} incompatible "
                                 f"with n = {n[0]}")
        model = ReducedOrderModel(
            A=A, B_c=blocks["B_c"], B_g=blocks["B_g"], C_out=blocks["C_out"],
            output_labels=tuple(meta["output_labels"]),
            nl=PolyNonlinearity(*(blocks[name] for name in _NL_BLOCKS)) if nl_blocks else None,
            Phi=blocks["Phi"], Psi=blocks["Psi"], source_hash=meta.get("source_hash", ""),
            modes=tuple(ModeInfo(eigenvalue=complex(lam), kind=kind, gust_participation=float(pp))
                        for lam, pp, kind in zip(*modes.values())))
    except ValueError as exc:
        raise PlantIOError(f"{path}: {exc}") from exc
    if meta["schema_version"] < 2:
        warnings.warn(
            f"{path} is a schema-v1 reduced model without its nonlinearity; "
            "it loads as a linear model",
            stacklevel=2,
        )
    if source_path is not None and meta.get("source_hash"):
        if file_sha256(source_path) != meta["source_hash"]:
            warnings.warn(
                f"{path} is stale: parameter file {source_path} has changed "
                "since the reduced model was built",
                stacklevel=2,
            )
    return model


def save_rom(rom: ReducedOrderModel, path) -> None:
    meta = {
        "schema_version": ROM_SCHEMA_VERSION,
        "kind": "rom",
        "n": rom.n,
        "source_hash": rom.source_hash,
        "output_labels": list(rom.output_labels),
        "mode_kinds": [m.kind for m in rom.modes],
    }
    nl = {} if rom.nl is None else {name: getattr(rom.nl, name) for name in _NL_BLOCKS}
    np.savez(
        path,
        A=rom.A, B_c=rom.B_c, B_g=rom.B_g, Phi=rom.Phi, Psi=rom.Psi, C_out=rom.C_out,
        eigenvalues=np.array([m.eigenvalue for m in rom.modes]),
        participation=np.array([m.gust_participation for m in rom.modes]),
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
        **nl,
    )
