"""Persistence: externally supplied state-space plants and reduced-model
caching.

All containers are NumPy ``.npz`` archives carrying a JSON metadata record
and a schema version; loading a file written by a newer schema fails closed.
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
        if self.A.ndim != 2 or not self.A.size:
            raise PlantIOError(f"field 'A': shape {self.A.shape} is not (n, n) with n >= 1")
        n = self.A.shape[0]
        checks = [
            ("A", self.A.shape, (n, n)),
            ("B_c", self.B_c.shape[:1], (n,)),
            ("B_g", self.B_g.shape[:1], (n,)),
            ("C_out", self.C_out.shape[1:], (n,)),
        ]
        for name, got, want in checks:
            if got != want:
                raise PlantIOError(f"field '{name}': shape {got} incompatible with n = {n}")
        for name in ("B_c", "B_g"):
            shape = getattr(self, name).shape
            if len(shape) != 2:
                raise PlantIOError(
                    f"field '{name}': shape {shape} is not (n, k), one column per input")
        if len(self.output_labels) != self.C_out.shape[0]:
            raise PlantIOError(
                f"field 'output_labels': {len(self.output_labels)} labels for "
                f"{self.C_out.shape[0]} output rows"
            )
        for name in ("A", "B_c", "B_g", "C_out", "quad", "cubic"):
            M = getattr(self, name)
            if M is not None and not np.isfinite(M).all():
                raise PlantIOError(f"field '{name}': non-finite entries")
        for name in ("quad", "cubic"):
            M = getattr(self, name)
            if M is not None and M.shape != (n,):
                raise PlantIOError(f"field '{name}': expected shape ({n},), got {M.shape}")
        is_stable = bool(np.linalg.eigvals(self.A).real.max() < 0.0)
        if is_stable != self.stable:
            raise PlantIOError(
                f"field 'stable': declared {self.stable} but eigenvalue check "
                f"gives {is_stable}"
            )
        if self.quad is not None or self.cubic is not None:
            zero = np.zeros(n)
            object.__setattr__(self, "nl", PolyNonlinearity(
                np.eye(n), np.eye(n),
                zero if self.quad is None else self.quad,
                zero if self.cubic is None else self.cubic,
            ))


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


def _read_meta(data, path, expected_kind: str, current_version: int) -> dict:
    if "meta" not in data:
        raise PlantIOError(f"{path}: missing metadata record")
    try:
        meta = json.loads(bytes(data["meta"]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PlantIOError(f"{path}: corrupt metadata record: {exc}") from exc
    if meta.get("kind") != expected_kind:
        raise PlantIOError(f"{path}: expected a {expected_kind} file, got {meta.get('kind')!r}")
    version = meta.get("schema_version")
    if not isinstance(version, int) or version > current_version:
        raise PlantIOError(
            f"{path}: schema version {version} is newer than supported "
            f"version {current_version}"
        )
    return meta


def _read_npz(path: Path, what: str) -> dict:
    """The arrays of the .npz archive at path by name; a missing file, a file
    of another kind or an unreadable array raises PlantIOError naming it."""
    if not path.exists():
        raise PlantIOError(f"{what} not found: {path}")
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


def load_plant(path) -> ExternalPlantBundle:
    path = Path(path)
    data = _read_npz(path, "plant bundle")
    meta = _read_meta(data, path, "plant-bundle", PLANT_SCHEMA_VERSION)
    flagged = [name for name in ("quad", "cubic") if meta.get(f"has_{name}")]
    for name in ("A", "B_c", "B_g", "C_out", *flagged):
        if name not in data:
            raise PlantIOError(f"{path}: missing matrix block '{name}'")
    labels = meta.get("output_labels")
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise PlantIOError(f"{path}: metadata 'output_labels' is not a list of names")
    blocks = {name: _real(data, name, path) for name in ("A", "B_c", "B_g", "C_out", *flagged)}
    try:
        return ExternalPlantBundle(
            **blocks,
            output_labels=tuple(labels),
            name=meta.get("name", "external"),
            provenance_hash=meta.get("provenance_hash", ""),
            stable=bool(meta.get("stable", True)),
        )
    except PlantIOError as exc:
        raise PlantIOError(f"{path}: {exc}") from exc


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


def load_rom(path, source_path=None) -> ReducedOrderModel:
    """Reload a cached reduced model, its nonlinearity included.

    A schema-v1 file carries no nonlinearity and loads as a linear model with
    a warning.  ``source_path`` triggers a staleness warning when the stored
    source hash no longer matches the parameter file."""
    path = Path(path)
    arrays = _read_npz(path, "reduced model")
    meta = _read_meta(arrays, path, "rom", ROM_SCHEMA_VERSION)
    nl_blocks = _NL_BLOCKS if "G" in arrays else ()
    for name in ("A", "B_c", "B_g", "Phi", "Psi", "C_out", "eigenvalues",
                 "participation") + nl_blocks:
        if name not in arrays:
            raise PlantIOError(f"{path}: missing matrix block '{name}'")
    for name in ("A", "B_c", "B_g", "Phi", "Psi", "C_out") + nl_blocks:
        arrays[name] = _real(arrays, name, path)
        if not np.isfinite(arrays[name]).all():
            raise PlantIOError(f"{path}: corrupt matrix block '{name}' (non-finite)")
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
    eigs = arrays["eigenvalues"]
    modes = tuple(
        ModeInfo(
            eigenvalue=complex(lam),
            kind=kind,
            gust_participation=float(pp),
        )
        for lam, kind, pp in zip(eigs, meta["mode_kinds"], _real(arrays, "participation", path))
    )
    return ReducedOrderModel(
        A=arrays["A"], B_c=arrays["B_c"], B_g=arrays["B_g"], C_out=arrays["C_out"],
        output_labels=tuple(meta["output_labels"]),
        nl=PolyNonlinearity(*(arrays[name] for name in _NL_BLOCKS)) if nl_blocks else None,
        Phi=arrays["Phi"], Psi=arrays["Psi"],
        modes=modes,
        source_hash=meta.get("source_hash", ""),
    )
