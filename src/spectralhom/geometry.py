"""Microstructure definitions, stiffness sampling and reference data.

Microstructures are phase maps on the torus [-pi, pi)^d; stiffness fields
are obtained by evaluating the phase at every pattern node x = 2 pi y (or by
averaging the phase stiffness over a subsampled node cell).  Point-in-region
tests use the quadratic form of each ellipse with boundary points assigned
to the inner region, so lattice nodes are classified deterministically.

Reference solutions for error metrics come from two routes: the axis-aligned
two-phase laminate solved in closed form from the interface conditions, and
externally produced data ingested from disk.  Sampled reference strain
fields use the little-endian PFLD container:

    magic "PFLD" | uint32 version | uint32 d | int64 M (row-major) |
    uint32 component count D | uint32 domain flag (0 space, 1 frequency) |
    m * D float64 values in canonical pattern order

Effective-action references are JSON documents; ``load_reference_values``
accepts either a bare PFLD file or a JSON object pointing at one.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .elasticity import iso_stiffness, mandel_dim, sym_grad_matrix
from .errors import DomainError, GeometryError, IngestionError, RegularityError, ShapeError, parse_kind, parse_object
from .lattice import PatternMatrix, pattern

__all__ = [
    "IsoPhase",
    "Laminate",
    "HashinEllipses",
    "Inclusion",
    "VoxelMap",
    "microstructure_from_json",
    "sample_stiffness",
    "ReferenceSolution",
    "laminate_reference",
    "load_reference_values",
    "write_field",
    "read_field",
]

_PFLD_MAGIC = b"PFLD"
_PFLD_VERSION = 1
_WRITE_BLOCK = 1 << 18  # bytes of the buffer that converts a field (a transposed view, say) to the PFLD layout
DOMAIN_SPACE = 0
DOMAIN_FREQUENCY = 1


@dataclass(frozen=True)
class IsoPhase:
    """Isotropic phase described by its Lame parameters."""

    lam: float
    mu: float

    def stiffness(self, d: int) -> np.ndarray:
        return iso_stiffness(self.lam, self.mu, d)

    @classmethod
    def from_json(cls, doc) -> "IsoPhase":
        values = parse_object(doc, {"lambda": (float, ...), "mu": (float, ...)}, "phase", GeometryError)
        return cls(lam=values["lambda"], mu=values["mu"])


def _wrap_torus(x: np.ndarray) -> np.ndarray:
    """Reduce coordinates into [-pi, pi) componentwise."""
    return np.mod(x + np.pi, 2.0 * np.pi) - np.pi


def _unit_coords(x: np.ndarray) -> np.ndarray:
    """Torus coordinates mapped to [0, 1)^d."""
    return np.mod(x / (2.0 * np.pi) + 0.5, 1.0)


class Laminate:
    """Two-phase layering orthogonal to a coordinate axis."""

    d = None  # fits any pattern dimension that has the layer axis

    def __init__(self, axis: int, fraction: float, phases):
        if not 0.0 <= fraction <= 1.0:
            raise GeometryError(f"layer fraction must lie in [0, 1], got {fraction}")
        if len(phases) != 2:
            raise GeometryError("a laminate needs exactly two phases")
        self.axis = int(axis)
        self.fraction = float(fraction)
        self.phases = tuple(phases)

    def phase_index(self, x: np.ndarray) -> np.ndarray:
        if not 0 <= self.axis < x.shape[1]:
            raise GeometryError(f"laminate axis {self.axis} is not in 0..{x.shape[1] - 1}")
        t = _unit_coords(x)[:, self.axis]
        return np.where(t < self.fraction, 0, 1)


def _ellipse_quadric(semi_axes, rotation: float, d: int) -> np.ndarray:
    semi_axes = np.asarray(semi_axes, dtype=np.float64)
    if semi_axes.shape != (d,) or np.any(semi_axes <= 0.0):
        raise GeometryError(f"semi-axes must be {d} positive numbers, got {semi_axes!r}")
    Q = np.diag(1.0 / semi_axes**2)
    if rotation and d == 2:
        c, s = np.cos(rotation), np.sin(rotation)
        R = np.array([[c, -s], [s, c]])
        Q = R @ Q @ R.T
    elif rotation and d != 2:
        raise GeometryError("rotation is only supported for planar ellipses")
    return Q


def _nested_phase(rel: np.ndarray, quadrics) -> np.ndarray:
    """Phase of points ``rel``: how many nested ellipses (quadrics, innermost first) leave them out; boundaries are inside."""
    phase = np.zeros(len(rel), dtype=np.intp)
    for Q in quadrics:
        phase += np.einsum("ni,ij,nj->n", rel, Q, rel) > 1.0
    return phase


class HashinEllipses:
    """Confocal core and coating ellipses embedded in a matrix phase."""

    d = 2

    def __init__(self, core_semi_axes, coating_semi_axes, center, rotation, core, coating, matrix):
        self.center = np.asarray(center, dtype=np.float64)
        d = self.center.shape[0]
        if d != 2:
            raise GeometryError("the confocal double inclusion is planar (d = 2)")
        if len(core_semi_axes) != 2 or len(coating_semi_axes) != 2:
            raise GeometryError("the confocal ellipses need two semi-axes each")
        a_c, b_c = (float(v) for v in core_semi_axes)
        a_e, b_e = (float(v) for v in coating_semi_axes)
        if not (a_e > a_c and b_e > b_c):
            raise GeometryError("coating ellipse must strictly contain the core ellipse")
        focal_c = a_c**2 - b_c**2
        focal_e = a_e**2 - b_e**2
        if abs(focal_e - focal_c) > 1e-9 * max(1.0, abs(focal_c)):
            raise GeometryError(
                f"ellipses are not confocal: a^2 - b^2 differs ({focal_c} vs {focal_e})"
            )
        self.rotation = float(rotation)
        self.core_q = _ellipse_quadric((a_c, b_c), self.rotation, d)
        self.coating_q = _ellipse_quadric((a_e, b_e), self.rotation, d)
        self.phases = (core, coating, matrix)

    def phase_index(self, x: np.ndarray) -> np.ndarray:
        return _nested_phase(_wrap_torus(x - self.center[None, :]), (self.core_q, self.coating_q))


class Inclusion:
    """Single inclusion (ellipse/ellipsoid or axis-aligned box) in a matrix."""

    def __init__(self, shape: str, semi_axes, center, rotation, inclusion, matrix):
        self.shape = shape
        self.center = np.asarray(center, dtype=np.float64)
        self.d = d = self.center.shape[0]
        self.phases = (inclusion, matrix)
        if shape == "ellipse":
            self.quadric = _ellipse_quadric(semi_axes, rotation, d)
        elif shape == "box":
            half = np.asarray(semi_axes, dtype=np.float64)
            if half.shape != (d,) or np.any(half <= 0.0):
                raise GeometryError(f"box half-widths must be {d} positive numbers, got {semi_axes!r}")
            self.half = half
        else:
            raise GeometryError(f"unknown inclusion shape {shape!r}")

    def phase_index(self, x: np.ndarray) -> np.ndarray:
        rel = _wrap_torus(x - self.center[None, :])
        if self.shape == "ellipse":
            return _nested_phase(rel, (self.quadric,))
        return np.where(np.all(np.abs(rel) <= self.half[None, :], axis=1), 0, 1)


class VoxelMap:
    """Phase ids on a regular voxel grid covering the unit cell."""

    def __init__(self, grid, phase_table):
        try:
            self.grid = np.asarray(grid)
        except ValueError as exc:  # ragged nesting
            raise GeometryError(f"voxel grid is not a rectangular array: {exc}") from exc
        if self.grid.dtype.kind not in "iu":
            raise GeometryError("voxel grid entries must be integer phase ids")
        self.phases = tuple(phase_table)
        self.d = self.grid.ndim
        if self.grid.min() < 0 or self.grid.max() >= len(self.phases):
            raise GeometryError("voxel grid references a phase id outside the phase table")

    def phase_index(self, x: np.ndarray) -> np.ndarray:
        u = _unit_coords(x)
        idx = tuple(
            np.minimum((u[:, a] * self.grid.shape[a]).astype(np.int64), self.grid.shape[a] - 1)
            for a in range(self.d)
        )
        return self.grid[idx]


_MICROSTRUCTURE_KEYS = {
    "laminate": {"axis": (int, 0), "fraction": (float, ...), "phases": (list, ...)},
    "hashin_ellipses": {
        "core_semi_axes": ([float], ...),
        "coating_semi_axes": ([float], ...),
        "center": ([float], (0.0, 0.0)),
        "rotation": (float, 0.0),
        "phases": (dict, ...),
    },
    "inclusion": {
        "shape": (str, "ellipse"),
        "semi_axes": ([float], ...),
        "center": ([float], None),
        "rotation": (float, 0.0),
        "phases": (dict, ...),
    },
    "voxel_map": {"grid": (list, ...), "phase_table": (list, ...)},
}
_NAMED_PHASES = {"hashin_ellipses": ("core", "coating", "matrix"), "inclusion": ("inclusion", "matrix")}


def microstructure_from_json(doc: dict):
    """Build a microstructure from its JSON description."""
    v = parse_kind(doc, _MICROSTRUCTURE_KEYS, "microstructure", GeometryError)
    kind = v.pop("kind")
    if kind == "laminate":
        return Laminate(v["axis"], v["fraction"], [IsoPhase.from_json(p) for p in v["phases"]])
    if kind == "voxel_map":
        return VoxelMap(v["grid"], [IsoPhase.from_json(p) for p in v["phase_table"]])
    names = _NAMED_PHASES[kind]
    phases = parse_object(v.pop("phases"), dict.fromkeys(names, (dict, ...)), f"{kind} phases", GeometryError)
    v.update((name, IsoPhase.from_json(phases[name])) for name in names)
    if kind == "hashin_ellipses":
        return HashinEllipses(**v)
    if v["center"] is None:
        v["center"] = [0.0] * len(v["semi_axes"])
    return Inclusion(**v)


def _cell_offsets(M: PatternMatrix, subsamples: int) -> np.ndarray:
    """Subcell offsets (in torus coordinates) covering one node cell of M."""
    d = M.d
    steps = (np.arange(subsamples) + 0.5) / subsamples - 0.5
    grid = np.stack(np.meshgrid(*([steps] * d), indexing="ij"), axis=-1).reshape(-1, d)
    return 2.0 * np.pi * (grid @ np.linalg.inv(M.array.astype(float)).T)


def sample_stiffness(ms, M: PatternMatrix, mode: str = "node", subsamples: int = 3) -> np.ndarray:
    """Lame pairs (lambda, mu) (m, 2) of a microstructure on the pattern of M: node y has stiffness iso(lambda, mu).

    ``mode = "node"`` evaluates the phase at each node x = 2 pi y; ``mode =
    "cell_average"`` arithmetically averages the pairs, and so the stiffness,
    over an s^d subsampling of each node cell.
    """
    d = M.d
    if ms.d not in (None, d):
        raise DomainError(f"the microstructure is {ms.d}-D but the pattern is {d}-D")
    for phase in ms.phases:
        phase.stiffness(d)  # raises unless the pair is elliptic in d dimensions
    nodes = 2.0 * np.pi * pattern(M).points
    tables = np.array([(p.lam, p.mu) for p in ms.phases], dtype=np.float64)
    if mode == "node":
        return tables[ms.phase_index(nodes)]
    if mode != "cell_average":
        raise DomainError(f"unknown sampling mode {mode!r}")
    if subsamples < 1:
        raise DomainError("cell averaging needs at least one subsample per axis")
    # per-node phase counts over the subcells, then one (m, P) @ (P, 2) product
    counts = np.zeros((len(tables), M.m))
    offsets = _cell_offsets(M, subsamples)
    for off in offsets:
        which = ms.phase_index(nodes + off[None, :])
        for phase, row in enumerate(counts):
            row += which == phase
    return counts.T @ tables / len(offsets)


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """Reference data for error metrics; at least one part is present."""

    strain: np.ndarray | None  # (m, D) fluctuation strain sampled on the pattern
    effective_action: np.ndarray | None  # (D,)
    note: str = ""


def laminate_reference(ms: Laminate, M: PatternMatrix, eps0) -> ReferenceSolution:
    """Closed-form two-phase laminate solution under a mean strain.

    The strain is constant per layer with a rank-one jump across the
    interface; the jump amplitude solves the d x d traction-continuity
    system, with tangential strain continuity and the prescribed mean built
    into the ansatz.  Axis-aligned normals and isotropic phases only.
    """
    d = M.d
    if d not in (2, 3):
        raise DomainError("laminate reference supports d in (2, 3)")
    eps0 = np.asarray(eps0, dtype=np.float64)
    if eps0.shape != (mandel_dim(d),):
        raise ShapeError("macroscopic strain does not match the spatial dimension")
    which = ms.phase_index(2.0 * np.pi * pattern(M).points)  # raises unless the layer axis is one of M's
    normal = np.zeros(d)
    normal[ms.axis] = 1.0
    S = sym_grad_matrix(normal)  # S a is the Mandel vector of sym(a x n), S^T s the traction s n
    theta = ms.fraction
    p0, p1 = ms.phases
    C0m = p0.stiffness(d)
    C1m = p1.stiffness(d)

    # traction continuity: [(1-theta) A_0 + theta A_1] a = -((C_0 - C_1) eps0) . n
    A = (1.0 - theta) * (S.T @ C0m @ S) + theta * (S.T @ C1m @ S)
    a = np.linalg.solve(A, -S.T @ ((C0m - C1m) @ eps0))
    eta = S @ a
    strain0 = (1.0 - theta) * eta  # fluctuation in phase 0
    strain1 = -theta * eta
    effective = theta * (C0m @ (eps0 + strain0)) + (1.0 - theta) * (C1m @ (eps0 + strain1))

    field = np.where(which[:, None] == 0, strain0[None, :], strain1[None, :])
    return ReferenceSolution(
        strain=field,
        effective_action=effective,
        note=f"axis-{ms.axis} laminate, fraction {theta}",
    )


# -- field container ---------------------------------------------------------


def write_field(path, M: PatternMatrix, values: np.ndarray, domain: int = DOMAIN_SPACE) -> None:
    """Write a pattern-indexed field in the PFLD binary container, through one buffer of ``_WRITE_BLOCK`` bytes."""
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] != M.m:
        raise ShapeError(f"field must have shape (m, D) with m = {M.m}, got {values.shape}")
    if domain not in (DOMAIN_SPACE, DOMAIN_FREQUENCY):
        raise DomainError(f"domain flag must be 0 or 1, got {domain}")
    d = M.d
    with open(path, "wb") as fh:
        fh.write(_PFLD_MAGIC)
        fh.write(struct.pack("<II", _PFLD_VERSION, d))
        fh.write(M.array.astype("<i8").tobytes())
        fh.write(struct.pack("<II", values.shape[1], domain))
        block = np.empty((max(1, _WRITE_BLOCK // max(1, 8 * values.shape[1])), values.shape[1]), dtype="<f8")
        for lo in range(0, len(values), len(block)):
            part = block[: len(values) - lo]
            part[...] = values[lo : lo + len(part)]
            part.tofile(fh)


def read_field(path, expected: PatternMatrix | None = None):
    """Read a PFLD field; returns (PatternMatrix, values, domain).

    A truncated or inconsistent file, and a payload holding NaN or Inf,
    raise IngestionError.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"field file {path} does not exist")
    raw = path.read_bytes()
    if raw[:4] != _PFLD_MAGIC:
        raise IngestionError(f"{path}: not a PFLD file")
    if len(raw) < 12:
        raise IngestionError(f"{path}: file ends inside the PFLD header")
    version, d = struct.unpack_from("<II", raw, 4)
    if version != _PFLD_VERSION:
        raise IngestionError(f"{path}: unsupported PFLD version {version}")
    if not 1 <= d <= 3:
        raise IngestionError(f"{path}: header dimension {d} is not in 1..3")
    off = 12 + 8 * d * d
    if len(raw) < off + 8:
        raise IngestionError(f"{path}: file ends inside the PFLD header")
    rows = np.frombuffer(raw, dtype="<i8", count=d * d, offset=12).reshape(d, d)
    ncomp, domain = struct.unpack_from("<II", raw, off)
    off += 8
    try:
        M = PatternMatrix.from_any(rows)
    except RegularityError as exc:
        raise IngestionError(f"{path}: matrix block: {exc}") from exc
    if len(raw) - off != 8 * M.m * ncomp:
        raise IngestionError(f"{path}: payload has {len(raw) - off} bytes, expected {8 * M.m * ncomp}")
    values = np.frombuffer(raw, dtype="<f8", offset=off).reshape(M.m, ncomp).copy()
    if not np.all(np.isfinite(values)):
        raise IngestionError(f"{path}: payload holds non-finite values")
    if expected is not None and M != expected:
        raise IngestionError(f"{path}: pattern matrix {M} does not match the expected {expected}")
    return M, values, int(domain)


def load_reference_values(path, M: PatternMatrix) -> ReferenceSolution:
    """Ingest reference data (sampled strain and/or effective action).

    ``path`` is either a PFLD strain field or a JSON object with optional
    keys "effective_action" (a Mandel vector) and "strain_field" (a path to
    a PFLD file, resolved relative to the JSON document).  An all-zero field
    or action is rejected: relative errors against it are undefined.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"reference file {path} does not exist")
    if path.suffix.lower() == ".pfld":
        return ReferenceSolution(strain=_reference_strain(path, M), effective_action=None, note=str(path))
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IngestionError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    spec = {"effective_action": ([float], None), "strain_field": (str, None), "note": (str, str(path))}
    v = parse_object(doc, spec, str(path), IngestionError)
    strain = None
    action = None
    if v["strain_field"] is not None:
        strain = _reference_strain(path.parent / v["strain_field"], M)
    if v["effective_action"] is not None:
        action = np.array(v["effective_action"])
        if action.shape != (mandel_dim(M.d),):
            raise IngestionError(f"{path}: effective action must have {mandel_dim(M.d)} components, got {action.shape}")
        if not action.any():
            raise IngestionError(f"{path}: reference effective action is zero; relative errors are undefined")
    if strain is None and action is None:
        raise IngestionError(f"{path}: reference provides neither a strain field nor an action")
    return ReferenceSolution(strain=strain, effective_action=action, note=v["note"])


def _reference_strain(path, M: PatternMatrix) -> np.ndarray:
    """A space-domain PFLD strain field on M with one Mandel vector per node."""
    _, values, domain = read_field(path, expected=M)
    if domain != DOMAIN_SPACE:
        raise IngestionError(f"{path}: reference strain field is not in the space domain")
    if values.shape[1] != mandel_dim(M.d):
        D = mandel_dim(M.d)
        raise IngestionError(f"{path}: field has {values.shape[1]} components, expected {D} for d = {M.d}")
    if not values.any():
        raise IngestionError(f"{path}: reference strain field is zero; relative errors are undefined")
    return values
