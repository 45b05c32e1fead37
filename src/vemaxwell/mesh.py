"""Polyhedral mesh data model, PVM-JSON I/O, structured generators and checks.

A mesh is a flat polyhedral complex: planar polygonal faces shared between
cells, cells described as signed face lists (sign +1 means the stored face
normal points out of the cell).  Edges are derived, each oriented from its
lower to its higher vertex index, so edge-based quantities are globally
well defined without an orientation table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class MeshError(Exception):
    """Base class for mesh construction failures."""


class MeshFormatError(MeshError):
    """Malformed mesh file."""


class MeshTopologyError(MeshError):
    """Inconsistent connectivity (open cell boundary, bad face sharing...)."""


class MeshGeometryError(MeshError):
    """Degenerate or invalid geometry (nonplanar face, nonpositive volume...)."""


# Faces must be planar up to this fraction of the face diameter.
PLANARITY_TOL = 1e-10
# Largest |coordinate| accepted: geometry forms up to fourth powers of
# coordinates (squared areas, volume moments), kept far from overflow.
COORD_LIMIT = 1e50
# Per-cell closed-surface identity tolerance, relative to h_K^2.
CLOSURE_TOL = 1e-12


@dataclass(frozen=True)
class SimplexSplit:
    """Faces fanned into signed triangles, cells into signed tetrahedra.

    Apexes are vertex means.  Panel p of face f (``fan_offsets[f] <= p <
    fan_offsets[f + 1]``, loop order) is the face apex plus the loop edge
    ``fan_vertices[p]``, its area signed along the face normal.
    Tetrahedron t of cell k (``tet_offsets[k] <= t < tet_offsets[k + 1]``,
    cell-face then loop order) is the cell apex plus panel
    ``tet_panels[t]``, its volume signed by the cell's face orientation.
    The signed pieces telescope, so nonconvex faces and cells are exact.
    Quadrature skips what ``fan_kept``/``tet_kept`` clear: panels up to
    1e-14 of the largest of their face, tetrahedra with |6 vol| < 1e-14 |K|.
    """

    face_apexes: np.ndarray              # (nf, 3)
    fan_offsets: np.ndarray              # (nf + 1,)
    fan_faces: np.ndarray                # (np,) face of each panel
    fan_vertices: np.ndarray             # (np, 2) loop edge of each panel
    fan_areas: np.ndarray                # (np,)
    fan_kept: np.ndarray                 # bool (np,)
    cell_apexes: np.ndarray              # (nc, 3)
    tet_offsets: np.ndarray              # (nc + 1,)
    tet_panels: np.ndarray               # (nt,)
    tet_volumes: np.ndarray              # (nt,)
    tet_kept: np.ndarray                 # bool (nt,)


@dataclass(frozen=True)
class PolyMesh:
    """Immutable polyhedral mesh with derived topology and element geometry.

    Face normals follow the right-hand rule of the stored vertex loop.
    ``cell_face_signs[k][j] = +1`` iff that stored normal points out of
    cell ``k``.  ``face_edge_signs[f][j] = +1`` iff edge ``j`` of the loop
    is traversed from its lower to its higher vertex index.
    """

    vertices: np.ndarray                 # (nv, 3)
    faces: tuple                         # per face: vertex loop, int array
    cell_faces: tuple                    # per cell: face indices, int array
    cell_face_signs: tuple               # per cell: +-1 per face
    cell_face_owners: np.ndarray         # cell of each entry of concatenated cell_faces
    edges: np.ndarray                    # (ne, 2), lo < hi
    face_edges: tuple                    # per face: edge ids in loop order
    face_edge_signs: tuple               # per face: +-1 per loop edge
    cell_edges: tuple                    # per cell: sorted unique edge ids
    boundary_vertices: np.ndarray        # bool (nv,)
    boundary_edges: np.ndarray           # bool (ne,)
    boundary_faces: np.ndarray           # bool (nf,)
    edge_lengths: np.ndarray             # (ne,)
    edge_tangents: np.ndarray            # (ne, 3), unit, lo -> hi
    edge_midpoints: np.ndarray           # (ne, 3)
    face_areas: np.ndarray               # (nf,)
    face_normals: np.ndarray             # (nf, 3), unit
    face_centroids: np.ndarray           # (nf, 3)
    face_diameters: np.ndarray           # (nf,)
    cell_volumes: np.ndarray             # (nc,)
    cell_centroids: np.ndarray           # (nc, 3)
    cell_diameters: np.ndarray           # (nc,)
    split: SimplexSplit                  # fan/pyramid sub-simplices
    name: str = ""

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_cells(self) -> int:
        return len(self.cell_faces)

    @property
    def h(self) -> float:
        """Mesh size: largest cell diameter."""
        return float(self.cell_diameters.max())


@dataclass
class MeshStats:
    """Size and shape summary; ratios are proxies for shape regularity."""

    h: float
    cell_diameters: np.ndarray
    face_diameters: np.ndarray
    edge_lengths: np.ndarray
    min_face_cell_ratio: float      # min over cells of min_F h_F / h_K
    min_edge_face_ratio: float      # min over faces of min_e h_e / h_F
    n_vertices: int
    n_edges: int
    n_faces: int
    n_cells: int


@dataclass
class ValidationReport:
    """Report-only mesh quality check; hard violations listed, never raised."""

    planarity_residuals: np.ndarray      # per face, relative to h_F
    face_closure_residuals: np.ndarray   # |sum sigma |e| t_e|, relative to h_F
    cell_closure_residuals: np.ndarray   # |sum sigma |F| n_F|, relative to h_K^2
    min_face_cell_ratio: float
    min_edge_face_ratio: float
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _split_faces(vertices: np.ndarray, face_loops: list):
    """Fan each face about its vertex mean, one stack per loop size.

    Area and centroid sum the signed panels; the centroid is the
    area-weighted mean of the panel centroids.  Returns the fan fields of
    ``SimplexSplit``, then face areas, unit normals, centroids and
    diameters.
    """
    sizes = np.array([loop.size for loop in face_loops], dtype=int)
    offsets = _offsets(sizes)
    loop_ids = np.concatenate(face_loops)
    nxt = np.arange(loop_ids.size) + 1
    nxt[offsets[1:] - 1] = offsets[:-1]                # close each loop
    apexes, normals, centroids = np.empty((3, sizes.size, 3))
    areas, diameters = np.empty((2, sizes.size))
    signed = np.empty(loop_ids.size)
    for m in np.unique(sizes):
        ids = np.flatnonzero(sizes == m)
        rows = offsets[ids, None] + np.arange(m)
        pts = vertices[loop_ids[rows]]                 # (faces, m, 3)
        apexes[ids] = apex = pts.mean(axis=1)
        rel = pts - apex[:, None]
        cross = np.cross(rel, np.roll(rel, -1, axis=1))
        # Total area vector; orientation of the loop fixes the normal.
        area_vec = 0.5 * cross.sum(axis=1)
        areas[ids] = area = np.sqrt(area_vec[:, None] @ area_vec[:, :, None])[:, 0, 0]
        if not np.all(np.isfinite(area) & (area > 0.0)):
            raise MeshGeometryError("face with zero area")
        normals[ids] = normal = area_vec / area[:, None]
        signed[rows] = panel = (0.5 * cross @ normal[:, :, None])[..., 0]
        tri_centroids = (apex[:, None] + pts + np.roll(pts, -1, axis=1)) / 3.0
        centroids[ids] = ((panel[..., None] * tri_centroids).sum(axis=1)
                          / panel.sum(axis=1)[:, None])
        diameters[ids] = diam = _point_set_diameter(pts)
        residual = _plane_residual(pts)
        bad = np.flatnonzero(residual > PLANARITY_TOL * diam)
        if bad.size:
            r, h_f = residual[bad[0]], diam[bad[0]]
            raise MeshGeometryError(
                f"nonplanar face: residual {r:.3e} exceeds "
                f"{PLANARITY_TOL:.0e} * h_F = {PLANARITY_TOL * h_f:.3e}"
            )
    faces_of = np.repeat(np.arange(sizes.size), sizes)
    largest = np.maximum.reduceat(np.abs(signed), offsets[:-1])
    fan = dict(face_apexes=apexes, fan_offsets=offsets, fan_faces=faces_of,
               fan_vertices=np.stack([loop_ids, loop_ids[nxt]], axis=1),
               fan_areas=signed, fan_kept=np.abs(signed) > 1e-14 * largest[faces_of])
    return fan, areas, normals, centroids, diameters


def _plane_residual(points: np.ndarray) -> np.ndarray:
    """Largest distance of each (g, m, 3) vertex stack from its best-fit
    plane through the vertex mean (singular vector of the centered cloud)."""
    rel = points - points.mean(axis=1)[:, None]
    return np.abs(rel @ np.linalg.svd(rel)[2][:, 2, :, None]).max(axis=(1, 2))


def _point_set_diameter(points: np.ndarray):
    """Largest vertex distance of each (..., m, 3) point set."""
    d = points[..., :, None, :] - points[..., None, :, :]
    return np.sqrt((d * d).sum(axis=-1)).max(axis=(-2, -1))


def _stacked(fn, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``fn`` of every segment ``x[offsets[i]:offsets[i + 1]]``, evaluated
    on one (segments, size, ...) stack per segment size."""
    sizes = np.diff(offsets)
    parts = {m: fn(x[offsets[:-1][sizes == m, None] + np.arange(m)]) for m in np.unique(sizes)}
    out = np.empty((sizes.size,) + next(iter(parts.values())).shape[1:])
    for m, part in parts.items():
        out[sizes == m] = part
    return out


def _sum(stack: np.ndarray) -> np.ndarray:
    """Segment sums: in row order for vectors, as ``x[a:b].sum(axis=0)``."""
    return stack.sum(axis=1)


def _offsets(counts) -> np.ndarray:
    """Segment offsets [0, c0, c0 + c1, ...] of the given counts."""
    return np.concatenate([[0], np.cumsum(counts, dtype=int)])


def _segments(x: np.ndarray, offsets: np.ndarray) -> tuple:
    """The segments ``x[offsets[i]:offsets[i + 1]]`` as a tuple of views."""
    return tuple(x[a:b] for a, b in zip(offsets[:-1], offsets[1:]))


def _index_array(refs, owner: str) -> np.ndarray:
    try:
        return np.asarray(refs, dtype=int)
    except OverflowError as exc:
        raise MeshFormatError(f"{owner} has an index out of range") from exc


def derive_topology(vertices, faces, cells, name: str = "") -> PolyMesh:
    """Build a PolyMesh from raw vertices, face loops and signed face lists.

    ``cells`` uses 1-based signed face references: +k means face k-1 with
    its stored normal pointing outward, -k means inward.
    """
    vertices = np.ascontiguousarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshFormatError("vertices must be an (n, 3) array")
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise MeshFormatError(f"vertex {bad[0]} has a non-finite coordinate")
    bad = np.flatnonzero((np.abs(vertices) > COORD_LIMIT).any(axis=1))
    if bad.size:
        raise MeshFormatError(
            f"vertex {bad[0]} has a coordinate beyond +-{COORD_LIMIT:.0e}")
    nv = vertices.shape[0]

    face_loops = []
    for i, loop in enumerate(faces):
        loop = _index_array(loop, f"face {i}")
        if loop.size < 3:
            raise MeshTopologyError(f"face {i} has fewer than 3 vertices")
        if loop.min() < 0 or loop.max() >= nv:
            raise MeshTopologyError(f"face {i} references a missing vertex")
        if np.unique(loop).size != loop.size:
            raise MeshTopologyError(f"inconsistent loop: face {i} repeats a vertex")
        face_loops.append(loop)
    nf = len(face_loops)

    cf_list, cs_list = [], []
    for k, refs in enumerate(cells):
        refs = _index_array(refs, f"cell {k}")
        if refs.size < 4 or np.any(refs == 0):
            raise MeshTopologyError(f"cell {k} has an invalid face list")
        idx = np.abs(refs) - 1
        if idx.max() >= nf:
            raise MeshTopologyError(f"cell {k} references a missing face")
        if np.unique(idx).size != idx.size:
            raise MeshTopologyError(f"cell {k} repeats a face")
        cf_list.append(idx)
        cs_list.append(np.sign(refs).astype(int))
    nc = len(cf_list)
    if nc == 0:
        raise MeshTopologyError("mesh has no cells")

    # Face sharing: interior faces belong to exactly two cells, with
    # opposite outward signs; more than two is a dangling face.
    cf_flat, cs_flat = np.concatenate(cf_list), np.concatenate(cs_list)
    uses = np.bincount(cf_flat, minlength=nf)
    same_sign = (uses == 2) & (np.bincount(cf_flat, cs_flat, minlength=nf) != 0)
    bad = np.flatnonzero((uses > 2) | same_sign)
    if bad.size:
        f = bad[0]
        if uses[f] > 2:
            raise MeshTopologyError(f"dangling face {f}: referenced by {uses[f]} cells")
        raise MeshTopologyError(
            f"inconsistent face sharing: face {f} has equal signs in both cells"
        )

    # Fan split and face geometry (validates planarity and degeneracy).
    fan, face_areas, face_normals, face_centroids, face_diameters = \
        _split_faces(vertices, face_loops)
    fan_offsets, loop_ab = fan["fan_offsets"], fan["fan_vertices"]

    # Edges are the panels' loop edges, numbered in order of first
    # appearance and oriented from the lower to the higher vertex index.
    lo, hi = loop_ab.min(axis=1), loop_ab.max(axis=1)
    _, first, inverse = np.unique(lo * nv + hi, return_index=True, return_inverse=True)
    loop_edges = np.argsort(np.argsort(first))[inverse]
    edges = np.stack([lo, hi], axis=1)[np.sort(first)]
    ne = edges.shape[0]
    face_edges = _segments(loop_edges, fan_offsets)
    face_edge_signs = _segments(np.where(loop_ab[:, 0] < loop_ab[:, 1], 1, -1), fan_offsets)
    vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.linalg.norm(vec, axis=1)
    if np.any(edge_lengths <= 0.0):
        raise MeshGeometryError("zero-length edge")
    edge_tangents = vec / edge_lengths[:, None]
    edge_midpoints = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])

    # Pyramid split: one tetrahedron per (cell face, fan panel), in cell
    # face then loop order, about the vertex mean of the cell.
    panels_per = np.diff(fan_offsets)[cf_flat]
    cf_offsets = _offsets(panels_per)                  # per cell face
    cell_cf_offsets = _offsets([fids.size for fids in cf_list])
    cell_face_owners = np.repeat(np.arange(nc), np.diff(cell_cf_offsets))
    tet_offsets = cf_offsets[cell_cf_offsets]
    tet_panels = (np.arange(tet_offsets[-1])
                  + np.repeat(fan_offsets[cf_flat] - cf_offsets[:-1], panels_per))
    tet_cells = np.repeat(np.arange(nc), np.diff(tet_offsets))
    # Sorted unique vertices and edges of each cell, read off its panels.
    keys = np.unique(tet_cells * nv + loop_ab[tet_panels, 0])
    cell_verts, cv_offsets = keys % nv, _offsets(np.bincount(keys // nv, minlength=nc))
    cell_apexes = _stacked(lambda v: v.mean(axis=1), vertices[cell_verts], cv_offsets)
    keys = np.unique(tet_cells * ne + loop_edges[tet_panels])
    cell_edges = _segments(keys % ne, _offsets(np.bincount(keys // ne, minlength=nc)))

    # Per-cell checks: closure, divergence-theorem volume, vertex diameter.
    cell_diameters = _stacked(_point_set_diameter, vertices[cell_verts], cv_offsets)
    flux = cs_flat[:, None] * face_areas[cf_flat, None] * face_normals[cf_flat]
    closure = np.linalg.norm(_stacked(_sum, flux, cell_cf_offsets), axis=1)
    is_open = closure > CLOSURE_TOL * cell_diameters**2
    heights = np.einsum("ij,ij->i", face_centroids[cf_flat], face_normals[cf_flat])
    cell_volumes = _stacked(_sum, cs_flat * face_areas[cf_flat] * heights, cell_cf_offsets) / 3.0
    bad = np.flatnonzero(is_open | (cell_volumes <= 0.0))
    if bad.size:
        k = bad[0]
        if is_open[k]:
            raise MeshTopologyError(
                f"open cell boundary: cell {k} surface residual {closure[k]:.3e}"
            )
        raise MeshGeometryError(f"nonpositive volume {cell_volumes[k]:.3e} in cell {k}")

    # Signed tetrahedron volumes; the centroid sums the volume-weighted
    # tetrahedron centroids per face, then over the faces of the cell.
    apex = cell_apexes[tet_cells]
    base = fan["face_apexes"][fan["fan_faces"][tet_panels]]
    p, q = vertices[loop_ab[tet_panels]].transpose(1, 0, 2)
    legs_cross = np.cross(p - apex, q - apex)
    vol6 = (np.repeat(cs_flat, panels_per)
            * ((base - apex)[:, None] @ legs_cross[:, :, None])[:, 0, 0])
    tet_volumes = vol6 / 6.0
    moments = tet_volumes[:, None] * ((apex + base + p + q) / 4.0)

    def per_cell(x):                                   # per cell face, then per cell
        return _stacked(_sum, _stacked(_sum, x, cf_offsets), cell_cf_offsets)

    cell_centroids = per_cell(moments) / per_cell(tet_volumes)[:, None]
    split = SimplexSplit(
        **fan, cell_apexes=cell_apexes, tet_offsets=tet_offsets,
        tet_panels=tet_panels, tet_volumes=tet_volumes,
        tet_kept=np.abs(vol6) >= 1e-14 * cell_volumes[tet_cells],
    )

    # Boundary flags: face iff referenced once, edge/vertex iff on such a face.
    boundary_faces = uses == 1
    if not boundary_faces.any():
        raise MeshTopologyError("mesh has no boundary faces")
    on_boundary = boundary_faces[fan["fan_faces"]]
    boundary_edges = np.bincount(loop_edges[on_boundary], minlength=ne) > 0
    boundary_vertices = np.bincount(loop_ab[on_boundary, 0], minlength=nv) > 0

    return PolyMesh(
        vertices=vertices,
        faces=tuple(face_loops),
        cell_faces=tuple(cf_list),
        cell_face_signs=tuple(cs_list),
        cell_face_owners=cell_face_owners,
        edges=edges,
        face_edges=face_edges,
        face_edge_signs=face_edge_signs,
        cell_edges=cell_edges,
        boundary_vertices=boundary_vertices,
        boundary_edges=boundary_edges,
        boundary_faces=boundary_faces,
        edge_lengths=edge_lengths,
        edge_tangents=edge_tangents,
        edge_midpoints=edge_midpoints,
        face_areas=face_areas,
        face_normals=face_normals,
        face_centroids=face_centroids,
        face_diameters=face_diameters,
        cell_volumes=cell_volumes,
        cell_centroids=cell_centroids,
        cell_diameters=cell_diameters,
        split=split,
        name=name,
    )


def load_mesh(path) -> PolyMesh:
    """Read a PVM-JSON mesh file.

    Format: object with "vertices" ([x, y, z] triples), "faces" (0-based
    vertex loops; loop order defines the normal), "cells" (1-based signed
    face indices) and an optional "name" string.  Coordinates must be
    finite and indices JSON integers.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MeshFormatError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeshFormatError(f"{path}: top-level JSON object expected")
    for key in ("vertices", "faces", "cells"):
        if key not in doc:
            raise MeshFormatError(f"{path}: missing key '{key}'")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise MeshFormatError(f"{path}: name must be a string")
    try:
        # numpy would truncate 1.5 or true to a valid index without a word
        for key in ("faces", "cells"):
            for i, refs in enumerate(doc[key]):
                if not all(type(r) is int for r in refs):
                    raise MeshFormatError(f"{path}: {key[:-1]} {i} has a non-integer index")
        return derive_topology(doc["vertices"], doc["faces"], doc["cells"], name=name)
    except (TypeError, ValueError) as exc:
        raise MeshFormatError(f"{path}: malformed arrays: {exc}") from exc


def save_mesh(mesh: PolyMesh, path) -> None:
    """Write PVM-JSON; coordinates round-trip bit-exactly (repr of floats)."""
    cells = []
    for fids, signs in zip(mesh.cell_faces, mesh.cell_face_signs):
        cells.append([int(s) * (int(f) + 1) for f, s in zip(fids, signs)])
    doc = {
        "name": mesh.name,
        "vertices": [[float(c) for c in v] for v in mesh.vertices],
        "faces": [[int(i) for i in loop] for loop in mesh.faces],
        "cells": cells,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def generate_cube_mesh(n: int, domain=None, name: str = "") -> PolyMesh:
    """Uniform n x n x n hexahedral mesh of an axis-aligned box.

    Vertices, faces and cells are ordered lexicographically by (i, j, k),
    so two calls with the same arguments yield identical meshes.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if domain is None:
        domain = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    lo = np.asarray(domain[0], dtype=float)
    hi = np.asarray(domain[1], dtype=float)
    if np.any(hi <= lo):
        raise ValueError("domain box must have positive extent")

    m = n + 1
    vid = np.arange(m**3).reshape(m, m, m)             # vertex id at (i, j, k)
    coords = lo + np.indices((m, m, m)).reshape(3, -1).T / n * (hi - lo)

    def loops(t, corners):                             # one quad per (., a, b) of t
        return np.stack([t[:, a:a + n, b:b + n] for a, b in corners], axis=-1).reshape(-1, 4)

    # x-, y- then z-normal faces, each loop oriented so the stored normal
    # points along +axis, numbered with the normal's index outermost.
    ccw, cw = ((0, 0), (1, 0), (1, 1), (0, 1)), ((0, 0), (0, 1), (1, 1), (1, 0))
    faces = np.concatenate([loops(vid, ccw), loops(vid.transpose(1, 0, 2), cw),
                            loops(vid.transpose(2, 0, 1), ccw)])
    fid = 1 + np.arange(faces.shape[0]).reshape(3, m, n, n)   # 1-based, per family
    fx, fy, fz = fid[0], fid[1].transpose(1, 0, 2), fid[2].transpose(1, 2, 0)
    cells = np.stack([-fx[:-1], fx[1:], -fy[:, :-1], fy[:, 1:], -fz[..., :-1], fz[..., 1:]],
                     axis=-1).reshape(-1, 6)

    return derive_topology(coords, faces, cells, name=name or f"cube{n**3}")


def mesh_stats(mesh: PolyMesh) -> MeshStats:
    """Size parameters and observed shape-regularity ratios."""
    min_fc = (mesh.face_diameters[np.concatenate(mesh.cell_faces)]
              / mesh.cell_diameters[mesh.cell_face_owners]).min()
    # Loop edges are the fan panels' bases, in the same order.
    min_ef = (mesh.edge_lengths[np.concatenate(mesh.face_edges)]
              / mesh.face_diameters[mesh.split.fan_faces]).min()
    return MeshStats(
        h=mesh.h,
        cell_diameters=mesh.cell_diameters.copy(),
        face_diameters=mesh.face_diameters.copy(),
        edge_lengths=mesh.edge_lengths.copy(),
        min_face_cell_ratio=float(min_fc),
        min_edge_face_ratio=float(min_ef),
        n_vertices=mesh.n_vertices,
        n_edges=mesh.n_edges,
        n_faces=mesh.n_faces,
        n_cells=mesh.n_cells,
    )


def validate_mesh(mesh: PolyMesh) -> ValidationReport:
    """Recompute the construction invariants and report residuals.

    Never raises: violations of the hard invariants (planarity, closure,
    degenerate measures) are collected as strings.
    """
    split = mesh.split
    planarity = (_stacked(_plane_residual, mesh.vertices[split.fan_vertices[:, 0]],
                          split.fan_offsets) / mesh.face_diameters)
    eids = np.concatenate(mesh.face_edges)
    loop_vec = (np.concatenate(mesh.face_edge_signs)[:, None]
                * mesh.edge_lengths[eids, None] * mesh.edge_tangents[eids])
    face_closure = (np.linalg.norm(_stacked(_sum, loop_vec, split.fan_offsets), axis=1)
                    / mesh.face_diameters)
    fids = np.concatenate(mesh.cell_faces)
    flux = (np.concatenate(mesh.cell_face_signs)[:, None]
            * mesh.face_areas[fids, None] * mesh.face_normals[fids])
    cell_flux = np.zeros((mesh.n_cells, 3))
    np.add.at(cell_flux, mesh.cell_face_owners, flux)
    cell_closure = np.linalg.norm(cell_flux, axis=1) / mesh.cell_diameters**2
    violations = (
        [f"face {f}: planarity residual {planarity[f]:.3e}"
         for f in np.flatnonzero(planarity > PLANARITY_TOL)]
        + [f"face {f}: nonpositive area" for f in np.flatnonzero(mesh.face_areas <= 0)]
        + [f"face {f}: open edge loop, residual {face_closure[f]:.3e}"
           for f in np.flatnonzero(face_closure > 1e-12)]
        + [f"cell {k}: open boundary, residual {cell_closure[k]:.3e}"
           for k in np.flatnonzero(cell_closure > 1e-12)]
        + [f"cell {k}: nonpositive volume" for k in np.flatnonzero(mesh.cell_volumes <= 0)]
    )

    stats = mesh_stats(mesh)
    return ValidationReport(
        planarity_residuals=planarity,
        face_closure_residuals=face_closure,
        cell_closure_residuals=cell_closure,
        min_face_cell_ratio=stats.min_face_cell_ratio,
        min_edge_face_ratio=stats.min_edge_face_ratio,
        violations=violations,
    )
