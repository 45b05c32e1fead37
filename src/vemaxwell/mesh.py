"""Polyhedral mesh data model, PVM-JSON I/O, structured generators and checks.

A mesh is a flat polyhedral complex: planar polygonal faces shared between
cells, cells described as signed face lists (sign +1 means the stored face
normal points out of the cell).  Edges are derived, each oriented from its
lower to its higher vertex index, so edge-based quantities are globally
well defined without an orientation table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

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
# Smallest accepted h_e / h_F (each edge of a face) and h_F / h_K (each
# face of a cell).  The paper's estimates assume shape regularity, both
# ratios bounded below by some rho > 0; no rho is known for a valid input,
# so this bound only rejects what the checks cannot vouch for.  It is
# sqrt(CLOSURE_TOL): a face with h_F < 1e-6 h_K has an area below
# CLOSURE_TOL h_K^2, so the closure check cannot tell whether it bounds the
# cell at all; edges within faces get the same bound.  The fixture meshes
# give 6.3e-4 and more, while one voro8 vertex moved to x = 1e20, which
# folds its cells over their neighbours, gives 3.7e-22 and 3.1e-21.
SHAPE_RATIO_MIN = 1e-6


@dataclass(frozen=True, eq=False)
class Ragged:
    """A ragged incidence held flat: entity i's entries are
    ``flat[offsets[i]:offsets[i + 1]]`` and ``owners`` names the entity of
    each entry.  Indexing, and so iteration, gives those per-entity views."""

    flat: np.ndarray                     # entries, entity by entity
    offsets: np.ndarray                  # (n + 1,)
    owners: np.ndarray                   # entity of each entry

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i) -> np.ndarray:
        i = range(len(self))[i]                        # IndexError ends iteration
        return self.flat[self.offsets[i]:self.offsets[i + 1]]


@dataclass(frozen=True, eq=False)
class SimplexSplit:
    """Faces fanned into signed triangles, cells into signed tetrahedra.

    Apexes are vertex means.  Panel p is entry p of ``PolyMesh.faces``
    (face by face, loop order): the face apex plus the loop edge
    ``fan_vertices[p]``, its area signed along the face normal.
    Tetrahedron t is entry t of ``tet_panels`` (cell by cell, cell-face
    then loop order): the cell apex plus panel ``tet_panels.flat[t]``, its
    volume signed by the cell's face orientation.
    The signed pieces telescope, so nonconvex faces and cells are exact;
    a flat piece, such as a tetrahedron on a face through the cell apex,
    has measure 0 and weighs nothing.
    """

    face_apexes: np.ndarray              # (nf, 3)
    fan_vertices: np.ndarray             # (np, 2) loop edge of each panel
    fan_areas: np.ndarray                # (np,)
    cell_apexes: np.ndarray              # (nc, 3)
    tet_panels: Ragged                   # per cell: fan panel of each tetrahedron
    tet_volumes: np.ndarray              # (nt,)


@dataclass(frozen=True, eq=False)
class PolyMesh:
    """Immutable polyhedral mesh with derived topology and element geometry.

    Face normals follow the right-hand rule of the stored vertex loop.
    ``cell_face_signs[k][j] = +1`` iff that stored normal points out of
    cell ``k``.  ``face_edge_signs[f][j] = +1`` iff edge ``j`` of the loop
    is traversed from its lower to its higher vertex index.
    """

    vertices: np.ndarray                 # (nv, 3)
    faces: Ragged                        # per face: vertex loop
    cell_faces: Ragged                   # per cell: face indices
    cell_face_signs: Ragged              # per cell: +-1 per face, cell_faces' offsets/owners
    edges: np.ndarray                    # (ne, 2), lo < hi
    face_edges: Ragged                   # per face: edge ids in loop order, faces' offsets/owners
    face_edge_signs: Ragged              # per face: +-1 per loop edge, faces' offsets/owners
    boundary_vertices: np.ndarray        # bool (nv,)
    boundary_edges: np.ndarray           # bool (ne,)
    boundary_faces: np.ndarray           # bool (nf,)
    edge_lengths: np.ndarray             # (ne,)
    edge_tangents: np.ndarray            # (ne, 3), unit, lo -> hi
    edge_midpoints: np.ndarray           # (ne, 3)
    face_areas: np.ndarray               # (nf,)
    face_normals: np.ndarray             # (nf, 3), unit
    face_centroids: np.ndarray           # (nf, 3)
    cell_volumes: np.ndarray             # (nc,)
    cell_centroids: np.ndarray           # (nc, 3)
    cell_diameters: np.ndarray           # (nc,)
    cell_bounds: np.ndarray              # (2, nc, 3): vertex bounding box, lo then hi
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


@dataclass(eq=False)
class ValidationReport:
    """What ``validate_mesh`` found: ``derive_topology``'s error, if any."""

    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _split_faces(vertices: np.ndarray, faces: Ragged):
    """Fan each face about its vertex mean, one stack per loop size.

    Area and centroid sum the signed panels; the centroid is the
    area-weighted mean of the panel centroids.  Returns the fan fields of
    ``SimplexSplit``, then face areas, unit normals, centroids, diameters
    and plane residuals (``_plane_residual``).  A face of zero area gets
    NaN normal, panels and centroid: ``derive_topology`` rejects it first.
    """
    loop_ids, offsets = faces.flat, faces.offsets
    sizes = np.diff(offsets)
    nxt = np.arange(loop_ids.size) + 1
    nxt[offsets[1:] - 1] = offsets[:-1]                # close each loop
    apexes, normals, centroids = np.empty((3, sizes.size, 3))
    areas, diameters, residuals = np.empty((3, sizes.size))
    signed = np.empty(loop_ids.size)
    for m in _distinct(sizes):
        ids = np.flatnonzero(sizes == m)
        rows = offsets[ids, None] + np.arange(m)
        pts = vertices[loop_ids[rows]]                 # (faces, m, 3)
        apexes[ids] = apex = pts.mean(axis=1)
        rel = pts - apex[:, None]
        cross = np.cross(rel, np.roll(rel, -1, axis=1))
        # Total area vector; orientation of the loop fixes the normal.
        area_vec = 0.5 * cross.sum(axis=1)
        areas[ids] = area = np.sqrt(area_vec[:, None] @ area_vec[:, :, None])[:, 0, 0]
        with np.errstate(invalid="ignore"):            # 0 / 0 where the area is zero
            normals[ids] = normal = area_vec / area[:, None]
        signed[rows] = panel = (0.5 * cross @ normal[:, :, None])[..., 0]
        tri_centroids = (apex[:, None] + pts + np.roll(pts, -1, axis=1)) / 3.0
        centroids[ids] = ((panel[..., None] * tri_centroids).sum(axis=1)
                          / panel.sum(axis=1)[:, None])
        diameters[ids] = _point_set_diameter(pts)
        residuals[ids] = _plane_residual(pts)
    fan = dict(face_apexes=apexes, fan_vertices=np.stack([loop_ids, loop_ids[nxt]], axis=1),
               fan_areas=signed)
    return fan, areas, normals, centroids, diameters, residuals


def _plane_residual(points: np.ndarray) -> np.ndarray:
    """Largest distance of each (g, m, 3) vertex stack from its best-fit
    plane through the vertex mean (singular vector of the centered cloud)."""
    rel = points - points.mean(axis=1)[:, None]
    return np.abs(rel @ np.linalg.svd(rel)[2][:, 2, :, None]).max(axis=(1, 2))


def _point_set_diameter(points: np.ndarray):
    """Largest vertex distance of each (..., m, 3) point set."""
    d = points[..., :, None, :] - points[..., None, :, :]
    return np.sqrt((d * d).sum(axis=-1)).max(axis=(-2, -1))


def _vertex_set_stats(points: np.ndarray) -> np.ndarray:
    """Per (g, m, 3) vertex stack: mean, min and max per coordinate, then
    diameter, as (g, 10) rows."""
    return np.concatenate([points.mean(axis=1), points.min(axis=1), points.max(axis=1),
                           _point_set_diameter(points)[:, None]], axis=1)


def _stacked(fn, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``fn`` of every segment ``x[offsets[i]:offsets[i + 1]]``, evaluated
    on one (segments, size, ...) stack per segment size."""
    sizes = np.diff(offsets)
    parts = {m: fn(x[offsets[:-1][sizes == m, None] + np.arange(m)]) for m in _distinct(sizes)}
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


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-d array, as ``np.unique`` gives
    them: numpy's own asks ``numpy.ma`` whether the array is masked, and
    so loads that package (10-17 ms) into every run."""
    values = np.sort(values)
    keep = np.ones(values.size, bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _instances(values: np.ndarray, types) -> np.ndarray:
    """Whether each entry of an object array is an instance of ``types``,
    with one ``issubclass`` per distinct type."""
    kinds = {t: issubclass(t, types) for t in set(map(type, values.flat))}
    return np.fromiter(map(kinds.get, map(type, values.flat)), bool).reshape(values.shape)


def _index_lists(lists, entity: str = "list"):
    """Raw index lists as one flat int ``Ragged``, and whether each entry
    fits an int (those that do not are stored as 0); MeshFormatError
    naming the first ``entity`` with an entry that is not an integer.  A
    2-d signed integer array is taken as it is: its type settles both."""
    if isinstance(lists, np.ndarray) and lists.ndim == 2 and lists.dtype.kind == "i":
        sizes = np.full(lists.shape[0], lists.shape[1])
        return (Ragged(lists.astype(int).ravel(), _offsets(sizes),
                       np.repeat(np.arange(sizes.size), sizes)), np.ones(lists.size, bool))
    lists = list(lists)
    sizes = np.fromiter(map(len, lists), int, len(lists))
    values = np.fromiter(chain.from_iterable(lists), object, sizes.sum())
    owners = np.repeat(np.arange(sizes.size), sizes)
    _raise_first([(np.bincount(owners[~_instances(values, (int, np.integer))],
                               minlength=sizes.size) > 0,
                   MeshFormatError, f"{entity} {{0}} has a non-integer index")])
    fits = ~((values < np.iinfo(int).min) | (values > np.iinfo(int).max))
    return Ragged(np.where(fits, values, 0).astype(int), _offsets(sizes), owners), fits


def _any_entry(ragged: Ragged, flags: np.ndarray) -> np.ndarray:
    """Whether each entity has a flagged entry."""
    return np.bincount(ragged.owners[flags], minlength=len(ragged)) > 0


def _repeats(ragged: Ragged) -> np.ndarray:
    """Whether each entity lists a value twice: one sort by (owner, value),
    which keeps every entry in its entity's segment, and a comparison of
    neighbours."""
    flat, owners = ragged.flat[np.lexsort((ragged.flat, ragged.owners))], ragged.owners
    twice = (flat[1:] == flat[:-1]) & (owners[1:] == owners[:-1])
    return np.bincount(owners[1:][twice], minlength=len(ragged)) > 0


def _edge_face_ratios(face_edges: Ragged, edge_lengths, face_diameters) -> np.ndarray:
    """Per face, min_e h_e / h_F over the edges of its loop."""
    shortest = np.minimum.reduceat(edge_lengths[face_edges.flat], face_edges.offsets[:-1])
    return shortest / face_diameters


def _face_cell_ratios(cell_faces: Ragged, face_diameters, cell_diameters) -> np.ndarray:
    """Per cell, min_F h_F / h_K over its faces."""
    smallest = np.minimum.reduceat(face_diameters[cell_faces.flat], cell_faces.offsets[:-1])
    return smallest / cell_diameters


def _raise_first(checks, **values) -> None:
    """Raise the first failing check of the first entity i failing any of
    ``checks``, (failing per entity, error type, message) in order; the
    message is formatted with i as ``{0}`` and ``values[name][i]`` as ``{name}``."""
    failing = np.logical_or.reduce([fails for fails, _, _ in checks])
    for i in np.flatnonzero(failing)[:1]:
        error, message = next((e, m) for fails, e, m in checks if fails[i])
        raise error(message.format(i, **{name: v[i] for name, v in values.items()}))


def derive_topology(vertices, faces, cells, name: str = "") -> PolyMesh:
    """Build a PolyMesh from raw vertices, face loops and signed face lists.

    ``cells`` uses 1-based signed face references: +k means face k-1 with
    its stored normal pointing outward, -k means inward.
    """
    coords = np.asarray(vertices)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise MeshFormatError("vertices must be an (n, 3) array")
    if coords.dtype.kind not in "iuf":                # strings, or objects of any type
        ok = _instances(np.asarray(vertices, dtype=object), (int, float, np.integer, np.floating))
        _raise_first([(~ok.all(axis=1), MeshFormatError,
                       "vertex {0} has a coordinate that is not a number")])
    vertices = np.ascontiguousarray(coords, dtype=float)
    _raise_first([(~np.isfinite(vertices).all(axis=1), MeshFormatError,
                   "vertex {0} has a non-finite coordinate"),
                  ((np.abs(vertices) > COORD_LIMIT).any(axis=1), MeshFormatError,
                   f"vertex {{0}} has a coordinate beyond +-{COORD_LIMIT:.0e}")])
    nv = vertices.shape[0]

    faces, fits = _index_lists(faces, "face")
    nf, loops = len(faces), faces.flat
    _raise_first([
        (_any_entry(faces, ~fits), MeshFormatError, "face {0} has an index out of range"),
        (np.diff(faces.offsets) < 3, MeshTopologyError, "face {0} has fewer than 3 vertices"),
        (_any_entry(faces, (loops < 0) | (loops >= nv)), MeshTopologyError,
         "face {0} references a missing vertex"),
        (_repeats(faces), MeshTopologyError, "inconsistent loop: face {0} repeats a vertex"),
    ])

    refs, fits = _index_lists(cells, "cell")
    nc = len(refs)
    cell_faces = Ragged(np.abs(refs.flat) - 1, refs.offsets, refs.owners)
    _raise_first([
        (_any_entry(refs, ~fits), MeshFormatError, "cell {0} has an index out of range"),
        ((np.diff(refs.offsets) < 4) | _any_entry(refs, refs.flat == 0), MeshTopologyError,
         "cell {0} has an invalid face list"),
        (_any_entry(refs, cell_faces.flat >= nf), MeshTopologyError,
         "cell {0} references a missing face"),
        (_repeats(cell_faces), MeshTopologyError, "cell {0} repeats a face"),
    ])
    cell_face_signs = Ragged(np.sign(refs.flat), refs.offsets, refs.owners)
    if nc == 0:
        raise MeshTopologyError("mesh has no cells")

    # Face sharing: interior faces belong to exactly two cells, with
    # opposite outward signs; more than two is a dangling face.
    cf_flat, cs_flat = cell_faces.flat, cell_face_signs.flat
    uses = np.bincount(cf_flat, minlength=nf)
    same_sign = (uses == 2) & (np.bincount(cf_flat, cs_flat, minlength=nf) != 0)
    _raise_first([
        (uses > 2, MeshTopologyError, "dangling face {0}: referenced by {uses} cells"),
        (same_sign, MeshTopologyError,
         "inconsistent face sharing: face {0} has equal signs in both cells"),
    ], uses=uses)

    # Fan split and face geometry; the first degenerate or nonplanar face fails.
    fan, face_areas, face_normals, face_centroids, face_diameters, residuals = \
        _split_faces(vertices, faces)
    tol = PLANARITY_TOL * face_diameters
    _raise_first([(~(face_areas > 0.0), MeshGeometryError, "face {0} has zero area"),
                  (residuals > tol, MeshGeometryError, "nonplanar face {0}: residual {r:.3e} "
                   f"exceeds {PLANARITY_TOL:.0e} * h_F = {{tol:.3e}}")], r=residuals, tol=tol)
    loop_ab = fan["fan_vertices"]

    # Edges are the panels' loop edges, numbered in order of first
    # appearance and oriented from the lower to the higher vertex index.
    lo, hi = loop_ab.min(axis=1), loop_ab.max(axis=1)
    _, first, inverse = np.unique(lo * nv + hi, return_index=True, return_inverse=True)
    loop_edges = np.argsort(np.argsort(first))[inverse]
    edges = np.stack([lo, hi], axis=1)[np.sort(first)]
    ne = edges.shape[0]
    face_edges = Ragged(loop_edges, faces.offsets, faces.owners)
    face_edge_signs = Ragged(np.where(loop_ab[:, 0] < loop_ab[:, 1], 1, -1),
                             faces.offsets, faces.owners)
    vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.linalg.norm(vec, axis=1)
    _raise_first([(edge_lengths <= 0.0, MeshGeometryError,
                   "edge {0} (vertices {a}, {b}) has zero length")], a=edges[:, 0], b=edges[:, 1])
    ratio = _edge_face_ratios(face_edges, edge_lengths, face_diameters)
    _raise_first([(ratio < SHAPE_RATIO_MIN, MeshGeometryError,
                   "face {0} is not shape-regular: min h_e/h_F = {ratio:.3e}")], ratio=ratio)
    edge_tangents = vec / edge_lengths[:, None]
    edge_midpoints = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])

    # Pyramid split: one tetrahedron per (cell face, fan panel), in cell
    # face then loop order, about the vertex mean of the cell.
    panels_per = np.diff(faces.offsets)[cf_flat]
    cf_offsets = _offsets(panels_per)                  # per cell face
    tet_offsets = cf_offsets[cell_faces.offsets]
    tet_panels = (np.arange(tet_offsets[-1])
                  + np.repeat(faces.offsets[cf_flat] - cf_offsets[:-1], panels_per))
    tet_cells = np.repeat(np.arange(nc), np.diff(tet_offsets))
    # Sorted unique vertices of each cell, read off its panels.
    keys = _distinct(tet_cells * nv + loop_ab[tet_panels, 0])
    cell_verts, cv_offsets = keys % nv, _offsets(np.bincount(keys // nv, minlength=nc))
    # One pass over each cell's vertex stack: the apex (vertex mean), the
    # vertex bounding box and the vertex diameter.
    stats = _stacked(_vertex_set_stats, vertices[cell_verts], cv_offsets)
    cell_apexes = stats[:, :3].copy()
    cell_bounds = stats[:, 3:9].reshape(nc, 2, 3).transpose(1, 0, 2).copy()
    cell_diameters = stats[:, 9].copy()

    # Per-cell checks: closure, divergence-theorem volume, vertex diameter.
    flux = cs_flat[:, None] * face_areas[cf_flat, None] * face_normals[cf_flat]
    closure = np.linalg.norm(_stacked(_sum, flux, cell_faces.offsets), axis=1)
    # D C = 0 on each cell: its faces, with their outward signs, run along
    # each of their edges as often one way as the other
    cell_edges, pos = np.unique(tet_cells * ne + loop_edges[tet_panels], return_inverse=True)
    turns = np.bincount(pos, np.repeat(cs_flat, panels_per) * face_edge_signs.flat[tet_panels])
    heights = np.einsum("ij,ij->i", face_centroids[cf_flat], face_normals[cf_flat])
    cell_volumes = _stacked(_sum, cs_flat * face_areas[cf_flat] * heights,
                            cell_faces.offsets) / 3.0
    ratio = _face_cell_ratios(cell_faces, face_diameters, cell_diameters)
    _raise_first([
        (closure > CLOSURE_TOL * cell_diameters**2, MeshTopologyError,
         "open cell boundary: cell {0} surface residual {closure:.3e}"),
        (np.bincount(cell_edges[turns != 0] // ne, minlength=nc) > 0, MeshTopologyError,
         "open cell boundary: the faces of cell {0} do not pass each of their edges as "
         "often one way as the other"),
        (cell_volumes <= 0.0, MeshGeometryError, "nonpositive volume {volume:.3e} in cell {0}"),
        (ratio < SHAPE_RATIO_MIN, MeshGeometryError,
         "cell {0} is not shape-regular: min h_F/h_K = {ratio:.3e}"),
    ], closure=closure, volume=cell_volumes, ratio=ratio)
    # Every face bounds a cell and every vertex lies on a face.
    _raise_first([(uses == 0, MeshTopologyError, "face {0} belongs to no cell")])
    _raise_first([(np.bincount(loops, minlength=nv) == 0, MeshTopologyError,
                   "vertex {0} belongs to no face")])

    # Signed tetrahedron volumes; the centroid sums the volume-weighted
    # tetrahedron centroids per face, then over the faces of the cell.
    apex = cell_apexes[tet_cells]
    base = fan["face_apexes"][faces.owners[tet_panels]]
    p, q = vertices[loop_ab[tet_panels]].transpose(1, 0, 2)
    legs_cross = np.cross(p - apex, q - apex)
    tet_volumes = (np.repeat(cs_flat, panels_per)
                   * ((base - apex)[:, None] @ legs_cross[:, :, None])[:, 0, 0]) / 6.0
    moments = tet_volumes[:, None] * ((apex + base + p + q) / 4.0)

    def per_cell(x):                                   # per cell face, then per cell
        return _stacked(_sum, _stacked(_sum, x, cf_offsets), cell_faces.offsets)

    cell_centroids = per_cell(moments) / per_cell(tet_volumes)[:, None]
    split = SimplexSplit(
        **fan, cell_apexes=cell_apexes, tet_panels=Ragged(tet_panels, tet_offsets, tet_cells),
        tet_volumes=tet_volumes)

    # Boundary flags: face iff referenced once, edge/vertex iff on such a face.
    boundary_faces = uses == 1
    if not boundary_faces.any():
        raise MeshTopologyError("mesh has no boundary faces")
    on_boundary = boundary_faces[faces.owners]
    boundary_edges = np.bincount(loop_edges[on_boundary], minlength=ne) > 0
    boundary_vertices = np.bincount(loop_ab[on_boundary, 0], minlength=nv) > 0

    return PolyMesh(
        vertices=vertices,
        faces=faces,
        cell_faces=cell_faces,
        cell_face_signs=cell_face_signs,
        edges=edges,
        face_edges=face_edges,
        face_edge_signs=face_edge_signs,
        boundary_vertices=boundary_vertices,
        boundary_edges=boundary_edges,
        boundary_faces=boundary_faces,
        edge_lengths=edge_lengths,
        edge_tangents=edge_tangents,
        edge_midpoints=edge_midpoints,
        face_areas=face_areas,
        face_normals=face_normals,
        face_centroids=face_centroids,
        cell_volumes=cell_volumes,
        cell_centroids=cell_centroids,
        cell_diameters=cell_diameters,
        cell_bounds=cell_bounds,
        split=split,
        name=name,
    )


def check_label(name: str, source) -> str:
    """``name``, a CSV row's label: MeshFormatError if it breaks the row."""
    if any(c in name for c in ",\r\n"):
        raise MeshFormatError(f"{source}: name {name!r} holds a comma or a line break")
    return name


def load_mesh(path) -> PolyMesh:
    """Read a PVM-JSON mesh file.

    Format: object with "vertices" ([x, y, z] triples), "faces" (0-based
    vertex loops; loop order defines the normal), "cells" (1-based signed
    face indices) and an optional "name" string.  Coordinates must be
    finite JSON numbers and indices JSON integers.  The name labels a CSV row, so it
    may not hold a comma or a line break.
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
    check_label(name, path)
    try:
        # numpy would read "1" or true as the coordinate 1.0, and truncate 1.5
        # or true to a valid index, without a word
        for i, xyz in enumerate(doc["vertices"]):
            if not all(type(c) in (int, float) for c in xyz):
                raise MeshFormatError(f"{path}: vertex {i} has a coordinate that is not a number")
        for key in ("faces", "cells"):
            for i, refs in enumerate(doc[key]):
                if not all(type(r) is int for r in refs):
                    raise MeshFormatError(f"{path}: {key[:-1]} {i} has a non-integer index")
                if type(refs) is not list:       # "" or {}
                    raise TypeError(f"{key[:-1]} {i} is not a list")
        return derive_topology(doc["vertices"], doc["faces"], doc["cells"], name=name)
    # OverflowError: a JSON integer coordinate beyond the float range
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeshFormatError(f"{path}: malformed arrays: {exc}") from exc


def _pvm_arrays(mesh: PolyMesh):
    """The mesh as ``derive_topology`` takes it and PVM-JSON stores it:
    vertex lists, face loops and 1-based signed cell face lists."""
    signed = mesh.cell_face_signs.flat * (mesh.cell_faces.flat + 1)
    return (mesh.vertices.tolist(), [loop.tolist() for loop in mesh.faces],
            [refs.tolist() for refs in np.split(signed, mesh.cell_faces.offsets[1:-1])])


def save_mesh(mesh: PolyMesh, path) -> None:
    """Write PVM-JSON; coordinates round-trip bit-exactly (repr of floats)."""
    vertices, faces, cells = _pvm_arrays(mesh)
    doc = {"name": mesh.name, "vertices": vertices, "faces": faces, "cells": cells}
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


def validate_mesh(mesh: PolyMesh) -> ValidationReport:
    """Rebuild the mesh from its PVM arrays with ``derive_topology``, the one
    check of the mesh invariants, and report what that rejects.

    Never raises: a ``MeshError`` becomes the report's one violation.
    """
    try:
        derive_topology(*_pvm_arrays(mesh))
    except MeshError as exc:
        return ValidationReport([str(exc)])
    return ValidationReport([])
