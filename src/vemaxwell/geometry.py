"""Quadrature on segments, polygonal faces and polyhedral cells.

Face and cell rules map reference triangle and tetrahedron rules onto the
signed fan panels and pyramid tetrahedra of ``PolyMesh.split``, so
nonconvex faces and cells integrate exactly; the error pass's walk
(``cell_rules``) maps a tensor Gauss rule onto six-face axis-aligned box
cells instead.  A rule covers a range of whole entities and stores its
points as three contiguous coordinate planes; fields see them as an
(m, 3) view.  All pieces of a range are mapped by one batched product,
and a range's points equal its entities' points bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import PolyMesh, Ragged

# Degrees used when the caller does not ask for anything specific.  They
# keep quadrature error far below the O(h) discretization error measured
# by the convergence harness.
DEFAULT_FACE_DEGREE = 4
DEFAULT_CELL_DEGREE = 4

# Quadrature points per chunk of whole entities in ``face_rules`` and
# ``cell_rules``: few enough that a chunk's field values stay small in
# memory, enough that several cells share a chunk (37 box cells of 216
# points, or two pyramid-rule hexes of 3600) and per-call overhead stays
# small.
CHUNK_POINTS = 8192

# Gauss-Legendre points per direction of the box rule: the count that
# ``tetrahedron_rule(DEFAULT_CELL_DEGREE)`` uses along its first direction.
BOX_POINTS = 6

# A six-face cell is an axis-aligned box where its volume equals its
# vertex bounding box's volume to this relative tolerance.
BOX_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points and weights on consecutive whole entities, entity by entity
    and, within one, piece by piece (a simplex, or a whole box cell); each
    entity's weights sum to its measure."""

    coords: np.ndarray   # (3, m): one contiguous plane per coordinate
    weights: np.ndarray  # (m,)
    owners: np.ndarray   # (m,) entity of each point, nondecreasing
    points_per_simplex: int   # points k q .. k q + q - 1 lie on piece k

    @property
    def points(self) -> np.ndarray:
        """The points as an (m, 3) view of ``coords``."""
        return self.coords.T


@lru_cache(maxsize=64)
def _gauss01(npts: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    xs, ws = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (xs + 1.0), 0.5 * ws


def segment_rule(degree: int):
    """Nodes/weights on [0, 1], exact for polynomials of the given degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return _gauss01(max(1, (degree + 2) // 2))


# Symmetric rules on the reference triangle {x, y >= 0, x + y <= 1},
# weights scaled to sum to 1 (multiply by the panel area).  Orbits are
# (barycentric value a -> points with one coordinate 1 - 2a).
_TRI_RULES = {
    1: [(1.0 / 3.0, 1.0 / 3.0, 1.0)],
    2: [(1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0),
        (1.0 / 6.0, 2.0 / 3.0, 1.0 / 3.0),
        (2.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0)],
}


def _tri_orbit3(a: float, w: float):
    b = 1.0 - 2.0 * a
    return [(a, a, w), (a, b, w), (b, a, w)]


_TRI_RULES[4] = (_tri_orbit3(0.445948490915965, 0.223381589678011)
                 + _tri_orbit3(0.091576213509771, 0.109951743655322))
_TRI_RULES[5] = ([(1.0 / 3.0, 1.0 / 3.0, 0.225)]
                 + _tri_orbit3(0.470142064105115, 0.132394152788506)
                 + _tri_orbit3(0.101286507323456, 0.125939180544827))


@lru_cache(maxsize=32)
def triangle_rule(degree: int):
    """Reference-triangle rule (points (m, 2), weights summing to 1).

    Uses compact symmetric rules up to degree 5 and a collapsed tensor
    Gauss rule (exact by construction) for higher degrees.
    """
    for d in sorted(_TRI_RULES):
        if degree <= d:
            data = np.array(_TRI_RULES[d])
            return data[:, :2].copy(), data[:, 2].copy()
    # Duffy map (u, v) -> (u, v(1-u)) with Jacobian (1-u).
    xu, wu = _gauss01((degree + 3) // 2)
    xv, wv = _gauss01((degree + 2) // 2)
    u, v = np.meshgrid(xu, xv, indexing="ij")
    pts = np.stack([u.ravel(), (v * (1.0 - u)).ravel()], axis=1)
    w = (np.outer(wu, wv) * (1.0 - u)).ravel()
    return pts, 2.0 * w


@lru_cache(maxsize=32)
def tetrahedron_rule(degree: int):
    """Reference-tetrahedron rule (points (m, 3), weights summing to 1).

    Collapsed tensor Gauss on the Duffy map (u, v, w) ->
    (u, v(1-u), w(1-u)(1-v)); point counts per direction are chosen so
    every monomial of the requested total degree is integrated exactly,
    plus a two-point margin that resolves smooth (trigonometric)
    integrands on unit-scale cells to ~1e-7 already at degree 4.
    """
    xu, wu = _gauss01((degree + 4) // 2 + 2)
    xv, wv = _gauss01((degree + 3) // 2 + 2)
    xw, ww = _gauss01((degree + 2) // 2 + 2)
    u, v, w = np.meshgrid(xu, xv, xw, indexing="ij")
    x = u
    y = v * (1.0 - u)
    z = w * (1.0 - u) * (1.0 - v)
    jac = (1.0 - u) ** 2 * (1.0 - v)
    wgt = (wu[:, None, None] * wv[None, :, None] * ww[None, None, :]) * jac
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    return pts, 6.0 * wgt.ravel()


@lru_cache(maxsize=1)
def box_rule():
    """Tensor Gauss-Legendre rule on the unit cube, ``BOX_POINTS`` per
    direction (points (m, 3), weights summing to 1): exact for every
    polynomial of degree ``2 BOX_POINTS - 1`` in each coordinate."""
    x, w = _gauss01(BOX_POINTS)
    pts = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    return pts, np.einsum("i,j,k->ijk", w, w, w).ravel()


def _mapped_rule(owners, apexes, legs, measures, ref_pts, ref_w) -> QuadratureRule:
    """Reference rule mapped onto the pieces ``apexes[t] + span(legs[t])``.

    ``legs`` is (t, d, 3), ``measures`` the signed piece measures and
    ``owners`` the entity of each piece.  Points come piece by piece, from
    one batched product ``legs' r`` per coordinate plane with the apex
    added after.  Each point is rounded by its own piece and reference
    point alone, so a range's points are its entities' points bit for bit.
    """
    coords = legs.transpose(2, 0, 1) @ ref_pts.T       # (3, t, q)
    coords += apexes.T[:, :, None]
    return QuadratureRule(coords.reshape(3, -1), (measures[:, None] * ref_w).ravel(),
                          np.repeat(owners, ref_w.size), ref_w.size)


def _entities(index, n: int) -> range:
    """Entity ``index``, or the entities of slice ``index``, of ``range(n)``."""
    ids = range(n)[index]
    if isinstance(ids, int):
        return range(ids, ids + 1)
    if ids.step != 1:
        raise ValueError("quadrature takes consecutive entities")
    return ids


def _kept(simplices: Ragged, kept, ids: range):
    """Kept sub-simplices of entities ``ids`` and the entity of each."""
    sub = np.arange(simplices.offsets[ids.start], simplices.offsets[ids.stop])
    sub = sub[kept[sub]]
    return sub, simplices.owners[sub]


def face_quadrature(mesh: PolyMesh, faces, degree: int = DEFAULT_FACE_DEGREE) -> QuadratureRule:
    """Rule on the fan panels of face ``faces``, or of each face of slice
    ``faces``; each face's weights sum to its area."""
    split = mesh.split
    panels, owners = _kept(mesh.faces, split.fan_kept, _entities(faces, mesh.n_faces))
    apexes = split.face_apexes[owners]
    legs = mesh.vertices[split.fan_vertices[panels]] - apexes[:, None]
    return _mapped_rule(owners, apexes, legs, split.fan_areas[panels],
                        *triangle_rule(degree))


def cell_quadrature(mesh: PolyMesh, cells, degree: int = DEFAULT_CELL_DEGREE) -> QuadratureRule:
    """Rule on the pyramid tetrahedra of cell ``cells``, or of each cell of
    slice ``cells``; each cell's weights sum to its volume."""
    split = mesh.split
    tets, owners = _kept(split.tet_panels, split.tet_kept, _entities(cells, mesh.n_cells))
    panels = split.tet_panels.flat[tets]
    apexes = split.cell_apexes[owners]
    legs = np.concatenate([split.face_apexes[mesh.faces.owners[panels], None],
                           mesh.vertices[split.fan_vertices[panels]]], axis=1) - apexes[:, None]
    return _mapped_rule(owners, apexes, legs, split.tet_volumes[tets],
                        *tetrahedron_rule(degree))


def box_cells(mesh: PolyMesh):
    """Which cells are axis-aligned boxes, and the vertex bounding box
    ``(lo, hi)`` of every cell.

    A cell is a box where it has six faces and its volume equals its
    bounding box's to ``BOX_RTOL``: a cell fills its bounding box only if
    it is that box.  Boxes with more faces (agglomerated 2 x 1 x 1 hexes)
    are left to the pyramid rule: it is 1.7e-9 off on them, so switching
    them would move the benchmark's recorded errors.
    """
    split = mesh.split
    # the ends of every face's loop edges, one pair per pyramid tetrahedron
    ends = mesh.vertices[split.fan_vertices[split.tet_panels.flat]]
    starts = split.tet_panels.offsets[:-1]
    lo = np.minimum.reduceat(ends.min(axis=1), starts)
    hi = np.maximum.reduceat(ends.max(axis=1), starts)
    box_volumes = np.prod(hi - lo, axis=1)
    boxes = ((np.diff(mesh.cell_faces.offsets) == 6)
             & (np.abs(mesh.cell_volumes - box_volumes) <= BOX_RTOL * box_volumes))
    return boxes, lo, hi


def _box_quadrature(cells: slice, lo, hi) -> QuadratureRule:
    """``box_rule`` on each box ``[lo, hi]`` of the cells of slice ``cells``,
    mapped with apex ``lo`` and legs ``diag(hi - lo)``."""
    extent = hi[cells] - lo[cells]
    return _mapped_rule(np.arange(cells.start, cells.stop), lo[cells],
                        extent[:, :, None] * np.eye(3), np.prod(extent, axis=1),
                        *box_rule())


def _points_before(offsets, kept, points_per_simplex: int):
    """Quadrature points of the entities before each entity, and of all."""
    return np.concatenate([[0], np.cumsum(kept)])[offsets] * points_per_simplex


def _chunks(before, start: int, stop: int):
    """Slices of consecutive entities of ``range(start, stop)`` that hold
    at most ``CHUNK_POINTS`` quadrature points together, or a single entity
    that holds more; ``before`` is as ``_points_before`` gives it."""
    while start < stop:
        end = np.searchsorted(before, before[start] + CHUNK_POINTS, side="right") - 1
        end = min(max(int(end), start + 1), stop)
        yield slice(start, end)
        start = end


def face_rules(mesh: PolyMesh, degree: int):
    """``face_quadrature`` on every face, one chunk of whole faces at a time."""
    before = _points_before(mesh.faces.offsets, mesh.split.fan_kept,
                            triangle_rule(degree)[1].size)
    for faces in _chunks(before, 0, mesh.n_faces):
        yield face_quadrature(mesh, faces, degree)


def cell_rules(mesh: PolyMesh):
    """A rule on every cell at the default cell degree, one chunk of whole
    cells of one kind at a time: the box rule on the cells ``box_cells``
    finds, ``cell_quadrature`` on the others."""
    split = mesh.split
    boxes, lo, hi = box_cells(mesh)
    pyramid = _points_before(split.tet_panels.offsets, split.tet_kept,
                             tetrahedron_rule(DEFAULT_CELL_DEGREE)[1].size)
    sizes = np.where(boxes, box_rule()[1].size, np.diff(pyramid))
    before = np.concatenate([[0], np.cumsum(sizes)])
    cuts = list(np.flatnonzero(np.diff(boxes)) + 1)
    for start, stop in zip([0] + cuts, cuts + [mesh.n_cells]):
        for cells in _chunks(before, start, stop):
            yield _box_quadrature(cells, lo, hi) if boxes[start] else cell_quadrature(mesh, cells)
