"""Quadrature on segments, polygonal faces and polyhedral cells.

Face and cell rules map reference triangle and tetrahedron rules onto the
signed fan panels and pyramid tetrahedra of ``PolyMesh.split``, so
nonconvex faces and cells integrate exactly.  A rule covers a range of
whole entities and stores its points as three contiguous coordinate
planes; fields see them as an (m, 3) view.  All simplices of a range are
mapped by one batched product, and a range's points equal its entities'
points bit for bit.
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
# memory, enough that hex cells (3600 points at the default cell degree)
# share a chunk and per-call overhead stays small.
CHUNK_POINTS = 8192


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points and weights on consecutive whole entities, entity by entity
    and, within one, simplex by simplex; each entity's weights sum to its
    measure."""

    coords: np.ndarray   # (3, m): one contiguous plane per coordinate
    weights: np.ndarray  # (m,)
    owners: np.ndarray   # (m,) entity of each point, nondecreasing
    points_per_simplex: int   # points k q .. k q + q - 1 lie on simplex k

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


def _mapped_rule(owners, apexes, legs, measures, ref_pts, ref_w) -> QuadratureRule:
    """Reference rule mapped onto the simplices ``apexes[t] + span(legs[t])``.

    ``legs`` is (t, d, 3), ``measures`` the signed simplex measures and
    ``owners`` the entity of each simplex.  Points come simplex by simplex,
    from one batched product ``legs' r`` per coordinate plane with the apex
    added after.  Each point is rounded by its own simplex and reference
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


def _chunks(offsets, kept, points_per_simplex: int):
    """Slices of consecutive entities that hold at most ``CHUNK_POINTS``
    quadrature points together, or a single entity that holds more."""
    before = np.concatenate([[0], np.cumsum(kept)])[offsets] * points_per_simplex
    start, n = 0, offsets.size - 1
    while start < n:
        stop = np.searchsorted(before, before[start] + CHUNK_POINTS, side="right") - 1
        stop = max(int(stop), start + 1)
        yield slice(start, stop)
        start = stop


def face_rules(mesh: PolyMesh, degree: int):
    """``face_quadrature`` on every face, one chunk of whole faces at a time."""
    for faces in _chunks(mesh.faces.offsets, mesh.split.fan_kept, triangle_rule(degree)[1].size):
        yield face_quadrature(mesh, faces, degree)


def cell_rules(mesh: PolyMesh):
    """``cell_quadrature`` on every cell, one chunk of whole cells at a time."""
    split = mesh.split
    size = tetrahedron_rule(DEFAULT_CELL_DEGREE)[1].size
    for cells in _chunks(split.tet_panels.offsets, split.tet_kept, size):
        yield cell_quadrature(mesh, cells)
