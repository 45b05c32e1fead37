"""Quadrature on segments, polygonal faces and polyhedral cells.

Face and cell rules map reference triangle and tetrahedron rules onto the
signed fan panels and pyramid tetrahedra of ``PolyMesh.split``, so
nonconvex faces and cells integrate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import PolyMesh

# Degrees used when the caller does not ask for anything specific.  They
# keep quadrature error far below the O(h) discretization error measured
# by the convergence harness.
DEFAULT_FACE_DEGREE = 4
DEFAULT_CELL_DEGREE = 4


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights; weights sum to the measure of the domain."""

    points: np.ndarray   # (m, 3)
    weights: np.ndarray  # (m,)
    degree: int


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


def _mapped_rule(apex, legs, measures, ref_pts, ref_w, degree) -> QuadratureRule:
    """Reference rule mapped onto the simplices ``apex + span(legs[t])``.

    ``legs`` is (t, d, 3) and ``measures`` the signed simplex measures.
    Points come simplex by simplex, each evaluated left to right as
    apex + r0 legs[t, 0] + r1 legs[t, 1] (+ r2 legs[t, 2]), which rounds
    them exactly as mapping one simplex at a time does.
    """
    points = apex
    for j in range(legs.shape[1]):
        points = points + ref_pts[None, :, j, None] * legs[:, None, j]
    return QuadratureRule(points.reshape(-1, 3), (measures[:, None] * ref_w).ravel(), degree)


def face_quadrature(mesh: PolyMesh, f: int, degree: int = DEFAULT_FACE_DEGREE) -> QuadratureRule:
    """Rule on the fan panels of face f; weights sum to the face area."""
    split = mesh.split
    panels = np.arange(split.fan_offsets[f], split.fan_offsets[f + 1])
    panels = panels[split.fan_kept[panels]]
    apex = split.face_apexes[f]
    legs = mesh.vertices[split.fan_vertices[panels]] - apex
    return _mapped_rule(apex, legs, split.fan_areas[panels], *triangle_rule(degree), degree)


def cell_quadrature(mesh: PolyMesh, k: int, degree: int = DEFAULT_CELL_DEGREE) -> QuadratureRule:
    """Rule on the pyramid tetrahedra of cell k; weights sum to the volume."""
    split = mesh.split
    tets = np.arange(split.tet_offsets[k], split.tet_offsets[k + 1])
    tets = tets[split.tet_kept[tets]]
    panels = split.tet_panels[tets]
    apex = split.cell_apexes[k]
    legs = np.concatenate([split.face_apexes[split.fan_faces[panels], None],
                           mesh.vertices[split.fan_vertices[panels]]], axis=1) - apex
    return _mapped_rule(apex, legs, split.tet_volumes[tets], *tetrahedron_rule(degree), degree)
