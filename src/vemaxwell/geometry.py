"""Quadrature on segments, polygonal faces and polyhedral cells.

Face rules fan-triangulate about the vertex mean with signed panels, so
mildly nonconvex (star-shaped) faces integrate exactly; cell rules stack
one pyramid per face triangle and map a reference tetrahedron rule.
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


def _fan_triangles(pts: np.ndarray, normal: np.ndarray):
    """Signed fan panels (apex = vertex mean); skips degenerate slivers."""
    apex = pts.mean(axis=0)
    p = pts - apex
    q = np.roll(pts, -1, axis=0) - apex
    signed = 0.5 * np.cross(p, q) @ normal
    scale = np.abs(signed).max()
    panels = []
    for i in range(pts.shape[0]):
        if abs(signed[i]) > 1e-14 * scale:
            panels.append((apex, pts[i], np.roll(pts, -1, axis=0)[i], signed[i]))
    return panels


def face_quadrature(mesh: PolyMesh, f: int, degree: int = DEFAULT_FACE_DEGREE) -> QuadratureRule:
    """Fan-triangulated rule on face f; weights sum to the face area."""
    ref_pts, ref_w = triangle_rule(degree)
    pts = mesh.vertices[mesh.faces[f]]
    all_pts, all_w = [], []
    for apex, a, b, signed_area in _fan_triangles(pts, mesh.face_normals[f]):
        mapped = (apex[None, :]
                  + ref_pts[:, 0:1] * (a - apex)[None, :]
                  + ref_pts[:, 1:2] * (b - apex)[None, :])
        all_pts.append(mapped)
        all_w.append(ref_w * signed_area)
    return QuadratureRule(np.concatenate(all_pts), np.concatenate(all_w), degree)


def cell_quadrature(mesh: PolyMesh, k: int, degree: int = DEFAULT_CELL_DEGREE) -> QuadratureRule:
    """Pyramid/tetrahedron rule on cell k; weights sum to the volume."""
    ref_pts, ref_w = tetrahedron_rule(degree)
    apex = mesh.vertices[mesh.cell_vertex_ids(k)].mean(axis=0)
    all_pts, all_w = [], []
    for f, s in zip(mesh.cell_faces[k], mesh.cell_face_signs[k]):
        pts = mesh.vertices[mesh.faces[f]]
        a_f = pts.mean(axis=0)
        nxt = np.roll(pts, -1, axis=0)
        for i in range(pts.shape[0]):
            e0 = a_f - apex
            e1 = pts[i] - apex
            e2 = nxt[i] - apex
            vol6 = s * (e0 @ np.cross(e1, e2))
            if abs(vol6) < 1e-14 * mesh.cell_volumes[k]:
                continue
            mapped = (apex[None, :]
                      + ref_pts[:, 0:1] * e0[None, :]
                      + ref_pts[:, 1:2] * e1[None, :]
                      + ref_pts[:, 2:3] * e2[None, :])
            all_pts.append(mapped)
            all_w.append(ref_w * (vol6 / 6.0))
    return QuadratureRule(np.concatenate(all_pts), np.concatenate(all_w), degree)
