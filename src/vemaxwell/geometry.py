"""Quadrature on segments, polygonal faces and polyhedral cells.

Face and cell rules map reference triangle and tetrahedron rules onto
every signed fan panel and pyramid tetrahedron of ``PolyMesh.split``, flat
ones included (they weigh 0), so nonconvex faces and cells integrate
exactly.  A rule covers a range of whole entities, whose pieces are one
contiguous slice of the split, and stores its points as three contiguous
coordinate planes; fields see them as an (m, 3) view.  All pieces of a
range are mapped by one batched product, and a range's points equal its
entities' points bit for bit.  The error pass's walk (``cell_rules``)
integrates six-face axis-aligned box cells with a tensor Gauss rule
instead, kept factored (``BoxRule``): each cell's Gauss nodes per axis,
which broadcast to the tensor points, so a field of one coordinate is
evaluated on those nodes alone.  All box cells form one such rule, which
the caller slices into chunks by the values its fields take per cell; a
mesh of boxes alone builds no tetrahedron rule.  Box cells are found from
the vertex bounding boxes the mesh build keeps (``PolyMesh.cell_bounds``).
Every Gauss-Legendre rule comes from one symmetric tridiagonal eigenproblem
(Golub-Welsch).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import PolyMesh, Ragged

# Cell degree used when the caller asks for none: it keeps quadrature error
# far below the O(h) discretization error of the convergence harness.
DEFAULT_CELL_DEGREE = 4

# Quadrature points per chunk of whole entities in ``face_rules`` and
# ``cell_rules``, and field values per component array in the error
# pass's slices of box cells: few enough that a chunk's field values stay
# small in memory, enough that several cells share a chunk (two
# pyramid-rule hexes of 3600 points; 37 box cells of 216 values, or 227
# of 36 where the fields depend on two coordinates) and per-call overhead
# stays small.
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
    and, within one, simplex by simplex; each entity's weights sum to its
    measure."""

    coords: np.ndarray   # (3, m): one contiguous plane per coordinate
    weights: np.ndarray  # (m,)
    owners: np.ndarray   # (m,) entity of each point, nondecreasing
    points_per_simplex: int   # points k q .. k q + q - 1 lie on piece k

    @property
    def points(self) -> np.ndarray:
        """The points as an (m, 3) view of ``coords``."""
        return self.coords.T

    @property
    def entities(self) -> slice:
        """The entities the rule covers."""
        return slice(self.owners[0], self.owners[-1] + 1)

    def squared_deviation(self, value, means: np.ndarray) -> float:
        """``sum w (value - means[owner])^2`` over the rule, for ``value``
        given at its points or a number, broadcast over them; the means are
        gathered once per simplex."""
        q = self.points_per_simplex
        value = np.broadcast_to(value, self.weights.shape)
        diff = value.reshape(-1, q) - means[self.owners[::q], None]
        diff *= diff
        return float(self.weights @ diff.ravel())


@dataclass(frozen=True, eq=False)
class BoxRule:
    """The tensor Gauss rule on whole axis-aligned box cells, factored:
    ``coords`` are each cell's nodes along x, y and z, shaped (c, n, 1, 1),
    (c, 1, n, 1) and (c, 1, 1, n), so that they broadcast to the c n^3
    tensor points; ``weights`` are the nodes' 1-D weights on [0, 1] and
    ``volumes`` the cells' volumes."""

    coords: tuple            # per axis: lo + (hi - lo) g, one row per cell
    weights: np.ndarray      # (n,)
    volumes: np.ndarray      # (c,)
    entities: np.ndarray     # (c,) the cells, ascending

    def __getitem__(self, cells: slice) -> BoxRule:
        """The rule on the cells ``cells`` of this one, as views."""
        return BoxRule(tuple(c[cells] for c in self.coords), self.weights,
                       self.volumes[cells], self.entities[cells])

    def squared_deviation(self, value, means: np.ndarray) -> float:
        """``sum w (value - means[cell])^2`` over the rule, for ``value``
        broadcast from ``coords``, a number included: each cell's squared
        deviation is contracted with the tensor product of the 1-D weights,
        in which an axis of extent 1, on which the value does not depend, is
        their sum, and the cells' sums are dotted with their volumes."""
        diff = value - means[self.entities, None, None, None]
        diff *= diff
        x, y, z = (self.weights if extent > 1 else self.weights.sum(keepdims=True)
                   for extent in diff.shape[1:])
        weights = x[:, None, None] * y[:, None] * z
        return float(self.volumes @ (diff.reshape(diff.shape[0], -1) @ weights.ravel()))


@lru_cache(maxsize=64)
def _gauss01(npts: int):
    """Gauss-Legendre nodes/weights on [0, 1] by Golub and Welsch (Math.
    Comp. 23, 1969): the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the Legendre recurrence, whose
    off-diagonal is k / sqrt(4 k^2 - 1), mapped from [-1, 1], and the
    weights the squares of the first components of its unit eigenvectors,
    which sum to 1 as [0, 1]'s length."""
    k = np.arange(1, npts)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


def segment_rule(degree: int):
    """Nodes/weights on [0, 1], exact for polynomials of the given degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return _gauss01(max(1, (degree + 2) // 2))


@lru_cache(maxsize=32)
def triangle_rule(degree: int):
    """Reference-triangle rule (points (m, 2), weights summing to 1): the
    collapsed tensor Gauss rule on the Duffy map (u, v) -> (u, v(1-u)),
    with Jacobian (1-u), exact for every polynomial of the given degree.
    """
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


def _simplices(simplices: Ragged, index) -> slice:
    """The sub-simplices of entity ``index``, or of the entities of slice
    ``index``, as one slice of the entries of ``simplices``."""
    ids = range(len(simplices))[index]
    if isinstance(ids, int):
        ids = range(ids, ids + 1)
    if ids.step != 1:
        raise ValueError("quadrature takes consecutive entities")
    return slice(simplices.offsets[ids.start], simplices.offsets[ids.stop])


def face_quadrature(mesh: PolyMesh, faces, degree: int) -> QuadratureRule:
    """Rule on the fan panels of face ``faces``, or of each face of slice
    ``faces``; each face's weights sum to its area."""
    split = mesh.split
    panels = _simplices(mesh.faces, faces)
    owners = mesh.faces.owners[panels]
    apexes = split.face_apexes[owners]
    legs = mesh.vertices[split.fan_vertices[panels]] - apexes[:, None]
    return _mapped_rule(owners, apexes, legs, split.fan_areas[panels],
                        *triangle_rule(degree))


def cell_quadrature(mesh: PolyMesh, cells, degree: int = DEFAULT_CELL_DEGREE) -> QuadratureRule:
    """Rule on the pyramid tetrahedra of cell ``cells``, or of each cell of
    slice ``cells``; each cell's weights sum to its volume."""
    split = mesh.split
    tets = _simplices(split.tet_panels, cells)
    panels, owners = split.tet_panels.flat[tets], split.tet_panels.owners[tets]
    apexes = split.cell_apexes[owners]
    legs = np.concatenate([split.face_apexes[mesh.faces.owners[panels], None],
                           mesh.vertices[split.fan_vertices[panels]]], axis=1) - apexes[:, None]
    return _mapped_rule(owners, apexes, legs, split.tet_volumes[tets],
                        *tetrahedron_rule(degree))


def box_cells(mesh: PolyMesh):
    """Which cells are axis-aligned boxes, and the vertex bounding box
    ``(lo, hi)`` of every cell, as the mesh build took it
    (``PolyMesh.cell_bounds``).

    A cell is a box where it has six faces and its volume equals its
    bounding box's to ``BOX_RTOL``: a cell fills its bounding box only if
    it is that box.  Boxes with more faces (agglomerated 2 x 1 x 1 hexes)
    are left to the pyramid rule: it is 1.7e-9 off on them, so switching
    them would move the benchmark's recorded errors.
    """
    lo, hi = mesh.cell_bounds
    box_volumes = np.prod(hi - lo, axis=1)
    boxes = ((np.diff(mesh.cell_faces.offsets) == 6)
             & (np.abs(mesh.cell_volumes - box_volumes) <= BOX_RTOL * box_volumes))
    return boxes, lo, hi


def _factored_rule(cells: np.ndarray, lo, hi) -> BoxRule:
    """The factored ``BOX_POINTS``-point Gauss rule on each box ``[lo, hi]``
    of the cells ``cells``: exact for every polynomial of degree
    ``2 BOX_POINTS - 1`` in each coordinate."""
    g, w = _gauss01(BOX_POINTS)
    lo = lo[cells]
    extent = hi[cells] - lo
    nodes = lo.T[:, :, None] + extent.T[:, :, None] * g         # (3, c, n)
    shapes = ((-1, BOX_POINTS, 1, 1), (-1, 1, BOX_POINTS, 1), (-1, 1, 1, BOX_POINTS))
    return BoxRule(tuple(map(np.reshape, nodes, shapes)), w, np.prod(extent, axis=1), cells)


def _chunks(before, start: int, stop: int):
    """Slices of consecutive entities of ``range(start, stop)`` that hold
    at most ``CHUNK_POINTS`` quadrature points together, or a single entity
    that holds more; ``before`` holds the quadrature points of the
    entities before each entity, and of all."""
    while start < stop:
        end = np.searchsorted(before, before[start] + CHUNK_POINTS, side="right") - 1
        end = min(max(int(end), start + 1), stop)
        yield slice(start, end)
        start = end


def face_rules(mesh: PolyMesh, degree: int):
    """``face_quadrature`` on every face, one chunk of whole faces at a time."""
    before = mesh.faces.offsets * triangle_rule(degree)[1].size
    for faces in _chunks(before, 0, mesh.n_faces):
        yield face_quadrature(mesh, faces, degree)


def cell_rules(mesh: PolyMesh):
    """A rule on every cell at the default cell degree: one ``BoxRule``
    on all the cells ``box_cells`` finds, wherever they lie, for the caller
    to walk in slices of whole cells, then ``cell_quadrature`` on each run
    of consecutive other cells, one chunk of whole cells at a time.  Where
    every cell is a box, no pyramid-rule table is built."""
    boxes, lo, hi = box_cells(mesh)
    if boxes.any():
        yield _factored_rule(np.flatnonzero(boxes), lo, hi)
    if boxes.all():
        return
    before = mesh.split.tet_panels.offsets * tetrahedron_rule(DEFAULT_CELL_DEGREE)[1].size
    cuts = list(np.flatnonzero(np.diff(boxes)) + 1)
    for start, stop in zip([0] + cuts, cuts + [mesh.n_cells]):
        if not boxes[start]:
            for cells in _chunks(before, start, stop):
                yield cell_quadrature(mesh, cells)
