"""Discrete de Rham machinery on a polyhedral mesh.

Degrees of freedom are vertex values (nodal space), constant tangential
components per edge (edge space, w.r.t. the canonical lo->hi tangent) and
constant normal components per face (face space, w.r.t. the stored
normal).  The signed incidence operators G, C, D realize gradient, curl
and divergence exactly on those DOFs and compose to zero, giving the
discrete exact sequence the magnetic update relies on.

The element projectors map local DOFs to the L2-orthogonal projection of
the (virtual, never constructed) shape functions onto constant vectors.
Their closed forms follow from integration by parts against suitable
potentials of a constant field; the moment constraints built into the
local spaces kill every term the DOFs cannot see.  Consistency on
constants and on gradients of linear scalars is the gate the test suite
checks before anything downstream is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import face_rules, segment_rule
from .linalg import SparseMatrix
from .mesh import PolyMesh

INTERP_EDGE_DEGREE = 15
INTERP_FACE_DEGREE = 14


def gradient_matrix(mesh: PolyMesh) -> SparseMatrix:
    """G: nodal values -> edge DOFs of the gradient.

    Row e = (lo, hi): +1/|e| at hi, -1/|e| at lo; exact because nodal
    traces are linear along edges.
    """
    ne = mesh.n_edges
    rows = np.repeat(np.arange(ne), 2)
    cols = mesh.edges.ravel()
    inv_len = 1.0 / mesh.edge_lengths
    vals = np.stack([-inv_len, inv_len], axis=1).ravel()
    return SparseMatrix.from_coo(rows, cols, vals, (ne, mesh.n_vertices))


def curl_matrix(mesh: PolyMesh) -> SparseMatrix:
    """C: edge DOFs -> face DOFs of the curl (Stokes: circulation / area)."""
    rows, cols = mesh.face_edges.owners, mesh.face_edges.flat
    vals = mesh.face_edge_signs.flat * mesh.edge_lengths[cols] / mesh.face_areas[rows]
    return SparseMatrix.from_coo(rows, cols, vals, (mesh.n_faces, mesh.n_edges))


def divergence_matrix(mesh: PolyMesh) -> SparseMatrix:
    """D: face DOFs -> constant cell divergence (flux sum / volume)."""
    rows, cols = mesh.cell_faces.owners, mesh.cell_faces.flat
    vals = mesh.cell_face_signs.flat * mesh.face_areas[cols] / mesh.cell_volumes[rows]
    return SparseMatrix.from_coo(rows, cols, vals, (mesh.n_cells, mesh.n_faces))


def divergence_norm(mesh: PolyMesh, div: np.ndarray) -> float:
    """L2 norm sqrt(sum_K |K| div_K^2) of a cellwise constant divergence,
    such as D b of a face function b with ``D = divergence_matrix(mesh)``."""
    return float(np.sqrt(mesh.cell_volumes @ div**2))


@dataclass(frozen=True, eq=False)
class IncidenceOps:
    G: SparseMatrix
    C: SparseMatrix
    D: SparseMatrix


def build_incidence(mesh: PolyMesh) -> IncidenceOps:
    return IncidenceOps(gradient_matrix(mesh), curl_matrix(mesh), divergence_matrix(mesh))


def block_matrix(rows, cols, blocks: np.ndarray, shape) -> SparseMatrix:
    """Sparse sum of (a, b) blocks, ``blocks[j]`` at block row ``rows[j]``
    and block column ``cols[j]``."""
    _, a, b = blocks.shape
    r, c = np.broadcast_arrays(a * np.asarray(rows)[:, None, None] + np.arange(a)[:, None],
                               b * np.asarray(cols)[:, None, None] + np.arange(b))
    return SparseMatrix.from_coo(r.ravel(), c.ravel(), blocks.ravel(), shape)


@dataclass(frozen=True, eq=False)
class ElementProjectors:
    """Constant projectors of all faces and cells, built once per mesh.

    Rows 3i..3i+2 of each map take global DOFs to the mean vector on
    entity i; they reach only the edges or faces of that entity.
    """

    face_tangential: SparseMatrix   # (3 nf, ne): tangential mean per face
    edge_cell: SparseMatrix         # (3 nc, ne): mean of an edge function per cell
    face_cell: SparseMatrix         # (3 nc, nf): mean of a face function per cell


def build_projectors(mesh: PolyMesh) -> ElementProjectors:
    """The three maps, from the flat face-loop and cell-face arrays.

    For v with constant edge traces and constant in-plane rot,
        mean_F(v_t) = (1/|F|) sum_e sigma_{F,e} v_e |e| n_F x (m_e - b_F),
    obtained by testing against rotations of linear scalars with zero
    face mean; midpoints appear because those scalars are linear on
    straight edges.  With r_F = b_F - b_K and the outward normal
    n_out = sigma_{K,F} n_F, the cell mean combines the face means,
        mean(v) = (1/(2|K|)) sum_F |F| (n_out . r_F I - n_out r_F') mean_F(v_t):
    the normal traces drop out of the two boundary terms identically, and
    the interior curl moment vanishes by the cell moment constraint.
    For a face function, testing against gradients of linear scalars gives
        mean(psi) = (1/|K|) sum_F sigma_{K,F} psi_F |F| (b_F - b_K);
    the volume term vanishes because b_K is the volume centroid.
    """
    nf, nc, ne = mesh.n_faces, mesh.n_cells, mesh.n_edges
    faces, eids = mesh.face_edges.owners, mesh.face_edges.flat
    arm = mesh.edge_midpoints[eids] - mesh.face_centroids[faces]
    tangential = (mesh.face_edge_signs.flat[:, None] * mesh.edge_lengths[eids, None]
                  * np.cross(mesh.face_normals[faces], arm) / mesh.face_areas[faces, None])
    face_tangential = block_matrix(faces, eids, tangential[:, :, None], (3 * nf, ne))

    cells, fids, signs = mesh.cell_faces.owners, mesh.cell_faces.flat, mesh.cell_face_signs.flat
    r = mesh.face_centroids[fids] - mesh.cell_centroids[cells]
    n_out = signs[:, None] * mesh.face_normals[fids]
    combine = (np.einsum("ij,ij->i", n_out, r)[:, None, None] * np.eye(3)
               - n_out[:, :, None] * r[:, None, :])
    combine *= (mesh.face_areas[fids] / (2.0 * mesh.cell_volumes[cells]))[:, None, None]
    edge_cell = block_matrix(cells, fids, combine, (3 * nc, 3 * nf)) @ face_tangential

    face_mean = (signs * mesh.face_areas[fids])[:, None] * r / mesh.cell_volumes[cells, None]
    face_cell = block_matrix(cells, fids, face_mean[:, :, None], (3 * nc, nf))
    return ElementProjectors(face_tangential, edge_cell, face_cell)


def interpolate_edge(mesh: PolyMesh, field) -> np.ndarray:
    """Edge DOFs of a vector field: mean tangential component per edge.

    Boundary edges are included; Dirichlet masking is the caller's job.
    ``field`` maps an (..., 3) point array to (..., 3) values.  Edges are
    walked in chunks of at most ``CHUNK_POINTS`` Gauss points, so the
    arrays held do not grow with the mesh.  Each edge's weighted values
    are summed in a fixed order (a matrix-vector product may round a row
    by its position in the chunk), so the DOFs do not depend on the chunk
    size.
    """
    xs, ws = segment_rule(INTERP_EDGE_DEGREE)
    out = np.empty(mesh.n_edges)
    step = max(1, geometry.CHUNK_POINTS // xs.size)
    for start in range(0, mesh.n_edges, step):
        edges = slice(start, start + step)
        a = mesh.vertices[mesh.edges[edges, 0]]
        b = mesh.vertices[mesh.edges[edges, 1]]
        pts = a[:, None, :] + xs[None, :, None] * (b - a)[:, None, :]
        vals = np.asarray(field(pts))
        tangential = np.einsum("eqc,ec->eq", vals, mesh.edge_tangents[edges])
        out[edges] = (tangential * ws).sum(axis=1)
    return out


def interpolate_face(mesh: PolyMesh, field) -> np.ndarray:
    """Face DOFs of a vector field: mean normal flux per face.

    Each chunk of faces sums the weighted field per face and component,
    then takes the normal component of those integrals.
    """
    out = np.empty(mesh.n_faces)
    for rule in face_rules(mesh, INTERP_FACE_DEGREE):
        vals = np.asarray(field(rule.points)).T              # (3, m)
        starts = np.flatnonzero(np.diff(rule.owners, prepend=-1))
        faces = rule.owners[starts]
        integrals = np.add.reduceat(vals * rule.weights, starts, axis=1)
        out[faces] = np.einsum("cf,fc->f", integrals, mesh.face_normals[faces])
    return out / mesh.face_areas


def interpolate_node(mesh: PolyMesh, field) -> np.ndarray:
    """Node DOFs of a scalar field: vertex values."""
    return np.asarray(field(mesh.vertices), dtype=float)
