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
import scipy.sparse as sps

from .geometry import face_quadrature, segment_rule
from .mesh import PolyMesh

INTERP_EDGE_DEGREE = 15
INTERP_FACE_DEGREE = 14


@dataclass(frozen=True)
class DeRhamDofs:
    """Global DOF counts, homogeneous-boundary masks and interior numbering.

    Boundary masks implement E x n = 0 (edge DOFs) and B . n = 0 (face
    DOFs), the interior node numbering zero vertex traces; constrained
    DOFs are eliminated, not penalized, so reduced systems stay SPD.
    """

    n_nodes: int
    n_edges: int
    n_faces: int
    boundary_edges: np.ndarray
    boundary_faces: np.ndarray
    interior_nodes: np.ndarray   # global ids of free node DOFs
    interior_edges: np.ndarray
    interior_faces: np.ndarray

    @property
    def n_interior_edges(self) -> int:
        return self.interior_edges.size

    @property
    def n_interior_faces(self) -> int:
        return self.interior_faces.size

    def expand_edge(self, v_int: np.ndarray) -> np.ndarray:
        """Insert zeros at constrained edge DOFs."""
        full = np.zeros(self.n_edges)
        full[self.interior_edges] = v_int
        return full

    def expand_face(self, v_int: np.ndarray) -> np.ndarray:
        full = np.zeros(self.n_faces)
        full[self.interior_faces] = v_int
        return full


def build_dofs(mesh: PolyMesh) -> DeRhamDofs:
    return DeRhamDofs(
        n_nodes=mesh.n_vertices,
        n_edges=mesh.n_edges,
        n_faces=mesh.n_faces,
        boundary_edges=mesh.boundary_edges.copy(),
        boundary_faces=mesh.boundary_faces.copy(),
        interior_nodes=np.flatnonzero(~mesh.boundary_vertices),
        interior_edges=np.flatnonzero(~mesh.boundary_edges),
        interior_faces=np.flatnonzero(~mesh.boundary_faces),
    )


def gradient_matrix(mesh: PolyMesh) -> sps.csr_matrix:
    """G: nodal values -> edge DOFs of the gradient.

    Row e = (lo, hi): +1/|e| at hi, -1/|e| at lo; exact because nodal
    traces are linear along edges.
    """
    ne = mesh.n_edges
    rows = np.repeat(np.arange(ne), 2)
    cols = mesh.edges.ravel()
    inv_len = 1.0 / mesh.edge_lengths
    vals = np.stack([-inv_len, inv_len], axis=1).ravel()
    return sps.csr_matrix((vals, (rows, cols)), shape=(ne, mesh.n_vertices))


def curl_matrix(mesh: PolyMesh) -> sps.csr_matrix:
    """C: edge DOFs -> face DOFs of the curl (Stokes: circulation / area)."""
    rows = mesh.split.fan_faces                  # face of each loop edge, in loop order
    cols = np.concatenate(mesh.face_edges)
    vals = np.concatenate(mesh.face_edge_signs) * mesh.edge_lengths[cols] / mesh.face_areas[rows]
    return sps.csr_matrix((vals, (rows, cols)), shape=(mesh.n_faces, mesh.n_edges))


def divergence_matrix(mesh: PolyMesh) -> sps.csr_matrix:
    """D: face DOFs -> constant cell divergence (flux sum / volume)."""
    rows = mesh.cell_face_owners
    cols = np.concatenate(mesh.cell_faces)
    vals = np.concatenate(mesh.cell_face_signs) * mesh.face_areas[cols] / mesh.cell_volumes[rows]
    return sps.csr_matrix((vals, (rows, cols)), shape=(mesh.n_cells, mesh.n_faces))


def divergence_norm(mesh: PolyMesh, d: sps.csr_matrix, b_full: np.ndarray) -> float:
    """L2 norm of the cellwise constant divergence D b of a face function:
    sqrt(sum_K |K| (D b)_K^2), with ``d`` from ``divergence_matrix``."""
    div = d @ b_full
    return float(np.sqrt(mesh.cell_volumes @ div**2))


@dataclass(frozen=True)
class IncidenceOps:
    G: sps.csr_matrix
    C: sps.csr_matrix
    D: sps.csr_matrix


def build_incidence(mesh: PolyMesh) -> IncidenceOps:
    return IncidenceOps(gradient_matrix(mesh), curl_matrix(mesh), divergence_matrix(mesh))


def block_matrix(rows, cols, blocks: np.ndarray, shape) -> sps.csr_matrix:
    """Sparse sum of (a, b) blocks, ``blocks[j]`` at block row ``rows[j]``
    and block column ``cols[j]``."""
    _, a, b = blocks.shape
    r, c = np.broadcast_arrays(a * np.asarray(rows)[:, None, None] + np.arange(a)[:, None],
                               b * np.asarray(cols)[:, None, None] + np.arange(b))
    return sps.csr_matrix((blocks.ravel(), (r.ravel(), c.ravel())), shape=shape)


@dataclass(frozen=True)
class ElementProjectors:
    """Constant projectors of all faces and cells, built once per mesh.

    Rows 3i..3i+2 of each map take global DOFs to the mean vector on
    entity i; they reach only the edges or faces of that entity.
    """

    face_tangential: sps.csr_matrix   # (3 nf, ne): tangential mean per face
    edge_cell: sps.csr_matrix         # (3 nc, ne): mean of an edge function per cell
    face_cell: sps.csr_matrix         # (3 nc, nf): mean of a face function per cell


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
    faces = mesh.split.fan_faces                 # face of each loop edge, in loop order
    eids = np.concatenate(mesh.face_edges)
    arm = mesh.edge_midpoints[eids] - mesh.face_centroids[faces]
    tangential = (np.concatenate(mesh.face_edge_signs)[:, None] * mesh.edge_lengths[eids, None]
                  * np.cross(mesh.face_normals[faces], arm) / mesh.face_areas[faces, None])
    face_tangential = block_matrix(faces, eids, tangential[:, :, None], (3 * nf, ne))

    cells, fids = mesh.cell_face_owners, np.concatenate(mesh.cell_faces)
    signs = np.concatenate(mesh.cell_face_signs)
    r = mesh.face_centroids[fids] - mesh.cell_centroids[cells]
    n_out = signs[:, None] * mesh.face_normals[fids]
    combine = (np.einsum("ij,ij->i", n_out, r)[:, None, None] * np.eye(3)
               - n_out[:, :, None] * r[:, None, :])
    combine *= (mesh.face_areas[fids] / (2.0 * mesh.cell_volumes[cells]))[:, None, None]
    edge_cell = block_matrix(cells, fids, combine, (3 * nc, 3 * nf)) @ face_tangential

    face_mean = (signs * mesh.face_areas[fids])[:, None] * r / mesh.cell_volumes[cells, None]
    face_cell = block_matrix(cells, fids, face_mean[:, :, None], (3 * nc, nf))
    return ElementProjectors(face_tangential, edge_cell, face_cell)


def interpolate_edge(mesh: PolyMesh, field, degree: int = INTERP_EDGE_DEGREE) -> np.ndarray:
    """Edge DOFs of a vector field: mean tangential component per edge.

    Boundary edges are included; Dirichlet masking is the caller's job.
    ``field`` maps an (..., 3) point array to (..., 3) values.
    """
    xs, ws = segment_rule(degree)
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    pts = a[:, None, :] + xs[None, :, None] * (b - a)[:, None, :]
    vals = np.asarray(field(pts))
    tangential = np.einsum("eqc,ec->eq", vals, mesh.edge_tangents)
    return tangential @ ws


def interpolate_face(mesh: PolyMesh, field, degree: int = INTERP_FACE_DEGREE) -> np.ndarray:
    """Face DOFs of a vector field: mean normal flux per face."""
    out = np.empty(mesh.n_faces)
    for f in range(mesh.n_faces):
        rule = face_quadrature(mesh, f, degree)
        vals = np.asarray(field(rule.points))
        out[f] = (rule.weights @ (vals @ mesh.face_normals[f])) / mesh.face_areas[f]
    return out


def interpolate_node(mesh: PolyMesh, field) -> np.ndarray:
    """Node DOFs of a scalar field: vertex values."""
    return np.asarray(field(mesh.vertices), dtype=float)
