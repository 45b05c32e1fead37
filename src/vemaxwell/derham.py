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

    Boundary masks implement E x n = 0 (edge DOFs), B . n = 0 (face DOFs)
    and zero vertex traces; constrained DOFs are eliminated, not
    penalized, so reduced systems stay symmetric positive definite.
    """

    n_nodes: int
    n_edges: int
    n_faces: int
    boundary_nodes: np.ndarray
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
        boundary_nodes=mesh.boundary_vertices.copy(),
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
    rows, cols, vals = [], [], []
    for f in range(mesh.n_faces):
        eids = mesh.face_edges[f]
        coeff = mesh.face_edge_signs[f] * mesh.edge_lengths[eids] / mesh.face_areas[f]
        rows.append(np.full(eids.size, f))
        cols.append(eids)
        vals.append(coeff)
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_faces, mesh.n_edges),
    )


def divergence_matrix(mesh: PolyMesh) -> sps.csr_matrix:
    """D: face DOFs -> constant cell divergence (flux sum / volume)."""
    rows, cols, vals = [], [], []
    for k in range(mesh.n_cells):
        fids = mesh.cell_faces[k]
        coeff = mesh.cell_face_signs[k] * mesh.face_areas[fids] / mesh.cell_volumes[k]
        rows.append(np.full(fids.size, k))
        cols.append(fids)
        vals.append(coeff)
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_cells, mesh.n_faces),
    )


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


def pi0_face_tangential(mesh: PolyMesh, f: int) -> np.ndarray:
    """Map the loop-ordered edge DOFs of face f to the mean tangential vector.

    For v with constant edge traces and constant in-plane rot,
        mean(v_t) = (1/|F|) sum_e sigma_{F,e} v_e |e| n_F x (m_e - b_F),
    obtained by testing against rotations of linear scalars with zero
    face mean; midpoints appear because those scalars are linear on
    straight edges.
    """
    eids = mesh.face_edges[f]
    sig = mesh.face_edge_signs[f]
    n = mesh.face_normals[f]
    arm = mesh.edge_midpoints[eids] - mesh.face_centroids[f]
    cols = sig[:, None] * mesh.edge_lengths[eids, None] * np.cross(n[None, :], arm)
    return cols.T / mesh.face_areas[f]


def pi0_edge_cell(mesh: PolyMesh, k: int, face_maps=None) -> np.ndarray:
    """Map cell-local edge DOFs (sorted edge ids) to the mean of v over K.

    Combines the per-face tangential means: with r_F = b_F - b_K and the
    outward normal n_out = sigma_{K,F} n_F,
        mean(v) = (1/(2|K|)) sum_F |F| [ (n_out . r_F) mean_F(v_t)
                                          - (r_F . mean_F(v_t)) n_out ].
    The normal traces drop out of the two boundary terms identically, and
    the interior curl moment vanishes by the cell moment constraint.
    """
    eids = mesh.cell_edges[k]
    pos = {e: j for j, e in enumerate(eids)}
    out = np.zeros((3, eids.size))
    b_k = mesh.cell_centroids[k]
    for f, s in zip(mesh.cell_faces[k], mesh.cell_face_signs[k]):
        pt = face_maps[f] if face_maps is not None else pi0_face_tangential(mesh, f)
        n_out = s * mesh.face_normals[f]
        r = mesh.face_centroids[f] - b_k
        d = float(n_out @ r)
        block = mesh.face_areas[f] * (d * pt - np.outer(n_out, r @ pt))
        loc = [pos[e] for e in mesh.face_edges[f]]
        np.add.at(out, (slice(None), loc), block)
    return out / (2.0 * mesh.cell_volumes[k])


def pi0_face_cell(mesh: PolyMesh, k: int) -> np.ndarray:
    """Map cell-local face DOFs (cell face order) to the mean of psi over K.

    Testing against gradients of linear scalars gives
        mean(psi) = (1/|K|) sum_F sigma_{K,F} psi_F |F| (b_F - b_K);
    the volume term vanishes because b_K is the volume centroid.
    """
    fids = mesh.cell_faces[k]
    arm = mesh.face_centroids[fids] - mesh.cell_centroids[k]
    cols = (mesh.cell_face_signs[k] * mesh.face_areas[fids])[:, None] * arm
    return cols.T / mesh.cell_volumes[k]


@dataclass(frozen=True)
class ElementProjectors:
    """Per-face and per-cell constant projectors, built once per mesh."""

    face_tangential: tuple   # per face: (3, len(face_edges))
    edge_cell: tuple         # per cell: (3, len(cell_edges))
    face_cell: tuple         # per cell: (3, len(cell_faces))


def build_projectors(mesh: PolyMesh) -> ElementProjectors:
    face_maps = [pi0_face_tangential(mesh, f) for f in range(mesh.n_faces)]
    edge_cell = [pi0_edge_cell(mesh, k, face_maps) for k in range(mesh.n_cells)]
    face_cell = [pi0_face_cell(mesh, k) for k in range(mesh.n_cells)]
    return ElementProjectors(tuple(face_maps), tuple(edge_cell), tuple(face_cell))


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
