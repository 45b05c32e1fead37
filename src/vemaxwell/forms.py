"""Coefficient sampling and stabilized discrete inner products.

Each local product is the projected consistency term plus a DOF-based
stabilization acting on the constant-free residual:

    [u, v]_K = |K| (P u) . (P v) + eta * (J u)' S (J v),

where P maps local DOFs to the constant projection, J = I - (DOFs of the
projection) extracts the residual, and S is diagonal in the raw DOF basis
because the lowest-order traces are edgewise/facewise constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .derham import DeRhamDofs, ElementProjectors
from .mesh import PolyMesh

DEFAULT_ETA_EDGE = 0.01
DEFAULT_ETA_FACE = 0.5


@dataclass(frozen=True)
class StabWeights:
    """Stabilization coefficients; the defaults fix both at O(1) values
    found best in practice for this pairing of spaces."""

    eta_edge: float = DEFAULT_ETA_EDGE
    eta_face: float = DEFAULT_ETA_FACE

    def __post_init__(self):
        if self.eta_edge <= 0 or self.eta_face <= 0:
            raise ValueError("stabilization weights must be strictly positive")


@dataclass(frozen=True)
class CoefficientSet:
    """Analytic material coefficients plus their cell-centroid samples."""

    eps: object                 # callable (n, 3) -> (n,)
    sigma: object
    mu: object
    eps_hat: np.ndarray         # per-cell samples
    sigma_hat: np.ndarray
    mu_hat: np.ndarray


def _as_field(c):
    if callable(c):
        return c
    value = float(c)
    return lambda pts: np.full(np.asarray(pts).shape[:-1], value)


def sample_coefficients(mesh: PolyMesh, eps, sigma, mu) -> CoefficientSet:
    """Sample the three coefficients at cell centroids.

    Raises ValueError when the samples violate the well-posedness bounds
    (permittivity/permeability must stay strictly positive, conductivity
    nonnegative).
    """
    eps_f, sigma_f, mu_f = _as_field(eps), _as_field(sigma), _as_field(mu)
    centers = mesh.cell_centroids
    eps_hat = np.asarray(eps_f(centers), dtype=float)
    sigma_hat = np.asarray(sigma_f(centers), dtype=float)
    mu_hat = np.asarray(mu_f(centers), dtype=float)
    if np.any(eps_hat <= 0.0):
        raise ValueError("coefficient bound violation: nonpositive permittivity sample")
    if np.any(mu_hat <= 0.0):
        raise ValueError("coefficient bound violation: nonpositive permeability sample")
    if np.any(sigma_hat < 0.0):
        raise ValueError("coefficient bound violation: negative conductivity sample")
    return CoefficientSet(eps_f, sigma_f, mu_f, eps_hat, sigma_hat, mu_hat)


def stab_edge(mesh: PolyMesh, k: int) -> np.ndarray:
    """Edge-space stabilization on cell k, diagonal in the raw DOF basis.

    The double sum over faces then edges counts each edge once per
    containing face (twice on a closed polyhedron), and each edge
    integral of constant traces is |e| u_e v_e, so the diagonal entry is
    h_K^2 * m_e * |e|.
    """
    eids = mesh.cell_edges[k]
    pos = {e: j for j, e in enumerate(eids)}
    mult = np.zeros(eids.size)
    for f in mesh.cell_faces[k]:
        for e in mesh.face_edges[f]:
            mult[pos[e]] += 1.0
    return np.diag(mesh.cell_diameters[k] ** 2 * mult * mesh.edge_lengths[eids])


def stab_face(mesh: PolyMesh, k: int) -> np.ndarray:
    """Face-space stabilization on cell k: diagonal entries h_K * |F|."""
    fids = mesh.cell_faces[k]
    return np.diag(mesh.cell_diameters[k] * mesh.face_areas[fids])


@dataclass(frozen=True)
class LocalMass:
    """Symmetric positive definite local discrete L2 product."""

    matrix: np.ndarray
    kind: str       # which space, "edge" or "face"


def local_edge_mass(mesh: PolyMesh, k: int, projectors: ElementProjectors,
                    eta_edge: float = DEFAULT_ETA_EDGE) -> LocalMass:
    """Discrete L2 product on the edge DOFs of cell k."""
    p = projectors.edge_cell[k]
    eids = mesh.cell_edges[k]
    t = mesh.edge_tangents[eids]                   # DOFs of a constant field
    j = np.eye(eids.size) - t @ p
    s = stab_edge(mesh, k)
    m = mesh.cell_volumes[k] * (p.T @ p) + eta_edge * (j.T @ s @ j)
    return LocalMass(0.5 * (m + m.T), "edge")  # cancel BLAS rounding asymmetry


def local_face_mass(mesh: PolyMesh, k: int, projectors: ElementProjectors,
                    eta_face: float = DEFAULT_ETA_FACE) -> LocalMass:
    """Discrete L2 product on the face DOFs of cell k."""
    p = projectors.face_cell[k]
    fids = mesh.cell_faces[k]
    n = mesh.face_normals[fids]                    # DOFs of a constant field
    j = np.eye(fids.size) - n @ p
    s = stab_face(mesh, k)
    m = mesh.cell_volumes[k] * (p.T @ p) + eta_face * (j.T @ s @ j)
    return LocalMass(0.5 * (m + m.T), "face")


def assemble_global(mesh: PolyMesh, dofs: DeRhamDofs, cell_weights,
                    kind: str, projectors: ElementProjectors,
                    stab: StabWeights = StabWeights(),
                    restrict=True):
    """Sum the weighted local products into a global sparse matrix.

    ``cell_weights`` is a per-cell array (e.g. sampled permittivity, or
    reciprocal permeability for the face product), or a stack of them;
    a stack returns one matrix per row, all weighting the same single
    pass of local products.  With ``restrict`` (one flag, or one per
    row) the rows/columns of constrained boundary DOFs are eliminated;
    pass ``restrict=False`` for the no-boundary-condition matrix.

    Local matrices are symmetric entry-for-entry and triplets are emitted
    cell by cell, so the assembled matrix is exactly symmetric.
    """
    if kind not in ("edge", "face"):
        raise ValueError("kind must be 'edge' or 'face'")
    weights = np.asarray(cell_weights, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[-1] != mesh.n_cells:
        raise ValueError("one weight per cell expected")
    if kind == "edge":
        local, eta, gids = local_edge_mass, stab.eta_edge, mesh.cell_edges
        n, keep = dofs.n_edges, dofs.interior_edges
    else:
        local, eta, gids = local_face_mass, stab.eta_face, mesh.cell_faces
        n, keep = dofs.n_faces, dofs.interior_faces

    vals = np.concatenate([local(mesh, k, projectors, eta).matrix.ravel()
                           for k in range(mesh.n_cells)])
    rows = np.concatenate([np.repeat(g, g.size) for g in gids])
    cols = np.concatenate([np.tile(g, g.size) for g in gids])
    block_sizes = np.array([g.size**2 for g in gids])

    mats = []
    stack = np.atleast_2d(weights)
    for w, cut in zip(stack, np.broadcast_to(restrict, len(stack))):
        mat = sps.coo_matrix((vals * np.repeat(w, block_sizes), (rows, cols)),
                             shape=(n, n)).tocsr()
        if cut:
            mat = mat[keep][:, keep].tocsr()
        mat.sort_indices()
        mats.append(mat)
    return mats if weights.ndim == 2 else mats[0]
