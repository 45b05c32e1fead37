"""Coefficient sampling and stabilized discrete inner products.

Each local product is the projected consistency term plus a DOF-based
stabilization acting on the constant-free residual:

    [u, v]_K = |K| (P u) . (P v) + eta * (X u)' S (X v),

where P maps DOFs to the constant projection, X = I - (DOFs of the
projection) extracts the residual, and S is diagonal in the raw DOF basis
because the lowest-order traces are edgewise/facewise constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sps

from .derham import DeRhamDofs, ElementProjectors, block_matrix
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
    (all finite, permittivity/permeability strictly positive, conductivity
    nonnegative).
    """
    eps_f, sigma_f, mu_f = _as_field(eps), _as_field(sigma), _as_field(mu)
    centers = mesh.cell_centroids
    eps_hat = np.asarray(eps_f(centers), dtype=float)
    sigma_hat = np.asarray(sigma_f(centers), dtype=float)
    mu_hat = np.asarray(mu_f(centers), dtype=float)
    for name, hat in (("permittivity", eps_hat), ("conductivity", sigma_hat),
                      ("permeability", mu_hat)):
        if not np.isfinite(hat).all():
            raise ValueError(f"coefficient bound violation: non-finite {name} sample")
    if np.any(eps_hat <= 0.0):
        raise ValueError("coefficient bound violation: nonpositive permittivity sample")
    if np.any(mu_hat <= 0.0):
        raise ValueError("coefficient bound violation: nonpositive permeability sample")
    if np.any(sigma_hat < 0.0):
        raise ValueError("coefficient bound violation: negative conductivity sample")
    return CoefficientSet(eps_f, sigma_f, mu_f, eps_hat, sigma_hat, mu_hat)


class LocalFactors(NamedTuple):
    """Every cell's local product as stacked sparse factors: cell k's is
    |K| P_k' P_k + eta X_k' S_k X_k, with P_k rows 3k..3k+2 of ``p`` and
    X_k, S_k the rows of ``x`` and ``stab`` whose ``cells`` entry is k."""

    p: sps.csr_matrix        # (3 nc, n) cell means, from ElementProjectors
    x: sps.csr_matrix        # (pairs, n) X = R - N P, one row per (cell, DOF) pair
    stab: np.ndarray         # (pairs,) diagonal of S
    cells: np.ndarray        # (pairs,) cell of each pair


def _pattern(rows, cols, shape) -> sps.csr_matrix:
    """Sparse matrix with a one at each (rows[j], cols[j])."""
    return sps.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)


def _local_factors(p, cells, ids, directions, stab) -> LocalFactors:
    """Factors for the (cell, DOF) pairs ``cells``/``ids``: R selects the
    DOF, and N reads the constant field c as ``directions . c``."""
    pairs = np.arange(cells.size)
    select = _pattern(pairs, ids, (pairs.size, p.shape[1]))
    dofs_of_mean = block_matrix(pairs, cells, directions[:, None, :], (pairs.size, p.shape[0]))
    return LocalFactors(p, select - dofs_of_mean @ p, stab, cells)


def local_edge_mass(mesh: PolyMesh, projectors: ElementProjectors) -> LocalFactors:
    """Factors of the local edge products of all cells.

    The stabilization sums over the faces of K, then over their edges, so
    it counts each edge m_e times (twice on a closed polyhedron), m_e the
    (cell, edge) entry of |cell-face| |face-edge|; each edge integral of
    constant traces is |e| u_e v_e, so the diagonal entry is h_K^2 m_e |e|.
    """
    nc, nf, ne = mesh.n_cells, mesh.n_faces, mesh.n_edges
    mult = (_pattern(mesh.cell_face_owners, np.concatenate(mesh.cell_faces), (nc, nf))
            @ _pattern(mesh.split.fan_faces, np.concatenate(mesh.face_edges), (nf, ne))).tocoo()
    stab = mesh.cell_diameters[mult.row] ** 2 * mult.data * mesh.edge_lengths[mult.col]
    return _local_factors(projectors.edge_cell, mult.row, mult.col,
                          mesh.edge_tangents[mult.col], stab)


def local_face_mass(mesh: PolyMesh, projectors: ElementProjectors) -> LocalFactors:
    """Factors of the local face products of all cells; the stabilization
    diagonal is h_K |F|."""
    cells = mesh.cell_face_owners
    fids = np.concatenate(mesh.cell_faces)
    stab = mesh.cell_diameters[cells] * mesh.face_areas[fids]
    return _local_factors(projectors.face_cell, cells, fids, mesh.face_normals[fids], stab)


def assemble_global(mesh: PolyMesh, dofs: DeRhamDofs, cell_weights,
                    kind: str, projectors: ElementProjectors,
                    stab: StabWeights = StabWeights(),
                    restrict=True):
    """Sum the weighted local products into a global sparse matrix.

    ``cell_weights`` is a per-cell array (e.g. sampled permittivity, or
    reciprocal permeability for the face product), or a stack of them;
    a stack returns one matrix per row, all weighting the same single
    pass of local factors.  With ``restrict`` (one flag, or one per row)
    the rows/columns of constrained boundary DOFs are eliminated; pass
    ``restrict=False`` for the no-boundary-condition matrix.

    Each matrix is P' diag(w |K|) P + eta X' diag(w S) X, then averaged
    with its transpose, so it is exactly symmetric.
    """
    if kind not in ("edge", "face"):
        raise ValueError("kind must be 'edge' or 'face'")
    weights = np.asarray(cell_weights, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[-1] != mesh.n_cells:
        raise ValueError("one weight per cell expected")
    if kind == "edge":
        local, eta, keep = local_edge_mass, stab.eta_edge, dofs.interior_edges
    else:
        local, eta, keep = local_face_mass, stab.eta_face, dofs.interior_faces

    p, x, s, cells = local(mesh, projectors)
    p_t, x_t = p.T.tocsr(), x.T.tocsr()
    mats = []
    stack = np.atleast_2d(weights)
    for w, cut in zip(stack, np.broadcast_to(restrict, len(stack))):
        mat = (p_t @ (sps.diags(np.repeat(w * mesh.cell_volumes, 3)) @ p)
               + eta * (x_t @ (sps.diags(w[cells] * s) @ x)))
        mat = (0.5 * (mat + mat.T)).tocsr()
        if cut:
            mat = mat[keep][:, keep]
        mat.sort_indices()
        mats.append(mat)
    return mats if weights.ndim == 2 else mats[0]
