"""Coefficient sampling and stabilized discrete inner products.

Each local product is the projected consistency term plus a DOF-based
stabilization acting on the constant-free residual:

    [u, v]_K = |K| (P u) . (P v) + eta * (X u)' S (X v),

where P maps DOFs to the constant projection, X = I - (DOFs of the
projection) extracts the residual, and S is diagonal in the raw DOF basis
because the lowest-order traces are edgewise/facewise constant.  So each
product is a sum of squares: with the rows sqrt|K| P and sqrt(eta S) X of
all cells stacked in F, a global matrix weighted per cell is the Gram
matrix H' H of H = diag(sqrt w) F, symmetric bit for bit by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .derham import ElementProjectors, block_matrix
from .linalg import SparseMatrix, vstack
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
        if not (0 < self.eta_edge < np.inf and 0 < self.eta_face < np.inf):
            raise ValueError("stabilization weights must be strictly positive and finite")


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Material coefficients sampled at the cell centroids."""

    eps_hat: np.ndarray         # per-cell samples
    sigma_hat: np.ndarray
    mu_hat: np.ndarray


def sample_coefficients(mesh: PolyMesh, eps, sigma, mu) -> CoefficientSet:
    """Sample the three coefficients at cell centroids, one value per cell.

    Each is a constant or a callable of an (..., 3) point array; a sample
    of either is broadcast to the cells.  Raises ValueError when the
    samples violate the well-posedness bounds (all finite,
    permittivity/permeability strictly positive, conductivity
    nonnegative).
    """
    eps_hat, sigma_hat, mu_hat = (
        np.broadcast_to(np.asarray(c(mesh.cell_centroids) if callable(c) else c, dtype=float),
                        (mesh.n_cells,))
        for c in (eps, sigma, mu))
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
    return CoefficientSet(eps_hat, sigma_hat, mu_hat)


class LocalFactors(NamedTuple):
    """Every cell's local product as one stacked sparse factor: cell k's is
    the sum of f[r]' f[r] over the rows r with cells[r] == k: its projector
    rows sqrt|K| P, then one row sqrt(eta S) X, X = R - N P, per DOF."""

    f: SparseMatrix          # (3 nc + pairs, n)
    cells: np.ndarray        # (3 nc + pairs,) cell of each row
    n_cells: int

    def weighted(self, cell_weights) -> np.ndarray:
        """Each row's weight in the product weighted by ``cell_weights``."""
        w = np.asarray(cell_weights, dtype=float)
        if w.shape != (self.n_cells,):
            raise ValueError("one weight per cell expected")
        return w[self.cells]


def _pattern(rows, cols, shape) -> SparseMatrix:
    """Sparse matrix with a one at each (rows[j], cols[j])."""
    return SparseMatrix.from_coo(rows, cols, np.ones(len(rows)), shape)


def _sqrt_scaled(f: SparseMatrix, weights: np.ndarray) -> SparseMatrix:
    """diag(sqrt(weights)) f: f's data scaled row by row, its index arrays
    shared."""
    return SparseMatrix(f.indptr, f.indices,
                        f.data * np.repeat(np.sqrt(weights), np.diff(f.indptr)), f.shape)


def _local_factors(mesh, p, cells, ids, directions, stab) -> LocalFactors:
    """Factors for the (cell, DOF) pairs ``cells``/``ids``, X rows weighted
    ``stab``: R selects the DOF, N reads the constant c as ``directions . c``."""
    nc, pairs = mesh.n_cells, np.arange(cells.size)
    select = _pattern(pairs, ids, (pairs.size, p.shape[1]))
    dofs_of_mean = block_matrix(pairs, cells, directions[:, None, :], (pairs.size, p.shape[0]))
    f = vstack([p, select - dofs_of_mean @ p])
    return LocalFactors(_sqrt_scaled(f, np.concatenate([np.repeat(mesh.cell_volumes, 3), stab])),
                        np.concatenate([np.repeat(np.arange(nc), 3), cells]), nc)


def local_edge_mass(mesh: PolyMesh, projectors: ElementProjectors,
                    stab: StabWeights = StabWeights()) -> LocalFactors:
    """Factors of the local edge products of all cells.

    The stabilization sums over the faces of K, then over their edges, so
    it counts each edge m_e times (twice on a closed polyhedron), m_e the
    (cell, edge) entry of |cell-face| |face-edge|; each edge integral of
    constant traces is |e| u_e v_e, so the diagonal entry is h_K^2 m_e |e|.
    """
    nc, nf, ne = mesh.n_cells, mesh.n_faces, mesh.n_edges
    mult = (_pattern(mesh.cell_faces.owners, mesh.cell_faces.flat, (nc, nf))
            @ _pattern(mesh.face_edges.owners, mesh.face_edges.flat, (nf, ne)))
    cells, eids = np.repeat(np.arange(nc), np.diff(mult.indptr)), mult.indices
    s = mesh.cell_diameters[cells] ** 2 * mult.data * mesh.edge_lengths[eids]
    return _local_factors(mesh, projectors.edge_cell, cells, eids,
                          mesh.edge_tangents[eids], stab.eta_edge * s)


def local_face_mass(mesh: PolyMesh, projectors: ElementProjectors,
                    stab: StabWeights = StabWeights()) -> LocalFactors:
    """Factors of the local face products of all cells; the stabilization
    diagonal is h_K |F|."""
    cells, fids = mesh.cell_faces.owners, mesh.cell_faces.flat
    s = mesh.cell_diameters[cells] * mesh.face_areas[fids]
    return _local_factors(mesh, projectors.face_cell, cells, fids,
                          mesh.face_normals[fids], stab.eta_face * s)


def assemble_global(f: SparseMatrix, weights: np.ndarray) -> SparseMatrix:
    """The weighted product f' diag(weights) f of a stacked factor, formed
    as the Gram matrix h' h of h = diag(sqrt(weights)) f: CSR with sorted
    indices, symmetric bit for bit.  ValueError unless there is one finite,
    nonnegative weight per row of f."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (f.shape[0],) or not (np.isfinite(w) & (w >= 0.0)).all():
        raise ValueError("one finite, nonnegative weight per factor row expected")
    h = _sqrt_scaled(f, w)
    return (h.T @ h).T          # h' rows times h; the transpose sorts the indices
