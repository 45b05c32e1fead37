"""Minimal sparse linear algebra: CSR storage, preconditioned CG and the
gradient-corrected (hybrid) preconditioner of curl-curl systems.

Storage and products are backed by scipy's CSR kernels; the CG driver is
written out so the iterate sequence is deterministic and the reported
residual is always recomputed from b - Ax, never the recurrence value.
CG preconditions with Jacobi (``r / diag A``, elementwise) unless it is
given a preconditioner matrix, such as the one ``hybrid_preconditioner``
builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sps


class NonConvergenceError(RuntimeError):
    """CG failed to reach the requested tolerance within maxiter."""


class IndefiniteMatrixError(RuntimeError):
    """p' A p <= 0 or r' z <= 0 encountered: the matrix or the
    preconditioner is not positive definite."""


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Square CSR matrix (row offsets, sorted column indices, values).

    The scipy CSR view and the diagonal are built on first use and kept,
    so repeated solves with one matrix rebuild neither."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n: int

    @classmethod
    def from_scipy(cls, a) -> "SparseMatrix":
        a = sps.csr_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("square matrix expected")
        a.sort_indices()
        a.sum_duplicates()
        return cls(a.indptr, a.indices, a.data, a.shape[0])

    @cached_property
    def _csr(self) -> sps.csr_matrix:
        return sps.csr_matrix((self.data, self.indices, self.indptr),
                              shape=(self.n, self.n))

    def to_scipy(self) -> sps.csr_matrix:
        return self._csr

    @cached_property
    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()


@dataclass
class SolveReport:
    iterations: int
    residual: float       # |b - Ax| / |b|, recomputed after convergence


def hybrid_preconditioner(a: sps.csr_matrix, g: sps.csr_matrix) -> sps.csr_matrix:
    """P = D_A^-1 + G D_L^-1 G', L = G' A G, as one symmetric CSR matrix.

    Hiptmair's hybrid smoother for curl-curl systems (SIAM J. Numer. Anal.
    36, 1999): the kernel of the curl-curl term is the range of the
    discrete gradient ``g``, where Jacobi on A converges slowly; the
    second term adds a Jacobi sweep on A restricted to that range.  Only
    the diagonal of L is formed.  P is SPD when A is and no column of
    ``g`` is zero, so that diag L is positive; ValueError otherwise.
    """
    d_l = np.asarray(g.multiply(a @ g).sum(axis=0)).ravel()
    if not (d_l > 0.0).all():
        raise ValueError("G' A G has a nonpositive diagonal entry: "
                         "a zero column of G, or A is not SPD")
    p = (sps.diags(1.0 / a.diagonal()) + g @ sps.diags(1.0 / d_l) @ g.T).tocsr()
    return (0.5 * (p + p.T)).tocsr()                # exact symmetry


def cg_solve(a: SparseMatrix, b: np.ndarray, tol: float = 1e-12,
             maxiter: int | None = None, x0: np.ndarray | None = None,
             precond=None):
    """Preconditioned conjugate gradients for an SPD system.

    Each iteration forms z = r / diag(a), elementwise, or z = precond @ r
    when ``precond`` (an SPD n x n matrix) is given.  Returns
    (x, SolveReport).  An initial guess ``x0`` that already meets ``tol``
    is returned after 0 iterations with its true residual.  Raises
    ValueError on a non-finite or misshapen ``b`` or ``x0`` and on a
    misshapen ``precond``; IndefiniteMatrixError when a search direction
    has nonpositive curvature (an assembly bug upstream) or r'z <= 0 (a
    preconditioner that is not positive definite); NonConvergenceError
    when maxiter is exhausted.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    b = np.asarray(b, dtype=float)
    if b.shape != (a.n,):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    if not np.isfinite(b).all():
        raise ValueError("non-finite entry in the right-hand side")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (a.n,):
            raise ValueError("dimension mismatch between matrix and initial guess")
        if not np.isfinite(x0).all():
            raise ValueError("non-finite entry in the initial guess")
    if precond is not None and np.shape(precond) != (a.n, a.n):
        raise ValueError("dimension mismatch between matrix and preconditioner")
    if maxiter is None:
        maxiter = max(100, 10 * a.n)

    csr = a.to_scipy()
    bnorm = float(np.sqrt(b @ b))
    if bnorm == 0.0:
        return np.zeros(a.n), SolveReport(0, 0.0)

    diag = a.diagonal
    if np.any(diag <= 0.0):
        raise IndefiniteMatrixError("nonpositive diagonal entry")
    if precond is None:
        inv_diag = 1.0 / diag

        def preconditioned(r):
            return inv_diag * r
    else:
        def preconditioned(r):
            return precond @ r

    x = np.zeros(a.n) if x0 is None else x0.copy()
    r = b - csr @ x
    rnorm = float(np.sqrt(r @ r))
    if rnorm <= tol * bnorm:        # r is the true residual of the guess
        return x, SolveReport(0, rnorm / bnorm)
    z = preconditioned(r)
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    for iterations in range(1, maxiter + 1):
        if rz <= 0.0:
            raise IndefiniteMatrixError(
                f"r'z = {rz:.3e} before iteration {iterations}: "
                "the preconditioner is not positive definite")
        ap = csr @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteMatrixError(f"p'Ap = {pap:.3e} at iteration {iterations}")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.sqrt(r @ r) <= tol * bnorm:
            true_res = float(np.linalg.norm(b - csr @ x))
            if true_res <= tol * bnorm:
                return x, SolveReport(iterations, true_res / bnorm)
            r = b - csr @ x  # recurrence drifted; restart from the true residual
        z = preconditioned(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach tol={tol:.1e} in {maxiter} iterations "
        f"(residual {float(np.linalg.norm(b - csr @ x)) / bnorm:.3e})"
    )
