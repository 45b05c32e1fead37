"""Minimal sparse linear algebra: CSR storage and Jacobi-preconditioned CG.

Storage and products are backed by scipy's CSR kernels; the CG driver is
written out so the iterate sequence is deterministic and the reported
residual is always recomputed from b - Ax, never the recurrence value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps


class NonConvergenceError(RuntimeError):
    """CG failed to reach the requested tolerance within maxiter."""


class IndefiniteMatrixError(RuntimeError):
    """p' A p <= 0 encountered: the matrix is not positive definite."""


@dataclass(frozen=True)
class SparseMatrix:
    """Square CSR matrix (row offsets, sorted column indices, values)."""

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

    def to_scipy(self):
        return sps.csr_matrix((self.data, self.indices, self.indptr),
                              shape=(self.n, self.n))


@dataclass
class SolveReport:
    iterations: int
    residual: float       # |b - Ax| / |b|, recomputed after convergence
    wall_time: float


def cg_solve(a: SparseMatrix, b: np.ndarray, tol: float = 1e-12,
             maxiter: int | None = None, x0: np.ndarray | None = None):
    """Jacobi-preconditioned conjugate gradients for an SPD system.

    Returns (x, SolveReport).  Raises ValueError on a non-finite ``b`` or
    ``x0``, IndefiniteMatrixError when a search direction has nonpositive
    curvature (an assembly bug upstream) and NonConvergenceError when
    maxiter is exhausted.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    b = np.asarray(b, dtype=float)
    if b.shape != (a.n,):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    if not np.isfinite(b).all():
        raise ValueError("non-finite entry in the right-hand side")
    if x0 is not None and not np.isfinite(x0).all():
        raise ValueError("non-finite entry in the initial guess")
    if maxiter is None:
        maxiter = max(100, 10 * a.n)

    t0 = time.perf_counter()
    csr = a.to_scipy()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(a.n), SolveReport(0, 0.0, time.perf_counter() - t0)

    diag = csr.diagonal()
    if np.any(diag <= 0.0):
        raise IndefiniteMatrixError("nonpositive diagonal entry")
    inv_diag = 1.0 / diag

    x = np.zeros(a.n) if x0 is None else np.array(x0, dtype=float)
    r = b - csr @ x
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    for iterations in range(1, maxiter + 1):
        ap = csr @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteMatrixError(f"p'Ap = {pap:.3e} at iteration {iterations}")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bnorm:
            true_res = float(np.linalg.norm(b - csr @ x))
            if true_res <= tol * bnorm:
                return x, SolveReport(iterations, true_res / bnorm,
                                      time.perf_counter() - t0)
            r = b - csr @ x  # recurrence drifted; restart from the true residual
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach tol={tol:.1e} in {maxiter} iterations "
        f"(residual {float(np.linalg.norm(b - csr @ x)) / bnorm:.3e})"
    )
