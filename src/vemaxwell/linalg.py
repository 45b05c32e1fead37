"""Minimal sparse linear algebra: CSR storage, preconditioned CG, the
gradient-corrected (hybrid) preconditioner of curl-curl systems, and the
projection guess for successive right-hand sides (``SolutionSpace``).

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


# An increment whose part A-orthogonal to the space keeps less than this
# share of its A-norm lies in the space to working precision: appending
# it would add a direction made of round-off.
_DEPENDENT = np.sqrt(np.finfo(float).eps)

# Solutions a full space restarts from: the three that a quadratic
# extrapolation combines, so right after a restart the guess is still no
# farther from the solution in the A-norm than that extrapolation.
RESTART_SOLUTIONS = 3


@dataclass(frozen=True, eq=False)
class SolutionSpace:
    """An A-orthonormal basis V of earlier solutions of ``A x = b`` for
    one SPD matrix A, with W = A V: the projection method for successive
    right-hand sides (P. F. Fischer, CMAME 163, 1998).

    ``guess(b) = V V' b`` is the A-orthogonal projection of ``A^-1 b``
    onto span V, so in the A-norm it is at least as close to the solution
    as any vector of span V.  Each solve appends its
    increment over the guess, so V spans every solution since the last
    restart; a full space restarts from the ``recent`` solutions, newest
    first.  Rows ``:size`` of ``v`` and ``w`` hold V' and W'; the buffers
    have room for ``len(v)`` rows.  A space never changes once made:
    ``extended`` writes its new row into the shared buffers only where no
    space grown from this one holds that row already (``claimed[0]`` rows
    are held), and copies the buffers otherwise; a restart allocates
    fresh buffers.
    """

    v: np.ndarray          # (capacity, n), row-major
    w: np.ndarray          # A times the rows of v
    size: int
    claimed: list          # [rows of the shared buffers that some space holds]
    recent: tuple          # up to RESTART_SOLUTIONS solutions, newest first

    @classmethod
    def spanned_by(cls, a: SparseMatrix, solutions: tuple, capacity: int) -> "SolutionSpace":
        """The space of ``solutions`` (newest first; the first
        ``RESTART_SOLUTIONS`` are kept), with room for ``capacity``
        vectors; a zero solution, or one in the span of the others, adds
        none."""
        if capacity < RESTART_SOLUTIONS:
            raise ValueError(f"capacity must be at least {RESTART_SOLUTIONS}")
        solutions = tuple(solutions[:RESTART_SOLUTIONS])
        space = cls(np.empty((capacity, a.n)), np.empty((capacity, a.n)), 0, [0], solutions)
        for x in solutions:
            space = space._appended(a, x, solutions)
        return space

    def guess(self, b: np.ndarray) -> np.ndarray:
        """V V' b, the A-orthogonal projection of A^-1 b onto the space."""
        v = self.v[:self.size]
        return (v @ b) @ v

    def extended(self, a: SparseMatrix, x: np.ndarray, x0: np.ndarray) -> "SolutionSpace":
        """The space after a solve that went from ``x0 = guess(b)`` to
        ``x``: this one with the increment ``x - x0`` appended, or, when
        it is full, the space of ``x`` and the solutions before it."""
        recent = (x, *self.recent[:RESTART_SOLUTIONS - 1])
        if self.size == len(self.v):
            return SolutionSpace.spanned_by(a, recent, len(self.v))
        return self._appended(a, x - x0, recent)

    def _appended(self, a: SparseMatrix, d: np.ndarray, recent: tuple) -> "SolutionSpace":
        """This space with ``d`` A-orthogonalised against it by classical
        Gram-Schmidt, twice, normalised and appended, or with nothing
        appended where d lies in it; ``recent`` is the new space's.  A d
        is formed after the orthogonalisation, so a row of ``w`` is A
        times its row of ``v`` however much cancels."""
        v, w = self.v[:self.size], self.w[:self.size]
        in_space_sq = 0.0
        for _ in range(2):
            c = w @ d                   # V' A d
            d = d - c @ v
            in_space_sq += float(c @ c)
        ad = a.to_scipy() @ d
        dd = float(d @ ad)
        if not dd > _DEPENDENT**2 * (dd + in_space_sq):
            return SolutionSpace(self.v, self.w, self.size, self.claimed, recent)
        v_buf, w_buf, claimed = self.v, self.w, self.claimed
        if claimed[0] > self.size:
            v_buf, w_buf, claimed = self.v.copy(), self.w.copy(), [self.size]
        scale = 1.0 / np.sqrt(dd)
        v_buf[self.size] = scale * d
        w_buf[self.size] = scale * ad
        claimed[0] = self.size + 1
        return SolutionSpace(v_buf, w_buf, self.size + 1, claimed, recent)
