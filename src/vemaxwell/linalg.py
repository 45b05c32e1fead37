"""Minimal sparse linear algebra: CSR storage, preconditioned CG, the
gradient-corrected (hybrid) preconditioner of curl-curl systems, and the
projection guess for successive right-hand sides (``SolutionSpace``, one
mutable accumulator that its owner, such as a run's step loop, grows by
each solve).

Storage and products are backed by scipy's CSR kernels; the CG driver is
written out so the iterate sequence is deterministic and the reported
residual is always recomputed from b - Ax, never the recurrence value.
CG preconditions with Jacobi (``r / diag A``, elementwise) unless it is
given a CSR preconditioner matrix, such as the one
``hybrid_preconditioner`` builds, which it applies through ``matvec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sps
from scipy.sparse import _sparsetools


# The normal float range, [tiny, max], that CG's squared norms must lie in.
_NORMAL = np.finfo(float)


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

    @cached_property
    def inverse_diagonal(self) -> np.ndarray:
        """1 / diagonal, the Jacobi preconditioner; IndefiniteMatrixError
        where an entry is not positive."""
        if not (self.diagonal > 0.0).all():
            raise IndefiniteMatrixError("nonpositive diagonal entry")
        return 1.0 / self.diagonal


def matvec(a: sps.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a float64 CSR matrix and a float vector, bit for bit:
    scipy's CSR kernel called without the type dispatch of ``@``, which
    costs about 2 us a product, a fifth of a product with the step matrix
    of cube:6.  Looked up on its module at each call, as ``@`` does.  The
    kernel reads x unchecked, so its length is checked here."""
    if np.shape(x) != (a.shape[1],):
        raise ValueError(f"dimension mismatch: {a.shape} matrix, {np.shape(x)} vector")
    y = np.zeros(a.shape[0])
    _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, x, y)
    return y


@dataclass
class SolveReport:
    iterations: int
    residual: float       # |b - Ax| / |b|, recomputed after convergence


def hybrid_preconditioner(inv_diag_a: np.ndarray, g: sps.csr_matrix,
                          diag_l: np.ndarray) -> sps.csr_matrix:
    """P = diag(inv_diag_a) + H H', H = G D_L^-1/2, as one CSR matrix.

    Hiptmair's hybrid smoother for curl-curl systems (SIAM J. Numer. Anal.
    36, 1999): the kernel of the curl-curl term is the range of the
    discrete gradient ``g``, where Jacobi on A (``inv_diag_a`` = 1 / diag
    A) converges slowly; the second term adds a Jacobi sweep on A
    restricted to that range, with ``diag_l`` the diagonal of L = G' A G.
    No matrix A is taken: the caller forms diag L from whatever gives it
    without cancellation.  H H' is formed as the Gram matrix of H', so P
    is symmetric bit for bit.  P is SPD when every entry of
    ``inv_diag_a`` and of ``diag_l`` is positive; ValueError where
    ``diag_l`` is not (a zero column of G, or A is not SPD).
    """
    if not (diag_l > 0.0).all():
        raise ValueError("G' A G has a nonpositive diagonal entry: "
                         "a zero column of G, or A is not SPD")
    h_t = sps.diags(1.0 / np.sqrt(diag_l)) @ g.T
    return (sps.diags(inv_diag_a) + h_t.T @ h_t).tocsr()


def cg_solve(a: SparseMatrix, b: np.ndarray, tol: float = 1e-12,
             maxiter: int | None = None, x0: np.ndarray | None = None,
             precond=None, a_x0: np.ndarray | None = None):
    """Preconditioned conjugate gradients for an SPD system.

    CG starts from x = ``x0`` (0 when it is not given) and r = b - A x0,
    where ``a_x0``, when given with ``x0``, stands for A x0, so the first
    residual costs no product; a wrong one costs iterations, never the
    result.  Each pass first checks r.r <= (tol |b|)^2 and confirms it on
    the true residual b - A x, by a product with x: it returns x there,
    or goes on from the true residual where the recurrence drifted.  Only
    then does it precondition, z = r / diag(a) elementwise, or z =
    precond r when ``precond`` (an SPD n x n scipy CSR matrix) is given,
    and take one CG step.  So the reported residual |b - Ax| / |b| is
    always formed from the returned x, also after 0 iterations.  Where
    |b|^2 or (tol |b|)^2 is not a normal float, b, ``x0`` and ``a_x0`` are
    scaled by the power of two that brings the largest entry of b into
    [0.5, 1), which scales every iterate exactly, and x is scaled back.
    Returns (x, SolveReport).  Raises ValueError on a non-finite or
    misshapen ``b``, ``x0`` or ``a_x0`` and on a ``precond`` that is
    misshapen or not CSR; IndefiniteMatrixError on a nonpositive diagonal
    entry, when a search direction has nonpositive curvature (an assembly
    bug upstream) or r'z <= 0 (a preconditioner that is not positive
    definite); NonConvergenceError when maxiter is exhausted.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    b = _checked(b, a.n, "right-hand side")
    if x0 is not None:
        x0 = _checked(x0, a.n, "initial guess")
    if a_x0 is not None:
        if x0 is None:
            raise ValueError("a_x0 needs the initial guess x0")
        a_x0 = _checked(a_x0, a.n, "product of the initial guess")
    if precond is not None and not (sps.issparse(precond) and precond.format == "csr"
                                    and precond.shape == (a.n, a.n)):
        raise ValueError("dimension mismatch between matrix and preconditioner "
                         "(an n x n CSR matrix)")
    if maxiter is None:
        maxiter = max(100, 10 * a.n)

    csr = a.to_scipy()
    bb = float(np.vdot(b, b))      # b @ b bit for bit, with no overflow warning
    stop = tol * tol * bb
    if not _NORMAL.tiny <= stop <= _NORMAL.max:
        shift = int(np.frexp(np.abs(b).max(initial=0.0))[1])
        if shift:
            def scaled(v):
                return None if v is None else np.ldexp(v, -shift)
            x, report = cg_solve(a, scaled(b), tol, maxiter, scaled(x0), precond,
                                 scaled(a_x0))
            return np.ldexp(x, shift), report
        if bb == 0.0:
            return np.zeros(a.n), SolveReport(0, 0.0)
    bnorm = math.sqrt(bb)
    inv_diag = a.inverse_diagonal

    x = np.zeros(a.n) if x0 is None else x0.copy()
    r = b - (a_x0 if a_x0 is not None else 0.0 if x0 is None else matvec(csr, x))
    p = rz = None
    for iterations in range(maxiter + 1):
        if float(r @ r) <= stop:
            r = b - matvec(csr, x)
            rr = float(r @ r)
            if rr <= stop:
                return x, SolveReport(iterations, math.sqrt(rr) / bnorm)
            # the recurrence drifted: go on from the true residual
        if iterations == maxiter:
            break
        z = inv_diag * r if precond is None else matvec(precond, r)     # a fresh array
        rz_old, rz = rz, float(r @ z)
        if rz <= 0.0:
            raise IndefiniteMatrixError(
                f"r'z = {rz:.3e} before iteration {iterations + 1}: "
                "the preconditioner is not positive definite")
        if p is None:
            p = z
        else:
            p *= rz / rz_old
            p += z
        ap = matvec(csr, p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteMatrixError(f"p'Ap = {pap:.3e} at iteration {iterations + 1}")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
    raise NonConvergenceError(
        f"CG did not reach tol={tol:.1e} in {maxiter} iterations "
        f"(residual {np.linalg.norm(b - matvec(csr, x)) / bnorm:.3e})"
    )


def _checked(v, n: int, what: str) -> np.ndarray:
    """``v`` as a float vector of length n; ValueError unless it is one and
    every entry is finite."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"dimension mismatch between matrix and {what}")
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite entry in the {what}")
    return v


# An increment whose part A-orthogonal to the space keeps less than this
# share of its A-norm lies in the space to working precision: appending
# it would add a direction made of round-off.
_DEPENDENT = np.sqrt(np.finfo(float).eps)

# The fewest latest solutions a restart keeps: the three that a quadratic
# extrapolation combines, so right after a restart the guess is still no
# farther from the solution in the A-norm than that extrapolation.
RESTART_SOLUTIONS = 3


class Guess(NamedTuple):
    """The projection guess ``x = V V' b`` for a right-hand side b."""

    x: np.ndarray
    a_x: np.ndarray        # A x = W V' b, with no sparse product
    coef: np.ndarray       # V' b, the coordinates of x in the basis


@dataclass(eq=False)
class SolutionSpace:
    """An A-orthonormal basis V of earlier solutions of ``A x = b`` for
    one SPD matrix A, with W = A V: the projection method for successive
    right-hand sides (P. F. Fischer, CMAME 163, 1998).

    ``guess(b)`` gives ``V V' b``, the A-orthogonal projection of
    ``A^-1 b`` onto span V, so in the A-norm it is at least as close to
    the solution as any vector of span V.  ``extend`` appends each
    solve's increment over the guess, so V spans every solution since the
    last restart.  A full space restarts by compression: it becomes the
    span of the ``kept`` latest solutions, the new one appended last.
    Since V is A-orthonormal, A-inner products of vectors of span V are
    Euclidean products of their coordinates in V, so the space carries
    the coordinates of its latest solutions (``recent``, newest first)
    and orthonormalises them in coefficient space, with no sparse product
    and no n-vector Gram-Schmidt.

    Rows ``:size`` of ``v`` and ``w`` hold V' and W'; the buffers have
    room for ``len(v)`` rows, and a restart fills fresh ones.  The space
    is one accumulator, grown in place by the solves it guesses for.
    """

    v: np.ndarray          # (capacity, n), row-major
    w: np.ndarray          # A times the rows of v
    size: int
    recent: tuple          # coordinates in V of the latest solutions, newest first

    @property
    def kept(self) -> int:
        """The latest solutions, the new one included, that a restart
        keeps: half the capacity, and at least ``RESTART_SOLUTIONS``."""
        return max(RESTART_SOLUTIONS, len(self.v) // 2)

    @classmethod
    def spanned_by(cls, a: SparseMatrix, x: np.ndarray, capacity: int) -> "SolutionSpace":
        """The span of the solution ``x``, with room for ``capacity``
        vectors; a zero x spans the empty space."""
        if capacity < RESTART_SOLUTIONS:
            raise ValueError(f"capacity must be at least {RESTART_SOLUTIONS}")
        space = cls(np.empty((capacity, a.n)), np.empty((capacity, a.n)), 0, ())
        space._append(a, x, np.zeros(0))
        return space

    def guess(self, b: np.ndarray) -> Guess:
        """V V' b, the A-orthogonal projection of A^-1 b onto the space."""
        v = self.v[:self.size]
        coef = v @ b
        return Guess(coef @ v, coef @ self.w[:self.size], coef)

    def extend(self, a: SparseMatrix, x: np.ndarray, guess: Guess) -> None:
        """Take in a solve that went from ``guess`` to ``x``: append the
        increment, or, when the space is full, first compress it to the
        span of its latest solutions and append ``x`` to that."""
        if self.size < len(self.v):
            return self._append(a, x - guess.x, guess.coef)
        coef = self._compress(guess.coef)
        self._append(a, x - coef @ self.v[:self.size], coef)

    def _compress(self, coef: np.ndarray) -> np.ndarray:
        """Make this the span of the latest solutions; returns ``coef``
        projected onto it.

        With Y = Q R the Householder QR of the solutions' coordinates, newest
        first in the columns of Y, the rows of Q' are orthonormal however
        nearly parallel the solutions are, so V <- Q' V and W <- Q' W keep
        V' A V = I and W = A V, and column j of R holds the coordinates
        of solution j in the new basis.  Q' V is formed as one
        matrix-vector product per row: the first matrix-matrix product of
        a process adds about 0.25 MB to its resident memory.
        """
        y = np.zeros((self.size, len(self.recent)))
        for j, c in enumerate(self.recent):
            y[:c.size, j] = c
        q, r = np.linalg.qr(y)
        k = q.shape[1]
        v, w = np.empty_like(self.v), np.empty_like(self.w)
        rows = q.T[:, None, :]
        np.matmul(rows, self.v[:self.size], out=v[:k, None, :])
        np.matmul(rows, self.w[:self.size], out=w[:k, None, :])
        self.v, self.w, self.size, self.recent = v, w, k, tuple(r.T)
        return coef @ q

    def _append(self, a: SparseMatrix, d: np.ndarray, coef: np.ndarray) -> None:
        """Take in the solution ``x = V' coef + d``: append d, A-orthogonalised
        against the space and normalised, unless it lies in the space, and
        put x's coordinates in ``recent``.  Classical Gram-Schmidt takes a
        second pass only where the first cancelled more than it left (the
        DGKS criterion, with A-norms), and A d is formed after the first
        pass and updated through W, so a row of ``w`` is A times its row of
        ``v`` however much cancels."""
        v, w = self.v[:self.size], self.w[:self.size]
        c = w @ d                       # V' A d
        d = d - c @ v
        ad = matvec(a.to_scipy(), d)
        dd = float(d @ ad)
        in_space_sq = float(c @ c)
        if in_space_sq > dd:
            c2 = w @ d
            d -= c2 @ v
            ad -= c2 @ w
            c += c2
            dd = float(d @ ad)
            in_space_sq += float(c2 @ c2)
        coef = coef + c
        if dd > _DEPENDENT**2 * (dd + in_space_sq):
            norm = math.sqrt(dd)
            self.v[self.size] = d / norm
            self.w[self.size] = ad / norm
            self.size += 1
            coef = np.concatenate((coef, (norm,)))
        self.recent = (coef, *self.recent)[:self.kept - 1]
