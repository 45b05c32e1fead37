"""Minimal sparse linear algebra: one CSR matrix type, preconditioned CG,
the gradient-corrected (hybrid) preconditioner of curl-curl systems, and
the projection guess for successive right-hand sides (``SolutionSpace``,
one mutable accumulator that its owner, such as a run's step loop, grows
by each solve).

``SparseMatrix`` holds every matrix of the package, square or not.  Its
operations (``@``, ``+``, ``-``, scalar ``*``, ``.T``, row and column
selection, ``vstack``) call scipy's compiled CSR kernels, the ones
``scipy.sparse`` calls for the same expressions, in the same order, so
every matrix and every product is bit for bit what ``scipy.sparse`` would
give.  The kernel module is loaded from its file: the ``scipy.sparse``
package itself, whose import took 160-240 ms and about 20 MB of every
run, is never imported (an already imported one is reused).

The CG driver is written out so the iterate sequence is deterministic and
the reported residual is always recomputed from b - Ax, never the
recurrence value.  CG preconditions with Jacobi (``r / diag A``,
elementwise) unless it is given a preconditioner matrix, such as the one
``hybrid_preconditioner`` builds, which it applies through ``matvec``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


def _load_sparsetools():
    """``scipy.sparse._sparsetools``, loaded from its extension file when
    ``scipy.sparse`` is not imported: ``find_spec`` locates scipy without
    running its ``__init__``.  The module is registered under its own name,
    so a later ``import scipy.sparse`` shares it."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    for root in (scipy.submodule_search_locations or ()) if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                spec = importlib.util.spec_from_file_location(name, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules[name] = module
                return module
    raise ImportError("scipy's compiled sparse kernels (scipy.sparse._sparsetools) "
                      "were not found")


_sparsetools = _load_sparsetools()

# The normal float range, [tiny, max], that CG's squared norms must lie in.
_NORMAL = np.finfo(float)


class NonConvergenceError(RuntimeError):
    """CG failed to reach the requested tolerance within maxiter."""


class IndefiniteMatrixError(RuntimeError):
    """p' A p <= 0 or r' z <= 0 encountered: the matrix or the
    preconditioner is not positive definite."""


def _outputs(rows: int, size: int):
    """Row offsets, column indices and values for a kernel to fill.  Index
    arrays are int32, the type scipy gives every matrix this size; a
    matrix too large for it is refused."""
    if max(rows, size) >= 2**31:
        raise ValueError("a sparse matrix with 2**31 rows or entries")
    return np.zeros(rows + 1, np.int32), np.empty(size, np.int32), np.empty(size)


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """CSR matrix: row offsets, column indices and values of an
    (m, n) ``shape``.

    Built by ``from_coo`` with sorted indices and no duplicates; a product
    or a sum keeps the entry order its kernel gives, as scipy's does.  The
    diagonal and its inverse are built on first use and kept, so repeated
    solves with one matrix rebuild neither."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @classmethod
    def _filled(cls, indptr, indices, data, shape) -> "SparseMatrix":
        """The matrix a kernel wrote, its arrays cut to its entries (copied
        where those are less than half, as scipy's ``prune`` does)."""
        nnz = int(indptr[-1])
        if nnz < indices.size // 2:
            indices, data = indices[:nnz].copy(), data[:nnz].copy()
        return cls(indptr, indices[:nnz], data[:nnz], shape)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "SparseMatrix":
        """The matrix with ``vals[j]`` at (``rows[j]``, ``cols[j]``), duplicates
        summed; ValueError unless the three are 1-d and of one length, and
        on an index outside ``shape``."""
        m, n = shape = (int(shape[0]), int(shape[1]))
        rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=float)
        if not rows.shape == cols.shape == vals.shape == (vals.size,):
            raise ValueError("rows, cols and vals must be 1-d arrays of one length")
        out = _outputs(m, vals.size)
        if vals.size:
            if not (rows.min() >= 0 and rows.max() < m and cols.min() >= 0 and cols.max() < n):
                raise ValueError(f"an entry lies outside the {shape} matrix")
            _sparsetools.coo_tocsr(m, n, vals.size, rows.astype(np.int32),
                                   cols.astype(np.int32), vals, *out)
        return cls(*out, shape)._summed()

    @classmethod
    def from_scipy(cls, a) -> "SparseMatrix":
        """The matrix of a scipy sparse matrix of any format (read through
        its ``tocsr``, not changed), indices sorted and duplicates summed."""
        a = a.tocsr()
        indptr, indices, data = _outputs(a.shape[0], a.indices.size)
        indptr[:], indices[:], data[:] = a.indptr, a.indices, a.data
        return cls(indptr, indices, data, tuple(a.shape))._summed()

    @classmethod
    def diag(cls, values) -> "SparseMatrix":
        """The square matrix with diagonal ``values``."""
        n = len(values)
        indptr, indices, data = _outputs(n, n)
        indptr[:] = np.arange(n + 1)
        indices[:], data[:] = indptr[:-1], values
        return cls(indptr, indices, data, (n, n))

    def _summed(self) -> "SparseMatrix":
        """This matrix with sorted indices and duplicates summed, in place
        where they are not: scipy's ``sum_duplicates``."""
        m = self.shape[0]
        if not _sparsetools.csr_has_canonical_format(m, self.indptr, self.indices):
            if not _sparsetools.csr_has_sorted_indices(m, self.indptr, self.indices):
                _sparsetools.csr_sort_indices(m, self.indptr, self.indices, self.data)
            _sparsetools.csr_sum_duplicates(m, self.shape[1], self.indptr, self.indices,
                                            self.data)
        return SparseMatrix._filled(self.indptr, self.indices, self.data, self.shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def T(self) -> "SparseMatrix":
        """The transpose, with sorted indices."""
        m, n = self.shape
        out = _outputs(n, self.nnz)
        _sparsetools.csr_tocsc(m, n, self.indptr, self.indices, self.data, *out)
        return SparseMatrix(*out, (n, m))

    def _matvec(self, x) -> np.ndarray:
        """The product with a float vector x; ValueError unless x has one
        entry per column (the kernel reads x unchecked)."""
        if np.shape(x) != (self.shape[1],):
            raise ValueError(f"dimension mismatch: {self.shape} matrix, "
                             f"{np.shape(x)} vector")
        y = np.zeros(self.shape[0])
        _sparsetools.csr_matvec(self.shape[0], self.shape[1], self.indptr, self.indices,
                                self.data, x, y)
        return y

    def __matmul__(self, other):
        """The product with a SparseMatrix, or with a float vector."""
        if not isinstance(other, SparseMatrix):
            return self._matvec(other)
        (m, k), (k2, n) = self.shape, other.shape
        if k != k2:
            raise ValueError(f"dimension mismatch: {self.shape} times {other.shape}")
        out = _outputs(m, _sparsetools.csr_matmat_maxnnz(
            m, n, self.indptr, self.indices, other.indptr, other.indices))
        if out[1].size:
            _sparsetools.csr_matmat(m, n, self.indptr, self.indices, self.data,
                                    other.indptr, other.indices, other.data, *out)
        return SparseMatrix._filled(*out, (m, n))

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._merged(other, _sparsetools.csr_plus_csr)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._merged(other, _sparsetools.csr_minus_csr)

    def _merged(self, other, kernel) -> "SparseMatrix":
        """The entrywise sum or difference; exact zeros are dropped."""
        if self.shape != other.shape:
            raise ValueError(f"inconsistent shapes {self.shape} and {other.shape}")
        out = _outputs(self.shape[0], self.nnz + other.nnz)
        kernel(*self.shape, self.indptr, self.indices, self.data,
               other.indptr, other.indices, other.data, *out)
        return SparseMatrix._filled(*out, self.shape)

    def __mul__(self, scalar: float) -> "SparseMatrix":
        return SparseMatrix(self.indptr, self.indices, self.data * scalar, self.shape)

    __rmul__ = __mul__

    def __getitem__(self, key) -> "SparseMatrix":
        """``a[rows]`` or ``a[:, cols]`` for integer arrays of ids, in their
        order; IndexError on any other key and on an id out of range."""
        axis = 0
        if isinstance(key, tuple):
            rows, key = key
            if not (isinstance(rows, slice) and rows == slice(None)):
                raise IndexError("a[rows] or a[:, cols] expected")
            axis = 1
        ids = np.asarray(key)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise IndexError("a 1-d integer array of ids expected")
        if ids.size and not (ids.min() >= 0 and ids.max() < self.shape[axis]):
            raise IndexError(f"an id lies outside [0, {self.shape[axis]})")
        ids = ids.astype(np.int32)
        m, n = self.shape
        if axis == 0:
            indptr = np.zeros(ids.size + 1, np.int32)
            np.cumsum(self.indptr[ids + 1] - self.indptr[ids], out=indptr[1:])
            _, indices, data = _outputs(ids.size, int(indptr[-1]))
            _sparsetools.csr_row_index(ids.size, ids, self.indptr, self.indices, self.data,
                                       indices, data)
            return SparseMatrix(indptr, indices, data, (ids.size, n))
        offsets, indptr = np.zeros(n, np.int32), np.zeros(m + 1, np.int32)
        if ids.size:
            _sparsetools.csr_column_index1(ids.size, ids, m, n, self.indptr, self.indices,
                                           offsets, indptr)
        indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1])
        if ids.size:
            _sparsetools.csr_column_index2(np.argsort(ids).astype(np.int32), offsets,
                                           self.indices.size, self.indices, self.data,
                                           indices, data)
        return SparseMatrix(indptr, indices, data, (m, ids.size))

    @cached_property
    def diagonal(self) -> np.ndarray:
        y = np.empty(min(self.shape))
        if y.size:
            _sparsetools.csr_diagonal(0, *self.shape, self.indptr, self.indices, self.data, y)
        return y

    @cached_property
    def inverse_diagonal(self) -> np.ndarray:
        """1 / diagonal, the Jacobi preconditioner; IndefiniteMatrixError
        where an entry is not positive."""
        if not (self.diagonal > 0.0).all():
            raise IndefiniteMatrixError("nonpositive diagonal entry")
        return 1.0 / self.diagonal


def vstack(blocks) -> SparseMatrix:
    """The blocks stacked by rows, their entries kept in order."""
    n = blocks[0].shape[1]
    if any(b.shape[1] != n for b in blocks):
        raise ValueError("blocks must have the same number of columns")
    indptr, _, _ = _outputs(sum(b.shape[0] for b in blocks), sum(b.nnz for b in blocks))
    indptr[1:] = np.concatenate([b.indptr[1:] + offset for b, offset in
                                 zip(blocks, np.cumsum([0] + [b.nnz for b in blocks]))])
    return SparseMatrix(indptr, np.concatenate([b.indices for b in blocks]),
                        np.concatenate([b.data for b in blocks]), (indptr.size - 1, n))


# ``a @ x`` for a float vector x, without the dispatch of ``@``: the one
# name through which CG and the step loop form their products.
matvec = SparseMatrix._matvec


@dataclass
class SolveReport:
    iterations: int
    residual: float       # |b - Ax| / |b|, recomputed after convergence


def hybrid_preconditioner(inv_diag_a: np.ndarray, g: SparseMatrix,
                          diag_l: np.ndarray) -> SparseMatrix:
    """P = diag(inv_diag_a) + H H', H = G D_L^-1/2, as one CSR matrix.

    Hiptmair's hybrid smoother for curl-curl systems (SIAM J. Numer. Anal.
    36, 1999): the kernel of the curl-curl term is the range of the
    discrete gradient ``g``, where Jacobi on A (``inv_diag_a`` = 1 / diag
    A) converges slowly; the second term adds a Jacobi sweep on A
    restricted to that range, with ``diag_l`` the diagonal of L = G' A G.
    No matrix A is taken: the caller forms diag L from whatever gives it
    without cancellation.  H H' is formed as the Gram matrix of H', so P
    is symmetric bit for bit; the sum is transposed last, which sorts its
    indices.  P is SPD when every entry of ``inv_diag_a`` and of
    ``diag_l`` is positive; ValueError where ``diag_l`` is not (a zero
    column of G, or A is not SPD).
    """
    if not (diag_l > 0.0).all():
        raise ValueError("G' A G has a nonpositive diagonal entry: "
                         "a zero column of G, or A is not SPD")
    h_t = SparseMatrix.diag(1.0 / np.sqrt(diag_l)) @ g.T
    return (h_t.T @ h_t + SparseMatrix.diag(inv_diag_a)).T


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
    precond r when ``precond`` (an SPD n x n ``SparseMatrix``) is given,
    and take one CG step.  So the reported residual |b - Ax| / |b| is
    always formed from the returned x, also after 0 iterations.  Where
    |b|^2 or (tol |b|)^2 is not a normal float, b, ``x0`` and ``a_x0`` are
    scaled by the power of two that brings the largest entry of b into
    [0.5, 1), which scales every iterate exactly, and x is scaled back.
    Returns (x, SolveReport).  Raises ValueError on a non-finite or
    misshapen ``b``, ``x0`` or ``a_x0`` and on a ``precond`` that is
    misshapen or not a ``SparseMatrix``; IndefiniteMatrixError on a nonpositive diagonal
    entry, when a search direction has nonpositive curvature (an assembly
    bug upstream) or r'z <= 0 (a preconditioner that is not positive
    definite); NonConvergenceError when maxiter is exhausted.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    n = a.shape[0]
    b = _checked(b, n, "right-hand side")
    if x0 is not None:
        x0 = _checked(x0, n, "initial guess")
    if a_x0 is not None:
        if x0 is None:
            raise ValueError("a_x0 needs the initial guess x0")
        a_x0 = _checked(a_x0, n, "product of the initial guess")
    if precond is not None and not (isinstance(precond, SparseMatrix)
                                    and precond.shape == a.shape):
        raise ValueError("dimension mismatch between matrix and preconditioner "
                         "(an n x n SparseMatrix)")
    if maxiter is None:
        maxiter = max(100, 10 * n)

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
            return np.zeros(n), SolveReport(0, 0.0)
    bnorm = math.sqrt(bb)
    inv_diag = a.inverse_diagonal

    x = np.zeros(n) if x0 is None else x0.copy()
    r = b - (a_x0 if a_x0 is not None else 0.0 if x0 is None else matvec(a, x))
    p = rz = None
    for iterations in range(maxiter + 1):
        if float(r @ r) <= stop:
            r = b - matvec(a, x)
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
        ap = matvec(a, p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteMatrixError(f"p'Ap = {pap:.3e} at iteration {iterations + 1}")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
    raise NonConvergenceError(
        f"CG did not reach tol={tol:.1e} in {maxiter} iterations "
        f"(residual {np.linalg.norm(b - matvec(a, x)) / bnorm:.3e})"
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
        n = a.shape[0]
        space = cls(np.empty((capacity, n)), np.empty((capacity, n)), 0, ())
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
        ad = matvec(a, d)
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
