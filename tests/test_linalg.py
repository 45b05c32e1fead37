import dataclasses
import pathlib
import sys

import numpy as np
import pytest
import scipy.sparse as sps

from conftest import scipy_csr
from vemaxwell import linalg


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return linalg.SparseMatrix.from_scipy(sps.csr_matrix(a @ a.T + n * np.eye(n)))


def direct_solve(a, b):
    """Dense solve of a small system, the oracle for CG."""
    return np.linalg.solve(scipy_csr(a).toarray(), np.asarray(b, dtype=float))


class TestSpmv:
    def test_csr_fields_exposed(self):
        a = random_spd(6)
        assert a.indptr.shape == (7,)
        assert a.shape == (6, 6) and a.nnz == 36
        # column indices sorted and unique per row
        for i in range(6):
            cols = a.indices[a.indptr[i]:a.indptr[i + 1]]
            assert (np.diff(cols) > 0).all()

    def test_diagonal_built_once(self, monkeypatch):
        a = random_spd(6)
        # repeated solves reuse the diagonal: the kernel runs once
        calls = []
        original = linalg._sparsetools.csr_diagonal

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(linalg._sparsetools, "csr_diagonal", counted)
        for seed in range(3):
            linalg.cg_solve(a, np.random.default_rng(seed).standard_normal(6))
        assert len(calls) == 1
        assert np.array_equal(a.diagonal, scipy_csr(a).diagonal())
        assert a.diagonal is a.diagonal

    def test_matvec_matches_scipy_bit_for_bit(self):
        a = sps.random(30, 20, density=0.3, format="csr", random_state=3)
        m = linalg.SparseMatrix.from_scipy(a)
        x = np.random.default_rng(4).standard_normal(20)
        assert np.array_equal(linalg.matvec(m, x), a @ x)
        assert np.array_equal(linalg.matvec(m[np.arange(12, 30)], x), (a @ x)[12:])
        for bad in (np.ones(19), np.ones(21), np.ones((20, 1))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                linalg.matvec(m, bad)

    def test_sparsetools_loaded_by_path(self, monkeypatch):
        # pytest imports scipy.sparse before any test; with the kernels'
        # module taken out of sys.modules, _load_sparsetools loads it from
        # its extension file, as a run of the CLI does
        name = "scipy.sparse._sparsetools"
        running = sys.modules[name]
        monkeypatch.delitem(sys.modules, name)
        loaded = linalg._load_sparsetools()
        assert loaded is not running
        assert pathlib.Path(loaded.__file__).match("scipy/sparse/_sparsetools*.so")
        assert sys.modules[name] is loaded
        a = sps.random(30, 20, density=0.3, format="csr", random_state=3)
        x = np.random.default_rng(4).standard_normal(20)
        products = []
        for module in (loaded, running):
            products.append(np.zeros(30))
            module.csr_matvec(30, 20, a.indptr, a.indices, a.data, x, products[-1])
        assert np.array_equal(*products)

    def test_inverse_diagonal_checked_once(self):
        a = random_spd(6)
        assert a.inverse_diagonal is a.inverse_diagonal
        assert np.array_equal(a.inverse_diagonal, 1.0 / a.diagonal)
        bad = linalg.SparseMatrix.from_scipy(sps.diags([1.0, np.nan]).tocsr())
        with pytest.raises(linalg.IndefiniteMatrixError):
            bad.inverse_diagonal

    def test_compares_by_identity(self):
        a = random_spd(4)
        b = linalg.SparseMatrix.from_scipy(scipy_csr(a))
        assert a == a and a != b
        assert len({a, b}) == 2


class TestCg:
    def test_identity_one_iteration(self):
        a = linalg.SparseMatrix.from_scipy(sps.eye(8, format="csr"))
        b = np.linspace(1, 2, 8)
        x, rep = linalg.cg_solve(a, b, tol=1e-12)
        assert np.allclose(x, b, rtol=1e-14)
        assert rep.iterations <= 1

    def test_diagonal_finite_termination(self):
        n = 12
        a = linalg.SparseMatrix.from_scipy(sps.diags(np.arange(1.0, n + 1)).tocsr())
        b = np.ones(n)
        x, rep = linalg.cg_solve(a, b, tol=1e-14)
        assert rep.iterations <= n
        assert np.allclose(x, 1.0 / np.arange(1.0, n + 1), rtol=1e-12)

    def test_dense_oracle(self):
        a = random_spd(30, seed=3)
        b = np.random.default_rng(4).standard_normal(30)
        x, rep = linalg.cg_solve(a, b, tol=1e-13)
        assert np.allclose(x, direct_solve(a, b), rtol=1e-9, atol=1e-12)
        assert rep.residual <= 1e-13

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_rhs_with_squared_norm_out_of_range(self, scale):
        # |b|^2 is 5e-340, below the smallest double, or 5e320, above the
        # largest: both once returned x = 0
        d = np.arange(1.0, 6.0)
        a = linalg.SparseMatrix.from_scipy(sps.diags(d).tocsr())
        x, rep = linalg.cg_solve(a, np.full(5, scale))
        assert np.allclose(x, scale / d, rtol=1e-13, atol=0.0)
        assert rep.iterations > 0 and rep.residual <= 1e-12

    @pytest.mark.parametrize("shift", [-600, 600])
    def test_scaled_rhs_scales_iterates_exactly(self, shift):
        # a solve for 2^shift b is the solve for b, scaled bit for bit
        a = random_spd(20, seed=22)
        rng = np.random.default_rng(23)
        b, x0 = rng.standard_normal(20), rng.standard_normal(20)
        a_x0 = a @ x0
        x, rep = linalg.cg_solve(a, b, x0=x0, a_x0=a_x0)
        xs, reps = linalg.cg_solve(a, np.ldexp(b, shift), x0=np.ldexp(x0, shift),
                                   a_x0=np.ldexp(a_x0, shift))
        assert np.array_equal(xs, np.ldexp(x, shift))
        assert reps == rep and rep.iterations > 0

    def test_zero_rhs(self):
        a = random_spd(5)
        x, rep = linalg.cg_solve(a, np.zeros(5))
        assert np.abs(x).max() == 0.0 and rep.iterations == 0

    def test_nonconvergence(self):
        a = random_spd(40, seed=5)
        with pytest.raises(linalg.NonConvergenceError):
            linalg.cg_solve(a, np.ones(40), tol=1e-14, maxiter=2)

    def test_indefinite_detection(self):
        dense = np.array([[1.0, 2.0], [2.0, 1.0]])    # positive diag, indefinite
        a = linalg.SparseMatrix.from_scipy(sps.csr_matrix(dense))
        with pytest.raises(linalg.IndefiniteMatrixError):
            linalg.cg_solve(a, np.array([1.0, -1.0]), tol=1e-10)

    def test_nonpositive_diagonal(self):
        a = linalg.SparseMatrix.from_scipy(sps.diags([1.0, -1.0]).tocsr())
        with pytest.raises(linalg.IndefiniteMatrixError):
            linalg.cg_solve(a, np.ones(2))

    def test_tol_validation(self):
        a = random_spd(4)
        with pytest.raises(ValueError):
            linalg.cg_solve(a, np.ones(4), tol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # rejected up front, not after maxiter iterations on a NaN residual
        a = random_spd(6)
        b = np.ones(6)
        b[2] = bad
        with pytest.raises(ValueError, match="right-hand side"):
            linalg.cg_solve(a, b)
        x0 = np.zeros(6)
        x0[4] = bad
        with pytest.raises(ValueError, match="initial guess"):
            linalg.cg_solve(a, np.ones(6), x0=x0)

    @pytest.mark.parametrize("exact", ["b / d", "solution at tol 1e-8"])
    def test_initial_guess_meeting_tol_returns_at_once(self, exact):
        # p'Ap = 0 on a zero residual is not indefiniteness: a guess that
        # already meets tol is returned as is, with its true residual
        d = np.arange(1.0, 5.0)
        a = linalg.SparseMatrix.from_scipy(sps.diags(d).tocsr())
        b = np.ones(4)
        x0 = b / d if exact == "b / d" else linalg.cg_solve(a, b, tol=1e-8)[0]
        x, rep = linalg.cg_solve(a, b, tol=1e-8, x0=x0)
        assert rep.iterations == 0
        assert np.array_equal(x, x0) and x is not x0
        assert rep.residual == np.linalg.norm(b - d * x0) / np.linalg.norm(b)
        assert rep.residual <= 1e-8

    def test_initial_guess_continues_to_tol(self):
        a = random_spd(30, seed=14)
        b = np.random.default_rng(15).standard_normal(30)
        x_loose, _ = linalg.cg_solve(a, b, tol=1e-4)
        x, rep = linalg.cg_solve(a, b, tol=1e-13, x0=x_loose)
        assert 0 < rep.iterations
        assert rep.residual <= 1e-13
        assert np.allclose(x, direct_solve(a, b), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), (1, 4), ()])
    def test_initial_guess_shape_checked(self, shape):
        a = linalg.SparseMatrix.from_scipy(sps.diags(np.arange(1.0, 5.0)).tocsr())
        with pytest.raises(ValueError, match="dimension mismatch.*initial guess"):
            linalg.cg_solve(a, np.ones(4), x0=np.ones(shape))

    @pytest.mark.parametrize("shape", [(3, 3), (5, 5), (4, 5), (4,)])
    def test_preconditioner_shape_checked(self, shape):
        a = random_spd(4)
        with pytest.raises(ValueError, match="dimension mismatch.*preconditioner"):
            linalg.cg_solve(a, np.ones(4), precond=np.ones(shape))

    @pytest.mark.parametrize("convert", [np.asarray, sps.csc_matrix, sps.coo_matrix])
    def test_preconditioner_must_be_csr(self, convert):
        # it is applied through matvec, which reads a SparseMatrix's arrays
        a = random_spd(4)
        with pytest.raises(ValueError, match="dimension mismatch.*preconditioner"):
            linalg.cg_solve(a, np.ones(4), precond=convert(np.eye(4)))

    @pytest.mark.parametrize("precond", [-np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_indefinite_preconditioner_detection(self, precond):
        # r'z <= 0: the iteration would no longer be CG
        a = linalg.SparseMatrix.from_scipy(sps.eye(2, format="csr") * 3.0)
        with pytest.raises(linalg.IndefiniteMatrixError, match="preconditioner"):
            linalg.cg_solve(a, np.array([1.0, -1.0]),
                            precond=linalg.SparseMatrix.from_scipy(sps.csr_matrix(precond)))

    def test_jacobi_matrix_matches_elementwise_default(self):
        # diag(a)^-1 as a matrix is the default preconditioner, bit for bit
        a = random_spd(40, seed=16)
        b = np.random.default_rng(17).standard_normal(40)
        x0 = np.random.default_rng(18).standard_normal(40)
        x1, r1 = linalg.cg_solve(a, b, tol=1e-12, x0=x0)
        x2, r2 = linalg.cg_solve(a, b, tol=1e-12, x0=x0,
                                 precond=linalg.SparseMatrix.diag(1.0 / a.diagonal))
        assert np.array_equal(x1, x2)
        assert r1 == r2

    def test_preconditioned_dense_oracle(self):
        a = random_spd(30, seed=19)
        b = np.random.default_rng(20).standard_normal(30)
        inverse = np.linalg.inv(scipy_csr(a).toarray())
        x, rep = linalg.cg_solve(a, b, tol=1e-12, precond=linalg.SparseMatrix.from_scipy(
            sps.csr_matrix(0.5 * (inverse + inverse.T))))
        assert rep.iterations <= 2
        assert np.allclose(x, direct_solve(a, b), rtol=1e-9, atol=1e-12)
        spd = random_spd(30, seed=21)
        x, rep = linalg.cg_solve(a, b, tol=1e-13, precond=spd)
        assert rep.residual <= 1e-13
        assert np.allclose(x, direct_solve(a, b), rtol=1e-9, atol=1e-12)

    def test_hybrid_preconditioner_needs_nonzero_gradient_columns(self):
        a = random_spd(4)
        g = linalg.SparseMatrix.from_scipy(
            sps.csr_matrix(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])))
        diag_l = (g.T @ a @ g).diagonal
        with pytest.raises(ValueError, match="nonpositive diagonal"):
            linalg.hybrid_preconditioner(a.inverse_diagonal, g, diag_l)

    def test_deterministic_iterates(self):
        a = random_spd(50, seed=9)
        b = np.random.default_rng(10).standard_normal(50)
        x1, r1 = linalg.cg_solve(a, b, tol=1e-12)
        x2, r2 = linalg.cg_solve(a, b, tol=1e-12)
        assert np.array_equal(x1, x2)          # bit-identical
        assert r1.iterations == r2.iterations

    def test_residual_is_recomputed(self):
        a = random_spd(25, seed=11)
        rng = np.random.default_rng(12)
        b, x0 = rng.standard_normal(25), rng.standard_normal(25)
        # with a_x0 the first residual is b - a_x0, but the reported one
        # is still formed from the returned x
        for start in ({}, {"x0": x0, "a_x0": a @ x0}):
            x, rep = linalg.cg_solve(a, b, tol=1e-11, **start)
            true = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
            assert rep.residual == pytest.approx(true, rel=1e-12)
            assert rep.residual <= 1e-11

    @pytest.mark.parametrize("precond", [False, True])
    def test_start_modes_agree_bit_for_bit(self, monkeypatch, precond):
        # no guess is the zero guess with A 0 = 0, and a_x0 = A x0 is the
        # product CG would form: each pair gives the same x and report
        a = random_spd(30, seed=25)
        rng = np.random.default_rng(26)
        b, x0 = rng.standard_normal(30), rng.standard_normal(30)
        kw = dict(tol=1e-12, precond=random_spd(30, seed=27) if precond else None)
        zero = np.zeros(30)
        for start, same in (({}, {"x0": zero, "a_x0": zero}),
                            ({"x0": x0}, {"x0": x0, "a_x0": a @ x0})):
            x1, r1 = linalg.cg_solve(a, b, **start, **kw)
            x2, r2 = linalg.cg_solve(a, b, **same, **kw)
            assert np.array_equal(x1, x2) and r1 == r2 and r1.iterations > 0
        # a guess that meets tol with its product given: one product, the
        # true residual's, and 0 iterations
        x, _ = linalg.cg_solve(a, b, tol=1e-13)
        products = []
        original = linalg.matvec

        def counted(m, v):
            products.append(m)
            return original(m, v)

        monkeypatch.setattr(linalg, "matvec", counted)
        got, rep = linalg.cg_solve(a, b, x0=x, a_x0=a @ x, **kw)
        assert rep.iterations == 0 and np.array_equal(got, x)
        assert len(products) == 1 and products[0] is a

    def test_wrong_a_x0_costs_iterations_not_the_result(self):
        # a_x0 that meets tol on its face is checked by a product: a wrong
        # one sends CG on from the true residual
        d = np.arange(1.0, 5.0)
        a = linalg.SparseMatrix.from_scipy(sps.diags(d).tocsr())
        b = np.ones(4)
        x, rep = linalg.cg_solve(a, b, tol=1e-10, x0=np.zeros(4), a_x0=b)
        assert rep.iterations > 0 and rep.residual <= 1e-10
        assert np.allclose(x, b / d, rtol=1e-10)
        with pytest.raises(ValueError, match="needs the initial guess"):
            linalg.cg_solve(a, b, a_x0=b)
        with pytest.raises(ValueError, match="product of the initial guess"):
            linalg.cg_solve(a, b, x0=np.zeros(4), a_x0=np.ones(3))

    def test_assembled_reduced_system(self, cube4):
        # the real step matrix: M_eps + tau M_sigma + tau^2 C' M_f C
        from vemaxwell import cases, forms, stepper
        from vemaxwell import derham as vd
        proj = vd.build_projectors(cube4)
        case = cases.case1()
        coeffs = forms.sample_coefficients(cube4, case.eps, case.sigma, case.mu)
        ops = stepper.build_step_operators(cube4, proj, coeffs, 0.125)
        b = np.random.default_rng(13).standard_normal(ops.system.shape[0])
        x, rep = linalg.cg_solve(ops.system, b, tol=1e-12)
        csr = scipy_csr(ops.system)
        true = np.linalg.norm(b - csr @ x) / np.linalg.norm(b)
        assert true <= 1e-12
        assert rep.residual == pytest.approx(true, rel=1e-12)


class TestSolutionSpace:
    """The projection guess for successive right-hand sides."""

    @staticmethod
    def solve_in_turn(a, space, rhs, tol=1e-13):
        """Solve each right-hand side from the space's guess and extend the
        space by the solve.  Returns the space as it was before the first
        solve and after each: its size and copies of its rows, as spaces
        that later solves leave as they are."""
        def copy():
            return dataclasses.replace(space, v=space.v[:space.size].copy(),
                                       w=space.w[:space.size].copy())

        spaces = [copy()]
        for b in rhs:
            guess = space.guess(b)
            x, _ = linalg.cg_solve(a, b, tol=tol, x0=guess.x, a_x0=guess.a_x)
            space.extend(a, x, guess)
            spaces.append(copy())
        return spaces

    @staticmethod
    def assert_a_orthonormal(a, space):
        """V' A V = I and W = A V to round-off."""
        csr, eps = scipy_csr(a), np.finfo(float).eps
        v, w = space.v[:space.size], space.w[:space.size]
        assert np.abs(v @ (csr @ v.T) - np.eye(space.size)).max() <= 1e3 * eps
        assert np.abs(w - (csr @ v.T).T).max() <= 1e3 * eps * np.abs(w).max()

    def test_guess_residual_is_a_orthogonal_to_the_space(self):
        # V' A V = I and W = A V, so V' (b - A V V' b) = 0 to round-off
        n, a = 40, random_spd(40, seed=3)
        csr = scipy_csr(a)
        rng = np.random.default_rng(4)
        start = linalg.SolutionSpace.spanned_by(a, rng.standard_normal(n), 12)
        spaces = self.solve_in_turn(a, start, rng.standard_normal((10, n)))
        assert [s.size for s in spaces] == list(range(1, 12))
        eps = np.finfo(float).eps
        for space in spaces:
            self.assert_a_orthonormal(a, space)
            v = space.v[:space.size]
            b = rng.standard_normal(n)
            r = b - csr @ space.guess(b).x
            assert np.abs(v @ r).max() <= 1e3 * eps * np.abs(v @ b).max()

    def test_increment_mostly_in_the_space_takes_a_second_pass(self):
        # an increment whose part in the space outweighs its remainder
        # 1e6 to 1: one Gram-Schmidt pass would leave the new row about
        # 1e6 epsilons away from A-orthogonal, the second pass restores it
        n, a = 40, random_spd(40, seed=3)
        rng = np.random.default_rng(10)
        space = linalg.SolutionSpace.spanned_by(a, rng.standard_normal(n), 12)
        self.solve_in_turn(a, space, rng.standard_normal((5, n)))
        guess = space.guess(rng.standard_normal(n))
        size = space.size
        in_space = rng.standard_normal(size) @ space.v[:size]
        x = guess.x + in_space + 1e-6 * rng.standard_normal(n)
        space.extend(a, x, guess)
        assert space.size == size + 1
        self.assert_a_orthonormal(a, space)

    def test_guess_carries_its_product_with_a(self):
        # A x0 = W V' b stands in for CG's first residual product
        n, a = 40, random_spd(40, seed=3)
        rng = np.random.default_rng(9)
        start = linalg.SolutionSpace.spanned_by(a, rng.standard_normal(n), 8)
        eps = np.finfo(float).eps
        for space in self.solve_in_turn(a, start, rng.standard_normal((12, n))):
            guess = space.guess(rng.standard_normal(n))
            want = a @ guess.x
            assert np.abs(guess.a_x - want).max() <= 1e3 * eps * np.abs(want).max()
            assert np.array_equal(guess.coef @ space.v[:space.size], guess.x)

    def test_rhs_in_span_of_earlier_ones_takes_zero_iterations(self):
        n, a = 30, random_spd(30, seed=5)
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal((3, n))
        space = linalg.SolutionSpace.spanned_by(a, np.zeros(n), 10)
        assert space.size == 0 and np.array_equal(space.guess(rhs[0]).x, np.zeros(n))
        self.solve_in_turn(a, space, rhs)
        b = 0.3 * rhs[0] - 2.0 * rhs[1] + rhs[2]
        guess = space.guess(b)
        x, rep = linalg.cg_solve(a, b, tol=1e-10, x0=guess.x, a_x0=guess.a_x)
        assert rep.iterations == 0
        # a solve that leaves its guess as it was appends nothing
        assert space.size == 3
        space.extend(a, x, guess)
        assert space.size == 3

    def test_restart_at_capacity_keeps_earlier_guesses(self):
        n, a, capacity = 20, random_spd(20, seed=7), 4
        rng = np.random.default_rng(8)
        probe = rng.standard_normal(n)
        start = linalg.SolutionSpace.spanned_by(a, rng.standard_normal(n), capacity)
        rhs = rng.standard_normal((7, n))
        spaces = self.solve_in_turn(a, start, rhs)
        # full at 4 rows, then the space of the three latest solutions
        assert [s.size for s in spaces] == [1, 2, 3, 4, 3, 4, 3, 4]
        for before, after in zip(spaces, spaces[1:]):
            assert after.size == (before.size + 1 if before.size < capacity else start.kept)
        solutions = [linalg.cg_solve(a, b, tol=1e-13)[0] for b in rhs]
        restarted = spaces[4]
        for x in solutions[1:4]:    # the three latest solutions span it
            assert np.allclose(restarted.guess(a @ x).x, x, rtol=0, atol=1e-9)
        with pytest.raises(ValueError, match="capacity"):
            linalg.SolutionSpace.spanned_by(a, probe, linalg.RESTART_SOLUTIONS - 1)

    @pytest.mark.parametrize("capacity, kept", [(10, 5), (13, 6)])
    def test_compressed_restart_keeps_the_latest_solutions(self, capacity, kept):
        # a full space keeps the max(3, capacity // 2) latest solutions,
        # the new one included, so after every restart it reproduces them,
        # while V' A V = I and W = A V hold
        n, a = 40, random_spd(40, seed=23)
        rng = np.random.default_rng(24)
        rhs = rng.standard_normal((3 * capacity, n))
        start = linalg.SolutionSpace.spanned_by(a, np.zeros(n), capacity)
        assert start.kept == kept
        spaces = self.solve_in_turn(a, start, rhs)
        csr = scipy_csr(a)
        solutions = [linalg.cg_solve(a, b, tol=1e-13)[0] for b in rhs]
        restarts = 0
        for m, (before, after) in enumerate(zip(spaces, spaces[1:])):
            if before.size < capacity:
                assert after.size == before.size + 1
                continue
            restarts += 1
            assert after.size == kept
            self.assert_a_orthonormal(a, after)
            for x in solutions[m + 1 - kept:m + 1]:
                assert np.allclose(after.guess(csr @ x).x, x, rtol=0, atol=1e-9), m
        assert restarts >= 2
