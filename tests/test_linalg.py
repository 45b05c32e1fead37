import numpy as np
import pytest
import scipy.sparse as sps

from vemaxwell import linalg


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return linalg.SparseMatrix.from_scipy(sps.csr_matrix(a @ a.T + n * np.eye(n)))


def direct_solve(a, b):
    """Dense solve of a small system, the oracle for CG."""
    return np.linalg.solve(a.to_scipy().toarray(), np.asarray(b, dtype=float))


class TestSpmv:
    def test_csr_fields_exposed(self):
        a = random_spd(6)
        assert a.indptr.shape == (7,)
        assert a.n == 6
        # column indices sorted and unique per row
        for i in range(6):
            cols = a.indices[a.indptr[i]:a.indptr[i + 1]]
            assert (np.diff(cols) > 0).all()


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

    def test_deterministic_iterates(self):
        a = random_spd(50, seed=9)
        b = np.random.default_rng(10).standard_normal(50)
        x1, r1 = linalg.cg_solve(a, b, tol=1e-12)
        x2, r2 = linalg.cg_solve(a, b, tol=1e-12)
        assert np.array_equal(x1, x2)          # bit-identical
        assert r1.iterations == r2.iterations

    def test_residual_is_recomputed(self):
        a = random_spd(25, seed=11)
        b = np.random.default_rng(12).standard_normal(25)
        x, rep = linalg.cg_solve(a, b, tol=1e-11)
        true = np.linalg.norm(b - a.to_scipy() @ x) / np.linalg.norm(b)
        assert rep.residual == pytest.approx(true, rel=1e-12)
        assert rep.residual <= 1e-11

    def test_assembled_reduced_system(self, cube4):
        # the real step matrix: M_eps + tau M_sigma + tau^2 C' M_f C
        from vemaxwell import cases, forms, stepper
        from vemaxwell import derham as vd
        dofs = vd.build_dofs(cube4)
        proj = vd.build_projectors(cube4)
        case = cases.case1()
        coeffs = forms.sample_coefficients(cube4, case.eps, case.sigma, case.mu)
        ops = stepper.build_step_operators(cube4, dofs, proj, coeffs, 0.125)
        b = np.random.default_rng(13).standard_normal(ops.system.n)
        x, rep = linalg.cg_solve(ops.system, b, tol=1e-12)
        csr = ops.system.to_scipy()
        true = np.linalg.norm(b - csr @ x) / np.linalg.norm(b)
        assert true <= 1e-12
        assert rep.residual == pytest.approx(true, rel=1e-12)
