import numpy as np
import pytest
import sympy as sp

from vemaxwell import cases
from vemaxwell import derham as vd


@pytest.fixture(scope="module")
def c1():
    return cases.case1()


@pytest.fixture(scope="module")
def c2():
    return cases.case2()


def fd_divergence(case, pts, ts, h=1e-4):
    """Fourth-order central differences; resolves the wiggly case-1 field
    to ~1e-11 where the second-order stencil stalls near 1e-10."""
    out = np.zeros(len(pts))
    for a, e in enumerate(np.eye(3)):
        d = (-case.B(pts + 2 * h * e, ts) + 8 * case.B(pts + h * e, ts)
             - 8 * case.B(pts - h * e, ts) + case.B(pts - 2 * h * e, ts)) / (12 * h)
        out += d[:, a]
    return out


class TestCase1:
    def test_zero_initial_data(self, c1):
        pts = np.random.default_rng(0).random((50, 3))
        assert np.abs(c1.E(pts, 0.0)).max() == 0.0
        assert np.abs(c1.B(pts, 0.0)).max() == 0.0

    def test_solenoidal_by_finite_differences(self, c1):
        rng = np.random.default_rng(1)
        pts = rng.random((100, 3))
        ts = rng.random(100)
        assert np.abs(fd_divergence(c1, pts, ts)).max() <= 1e-10

    def test_tangential_trace_on_x0(self, c1):
        p = np.array([[0.0, 0.3, 0.7]])
        for t in (0.2, 0.5, 1.0):
            vals = c1.E(p, t)[0]
            assert abs(vals[1]) < 1e-14 and abs(vals[2]) < 1e-14

    def test_unit_coefficients(self, c1, cube2):
        ctr = cube2.cell_centroids
        assert np.allclose(c1.eps(ctr), 1.0)
        assert np.allclose(c1.sigma(ctr), 1.0)
        assert np.allclose(c1.mu(ctr), 1.0)


class TestCase2:
    def test_b_vanishes_at_t0(self, c2):
        pts = np.random.default_rng(2).random((50, 3))
        assert np.abs(c2.B(pts, 0.0)).max() == 0.0

    def test_orthogonal_fields(self, c2):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 3))
        ts = rng.random(200)
        dots = (c2.E(pts, ts) * c2.B(pts, ts)).sum(axis=1)
        assert np.abs(dots).max() <= 1e-12

    def test_divergence_cancels_symbolically(self):
        x, y, z, t = sp.symbols("x y z t", real=True)
        b = sp.Matrix([-sp.cos(sp.pi * y) * sp.sin(sp.pi * x),
                       sp.cos(sp.pi * x) * sp.sin(sp.pi * y), 0])
        div = sp.diff(b[0], x) + sp.diff(b[1], y) + sp.diff(b[2], z)
        assert sp.simplify(div) == 0


class TestStrongFormResidual:
    def test_case1(self, c1):
        assert cases.strong_form_residual(c1, 1000) <= 1e-8

    def test_case2(self, c2):
        assert cases.strong_form_residual(c2, 1000) <= 1e-8

    def test_faraday_only_case2(self, c2):
        # B is the time integral of -curl E by construction; the oracle
        # confirms it independently
        rng = np.random.default_rng(4)
        pts = rng.random((200, 3))
        ts = rng.random(200)
        h = 1e-5
        bt = (c2.B(pts, ts + h) - c2.B(pts, ts - h)) / (2 * h)
        curl = np.empty((200, 3))
        d = [(c2.E(pts + h * e, ts) - c2.E(pts - h * e, ts)) / (2 * h)
             for e in np.eye(3)]
        curl[:, 0] = d[1][:, 2] - d[2][:, 1]
        curl[:, 1] = d[2][:, 0] - d[0][:, 2]
        curl[:, 2] = d[0][:, 1] - d[1][:, 0]
        assert np.abs(bt + curl).max() <= 1e-8


class TestBoundaryTraces:
    @pytest.mark.parametrize("case_id", [1, 2])
    def test_traces_vanish(self, case_id):
        case = cases.get_case(case_id)
        rng = np.random.default_rng(5)
        worst_e = worst_b = 0.0
        for axis in range(3):
            for wall in (0.0, 1.0):
                p = rng.random((1700, 3))
                p[:, axis] = wall
                ts = rng.random(1700)
                n = np.zeros(3)
                n[axis] = 1.0
                worst_e = max(worst_e, np.abs(np.cross(case.E(p, ts), n)).max())
                worst_b = max(worst_b, np.abs(case.B(p, ts) @ n).max())
        assert worst_e <= 1e-12
        assert worst_b <= 1e-12

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            cases.get_case(9)


class TestL2Error:
    def test_zero_state_case2_at_t0(self, c2, cube4):
        # |E(., 0)| = sqrt(int sin^2 sin^2) = 1/2; B(0) = 0
        dofs = vd.build_dofs(cube4)
        proj = vd.build_projectors(cube4)
        rep = cases.l2_error(cube4, dofs, proj, np.zeros(cube4.n_edges),
                             np.zeros(cube4.n_faces), c2, 0.0)
        assert rep.err_E == pytest.approx(0.5, abs=1e-7)
        assert rep.err_B == 0.0
        assert rep.h == pytest.approx(cube4.h)

    def test_interpolant_error_decreases(self, c2):
        from vemaxwell import generate_cube_mesh
        errs = []
        for n in (2, 4, 8):
            m = generate_cube_mesh(n)
            dofs = vd.build_dofs(m)
            proj = vd.build_projectors(m)
            e = vd.interpolate_edge(m, lambda p: c2.E(p, 1.0))
            b = vd.interpolate_face(m, lambda p: c2.B(p, 1.0))
            e[dofs.boundary_edges] = 0.0
            b[dofs.boundary_faces] = 0.0
            rep = cases.l2_error(m, dofs, proj, e, b, c2, 1.0)
            errs.append((rep.err_E, rep.err_B))
        for (e0, b0), (e1, b1) in zip(errs, errs[1:]):
            assert e1 < e0 and b1 < b0

    def test_norms_nonnegative(self, c1, cube2):
        dofs = vd.build_dofs(cube2)
        proj = vd.build_projectors(cube2)
        rng = np.random.default_rng(6)
        rep = cases.l2_error(cube2, dofs, proj,
                             rng.standard_normal(cube2.n_edges),
                             rng.standard_normal(cube2.n_faces), c1, 0.5)
        assert rep.err_E >= 0 and rep.err_B >= 0


X, Y, Z, T = sp.symbols("x y z t", real=True)


def sym_curl(v):
    return sp.Matrix([sp.diff(v[2], Y) - sp.diff(v[1], Z),
                      sp.diff(v[0], Z) - sp.diff(v[2], X),
                      sp.diff(v[1], X) - sp.diff(v[0], Y)])


def full_current(case_id):
    """J = eps E_t + sigma E - curl(B / mu) derived from the full (x, y, z, t)
    expressions of the case's fields and lambdified as one callable:
    the oracle for the term-by-term derivation in ``cases``."""
    pi = sp.pi
    if case_id == 1:
        phi = sp.Matrix([
            sp.sin(pi * X) ** 2 * Y**2 * (1 - Y) ** 2 * Z**2 * (1 - Z) ** 2,
            X**2 * (1 - X) ** 2 * sp.sin(pi * Y) ** 2 * Z**2 * (1 - Z) ** 2,
            X**2 * (1 - X) ** 2 * Y**2 * (1 - Y) ** 2 * sp.sin(pi * Z) ** 2,
        ])
        s = sp.sin(pi * X) * sp.sin(pi * Y) * sp.sin(pi * Z)
        psi = sp.Matrix([s.diff(X), s.diff(Y), s.diff(Z)])
        e = T * sym_curl(phi) + T**2 * psi
        b = -(T**2 / 2) * sym_curl(sym_curl(phi))
        eps = sigma = mu = sp.Integer(1)
    else:
        omega = sp.Rational(11, 5) * pi
        e = sp.Matrix([0, 0, sp.sin(pi * X) * sp.sin(pi * Y)]) * sp.cos(omega * T)
        b = sp.Matrix([-sp.cos(pi * Y) * sp.sin(pi * X),
                       sp.cos(pi * X) * sp.sin(pi * Y), 0]) \
            * sp.sin(omega * T) / sp.Rational(11, 5)
        mu = 1 / (1 + X**2 + Y**2 + Z**2)
        eps = 2 - X**2 - Z
        sigma = 2 - Y**2 + Z
    j = eps * e.diff(T) + sigma * e - sym_curl(b / mu)
    fns = [sp.lambdify((X, Y, Z, T), c, "numpy") for c in j]

    def current(pts, t):
        pts = np.asarray(pts, dtype=float)
        xs, ys, zs = pts[..., 0], pts[..., 1], pts[..., 2]
        return np.stack([np.broadcast_to(fn(xs, ys, zs, t), xs.shape)
                         for fn in fns], axis=-1)

    return current


def assert_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestCurrentTerms:
    @pytest.fixture(scope="class", params=[(1, 3), (2, 2)], ids=["case1", "case2"])
    def case_and_oracle(self, request):
        case_id, n_terms = request.param
        case = cases.get_case(case_id)
        assert len(case.J_terms) == n_terms      # one term per time factor
        return case, full_current(case_id)

    def test_pointwise_scalar_and_array_time(self, case_and_oracle):
        case, current = case_and_oracle
        rng = np.random.default_rng(7)
        pts = rng.random((500, 3))
        for t in (0.0, 0.37, 1.0):
            got = sum(a(t) * g(pts) for a, g in case.J_terms)
            assert_close(got, current(pts, t))
        ts = rng.random(500)
        got = sum(a(ts)[:, None] * g(pts) for a, g in case.J_terms)
        assert_close(got, current(pts, ts))

    def test_edge_interpolant_of_terms(self, case_and_oracle, cube4, voro27):
        case, current = case_and_oracle
        for mesh in (cube4, voro27):
            parts = [(a, vd.interpolate_edge(mesh, g)) for a, g in case.J_terms]
            for t in (0.37, 1.0):
                want = vd.interpolate_edge(mesh, lambda p: current(p, t))
                assert_close(sum(a(t) * j for a, j in parts), want)
