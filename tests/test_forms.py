import numpy as np
import pytest

from conftest import constant_edge_dofs, constant_face_dofs
from vemaxwell import cases, forms
from vemaxwell import derham as vd
from vemaxwell import mesh as vm


class TestCoefficients:
    def test_case1_all_ones(self, cube2):
        c = cases.case1()
        cs = forms.sample_coefficients(cube2, c.eps, c.sigma, c.mu)
        assert np.allclose(cs.eps_hat, 1.0) and np.allclose(cs.mu_hat, 1.0)
        assert np.allclose(cs.sigma_hat, 1.0)

    def test_case2_samples_at_center(self, cube1):
        c = cases.case2()
        cs = forms.sample_coefficients(cube1, c.eps, c.sigma, c.mu)
        assert cs.eps_hat[0] == pytest.approx(2 - 0.25 - 0.5, rel=1e-14)   # 1.25
        assert cs.mu_hat[0] == pytest.approx(4 / 7, rel=1e-14)

    def test_bound_violations(self, cube1):
        with pytest.raises(ValueError, match="permittivity"):
            forms.sample_coefficients(cube1, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="conductivity"):
            forms.sample_coefficients(cube1, 1.0, -0.1, 1.0)
        with pytest.raises(ValueError, match="permeability"):
            forms.sample_coefficients(cube1, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("which", ["permittivity", "conductivity", "permeability"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, cube2, which, bad):
        values = {"permittivity": 1.0, "conductivity": 0.5, "permeability": 1.0}
        values[which] = lambda p: np.where(p[..., 0] > 0.5, bad, 1.0)
        with pytest.raises(ValueError, match=f"bound violation: non-finite {which}"):
            forms.sample_coefficients(cube2, values["permittivity"],
                                      values["conductivity"], values["permeability"])

    def test_scalars_accepted(self, cube2):
        cs = forms.sample_coefficients(cube2, 2.0, 0.5, 3.0)
        assert np.allclose(cs.eps_hat, 2.0)


class TestStabilizations:
    def test_edge_entries_unit_cube(self, cube1):
        s = forms.stab_edge(cube1, 0)
        # every cube edge sits in two faces: h_K^2 * 2 * |e| = 3 * 2 * 1
        assert np.allclose(np.diag(s), 6.0, rtol=1e-14)
        assert np.abs(s - np.diag(np.diag(s))).max() == 0.0

    def test_face_entries_unit_cube(self, cube1):
        s = forms.stab_face(cube1, 0)
        assert np.allclose(np.diag(s), np.sqrt(3.0), rtol=1e-14)

    def test_zero_vector(self, cube1):
        z = np.zeros(12)
        assert z @ forms.stab_edge(cube1, 0) @ z == 0.0

    def test_scaling_homogeneity(self):
        # uniform scaling by 2 multiplies both quadratic forms by 8
        m1 = vm.generate_cube_mesh(1)
        m2 = vm.generate_cube_mesh(1, domain=((0, 0, 0), (2, 2, 2)))
        assert np.allclose(forms.stab_edge(m2, 0), 8 * forms.stab_edge(m1, 0),
                           rtol=1e-13)
        assert np.allclose(forms.stab_face(m2, 0), 8 * forms.stab_face(m1, 0),
                           rtol=1e-13)


def oracle_edge_mass(mesh, k, eta):
    """Literal first-principles evaluation, independent of forms.py."""
    eids = mesh.cell_edges[k]
    n_loc = eids.size
    pos = {e: i for i, e in enumerate(eids)}
    h_k = mesh.cell_diameters[k]
    vol = mesh.cell_volumes[k]
    b_k = mesh.cell_centroids[k]
    # projector: boundary formula built from per-face tangential averages
    p = np.zeros((3, n_loc))
    for f, s in zip(mesh.cell_faces[k], mesh.cell_face_signs[k]):
        n = mesh.face_normals[f]
        b_f = mesh.face_centroids[f]
        area = mesh.face_areas[f]
        pt = np.zeros((3, n_loc))
        for j, e in enumerate(mesh.face_edges[f]):
            sig = mesh.face_edge_signs[f][j]
            arm = mesh.edge_midpoints[e] - b_f
            pt[:, pos[e]] += sig * mesh.edge_lengths[e] * np.cross(n, arm) / area
        n_out = s * n
        r = b_f - b_k
        p += area * (float(n_out @ r) * pt - np.outer(n_out, r @ pt)) / (2 * vol)
    t = mesh.edge_tangents[eids]
    j = np.eye(n_loc) - t @ p
    s_diag = np.zeros(n_loc)
    for f in mesh.cell_faces[k]:
        for e in mesh.face_edges[f]:
            s_diag[pos[e]] += h_k**2 * mesh.edge_lengths[e]
    return vol * p.T @ p + eta * j.T @ np.diag(s_diag) @ j


class TestLocalMass:
    def test_edge_consistency_on_constants(self, cube1):
        proj = vd.build_projectors(cube1)
        m = forms.local_edge_mass(cube1, 0, proj)
        c1, c2 = np.array([0.3, -0.7, 1.1]), np.array([-0.5, 0.2, 0.9])
        u = constant_edge_dofs(cube1, c1)
        v = constant_edge_dofs(cube1, c2)
        assert u @ m @ v == pytest.approx(c1 @ c2, rel=1e-12)   # |K| = 1

    def test_edge_positivity(self, cube1, voro8):
        rng = np.random.default_rng(0)
        for mesh in (cube1, voro8):
            proj = vd.build_projectors(mesh)
            for k in range(mesh.n_cells):
                m = forms.local_edge_mass(mesh, k, proj)
                for _ in range(20):
                    x = rng.standard_normal(m.shape[0])
                    assert x @ m @ x > 0.0

    def test_edge_single_dof_vs_oracle(self, cube1):
        proj = vd.build_projectors(cube1)
        m = forms.local_edge_mass(cube1, 0, proj, eta_edge=0.01)
        oracle = oracle_edge_mass(cube1, 0, eta=0.01)
        assert np.abs(m - oracle).max() < 1e-14
        x = np.zeros(12)
        x[3] = 1.0
        assert x @ m @ x == pytest.approx(x @ oracle @ x, rel=1e-13)

    def test_face_consistency_on_constants(self, cube2):
        proj = vd.build_projectors(cube2)
        c1, c2 = np.array([1.2, 0.4, -0.3]), np.array([0.1, -0.8, 0.5])
        for k in range(cube2.n_cells):
            m = forms.local_face_mass(cube2, k, proj)
            fids = cube2.cell_faces[k]
            u = cube2.face_normals[fids] @ c1
            v = cube2.face_normals[fids] @ c2
            exact = (c1 @ c2) * cube2.cell_volumes[k]
            assert u @ m @ v == pytest.approx(exact, rel=1e-12)

    def test_face_single_dof_value(self, cube1):
        # frozen oracle: [psi, psi] = |P0 psi|^2 + eta h_K (|F| sums of the
        # residual DOFs squared) = 0.25 + 0.5 * sqrt(3) * 0.5
        proj = vd.build_projectors(cube1)
        m = forms.local_face_mass(cube1, 0, proj, eta_face=0.5)
        top = next(f for f in range(6)
                   if abs(cube1.face_centroids[f][2] - 1.0) < 1e-14)
        j = int(np.flatnonzero(cube1.cell_faces[0] == top)[0])
        x = np.zeros(6)
        x[j] = 1.0
        assert x @ m @ x == pytest.approx(0.25 + np.sqrt(3.0) / 4, rel=1e-13)

    def test_face_positive_definite_on_voronoi(self, voro8):
        proj = vd.build_projectors(voro8)
        for k in range(voro8.n_cells):
            eigs = np.linalg.eigvalsh(forms.local_face_mass(voro8, k, proj))
            assert eigs.min() > 0.0
            eigs = np.linalg.eigvalsh(forms.local_edge_mass(voro8, k, proj))
            assert eigs.min() > 0.0


class TestAssembleGlobal:
    def test_single_cell_fully_eliminated(self, cube1):
        dofs = vd.build_dofs(cube1)
        proj = vd.build_projectors(cube1)
        m = forms.assemble_global(cube1, dofs, np.ones(1), "edge", proj)
        assert m.shape == (0, 0)

    def test_dimension_is_interior_count(self, cube2):
        dofs = vd.build_dofs(cube2)
        proj = vd.build_projectors(cube2)
        m = forms.assemble_global(cube2, dofs, np.ones(8), "edge", proj)
        assert m.shape == (6, 6)       # six edges at the center vertex
        mf = forms.assemble_global(cube2, dofs, np.ones(8), "face", proj)
        assert mf.shape == (12, 12)

    def test_global_consistency_no_bc(self, cube2, voro8):
        c1, c2 = np.array([0.6, -0.2, 0.8]), np.array([-0.4, 1.0, 0.3])
        for mesh in (cube2, voro8):
            dofs = vd.build_dofs(mesh)
            proj = vd.build_projectors(mesh)
            w = np.linspace(1.0, 2.0, mesh.n_cells)
            m = forms.assemble_global(mesh, dofs, w, "edge", proj, restrict=False)
            u = constant_edge_dofs(mesh, c1)
            v = constant_edge_dofs(mesh, c2)
            exact = (w * mesh.cell_volumes).sum() * (c1 @ c2)
            assert u @ (m @ v) == pytest.approx(exact, rel=1e-12)
            mf = forms.assemble_global(mesh, dofs, w, "face", proj, restrict=False)
            uf = constant_face_dofs(mesh, c1)
            vf = constant_face_dofs(mesh, c2)
            assert uf @ (mf @ vf) == pytest.approx(exact, rel=1e-12)

    def test_exact_symmetry(self, cube4, voro27):
        for mesh in (cube4, voro27):
            dofs = vd.build_dofs(mesh)
            proj = vd.build_projectors(mesh)
            for kind in ("edge", "face"):
                m = forms.assemble_global(mesh, dofs, np.ones(mesh.n_cells),
                                          kind, proj)
                d = (m - m.T)
                assert d.nnz == 0 or np.abs(d.data).max() == 0.0

    def test_positivity_100_random_vectors(self, cube4, voro8):
        rng = np.random.default_rng(1)
        for mesh in (cube4, voro8):
            dofs = vd.build_dofs(mesh)
            proj = vd.build_projectors(mesh)
            for kind in ("edge", "face"):
                m = forms.assemble_global(mesh, dofs, np.ones(mesh.n_cells),
                                          kind, proj)
                for _ in range(100):
                    x = rng.standard_normal(m.shape[0])
                    assert x @ (m @ x) > 0.0

    def test_bad_weights(self, cube1):
        dofs = vd.build_dofs(cube1)
        proj = vd.build_projectors(cube1)
        with pytest.raises(ValueError):
            forms.assemble_global(cube1, dofs, np.ones(5), "edge", proj)
        with pytest.raises(ValueError):
            forms.assemble_global(cube1, dofs, np.ones(1), "nodal", proj)

    def test_stab_weights_validation(self):
        with pytest.raises(ValueError):
            forms.StabWeights(eta_edge=0.0)
        w = forms.StabWeights()
        assert w.eta_edge == 0.01 and w.eta_face == 0.5
