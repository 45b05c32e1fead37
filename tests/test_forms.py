import numpy as np
import pytest
import scipy.sparse as sps

from conftest import SPLIT_MESHES, block_rows, constant_edge_dofs, constant_face_dofs
from vemaxwell import cases, forms, stepper
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


def stab_diagonal(local_mass, mesh, k):
    """Cell k's stabilization as the diagonal matrix ``local_mass`` returns."""
    factors = local_mass(mesh, vd.build_projectors(mesh))
    return np.diag(factors.stab[factors.cells == k])


class TestStabilizations:
    def test_edge_entries_unit_cube(self, cube1):
        s = stab_diagonal(forms.local_edge_mass, cube1, 0)
        # every cube edge sits in two faces: h_K^2 * 2 * |e| = 3 * 2 * 1
        assert np.allclose(np.diag(s), 6.0, rtol=1e-14)
        assert np.abs(s - np.diag(np.diag(s))).max() == 0.0

    def test_face_entries_unit_cube(self, cube1):
        s = stab_diagonal(forms.local_face_mass, cube1, 0)
        assert np.allclose(np.diag(s), np.sqrt(3.0), rtol=1e-14)

    def test_zero_vector(self, cube1):
        z = np.zeros(12)
        assert z @ stab_diagonal(forms.local_edge_mass, cube1, 0) @ z == 0.0

    def test_scaling_homogeneity(self):
        # uniform scaling by 2 multiplies both quadratic forms by 8
        m1 = vm.generate_cube_mesh(1)
        m2 = vm.generate_cube_mesh(1, domain=((0, 0, 0), (2, 2, 2)))
        for local_mass in (forms.local_edge_mass, forms.local_face_mass):
            assert np.allclose(stab_diagonal(local_mass, m2, 0),
                               8 * stab_diagonal(local_mass, m1, 0), rtol=1e-13)


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


def local_product(mesh, k, kind, proj, **eta):
    """Cell k's local product on its own DOFs: the unconstrained global
    matrix with weight one on cell k and zero elsewhere."""
    w = np.zeros(mesh.n_cells)
    w[k] = 1.0
    m = forms.assemble_global(mesh, vd.build_dofs(mesh), w, kind, proj,
                              forms.StabWeights(**eta), restrict=False)
    ids = mesh.cell_edges[k] if kind == "edge" else mesh.cell_faces[k]
    return m[ids][:, ids].toarray()


class TestLocalMass:
    def test_edge_consistency_on_constants(self, cube1):
        proj = vd.build_projectors(cube1)
        m = local_product(cube1, 0, "edge", proj)
        c1, c2 = np.array([0.3, -0.7, 1.1]), np.array([-0.5, 0.2, 0.9])
        u = constant_edge_dofs(cube1, c1)
        v = constant_edge_dofs(cube1, c2)
        assert u @ m @ v == pytest.approx(c1 @ c2, rel=1e-12)   # |K| = 1

    def test_edge_positivity(self, cube1, voro8):
        rng = np.random.default_rng(0)
        for mesh in (cube1, voro8):
            proj = vd.build_projectors(mesh)
            for k in range(mesh.n_cells):
                m = local_product(mesh, k, "edge", proj)
                for _ in range(20):
                    x = rng.standard_normal(m.shape[0])
                    assert x @ m @ x > 0.0

    def test_edge_single_dof_vs_oracle(self, cube1):
        proj = vd.build_projectors(cube1)
        m = local_product(cube1, 0, "edge", proj, eta_edge=0.01)
        oracle = oracle_edge_mass(cube1, 0, eta=0.01)
        assert np.abs(m - oracle).max() < 1e-14
        x = np.zeros(12)
        x[3] = 1.0
        assert x @ m @ x == pytest.approx(x @ oracle @ x, rel=1e-13)

    def test_face_consistency_on_constants(self, cube2):
        proj = vd.build_projectors(cube2)
        c1, c2 = np.array([1.2, 0.4, -0.3]), np.array([0.1, -0.8, 0.5])
        for k in range(cube2.n_cells):
            m = local_product(cube2, k, "face", proj)
            fids = cube2.cell_faces[k]
            u = cube2.face_normals[fids] @ c1
            v = cube2.face_normals[fids] @ c2
            exact = (c1 @ c2) * cube2.cell_volumes[k]
            assert u @ m @ v == pytest.approx(exact, rel=1e-12)

    def test_face_single_dof_value(self, cube1):
        # frozen oracle: [psi, psi] = |P0 psi|^2 + eta h_K (|F| sums of the
        # residual DOFs squared) = 0.25 + 0.5 * sqrt(3) * 0.5
        proj = vd.build_projectors(cube1)
        m = local_product(cube1, 0, "face", proj, eta_face=0.5)
        top = next(f for f in range(6)
                   if abs(cube1.face_centroids[f][2] - 1.0) < 1e-14)
        j = int(np.flatnonzero(cube1.cell_faces[0] == top)[0])
        x = np.zeros(6)
        x[j] = 1.0
        assert x @ m @ x == pytest.approx(0.25 + np.sqrt(3.0) / 4, rel=1e-13)

    def test_face_positive_definite_on_voronoi(self, voro8):
        proj = vd.build_projectors(voro8)
        for k in range(voro8.n_cells):
            eigs = np.linalg.eigvalsh(local_product(voro8, k, "face", proj))
            assert eigs.min() > 0.0
            eigs = np.linalg.eigvalsh(local_product(voro8, k, "edge", proj))
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


# Per-entity projector and local-mass loops, kept as oracles for the
# global sparse maps.

def loop_face_tangential(mesh, f):
    """(3, loop edges) map of face f: (1/|F|) sum_e sigma |e| n_F x (m_e - b_F)."""
    eids = mesh.face_edges[f]
    sig = mesh.face_edge_signs[f]
    n = mesh.face_normals[f]
    arm = mesh.edge_midpoints[eids] - mesh.face_centroids[f]
    cols = sig[:, None] * mesh.edge_lengths[eids, None] * np.cross(n[None, :], arm)
    return cols.T / mesh.face_areas[f]


def loop_edge_cell(mesh, k):
    """(3, sorted cell edges) map of cell k, summed face by face."""
    eids = mesh.cell_edges[k]
    pos = {e: j for j, e in enumerate(eids)}
    out = np.zeros((3, eids.size))
    b_k = mesh.cell_centroids[k]
    for f, s in zip(mesh.cell_faces[k], mesh.cell_face_signs[k]):
        pt = loop_face_tangential(mesh, f)
        n_out = s * mesh.face_normals[f]
        r = mesh.face_centroids[f] - b_k
        block = mesh.face_areas[f] * (float(n_out @ r) * pt - np.outer(n_out, r @ pt))
        np.add.at(out, (slice(None), [pos[e] for e in mesh.face_edges[f]]), block)
    return out / (2.0 * mesh.cell_volumes[k])


def loop_face_cell(mesh, k):
    """(3, cell faces) map of cell k: (1/|K|) sum_F sigma |F| (b_F - b_K)."""
    fids = mesh.cell_faces[k]
    arm = mesh.face_centroids[fids] - mesh.cell_centroids[k]
    cols = (mesh.cell_face_signs[k] * mesh.face_areas[fids])[:, None] * arm
    return cols.T / mesh.cell_volumes[k]


def loop_local_mass(mesh, k, kind, eta):
    """Dense local product of cell k on its own DOFs."""
    if kind == "edge":
        ids, p, t = mesh.cell_edges[k], loop_edge_cell(mesh, k), mesh.edge_tangents
        pos = {e: j for j, e in enumerate(ids)}
        mult = np.zeros(ids.size)
        for f in mesh.cell_faces[k]:
            for e in mesh.face_edges[f]:
                mult[pos[e]] += 1.0
        s = mesh.cell_diameters[k] ** 2 * mult * mesh.edge_lengths[ids]
    else:
        ids, p, t = mesh.cell_faces[k], loop_face_cell(mesh, k), mesh.face_normals
        s = mesh.cell_diameters[k] * mesh.face_areas[ids]
    j = np.eye(ids.size) - t[ids] @ p
    m = mesh.cell_volumes[k] * (p.T @ p) + eta * (j.T @ np.diag(s) @ j)
    return 0.5 * (m + m.T)


def loop_assemble(mesh, dofs, w, kind, eta, restrict=True):
    """Cell-by-cell triplet assembly of the weighted local products."""
    ids = mesh.cell_edges if kind == "edge" else mesh.cell_faces
    n, keep = ((dofs.n_edges, dofs.interior_edges) if kind == "edge"
               else (dofs.n_faces, dofs.interior_faces))
    vals = np.concatenate([w[k] * loop_local_mass(mesh, k, kind, eta).ravel()
                           for k in range(mesh.n_cells)])
    rows = np.concatenate([np.repeat(g, g.size) for g in ids])
    cols = np.concatenate([np.tile(g, g.size) for g in ids])
    mat = sps.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return mat[keep][:, keep].tocsr() if restrict else mat


class TestSparseMatchesLoops:
    """Projector maps and every matrix of ``build_step_operators`` agree
    with the per-entity loops to 1e-14 of their largest entry, compared by
    value (the sparse products store fewer exact zeros)."""

    @staticmethod
    def assert_blocks(proj_map, blocks, entity_ids):
        scale = max(np.abs(b).max() for b in blocks)
        for i, (want, ids) in enumerate(zip(blocks, entity_ids)):
            rows = proj_map[3 * i:3 * i + 3].toarray()
            assert np.abs(block_rows(proj_map, i, ids) - want).max() <= 1e-14 * scale
            rows[:, ids] = 0.0
            assert not rows.any()        # nothing outside entity i's own DOFs

    @pytest.mark.parametrize("name", SPLIT_MESHES)
    def test_projectors(self, name, request):
        m = request.getfixturevalue(name)
        proj = vd.build_projectors(m)
        cells = range(m.n_cells)
        self.assert_blocks(proj.face_tangential,
                           [loop_face_tangential(m, f) for f in range(m.n_faces)],
                           m.face_edges)
        self.assert_blocks(proj.edge_cell, [loop_edge_cell(m, k) for k in cells],
                           m.cell_edges)
        self.assert_blocks(proj.face_cell, [loop_face_cell(m, k) for k in cells],
                           m.cell_faces)

    @pytest.mark.parametrize("name", SPLIT_MESHES)
    def test_step_operators(self, name, request):
        # lcell and two_prisms have no interior edges: their unconstrained
        # products carry the comparison
        m = request.getfixturevalue(name)
        case, tau, stab = cases.case2(), 0.125, forms.StabWeights()
        dofs = vd.build_dofs(m)
        proj = vd.build_projectors(m)
        coeffs = forms.sample_coefficients(m, case.eps, case.sigma, case.mu)
        ops = stepper.build_step_operators(m, dofs, proj, coeffs, tau)

        m_eps = loop_assemble(m, dofs, coeffs.eps_hat, "edge", stab.eta_edge)
        m_sigma = loop_assemble(m, dofs, coeffs.sigma_hat, "edge", stab.eta_edge)
        m_edge = loop_assemble(m, dofs, np.ones(m.n_cells), "edge", stab.eta_edge,
                               restrict=False)
        m_face = loop_assemble(m, dofs, 1.0 / coeffs.mu_hat, "face", stab.eta_face)
        m_face_full = loop_assemble(m, dofs, 1.0 / coeffs.mu_hat, "face", stab.eta_face,
                                    restrict=False)
        curl = ops.c_int.T @ m_face @ ops.c_int
        system = m_eps + tau * m_sigma + tau**2 * (0.5 * (curl + curl.T))
        edge_full = forms.assemble_global(m, dofs, np.ones(m.n_cells), "edge", proj,
                                          restrict=False)
        face_full = forms.assemble_global(m, dofs, 1.0 / coeffs.mu_hat, "face", proj,
                                          restrict=False)
        for got, want in ((ops.m_eps, m_eps), (ops.m_sigma, m_sigma),
                          (ops.m_edge_load, m_edge[dofs.interior_edges]),
                          (ops.m_face, m_face), (ops.system.to_scipy(), system),
                          (edge_full, m_edge), (face_full, m_face_full)):
            got, want = got.toarray(), want.toarray()
            assert got.shape == want.shape
            assert (np.abs(got - want).max(initial=0.0)
                    <= 1e-14 * np.abs(want).max(initial=0.0))
            if got.shape[0] == got.shape[1]:
                assert (got == got.T).all()
