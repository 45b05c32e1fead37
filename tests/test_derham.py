import numpy as np
import pytest
import sympy as sp

from conftest import block_rows, constant_face_dofs
from vemaxwell import derham as vd
from vemaxwell import geometry as vg

X, Y, Z = sp.symbols("x y z", real=True)


def sym_vector(exprs):
    fns = [sp.lambdify((X, Y, Z), e, "numpy") for e in exprs]

    def f(p):
        p = np.asarray(p, dtype=float)
        return np.stack([np.broadcast_to(fn(p[..., 0], p[..., 1], p[..., 2]),
                                         p[..., 0].shape) for fn in fns], axis=-1)
    return f


def sym_curl(exprs):
    return [sp.diff(exprs[2], Y) - sp.diff(exprs[1], Z),
            sp.diff(exprs[0], Z) - sp.diff(exprs[2], X),
            sp.diff(exprs[1], X) - sp.diff(exprs[0], Y)]


class TestGradientMatrix:
    def test_linear_z(self, cube1):
        g = vd.gradient_matrix(cube1)
        p = cube1.vertices[:, 2]
        dofs = g @ p
        vertical = np.abs(cube1.edge_tangents[:, 2]) > 0.5
        assert np.allclose(dofs[vertical], 1.0, atol=1e-14)
        assert np.allclose(dofs[~vertical], 0.0, atol=1e-14)
        assert vertical.sum() == 4

    def test_constant(self, cube2):
        g = vd.gradient_matrix(cube2)
        assert np.abs(g @ np.ones(cube2.n_vertices)).max() == 0.0

    def test_linear_field_fd_oracle(self, cube2):
        # oracle: finite difference of p along each edge
        p = cube2.vertices @ np.array([1.0, 2.0, 3.0])
        dofs = vd.gradient_matrix(cube2) @ p
        lo, hi = cube2.edges[:, 0], cube2.edges[:, 1]
        fd = (p[hi] - p[lo]) / cube2.edge_lengths
        assert np.allclose(dofs, fd, rtol=1e-14)
        assert np.allclose(dofs, cube2.edge_tangents @ [1, 2, 3], atol=1e-13)


class TestCurlMatrix:
    def test_unit_square_circulation(self, cube1):
        c = vd.curl_matrix(cube1)
        f = 0
        v = np.zeros(cube1.n_edges)
        eids = cube1.face_edges[f]
        v[eids] = cube1.face_edge_signs[f]      # +1 in the CCW sense
        # Stokes oracle: sum |e| / |F| = 4 on a unit square
        assert (c @ v)[f] == pytest.approx(4.0, rel=1e-14)

    def test_annihilates_gradients(self, cube2):
        g = vd.gradient_matrix(cube2)
        c = vd.curl_matrix(cube2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.standard_normal(cube2.n_vertices)
            gp = g @ p
            assert np.abs(c @ gp).max() <= 1e-13 * np.abs(gp).max()

    def test_rigid_rotation_curl(self, cube1):
        # field (-y, x, 0) has curl (0, 0, 2); edge DOFs by quadrature
        v = vd.interpolate_edge(cube1, sym_vector([-Y, X, 0]))
        c = vd.curl_matrix(cube1)
        top = next(f for f in range(6)
                   if abs(cube1.face_centroids[f][2] - 1.0) < 1e-14)
        n_z = cube1.face_normals[top][2]
        assert (c @ v)[top] == pytest.approx(2.0 * n_z, rel=1e-12)


class TestDivergenceMatrix:
    def test_constant_field(self, cube1):
        d = vd.divergence_matrix(cube1)
        psi = constant_face_dofs(cube1, [0.3, -0.8, 1.1])
        assert np.abs(d @ psi).max() < 1e-13

    def test_annihilates_curls(self, cube2, voro8):
        rng = np.random.default_rng(1)
        for m in (cube2, voro8):
            c = vd.curl_matrix(m)
            d = vd.divergence_matrix(m)
            for _ in range(10):
                v = rng.standard_normal(m.n_edges)
                cv = c @ v
                assert np.abs(d @ cv).max() <= 1e-13 * np.abs(cv).max()

    def test_single_face_flux(self, cube1):
        d = vd.divergence_matrix(cube1)
        top = next(f for f in range(6)
                   if abs(cube1.face_centroids[f][2] - 1.0) < 1e-14)
        psi = np.zeros(6)
        psi[top] = 1.0
        assert (d @ psi)[0] == pytest.approx(1.0, rel=1e-14)   # |F| / |K| = 1


class TestFaceTangentialProjector:
    def test_constant_tangential(self, cube1):
        face_tangential = vd.build_projectors(cube1).face_tangential
        for f in range(cube1.n_faces):
            n = cube1.face_normals[f]
            c = np.array([0.7, -0.2, 0.5])
            ct = c - (c @ n) * n
            dofs = cube1.edge_tangents[cube1.face_edges[f]] @ ct
            proj = block_rows(face_tangential, f, cube1.face_edges[f])
            assert np.abs(proj @ dofs - ct).max() < 1e-13

    def test_rotation_pattern_is_zero(self, cube1):
        f = 0
        dofs = cube1.face_edge_signs[f].astype(float)   # +1 CCW on the square
        proj = block_rows(vd.build_projectors(cube1).face_tangential, f,
                          cube1.face_edges[f])
        assert np.abs(proj @ dofs).max() < 1e-14

    def test_gradient_trace_with_quadrature_oracle(self, cube1):
        bottom = next(f for f in range(6)
                      if abs(cube1.face_centroids[f][2]) < 1e-14)
        grad = np.array([1.0, 0.0, 0.0])      # tangential trace of grad(x)
        dofs = cube1.edge_tangents[cube1.face_edges[bottom]] @ grad
        proj = block_rows(vd.build_projectors(cube1).face_tangential, bottom,
                          cube1.face_edges[bottom])
        result = proj @ dofs
        assert np.allclose(result, [1, 0, 0], atol=1e-13)
        # cross-check: face-quadrature mean of the (constant) gradient field
        rule = vg.face_quadrature(cube1, bottom, 2)
        mean = (rule.weights[:, None] * np.broadcast_to(grad, (len(rule.weights), 3))
                ).sum(axis=0) / cube1.face_areas[bottom]
        assert np.allclose(result, mean, atol=1e-13)


class TestCellProjectors:
    def test_edge_constants_all_meshes(self, cube2, two_prisms, lcell, voro8):
        c = np.array([0.4, -1.1, 0.9])
        for m in (cube2, two_prisms, lcell, voro8):
            proj = vd.build_projectors(m)
            for k in range(m.n_cells):
                dofs = m.edge_tangents[m.cell_edges[k]] @ c
                p = block_rows(proj.edge_cell, k, m.cell_edges[k])
                assert np.abs(p @ dofs - c).max() < 1e-12

    def test_edge_gradients_of_linears(self, cube2, two_prisms, lcell, voro8):
        g = np.array([1.0, 2.0, 3.0])
        for m in (cube2, two_prisms, lcell, voro8):
            proj = vd.build_projectors(m)
            for k in range(m.n_cells):
                dofs = m.edge_tangents[m.cell_edges[k]] @ g
                result = block_rows(proj.edge_cell, k, m.cell_edges[k]) @ dofs
                assert np.abs(result - g).max() < 1e-12
                # independent cross-check: cell-quadrature mean of the field
                rule = vg.cell_quadrature(m, k, 2)
                mean = rule.weights @ np.broadcast_to(g, (len(rule.weights), 3))
                mean = mean / m.cell_volumes[k]
                assert np.abs(result - mean).max() < 1e-12

    def test_edge_zero_vector(self, cube1, cube4_proj):
        proj = vd.build_projectors(cube1)
        p = block_rows(proj.edge_cell, 0, cube1.cell_edges[0])
        assert np.abs(p @ np.zeros(12)).max() == 0.0

    def test_face_constants(self, cube1, voro8):
        c = np.array([-0.3, 0.8, 0.6])
        for m in (cube1, voro8):
            proj = vd.build_projectors(m)
            for k in range(m.n_cells):
                dofs = m.face_normals[m.cell_faces[k]] @ c
                p = block_rows(proj.face_cell, k, m.cell_faces[k])
                assert np.abs(p @ dofs - c).max() < 1e-13

    def test_face_single_dof(self, cube1):
        proj = vd.build_projectors(cube1)
        top = next(f for f in range(6)
                   if abs(cube1.face_centroids[f][2] - 1.0) < 1e-14)
        j = int(np.flatnonzero(cube1.cell_faces[0] == top)[0])
        dofs = np.zeros(6)
        dofs[j] = 1.0
        result = block_rows(proj.face_cell, 0, cube1.cell_faces[0]) @ dofs
        # dense oracle: sigma * psi * |F| * (b_F - b_K) / |K|
        s = cube1.cell_face_signs[0][j]
        oracle = s * 1.0 * cube1.face_areas[top] * (
            cube1.face_centroids[top] - cube1.cell_centroids[0])
        assert np.allclose(result, oracle, atol=1e-14)
        assert np.allclose(result, [0, 0, 0.5], atol=1e-13)

    def test_face_zero(self, cube1):
        proj = vd.build_projectors(cube1)
        p = block_rows(proj.face_cell, 0, cube1.cell_faces[0])
        assert np.abs(p @ np.zeros(6)).max() == 0.0


class TestInterpolation:
    def test_edge_axis_fields(self, cube1):
        dofs = vd.interpolate_edge(cube1, sym_vector([0, 0, 1]))
        vertical = np.abs(cube1.edge_tangents[:, 2]) > 0.5
        assert np.allclose(dofs[vertical], cube1.edge_tangents[vertical, 2],
                           atol=1e-13)
        assert np.allclose(dofs[~vertical], 0.0, atol=1e-13)

    def test_edge_linear_field(self, cube1):
        # field (y, 0, 0): exact line integrals of a linear field
        dofs = vd.interpolate_edge(cube1, sym_vector([Y, 0, 0]))
        for e in range(cube1.n_edges):
            t = cube1.edge_tangents[e]
            mid_y = cube1.edge_midpoints[e][1]
            assert dofs[e] == pytest.approx(t[0] * mid_y, abs=1e-13)

    def test_face_constant(self, cube2):
        c = np.array([0.2, 0.9, -0.4])
        dofs = vd.interpolate_face(cube2, lambda p: np.broadcast_to(c, p.shape))
        assert np.allclose(dofs, cube2.face_normals @ c, atol=1e-13)

    def test_face_linear_flux(self, cube1):
        dofs = vd.interpolate_face(cube1, sym_vector([X, 0, 0]))
        for f in range(6):
            n = cube1.face_normals[f]
            expected = n[0] * cube1.face_centroids[f][0]
            assert dofs[f] == pytest.approx(expected, abs=1e-13)

    def test_node_fields(self, cube2):
        assert np.allclose(vd.interpolate_node(cube2, lambda p: np.ones(p.shape[:-1])), 1.0)
        dofs = vd.interpolate_node(cube2, lambda p: p[..., 2])
        assert np.allclose(dofs, cube2.vertices[:, 2], atol=1e-15)
        dofs = vd.interpolate_node(cube2, lambda p: np.sin(np.pi * p[..., 0]))
        vid = np.flatnonzero((np.abs(cube2.vertices - [0.5, 0, 0]) < 1e-12).all(axis=1))
        assert dofs[vid[0]] == pytest.approx(1.0, rel=1e-14)


class TestExactSequenceAndCommuting:
    def test_exact_sequence_all_meshes(self, cube4, voro8, voro27, lcell, two_prisms):
        rng = np.random.default_rng(42)
        for m in (cube4, voro8, voro27, lcell, two_prisms):
            g, c, d = (vd.gradient_matrix(m), vd.curl_matrix(m),
                       vd.divergence_matrix(m))
            for _ in range(50):
                p = rng.standard_normal(m.n_vertices)
                v = rng.standard_normal(m.n_edges)
                gp, cv = g @ p, c @ v
                assert np.abs(c @ gp).max() <= 1e-13 * np.abs(gp).max()
                assert np.abs(d @ cv).max() <= 1e-13 * np.abs(cv).max()

    def test_commuting_curl(self, cube4):
        e_sym = [sp.sin(sp.pi * Y) * Z**2, sp.cos(X) * sp.exp(Y / 2),
                 X * Y * Z + sp.sin(Z)]
        ie = vd.interpolate_edge(cube4, sym_vector(e_sym))
        if_ = vd.interpolate_face(cube4, sym_vector(sym_curl(e_sym)))
        c = vd.curl_matrix(cube4)
        assert np.abs(c @ ie - if_).max() < 1e-9

    def test_commuting_gradient(self, cube4):
        v_sym = sp.sin(X) * Y + sp.exp(Z / 3) * sp.cos(Y)
        fn = sp.lambdify((X, Y, Z), v_sym, "numpy")
        iv = vd.interpolate_node(cube4, lambda p: fn(p[..., 0], p[..., 1], p[..., 2]))
        ig = vd.interpolate_edge(
            cube4, sym_vector([sp.diff(v_sym, s) for s in (X, Y, Z)]))
        g = vd.gradient_matrix(cube4)
        assert np.abs(g @ iv - ig).max() < 1e-9

    def test_commuting_divergence(self, cube4):
        b_sym = [sp.sin(sp.pi * Y) * Z, sp.cos(X) * Y, sp.exp(X / 2) + Z * Y]
        div_sym = sum(sp.diff(b_sym[i], s) for i, s in enumerate((X, Y, Z)))
        ib = vd.interpolate_face(cube4, sym_vector(b_sym))
        d = vd.divergence_matrix(cube4)
        fn = sp.lambdify((X, Y, Z), div_sym, "numpy")
        avg = np.empty(cube4.n_cells)
        for k in range(cube4.n_cells):
            rule = vg.cell_quadrature(cube4, k, 12)
            avg[k] = (rule.weights @ fn(rule.points[:, 0], rule.points[:, 1],
                                        rule.points[:, 2])) / cube4.cell_volumes[k]
        assert np.abs(d @ ib - avg).max() < 1e-9


class TestDofs:
    def test_partition(self, cube2, voro8):
        for m in (cube2, voro8):
            dofs = vd.build_dofs(m)
            assert dofs.n_interior_edges + int(m.boundary_edges.sum()) == m.n_edges
            assert dofs.n_interior_faces + int(m.boundary_faces.sum()) == m.n_faces

    def test_cube2_interior_counts(self, cube2):
        # independent geometric oracle: an edge is constrained iff it lies
        # inside one of the six box planes
        def on_wall(p):
            return (np.abs(p) < 1e-12) | (np.abs(p - 1) < 1e-12)
        n_int = 0
        for e in range(cube2.n_edges):
            a, b = cube2.vertices[cube2.edges[e]]
            shared = on_wall(a) & on_wall(b)
            if not shared.any():
                n_int += 1
        dofs = vd.build_dofs(cube2)
        assert dofs.n_interior_edges == n_int == 6

    def test_expand_roundtrip(self, cube2):
        dofs = vd.build_dofs(cube2)
        v = np.arange(dofs.n_interior_edges, dtype=float) + 1
        full = dofs.expand_edge(v)
        assert np.array_equal(full[dofs.interior_edges], v)
        assert np.abs(full[dofs.boundary_edges]).max() == 0.0
