import numpy as np
import pytest

from vemaxwell import geometry as vg
from vemaxwell.mesh import derive_topology


class TestFaceGeometry:
    def test_unit_square(self, cube1):
        f = next(i for i in range(6)
                 if abs(cube1.face_centroids[i][2]) < 1e-14)
        assert cube1.face_areas[f] == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(cube1.face_centroids[f], [0.5, 0.5, 0.0], atol=1e-14)
        assert abs(abs(cube1.face_normals[f][2]) - 1.0) < 1e-14

    def test_reversed_loop_flips_normal(self):
        verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                 (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
        faces = [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 5, 4],
                 [2, 3, 7, 6], [0, 4, 7, 3], [1, 2, 6, 5]]
        cells = [[-1, 2, 3, 4, 5, 6]]       # bottom stored normal +z: inward
        m = derive_topology(verts, faces, cells)
        assert np.allclose(m.face_normals[0], [0, 0, 1], atol=1e-14)
        rev = [list(reversed(faces[0]))] + faces[1:]
        m2 = derive_topology(verts, rev, [[1, 2, 3, 4, 5, 6]])
        assert np.allclose(m2.face_normals[0], [0, 0, -1], atol=1e-14)

    def test_l_face_two_pass_centroid(self, lcell):
        # analytic oracle: unit square minus the quarter [1/2,1]x[1/2,1]
        area = 1.0 - 0.25
        cx = (1.0 * 0.5 - 0.25 * 0.75) / area
        assert lcell.face_areas[0] == pytest.approx(area, rel=1e-14)
        assert lcell.face_centroids[0][0] == pytest.approx(cx, rel=1e-13)
        assert lcell.face_centroids[0][1] == pytest.approx(cx, rel=1e-13)


class TestCellGeometry:
    def test_unit_cube(self, cube1):
        assert cube1.cell_volumes[0] == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(cube1.cell_centroids[0], [0.5] * 3, atol=1e-14)
        assert cube1.cell_diameters[0] == pytest.approx(np.sqrt(3.0), rel=1e-14)

    def test_l_prism_volume(self, lcell):
        assert lcell.cell_volumes[0] == pytest.approx(0.75, rel=1e-14)

    def test_prism_volumes(self, two_prisms):
        assert np.allclose(two_prisms.cell_volumes, 0.5, rtol=1e-14)

    def test_divergence_vs_pyramid_volume(self, cube4, voro8, voro27, lcell):
        # independent oracle: signed tetrahedra about the cell vertex mean
        for m in (cube4, voro8, voro27, lcell):
            for k in range(m.n_cells):
                apex = m.vertices[m.cell_vertex_ids(k)].mean(axis=0)
                vol = 0.0
                for f, s in zip(m.cell_faces[k], m.cell_face_signs[k]):
                    pts = m.vertices[m.faces[f]]
                    a_f = pts.mean(axis=0)
                    p, q = pts - apex, np.roll(pts, -1, axis=0) - apex
                    vol += s * ((a_f - apex) @ np.cross(p, q).T).sum() / 6.0
                assert m.cell_volumes[k] == pytest.approx(vol, rel=1e-12)

    def test_centroid_inside_bounding_box(self, voro8):
        for k in range(voro8.n_cells):
            pts = voro8.vertices[voro8.cell_vertex_ids(k)]
            assert (voro8.cell_centroids[k] >= pts.min(axis=0) - 1e-12).all()
            assert (voro8.cell_centroids[k] <= pts.max(axis=0) + 1e-12).all()


def edge_rule(mesh, e, degree):
    """segment_rule mapped onto edge e, as interpolate_edge maps it."""
    xs, ws = vg.segment_rule(degree)
    a = mesh.vertices[mesh.edges[e, 0]]
    b = mesh.vertices[mesh.edges[e, 1]]
    return a + xs[:, None] * (b - a), ws * mesh.edge_lengths[e]


class TestEdgeQuadrature:
    def test_weights_sum_to_length(self, cube1):
        for e in range(cube1.n_edges):
            for deg in (1, 3, 7, 15):
                _, weights = edge_rule(cube1, e, deg)
                assert weights.sum() == pytest.approx(
                    cube1.edge_lengths[e], rel=1e-13)

    def test_linear_parameter(self, cube1):
        # mean of the arc-length parameter over any edge is 1/2
        for e in range(cube1.n_edges):
            points, weights = edge_rule(cube1, e, 7)
            a = cube1.vertices[cube1.edges[e, 0]]
            t = cube1.edge_tangents[e]
            s = (points - a) @ t
            assert weights @ s == pytest.approx(0.5, rel=1e-13)

    def test_cosine_vs_antiderivative(self, cube1):
        # 4-point Gauss (degree 7) only reaches ~5e-10 on cos; degree 11
        # is the smallest rule of the family that meets 1e-12
        e = 0
        a = cube1.vertices[cube1.edges[e, 0]]
        t = cube1.edge_tangents[e]
        points, weights = edge_rule(cube1, e, 11)
        s = (points - a) @ t
        assert weights @ np.cos(s) == pytest.approx(np.sin(1.0), abs=1e-12)


class TestFaceQuadrature:
    def test_constant(self, cube1, lcell):
        for m in (cube1, lcell):
            for f in range(m.n_faces):
                rule = vg.face_quadrature(m, f, 4)
                assert rule.weights.sum() == pytest.approx(m.face_areas[f], rel=1e-13)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 8, 14])
    def test_monomial_exactness(self, cube1, degree):
        f = next(i for i in range(6)
                 if abs(cube1.face_centroids[i][2]) < 1e-14)   # z = 0 square
        rule = vg.face_quadrature(cube1, f, degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                exact = 1.0 / ((a + 1) * (b + 1))
                assert val == pytest.approx(exact, rel=1e-12), (a, b)

    def test_nonconvex_face(self, lcell):
        # integrate x over the L-face: two-rectangle analytic oracle
        rule = vg.face_quadrature(lcell, 0, 4)
        exact = 0.5 - 0.25 * 0.75
        assert rule.weights @ rule.points[:, 0] == pytest.approx(exact, rel=1e-13)


class TestCellQuadrature:
    def test_constant_and_linear(self, cube1):
        rule = vg.cell_quadrature(cube1, 0, 4)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-13)
        assert rule.weights @ rule.points[:, 0] == pytest.approx(0.5, rel=1e-12)

    def test_sine_product(self, cube1):
        rule = vg.cell_quadrature(cube1, 0, 4)
        vals = (np.sin(np.pi * rule.points[:, 0])
                * np.sin(np.pi * rule.points[:, 1])
                * np.sin(np.pi * rule.points[:, 2]))
        assert rule.weights @ vals == pytest.approx((2 / np.pi) ** 3, abs=1e-6)

    @pytest.mark.parametrize("degree", [1, 2, 4, 6])
    def test_monomial_exactness(self, cube1, degree):
        rule = vg.cell_quadrature(cube1, 0, degree)
        rng = np.random.default_rng(degree)
        exps = [(a, b, c)
                for a in range(degree + 1)
                for b in range(degree + 1 - a)
                for c in range(degree + 1 - a - b)]
        for a, b, c in exps:
            val = rule.weights @ (rule.points[:, 0] ** a
                                  * rule.points[:, 1] ** b
                                  * rule.points[:, 2] ** c)
            exact = 1.0 / ((a + 1) * (b + 1) * (c + 1))
            assert val == pytest.approx(exact, rel=1e-12), (a, b, c)

    def test_voronoi_cell_volume(self, voro8):
        for k in range(voro8.n_cells):
            rule = vg.cell_quadrature(voro8, k, 2)
            assert rule.weights.sum() == pytest.approx(voro8.cell_volumes[k], rel=1e-12)
