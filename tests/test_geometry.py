import numpy as np
import pytest

from conftest import SPLIT_MESHES
from vemaxwell import geometry as vg
from vemaxwell.mesh import derive_topology


def cell_vertex_ids(mesh, k):
    """Sorted unique vertex indices of cell k."""
    return np.unique(np.concatenate([mesh.faces[f] for f in mesh.cell_faces[k]]))


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
                apex = m.vertices[cell_vertex_ids(m, k)].mean(axis=0)
                vol = 0.0
                for f, s in zip(m.cell_faces[k], m.cell_face_signs[k]):
                    pts = m.vertices[m.faces[f]]
                    a_f = pts.mean(axis=0)
                    p, q = pts - apex, np.roll(pts, -1, axis=0) - apex
                    vol += s * ((a_f - apex) @ np.cross(p, q).T).sum() / 6.0
                assert m.cell_volumes[k] == pytest.approx(vol, rel=1e-12)

    def test_centroid_inside_bounding_box(self, voro8):
        for k in range(voro8.n_cells):
            pts = voro8.vertices[cell_vertex_ids(voro8, k)]
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


# Oracles: the per-entity fan and pyramid loops that ``PolyMesh.split``
# replaced, kept as they were.

def oracle_face_geometry(pts):
    """Area, unit normal and centroid from signed fan triangles."""
    apex = pts.mean(axis=0)
    rel = pts - apex
    cross = np.cross(rel, np.roll(rel, -1, axis=0))
    area_vec = 0.5 * cross.sum(axis=0)
    area = float(np.linalg.norm(area_vec))
    normal = area_vec / area
    signed = 0.5 * cross @ normal
    tri_centroids = (apex + pts + np.roll(pts, -1, axis=0)) / 3.0
    return area, normal, (signed[:, None] * tri_centroids).sum(axis=0) / signed.sum()


def oracle_cell_centroid(mesh, k):
    """Volume-weighted centroid of the pyramid tetrahedra of cell k."""
    apex = mesh.vertices[cell_vertex_ids(mesh, k)].mean(axis=0)
    moment = np.zeros(3)
    volume = 0.0
    for f, s in zip(mesh.cell_faces[k], mesh.cell_face_signs[k]):
        pts = mesh.vertices[mesh.faces[f]]
        a_f = pts.mean(axis=0)
        p, q = pts - apex, np.roll(pts, -1, axis=0) - apex
        tet_vols = s * np.einsum("j,ij->i", a_f - apex, np.cross(p, q)) / 6.0
        tet_cents = (apex + a_f + pts + np.roll(pts, -1, axis=0)) / 4.0
        moment += (tet_vols[:, None] * tet_cents).sum(axis=0)
        volume += tet_vols.sum()
    return moment / volume


def oracle_face_quadrature(mesh, f, degree):
    """Triangle rule on each signed fan panel of face f, slivers skipped."""
    ref_pts, ref_w = vg.triangle_rule(degree)
    pts = mesh.vertices[mesh.faces[f]]
    nxt = np.roll(pts, -1, axis=0)
    apex = pts.mean(axis=0)
    signed = 0.5 * np.cross(pts - apex, nxt - apex) @ mesh.face_normals[f]
    scale = np.abs(signed).max()
    all_pts, all_w = [], []
    for i in range(pts.shape[0]):
        if abs(signed[i]) > 1e-14 * scale:
            all_pts.append(apex[None, :]
                           + ref_pts[:, 0:1] * (pts[i] - apex)[None, :]
                           + ref_pts[:, 1:2] * (nxt[i] - apex)[None, :])
            all_w.append(ref_w * signed[i])
    return np.concatenate(all_pts), np.concatenate(all_w)


def oracle_cell_quadrature(mesh, k, degree):
    """Tetrahedron rule on each signed pyramid tetrahedron of cell k."""
    ref_pts, ref_w = vg.tetrahedron_rule(degree)
    apex = mesh.vertices[cell_vertex_ids(mesh, k)].mean(axis=0)
    all_pts, all_w = [], []
    for f, s in zip(mesh.cell_faces[k], mesh.cell_face_signs[k]):
        pts = mesh.vertices[mesh.faces[f]]
        a_f = pts.mean(axis=0)
        nxt = np.roll(pts, -1, axis=0)
        for i in range(pts.shape[0]):
            e0, e1, e2 = a_f - apex, pts[i] - apex, nxt[i] - apex
            vol6 = s * (e0 @ np.cross(e1, e2))
            if abs(vol6) < 1e-14 * mesh.cell_volumes[k]:
                continue
            all_pts.append(apex[None, :]
                           + ref_pts[:, 0:1] * e0[None, :]
                           + ref_pts[:, 1:2] * e1[None, :]
                           + ref_pts[:, 2:3] * e2[None, :])
            all_w.append(ref_w * (vol6 / 6.0))
    return np.concatenate(all_pts), np.concatenate(all_w)


SPLIT_DEGREES = [1, 2, 4, 12, 14]


class TestSplitMatchesLoops:
    """Geometry and rules read from ``PolyMesh.split`` agree with the
    per-entity loops to 1e-15 of each entity's diameter (points,
    centroids) or measure (areas, weights), point for point."""

    @pytest.mark.parametrize("name", SPLIT_MESHES)
    def test_face_geometry(self, name, request):
        m = request.getfixturevalue(name)
        for f in range(m.n_faces):
            area, normal, centroid = oracle_face_geometry(m.vertices[m.faces[f]])
            assert abs(m.face_areas[f] - area) <= 1e-15 * area
            assert np.abs(m.face_normals[f] - normal).max() <= 1e-15
            assert (np.abs(m.face_centroids[f] - centroid).max()
                    <= 1e-15 * m.face_diameters[f])

    @pytest.mark.parametrize("name", SPLIT_MESHES)
    def test_cell_centroids(self, name, request):
        m = request.getfixturevalue(name)
        for k in range(m.n_cells):
            assert (np.abs(m.cell_centroids[k] - oracle_cell_centroid(m, k)).max()
                    <= 1e-15 * m.cell_diameters[k])

    @pytest.mark.parametrize("degree", SPLIT_DEGREES)
    @pytest.mark.parametrize("name", SPLIT_MESHES)
    def test_face_quadrature(self, name, degree, request):
        m = request.getfixturevalue(name)
        for f in range(m.n_faces):
            rule = vg.face_quadrature(m, f, degree)
            points, weights = oracle_face_quadrature(m, f, degree)
            assert rule.weights.shape == weights.shape
            assert np.abs(rule.points - points).max() <= 1e-15 * m.face_diameters[f]
            assert np.abs(rule.weights - weights).max() <= 1e-15 * m.face_areas[f]

    @pytest.mark.parametrize("degree", SPLIT_DEGREES)
    @pytest.mark.parametrize("name", SPLIT_MESHES)
    def test_cell_quadrature(self, name, degree, request):
        m = request.getfixturevalue(name)
        for k in range(m.n_cells):
            rule = vg.cell_quadrature(m, k, degree)
            points, weights = oracle_cell_quadrature(m, k, degree)
            assert rule.weights.shape == weights.shape
            assert np.abs(rule.points - points).max() <= 1e-15 * m.cell_diameters[k]
            assert np.abs(rule.weights - weights).max() <= 1e-15 * m.cell_volumes[k]

    def test_lcell_drops_slivers(self, lcell):
        # the reentrant faces x = 1/2 and y = 1/2 contain the cell's vertex
        # mean, so their pyramid tetrahedra are flat and quadrature skips them
        assert not lcell.split.tet_kept.all()
