import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPLIT_MESHES, face_diameters, flat_rule
from vemaxwell import geometry as vg
from vemaxwell.derham import interpolate_edge, interpolate_face
from vemaxwell.mesh import _pvm_arrays, derive_topology


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


class TestGaussRule:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_agrees_with_leggauss(self, n):
        # numpy's rule, mapped to [0, 1], to round-off: the largest absolute
        # differences over n = 1..40 are 3.3e-16 (nodes) and 1.9e-15 (weights)
        x, w = np.polynomial.legendre.leggauss(n)
        nodes, weights = vg._gauss01.__wrapped__(n)
        assert np.abs(nodes - 0.5 * (x + 1)).max() <= 4.5e-16
        assert np.abs(weights - 0.5 * w).max() <= 4e-15

    @pytest.mark.parametrize("n", range(1, 41))
    def test_exact_to_degree_2n_minus_1(self, n):
        # int_0^1 x^k = 1 / (k + 1) for k <= 2n - 1, to round-off: 1.8e-15
        # at most (n = 38), as leggauss gives it
        nodes, weights = vg._gauss01(n)
        k = np.arange(2 * n)
        got = (nodes[:, None] ** k * weights[:, None]).sum(axis=0)
        assert np.abs(got - 1 / (k + 1)).max() <= 2e-15


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


# Corner v = i + 2 j + 4 k of a box lies at (x_i, y_j, z_k); each loop
# runs counterclockwise seen from outside the box.
BOX_FACES = [[0, 4, 6, 2], [1, 3, 7, 5], [0, 1, 5, 4], [2, 6, 7, 3], [0, 2, 3, 1], [4, 5, 7, 6]]
BOX_LO, BOX_HI = np.array([0.5, -1.0, 1.0]), np.array([2.0, 0.25, 1.75])


def build_box(shift=(0.0, 0.0, 0.0), shear=0.0):
    """One hexahedron on the box [BOX_LO, BOX_HI], with corner 7 (at
    BOX_HI) moved by ``shift`` and the top face moved by ``shear`` in x."""
    corners = np.array([[(BOX_LO, BOX_HI)[(v >> axis) & 1][axis] for axis in range(3)]
                        for v in range(8)])
    corners[7] += shift
    corners[4:, 0] += shear
    return derive_topology(corners, BOX_FACES, [[1, 2, 3, 4, 5, 6]], name="box")


@pytest.fixture(scope="module")
def box():
    return build_box()


def walk_by_cell(mesh):
    """Points and weights that ``cell_rules`` gives each cell, a box
    chunk's as the tensor rule it factors."""
    rules = [flat_rule(mesh, r) for r in vg.cell_rules(mesh)]
    points = np.concatenate([r.points for r in rules])
    weights = np.concatenate([r.weights for r in rules])
    owners = np.concatenate([r.owners for r in rules])
    return [(points[owners == k], weights[owners == k]) for k in range(mesh.n_cells)]


def oracle_bounds(mesh):
    """Vertex bounding boxes as the 2-D ``reduceat`` over the loop-edge
    ends of every pyramid tetrahedron took them."""
    split = mesh.split
    ends = mesh.vertices[split.fan_vertices[split.tet_panels.flat]]
    starts = split.tet_panels.offsets[:-1]
    return (np.minimum.reduceat(ends.min(axis=1), starts),
            np.maximum.reduceat(ends.max(axis=1), starts))


def oracle_loop_bounds(mesh):
    """Vertex bounding boxes (lo, hi) as ``box_cells`` once took them: one
    coordinate at a time, a 1-D ``reduceat`` over each face loop's vertices,
    then over each cell's faces."""
    faces, cell_faces = mesh.faces, mesh.cell_faces
    bounds = np.empty((2, 3, mesh.n_cells))
    for axis, coordinate in enumerate(mesh.vertices.T):
        on_loops = coordinate[faces.flat]
        for bound, reduce in zip(bounds, (np.minimum, np.maximum)):
            per_face = reduce.reduceat(on_loops, faces.offsets[:-1])
            bound[axis] = reduce.reduceat(per_face[cell_faces.flat], cell_faces.offsets[:-1])
    return bounds.transpose(0, 2, 1)


# Hexahedra that are not boxes: a sheared one, and one corner moved out or in.
OFF_BOX = {"sheared": dict(shear=0.2), "perturbed-out": dict(shift=(4e-11, 0.0, 0.0)),
           "perturbed-in": dict(shift=(-4e-11, -4e-11, -4e-11))}


def box_chunks(mesh):
    return [r for r in vg.cell_rules(mesh) if isinstance(r, vg.BoxRule)]


class TestBoxRule:
    """``cell_rules`` integrates six-face axis-aligned boxes with one
    6 x 6 x 6 Gauss rule, kept factored, and every other cell with
    ``cell_quadrature``."""

    @pytest.mark.parametrize("name, all_boxes", [
        ("cube1", True), ("cube4", True), ("box", True),
        ("voro8", False), ("voro27", False), ("lcell", False), ("two_prisms", False)])
    def test_detection(self, name, all_boxes, request):
        boxes = vg.box_cells(request.getfixturevalue(name))[0]
        assert boxes.all() if all_boxes else not boxes.any()

    def test_agglomerated_boxes_are_the_six_face_cells(self, agglo4):
        # the 10-face 2 x 1 x 1 boxes keep the pyramid rule
        six_faces = np.diff(agglo4.cell_faces.offsets) == 6
        assert six_faces.any()
        assert np.array_equal(vg.box_cells(agglo4)[0], six_faces)

    def test_bounding_box(self, box):
        _, lo, hi = vg.box_cells(box)
        assert np.array_equal(lo, [BOX_LO]) and np.array_equal(hi, [BOX_HI])

    @pytest.mark.parametrize("shift", [(-4e-11, 0.0, 0.0), (4e-11, 0.0, 0.0),
                                       (-4e-11, -4e-11, -4e-11)])
    def test_perturbed_hex_is_not_a_box(self, shift):
        # one corner moved in or out, within the faces' planarity tolerance
        assert not vg.box_cells(build_box(shift))[0].any()

    def test_sheared_hex_is_not_a_box(self):
        # planar faces and the box's volume, but a wider bounding box
        m = build_box(shear=0.2)
        assert m.cell_volumes[0] == pytest.approx(np.prod(BOX_HI - BOX_LO), rel=1e-14)
        assert not vg.box_cells(m)[0].any()

    @pytest.mark.parametrize("name", ["cube1", "cube2", "cube4", "cube8", "box", "voro8",
                                      "voro27", "lcell", "two_prisms", "agglo4"] + list(OFF_BOX))
    def test_bounds_match_oracle(self, name, request):
        m = build_box(**OFF_BOX[name]) if name in OFF_BOX else request.getfixturevalue(name)
        _, lo, hi = vg.box_cells(m)
        want_lo, want_hi = oracle_bounds(m)
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)

    @pytest.mark.parametrize("name", ["cube1", "cube2", "cube4", "cube8", "agglo4", "lcell",
                                      "two_prisms", "voro8", "voro27"] + list(OFF_BOX))
    def test_cell_bounds_match_loop_oracle(self, name, request):
        # the mesh build's bounds, read by box_cells, are the per-face then
        # per-cell reduction's bit for bit
        m = build_box(**OFF_BOX[name]) if name in OFF_BOX else request.getfixturevalue(name)
        assert m.cell_bounds.shape == (2, m.n_cells, 3)
        assert np.array_equal(m.cell_bounds, oracle_loop_bounds(m))
        _, lo, hi = vg.box_cells(m)
        assert np.array_equal(lo, m.cell_bounds[0]) and np.array_equal(hi, m.cell_bounds[1])

    def test_points_per_direction(self, box):
        # the Gauss count of the pyramid rule's first direction, per axis
        first = vg.tetrahedron_rule(vg.DEFAULT_CELL_DEGREE)[0][:, 0]
        assert vg.BOX_POINTS == np.unique(first).size == 6
        rule, = box_chunks(box)
        assert [c.shape for c in rule.coords] == [(1, 6, 1, 1), (1, 1, 6, 1), (1, 1, 1, 6)]
        assert rule.weights.shape == (6,) and rule.weights.sum() == pytest.approx(1, rel=1e-15)

    @pytest.mark.parametrize("name", ["box", "cube4", "cube8", "agglo4"])
    def test_nodes_broadcast_to_mapped_points(self, name, request):
        # the factored nodes are lo + (hi - lo) g, which is what mapping the
        # tensor points with apex lo and legs diag(hi - lo) gave, bit for bit
        m = request.getfixturevalue(name)
        for rule in box_chunks(m):
            want = flat_rule(m, rule)
            points = np.stack(np.broadcast_arrays(*rule.coords)).reshape(3, -1)
            assert np.array_equal(points, want.coords)
            cells = rule.entities
            assert np.array_equal(want.owners, np.repeat(cells, 216))
            tensor = np.einsum("i,j,k->ijk", rule.weights, rule.weights, rule.weights)
            assert np.array_equal(np.outer(rule.volumes, tensor).ravel(), want.weights)
            assert np.allclose(rule.volumes, m.cell_volumes[cells], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("name", ["box", "cube4", "agglo4"])
    def test_weights_sum_to_cell_volume(self, name, request):
        m = request.getfixturevalue(name)
        for k in np.flatnonzero(vg.box_cells(m)[0]):
            weights = walk_by_cell(m)[k][1]
            assert weights.size == 216
            assert weights.sum() == pytest.approx(m.cell_volumes[k], rel=1e-14)

    def test_monomial_exactness(self, box, cube2):
        # exact for every x^a y^b z^c with a, b, c <= 11, on an off-origin
        # box and summed over the cells of cube:2
        exps = np.array(np.meshgrid(*[np.arange(12)] * 3, indexing="ij")).reshape(3, -1).T
        for m, lo, hi in ((box, BOX_LO, BOX_HI), (cube2, np.zeros(3), np.ones(3))):
            got = sum(weights @ np.prod(points[:, None, :] ** exps, axis=2)
                      for points, weights in walk_by_cell(m))
            exact = np.prod((hi ** (exps + 1) - lo ** (exps + 1)) / (exps + 1), axis=1)
            assert np.abs(got / exact - 1).max() <= 1e-12

    @pytest.mark.parametrize("name, kinds", [
        ("cube4", {vg.BoxRule}), ("voro8", {vg.QuadratureRule}),
        ("agglo4", {vg.BoxRule, vg.QuadratureRule})], ids=["cube4", "voro8", "agglo4"])
    def test_squared_deviation_of_a_number(self, name, kinds, request):
        # a constant component enters either rule as a number, broadcast
        # over its points: sum_K |K| (v - c_K)^2 over the rule's cells
        m = request.getfixturevalue(name)
        means = np.random.default_rng(5).standard_normal(m.n_cells)
        rules = list(vg.cell_rules(m))
        assert {type(rule) for rule in rules} == kinds
        for rule in rules:
            cells = rule.entities
            for v in (0.0, 0.7):
                want = m.cell_volumes[cells] @ (v - means[cells]) ** 2
                assert rule.squared_deviation(v, means) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("name, tables", [("cube4", 0), ("agglo4", 1), ("voro8", 1)])
    def test_pyramid_rule_built_only_for_other_cells(self, name, tables, request):
        # an all-box mesh walks no pyramid rule, so its table is not built
        m = request.getfixturevalue(name)
        vg.tetrahedron_rule.cache_clear()
        list(vg.cell_rules(m))
        assert vg.tetrahedron_rule.cache_info().misses == tables

    @pytest.mark.parametrize("name", SPLIT_MESHES + ["agglo4"])
    def test_other_cells_keep_pyramid_rule(self, name, request):
        # chunks hold one kind of cell; a pyramid chunk is cell_quadrature's
        # rule on its cells bit for bit
        m = request.getfixturevalue(name)
        boxes = vg.box_cells(m)[0]
        for rule in vg.cell_rules(m):
            cells = rule.entities
            if isinstance(rule, vg.BoxRule):
                assert boxes[cells].all()
                continue
            assert not boxes[cells].any()
            want = vg.cell_quadrature(m, cells)
            assert rule.points_per_simplex == want.points_per_simplex
            for field in ("coords", "weights", "owners"):
                assert np.array_equal(getattr(rule, field), getattr(want, field))


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
    """Triangle rule on each signed fan panel of face f."""
    ref_pts, ref_w = vg.triangle_rule(degree)
    pts = mesh.vertices[mesh.faces[f]]
    nxt = np.roll(pts, -1, axis=0)
    apex = pts.mean(axis=0)
    signed = 0.5 * np.cross(pts - apex, nxt - apex) @ mesh.face_normals[f]
    all_pts, all_w = [], []
    for i in range(pts.shape[0]):
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
        h_f = face_diameters(m)
        for f in range(m.n_faces):
            area, normal, centroid = oracle_face_geometry(m.vertices[m.faces[f]])
            assert abs(m.face_areas[f] - area) <= 1e-15 * area
            assert np.abs(m.face_normals[f] - normal).max() <= 1e-15
            assert (np.abs(m.face_centroids[f] - centroid).max()
                    <= 1e-15 * h_f[f])

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
        h_f = face_diameters(m)
        for f in range(m.n_faces):
            rule = vg.face_quadrature(m, f, degree)
            points, weights = oracle_face_quadrature(m, f, degree)
            assert rule.weights.shape == weights.shape
            assert np.abs(rule.points - points).max() <= 1e-15 * h_f[f]
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

    def test_lcell_maps_flat_pieces(self, lcell):
        # the L faces' vertex mean is their reentrant corner, and the cell's
        # lies on the reentrant faces x = 1/2 and y = 1/2: 4 fan panels and
        # 12 pyramid tetrahedra are flat.  Each is mapped and weighs exactly
        # 0, and each entity's weights still sum to its measure
        split = lcell.split
        for rule_of, pieces, n_flat, measures, degree in (
                (vg.face_quadrature, split.fan_areas, 4, lcell.face_areas, 4),
                (vg.cell_quadrature, split.tet_volumes, 12, lcell.cell_volumes,
                 vg.DEFAULT_CELL_DEGREE)):
            flat = pieces == 0
            assert flat.sum() == n_flat
            rule = rule_of(lcell, slice(None), degree)
            weights = rule.weights.reshape(pieces.size, rule.points_per_simplex)
            assert (weights[flat] == 0).all() and (weights[~flat] != 0).all()
            for i, measure in enumerate(measures):
                total = rule_of(lcell, i, degree).weights.sum()
                assert abs(total - measure) <= 1e-15 * measure


class TestEntityRanges:
    """A rule on a range of entities is the single-entity rules laid end
    to end, bit for bit, with the owner of every point."""

    @pytest.mark.parametrize("name", SPLIT_MESHES)
    def test_range_concatenates_entities(self, name, request):
        m = request.getfixturevalue(name)
        for rule_of, n in ((vg.face_quadrature, m.n_faces), (vg.cell_quadrature, m.n_cells)):
            whole = rule_of(m, slice(None), 4)
            parts = [rule_of(m, i, 4) for i in range(n)]
            assert whole.coords.flags.c_contiguous
            assert np.array_equal(whole.points, np.concatenate([r.points for r in parts]))
            assert np.array_equal(whole.weights, np.concatenate([r.weights for r in parts]))
            assert np.array_equal(whole.owners,
                                  np.repeat(np.arange(n), [r.weights.size for r in parts]))

    def test_rejects_strided_range(self, cube1):
        with pytest.raises(ValueError, match="consecutive"):
            vg.cell_quadrature(cube1, slice(0, 1, 2))

    @pytest.mark.parametrize("name", SPLIT_MESHES)
    def test_points_come_simplex_by_simplex(self, name, request):
        m = request.getfixturevalue(name)
        split = m.split
        for rule_of, measures, degree in (
                (vg.face_quadrature, split.fan_areas, 4),
                (vg.cell_quadrature, split.tet_volumes, vg.DEFAULT_CELL_DEGREE)):
            rule = rule_of(m, slice(None), degree)
            blocks = rule.weights.size // rule.points_per_simplex
            assert blocks * rule.points_per_simplex == rule.weights.size
            owners = rule.owners.reshape(blocks, -1)
            assert (owners == owners[:, :1]).all()
            assert np.allclose(rule.weights.reshape(blocks, -1).sum(axis=1), measures,
                               rtol=1e-14, atol=0)


class TestChunking:
    """Walking a mesh in chunks gives the points, weights and owners of
    one whole-mesh rule bit for bit under every chunk budget, so no
    product rounds a point by the size of the batch it is mapped in."""

    @pytest.mark.parametrize("name", SPLIT_MESHES + ["agglo4"])
    def test_rules_independent_of_budget(self, name, request, monkeypatch):
        m = request.getfixturevalue(name)
        for walk in (lambda: vg.face_rules(m, 4),
                     lambda: (flat_rule(m, r) for r in vg.cell_rules(m))):
            joined = []
            for budget in (1, vg.CHUNK_POINTS, 10**9):
                monkeypatch.setattr(vg, "CHUNK_POINTS", budget)
                rules = list(walk())
                joined.append([np.concatenate([getattr(r, f) for r in rules], axis=-1)
                               for f in ("coords", "weights", "owners")])
            for other in joined[1:]:
                for a, b in zip(joined[0], other):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["cube4", "cube8", "agglo4"])
    def test_box_rules_independent_of_budget(self, name, request, monkeypatch):
        # one factored rule on every box, wherever they lie (agglo4's 8 are
        # not adjacent), whatever the budget: the caller slices it, and a
        # slice is the rule factored on its cells alone, bit for bit; the
        # memory bound of those slices is checked where l2_error forms them
        m = request.getfixturevalue(name)
        boxes, lo, hi = vg.box_cells(m)
        joined = []
        for budget in (1, vg.CHUNK_POINTS, 10**9):
            monkeypatch.setattr(vg, "CHUNK_POINTS", budget)
            rule, = box_chunks(m)
            assert np.array_equal(rule.entities, np.flatnonzero(boxes))
            assert all(c.shape[0] == rule.volumes.size for c in rule.coords)
            joined.append(list(rule.coords) + [rule.volumes])
        for other in joined[1:]:
            for a, b in zip(joined[0], other):
                assert np.array_equal(a, b)
        for cells in (slice(0, 1), slice(1, 5), slice(3, None)):
            part, want = rule[cells], vg._factored_rule(rule.entities[cells], lo, hi)
            for field in ("entities", "volumes", "weights"):
                assert np.array_equal(getattr(part, field), getattr(want, field))
            for a, b in zip(part.coords, want.coords):
                assert np.array_equal(a, b)


@st.composite
def affine_maps(draw):
    """x -> A x + b with A = 2 I + E, the entries of E in [-1/2, 1/2]: A is
    diagonally dominant, so det A > 0 and cond A <= 7, and a mapped mesh
    keeps its orientation and stays far from ``SHAPE_RATIO_MIN``."""
    def entries(n, bound):
        return draw(st.lists(st.floats(-bound, bound), min_size=n, max_size=n))

    return 2 * np.eye(3) + np.reshape(entries(9, 0.5), (3, 3)), np.array(entries(3, 1.0))


class TestAffineImages:
    """The mapped rules on affine images of general meshes, nonconvex
    (lcell), prismatic, Voronoi and agglomerated: each entity's weights sum
    to its measure, each cell rule has the cell's first moment, and the
    interpolants of a constant field are its normal and tangential parts."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(name=st.sampled_from(["lcell", "two_prisms", "voro8", "agglo4"]),
           affine=affine_maps(),
           c=st.lists(st.integers(-1000, 1000).map(lambda k: k / 100), min_size=3, max_size=3))
    def test_rules_on_affine_image(self, lcell, two_prisms, voro8, agglo4, name, affine, c):
        meshes = dict(lcell=lcell, two_prisms=two_prisms, voro8=voro8, agglo4=agglo4)
        vertices, faces, cells = _pvm_arrays(meshes[name])
        a, b = affine
        m = derive_topology(np.array(vertices) @ a.T + b, faces, cells)
        for f in range(m.n_faces):
            total = vg.face_quadrature(m, f, 4).weights.sum()
            assert abs(total - m.face_areas[f]) <= 1e-13 * m.face_areas[f]
        for k, (points, weights) in enumerate(walk_by_cell(m)):
            volume = m.cell_volumes[k]
            assert abs(weights.sum() - volume) <= 1e-13 * volume
            assert (np.abs(weights @ points - volume * m.cell_centroids[k]).max()
                    <= 1e-13 * m.cell_diameters[k] * volume)
        c = np.array(c)
        scale = 1e-13 * np.linalg.norm(c)

        def constant(p):
            return np.broadcast_to(c, np.shape(p))

        assert np.abs(interpolate_face(m, constant) - m.face_normals @ c).max() <= scale
        assert np.abs(interpolate_edge(m, constant) - m.edge_tangents @ c).max() <= scale
