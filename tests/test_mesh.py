import itertools
import json

import numpy as np
import pytest

from conftest import DATA
from vemaxwell import mesh as vm

UNIT_CUBE = {
    "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                 [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
    # loops oriented so every stored normal points out of the cell
    "faces": [[0, 3, 2, 1], [4, 5, 6, 7], [0, 1, 5, 4],
              [2, 3, 7, 6], [0, 4, 7, 3], [1, 2, 6, 5]],
    "cells": [[1, 2, 3, 4, 5, 6]],
}


def write_json(tmp_path, doc, name="mesh.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadMesh:
    def test_single_cube_counts(self, tmp_path):
        m = vm.load_mesh(write_json(tmp_path, UNIT_CUBE))
        assert (m.n_vertices, m.n_edges, m.n_faces, m.n_cells) == (8, 12, 6, 1)

    def test_open_cell_boundary(self, tmp_path):
        doc = dict(UNIT_CUBE, cells=[[1, 2, 3, 4, 5]])   # one face omitted
        with pytest.raises(vm.MeshTopologyError, match="open cell boundary"):
            vm.load_mesh(write_json(tmp_path, doc))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(vm.MeshFormatError):
            vm.load_mesh(path)
        with pytest.raises(vm.MeshFormatError, match="missing key"):
            vm.load_mesh(write_json(tmp_path, {"vertices": []}, "empty.json"))

    def test_cube2_counts(self, cube2, tmp_path):
        # brute-force oracle: counts of the structured (n+1)^3 grid
        n = 2
        assert cube2.n_vertices == (n + 1) ** 3
        assert cube2.n_edges == 3 * n * (n + 1) ** 2
        assert cube2.n_faces == 3 * n**2 * (n + 1)
        assert cube2.n_cells == n**3
        assert int((~cube2.boundary_faces).sum()) == 3 * (n - 1) * n**2
        vm.save_mesh(cube2, tmp_path / "c2.json")
        again = vm.load_mesh(tmp_path / "c2.json")
        assert again.n_edges == cube2.n_edges

    @pytest.mark.parametrize("key, i, j, value, message", [
        ("vertices", 3, 1, float("nan"), "vertex 3 has a non-finite coordinate"),
        ("vertices", 7, 2, float("inf"), "vertex 7 has a non-finite coordinate"),
        ("vertices", 0, 0, float("-inf"), "vertex 0 has a non-finite coordinate"),
        ("vertices", 4, 0, 1e308, "vertex 4 has a coordinate beyond"),
        ("vertices", 4, 0, 1e160, "vertex 4 has a coordinate beyond"),
        ("faces", 5, 1, 1.5, "face 5 has a non-integer index"),
        ("faces", 5, 1, True, "face 5 has a non-integer index"),
        ("cells", 2, 0, 3.0, "cell 2 has a non-integer index"),
    ])
    def test_bad_value_rejected(self, tmp_path, key, i, j, value, message):
        doc = json.loads((DATA / "voro8.json").read_text())
        doc[key][i][j] = value
        with pytest.raises(vm.MeshFormatError, match=message):
            vm.load_mesh(write_json(tmp_path, doc))

    @pytest.mark.parametrize("mutate, error, message", [
        (lambda d: d["faces"][5].__setitem__(1, 10**30), vm.MeshFormatError,
         "face 5 has an index out of range"),
        (lambda d: d["cells"][2].__setitem__(0, 10**30), vm.MeshFormatError,
         "cell 2 has an index out of range"),
        (lambda d: d["cells"][2].__setitem__(0, 0), vm.MeshTopologyError,
         "cell 2 has an invalid face list"),
        (lambda d: d["faces"][5].__setitem__(1, -1), vm.MeshTopologyError,
         "face 5 references a missing vertex"),
        (lambda d: d["faces"][5].__delitem__(slice(2, None)), vm.MeshTopologyError,
         "face 5 has fewer than 3 vertices"),
        (lambda d: d["cells"][2].clear(), vm.MeshTopologyError,
         "cell 2 has an invalid face list"),
        (lambda d: d["vertices"][3].pop(), vm.MeshFormatError, "malformed arrays"),
        (lambda d: d.__setitem__("cells", [3]), vm.MeshFormatError, "malformed arrays"),
        (lambda d: d.__setitem__("name", [1]), vm.MeshFormatError,
         "name must be a string"),
    ], ids=["huge-face-index", "huge-cell-index", "cell-face-0", "face-vertex--1",
            "two-vertex-face", "empty-cell", "two-vector-vertex", "cells-not-lists",
            "non-string-name"])
    def test_malformed_document_raises_mesh_error(self, tmp_path, mutate, error, message):
        # a bare IndexError/KeyError/OverflowError would escape pytest.raises
        doc = json.loads((DATA / "voro8.json").read_text())
        mutate(doc)
        with pytest.raises(error, match=message):
            vm.load_mesh(write_json(tmp_path, doc))

    def test_nonplanar_face_rejected(self, tmp_path):
        doc = json.loads(json.dumps(UNIT_CUBE))
        doc["vertices"][6] = [1, 1, 1.001]    # bend the top face
        with pytest.raises(vm.MeshGeometryError, match="nonplanar"):
            vm.load_mesh(write_json(tmp_path, doc))


class TestGenerateCube:
    def test_unit_cell_diameter(self, cube1):
        # oracle: max pairwise distance over the 8 vertices
        pts = cube1.vertices
        direct = max(np.linalg.norm(a - b) for a, b in itertools.combinations(pts, 2))
        assert cube1.cell_diameters[0] == pytest.approx(direct, rel=1e-15)
        assert direct == pytest.approx(np.sqrt(3.0), rel=1e-15)

    def test_n2_cell_diameters(self, cube2):
        assert np.allclose(cube2.cell_diameters, np.sqrt(3.0) / 2, rtol=1e-14)
        assert cube2.h == pytest.approx(np.sqrt(3.0) / 2)

    def test_single_cell_all_boundary(self, cube1):
        assert cube1.boundary_faces.all()
        assert cube1.boundary_edges.all()
        assert cube1.boundary_vertices.all()

    def test_bad_n(self):
        with pytest.raises(ValueError):
            vm.generate_cube_mesh(0)

    def test_deterministic(self):
        a, b = vm.generate_cube_mesh(2), vm.generate_cube_mesh(2)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.edges, b.edges)

    def test_scaled_domain(self):
        m = vm.generate_cube_mesh(1, domain=((1, 2, 3), (3, 4, 5)))
        assert m.cell_volumes[0] == pytest.approx(8.0, rel=1e-14)
        assert np.allclose(m.cell_centroids[0], [2, 3, 4])

    def test_axis_normals_and_outward_signs(self):
        # x-, y- then z-normal faces, each stored normal along +axis, and
        # every cell's signed normals point away from its centroid
        n = 3
        m = vm.generate_cube_mesh(n, domain=((1, 2, 3), (3, 4.5, 5.25)))
        family = np.repeat(np.eye(3), (n + 1) * n * n, axis=0)
        assert np.abs(m.face_normals - family).max() <= 1e-15
        for k in range(m.n_cells):
            fids, signs = m.cell_faces[k], m.cell_face_signs[k]
            arm = m.face_centroids[fids] - m.cell_centroids[k]
            assert (signs * np.einsum("ij,ij->i", m.face_normals[fids], arm) > 0).all()


class TestDeriveTopology:
    def test_edges_have_two_faces_per_cell(self, cube1):
        counts = np.zeros(cube1.n_edges, dtype=int)
        for f in range(cube1.n_faces):
            counts[cube1.face_edges[f]] += 1
        assert (counts == 2).all()

    def test_edge_sign_convention(self, cube1):
        # an edge traversed hi -> lo in a face loop gets sign -1 there
        for f in range(cube1.n_faces):
            loop = cube1.faces[f]
            for j, e in enumerate(cube1.face_edges[f]):
                a, b = loop[j], loop[(j + 1) % len(loop)]
                expected = 1 if a < b else -1
                assert cube1.face_edge_signs[f][j] == expected
                lo, hi = cube1.edges[e]
                assert lo < hi and {lo, hi} == {a, b}

    def test_stacked_cubes_share_face_with_opposite_signs(self):
        v = [[x, y, z] for z in (0, 1, 2) for y in (0, 1) for x in (0, 1)]
        def vid(x, y, z):
            return z * 4 + y * 2 + x
        zfaces = [[vid(0, 0, k), vid(1, 0, k), vid(1, 1, k), vid(0, 1, k)]
                  for k in (0, 1, 2)]                   # stored normal +z
        def ring(k):
            return [
                [vid(0, 0, k), vid(1, 0, k), vid(1, 0, k + 1), vid(0, 0, k + 1)],
                [vid(1, 0, k), vid(1, 1, k), vid(1, 1, k + 1), vid(1, 0, k + 1)],
                [vid(1, 1, k), vid(0, 1, k), vid(0, 1, k + 1), vid(1, 1, k + 1)],
                [vid(0, 1, k), vid(0, 0, k), vid(0, 0, k + 1), vid(0, 1, k + 1)],
            ]
        faces = zfaces + ring(0) + ring(1)
        cells = [[-1, 2, 4, 5, 6, 7], [-2, 3, 8, 9, 10, 11]]
        m = vm.derive_topology(v, faces, cells)
        shared = 1   # the z = 1 plane
        signs = []
        for k in range(2):
            for f, s in zip(m.cell_faces[k], m.cell_face_signs[k]):
                if f == shared:
                    signs.append(s)
        assert sorted(signs) == [-1, 1]

    def test_no_cells_rejected(self):
        with pytest.raises(vm.MeshTopologyError, match="no cells"):
            vm.derive_topology(UNIT_CUBE["vertices"], UNIT_CUBE["faces"], [])

    def test_repeated_vertex_loop(self):
        doc = json.loads(json.dumps(UNIT_CUBE))
        doc["faces"][0] = [0, 3, 3, 1]
        with pytest.raises(vm.MeshTopologyError, match="inconsistent loop"):
            vm.derive_topology(doc["vertices"], doc["faces"], doc["cells"])

    def test_dangling_face(self):
        doc = json.loads(json.dumps(UNIT_CUBE))
        cells = [doc["cells"][0], [1, 2, 3, 4], [-1, 2, 3, 4]]
        with pytest.raises(vm.MeshTopologyError, match="dangling face"):
            vm.derive_topology(doc["vertices"], doc["faces"], cells)

    def test_same_sign_sharing_rejected(self):
        doc = json.loads(json.dumps(UNIT_CUBE))
        cells = [doc["cells"][0], [1, 2, 3, 4]]
        with pytest.raises(vm.MeshTopologyError, match="inconsistent face sharing"):
            vm.derive_topology(doc["vertices"], doc["faces"], cells)

    def test_all_signs_flipped_is_nonpositive_volume(self):
        cells = [[-s for s in UNIT_CUBE["cells"][0]]]
        with pytest.raises(vm.MeshGeometryError, match="nonpositive volume"):
            vm.derive_topology(UNIT_CUBE["vertices"], UNIT_CUBE["faces"], cells)

    def test_one_sign_flipped_is_open_boundary(self):
        cells = [[-1] + UNIT_CUBE["cells"][0][1:]]
        with pytest.raises(vm.MeshTopologyError, match="open cell boundary"):
            vm.derive_topology(UNIT_CUBE["vertices"], UNIT_CUBE["faces"], cells)


class TestValidate:
    def test_cube_planarity_exact(self, cube4):
        rep = vm.validate_mesh(cube4)
        assert rep.ok
        assert rep.planarity_residuals.max() == 0.0

    def test_min_edge_face_ratio(self, cube2):
        # exhaustive oracle over all faces
        expected = min(
            cube2.edge_lengths[cube2.face_edges[f]].min() / cube2.face_diameters[f]
            for f in range(cube2.n_faces)
        )
        rep = vm.validate_mesh(cube2)
        assert rep.min_edge_face_ratio == pytest.approx(expected, rel=1e-14)
        assert rep.min_edge_face_ratio == pytest.approx(1 / np.sqrt(2), rel=1e-14)

    def test_degenerate_area_flagged(self, cube1):
        import dataclasses
        doctored = dataclasses.replace(
            cube1, face_areas=np.where(np.arange(6) == 0, 0.0, cube1.face_areas))
        rep = vm.validate_mesh(doctored)
        assert any("nonpositive area" in v for v in rep.violations)
        assert not rep.ok

    def test_closure_identities(self, cube4, voro8, lcell, two_prisms):
        for m in (cube4, voro8, lcell, two_prisms):
            rep = vm.validate_mesh(m)
            assert rep.ok, rep.violations
            assert rep.face_closure_residuals.max() <= 1e-12
            assert rep.cell_closure_residuals.max() <= 1e-12

    def test_stats(self, voro27):
        stats = vm.mesh_stats(voro27)
        assert stats.h == pytest.approx(voro27.cell_diameters.max())
        assert (stats.cell_diameters > 0).all()
        assert (stats.edge_lengths > 0).all()
        assert stats.n_cells == 27


class TestRoundTrip:
    def test_bit_exact_roundtrip(self, voro8, tmp_path):
        path = tmp_path / "voro8.json"
        vm.save_mesh(voro8, path)
        again = vm.load_mesh(path)
        assert np.array_equal(again.vertices, voro8.vertices)   # bit-exact
        assert np.array_equal(again.edges, voro8.edges)
        assert all(np.array_equal(a, b) for a, b in zip(again.faces, voro8.faces))
        assert all(np.array_equal(a, b)
                   for a, b in zip(again.cell_faces, voro8.cell_faces))
        assert all(np.array_equal(a, b)
                   for a, b in zip(again.cell_face_signs, voro8.cell_face_signs))
        assert again.name == voro8.name

    def test_canonical_edges_independent_of_face_order(self):
        doc = UNIT_CUBE
        m1 = vm.derive_topology(doc["vertices"], doc["faces"], doc["cells"])
        # rotate loop starts and shuffle the face list
        perm = [3, 1, 4, 0, 5, 2]
        faces = [list(np.roll(doc["faces"][p], k + 1)) for k, p in enumerate(perm)]
        inv = [perm.index(i) + 1 for i in range(6)]
        m2 = vm.derive_topology(doc["vertices"], faces, [inv])
        pairs1 = {tuple(e) for e in m1.edges}
        pairs2 = {tuple(e) for e in m2.edges}
        assert pairs1 == pairs2
        assert (m1.edges[:, 0] < m1.edges[:, 1]).all()
        assert (m2.edges[:, 0] < m2.edges[:, 1]).all()
