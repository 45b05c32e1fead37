import copy
import dataclasses
import itertools
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import DATA, SPLIT_MESHES, face_diameters, folded_voro8
from vemaxwell import mesh as vm
from vemaxwell.derham import build_incidence

sys.path.insert(0, str(DATA.parents[1] / "perfbench"))
import agglo  # noqa: E402

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
        ("vertices", 4, 0, "1", "vertex 4 has a coordinate that is not a number"),
        ("vertices", 4, 0, True, "vertex 4 has a coordinate that is not a number"),
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
        (lambda d: d["vertices"][4].__setitem__(0, 10**400), vm.MeshFormatError,
         "malformed arrays: int too large"),
        (lambda d: d.__setitem__("cells", [3]), vm.MeshFormatError, "malformed arrays"),
        (lambda d: d.__setitem__("name", [1]), vm.MeshFormatError,
         "name must be a string"),
        # a name that would break a CSV row is kept as written (error None,
        # the name in place of the message): the CLI, which writes the row,
        # rejects it
        (lambda d: d.__setitem__("name", "run 1, coarse"), None, "run 1, coarse"),
        (lambda d: d.__setitem__("name", "two\nlines"), None, "two\nlines"),
        (lambda d: d.__setitem__("name", "two\rlines"), None, "two\rlines"),
    ], ids=["huge-face-index", "huge-cell-index", "cell-face-0", "face-vertex--1",
            "two-vertex-face", "empty-cell", "two-vector-vertex", "huge-int-coordinate",
            "cells-not-lists",
            "non-string-name", "comma-in-name", "newline-in-name", "return-in-name"])
    def test_malformed_document_raises_mesh_error(self, tmp_path, mutate, error, message):
        # a bare IndexError/KeyError/OverflowError would escape pytest.raises
        doc = json.loads((DATA / "voro8.json").read_text())
        mutate(doc)
        if error is None:
            assert vm.load_mesh(write_json(tmp_path, doc)).name == message
            return
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


class TestIdentityEquality:
    """Array-holding mesh records compare and hash by identity: the
    generated field-wise ``==`` would ask numpy arrays for one truth
    value, and the frozen ones would not hash at all."""

    def test_mesh_equal_to_itself_only(self):
        a, b = vm.generate_cube_mesh(1), vm.generate_cube_mesh(1)
        assert a == a and not a != a
        assert a != b and not a == b
        assert a.split == a.split and a.split != b.split

    def test_mesh_as_set_member_and_dict_key(self):
        a, b = vm.generate_cube_mesh(1), vm.generate_cube_mesh(1)
        assert len({a, b, a}) == 2
        names = {a: "a", b: "b"}
        assert names[a] == "a" and names[b] == "b"
        assert hash(a.split) == hash(a.split)

    def test_reports_compare_by_identity(self, cube2):
        r, s = vm.validate_mesh(cube2), vm.validate_mesh(cube2)
        assert r == r and r != s


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

    # UNIT_CUBE with its bottom face split into two triangles, listed
    # first: the fan split stacks faces by loop size, so a quad's index in
    # its stack is its face id less 2.
    SPLIT_BOTTOM = [[0, 3, 2], [0, 2, 1]] + UNIT_CUBE["faces"][1:]

    def test_nonplanar_face_named(self):
        vertices = np.array(UNIT_CUBE["vertices"], dtype=float)
        vertices[6, 2] += 1e-3             # bends faces 2, 4 and 6 of SPLIT_BOTTOM
        with pytest.raises(vm.MeshGeometryError, match=r"^nonplanar face 2: residual "):
            vm.derive_topology(vertices, self.SPLIT_BOTTOM, [list(range(1, 8))])

    def test_zero_area_face_named(self):
        # flattened onto z = 0, the two triangles and the top face keep
        # their area and the four side faces, 3 to 6, lose it
        vertices = np.array(UNIT_CUBE["vertices"], dtype=float) * [1, 1, 0]
        with pytest.raises(vm.MeshGeometryError, match="^face 3 has zero area$"):
            vm.derive_topology(vertices, self.SPLIT_BOTTOM, [list(range(1, 8))])

    def test_first_failing_face_named_across_loop_sizes(self):
        # voro8's vertex 6 lies on faces 14 (a pentagon), 15 (a quad) and
        # 31: moved off their planes, the lowest of them is named, not the
        # first of the smallest loop size
        doc = json.loads((DATA / "voro8.json").read_text())
        vertices = np.array(doc["vertices"])
        vertices[6] += 0.01 * np.array([0.3, 0.7, -0.5])
        assert [len(doc["faces"][f]) for f in (14, 15)] == [5, 4]
        with pytest.raises(vm.MeshGeometryError, match=r"^nonplanar face 14: residual "):
            vm.derive_topology(vertices, doc["faces"], doc["cells"])

    @pytest.mark.parametrize("edit, message", [
        (lambda v, f, c: f[0].__setitem__(0, 0.5), "face 0 has a non-integer index"),
        (lambda v, f, c: f[4].__setitem__(1, float("nan")), "face 4 has a non-integer index"),
        (lambda v, f, c: f.__setitem__(2, np.array(f[2], dtype=float)),
         "face 2 has a non-integer index"),
        (lambda v, f, c: c.__setitem__(slice(None), [[float(r) for r in refs] for refs in c]),
         "cell 0 has a non-integer index"),
        (lambda v, f, c: c[5].__setitem__(3, "7"), "cell 5 has a non-integer index"),
        (lambda v, f, c: v[3].__setitem__(1, "0.0"),
         "vertex 3 has a coordinate that is not a number"),
        (lambda v, f, c: v[5].__setitem__(2, None),
         "vertex 5 has a coordinate that is not a number"),
        (lambda v, f, c: v[6].__setitem__(0, 1j),
         "vertex 6 has a coordinate that is not a number"),
        # bool is an int subclass, and numpy reads a list's True as 1.0
        (lambda v, f, c: v[2].__setitem__(1, True),
         "vertex 2 has a coordinate that is not a number"),
        (lambda v, f, c: v[7].__setitem__(0, False),
         "vertex 7 has a coordinate that is not a number"),
        (lambda v, f, c: f[3].__setitem__(2, True), "face 3 has a non-integer index"),
        (lambda v, f, c: c[1].__setitem__(0, False), "cell 1 has a non-integer index"),
        (lambda v, f, c: v[3].__delitem__(2), "malformed arrays: setting an array element .*"),
        (lambda v, f, c: f.__setitem__(2, 5),
         "malformed arrays: object of type 'int' has no len.*"),
        (lambda v, f, c: c.__setitem__(4, None),
         "malformed arrays: object of type 'NoneType' has no len.*"),
        (lambda v, f, c: v[4].__setitem__(0, 10**400),
         "malformed arrays: int too large to convert to float"),
        (lambda v, f, c: (v, None, c), "malformed arrays: 'NoneType' object is not iterable"),
    ], ids=["half-index", "nan-index", "float-array-face", "float-cells", "string-ref",
            "string-coordinate", "none-coordinate", "complex-coordinate",
            "true-coordinate", "false-coordinate", "true-index", "false-ref",
            "ragged-vertex", "int-face", "none-cell", "huge-int-coordinate", "no-faces"])
    def test_entry_that_is_not_a_number_rejected(self, cube2, edit, message):
        # derive_topology is the one check of raw entries (load_mesh only
        # parses the JSON): an index that is not an integer, a coordinate that
        # is not a number and an array that does not convert are
        # MeshFormatErrors; an edit returns the arrays it replaces
        arrays = vm._pvm_arrays(cube2)
        arrays = edit(*arrays) or arrays
        with pytest.raises(vm.MeshFormatError, match=f"^{message}$"):
            vm.derive_topology(*arrays)

    def test_numpy_entries_accepted(self, cube2):
        vertices, faces, cells = vm._pvm_arrays(cube2)
        again = vm.derive_topology(np.array(vertices, dtype=np.float32).astype(object),
                                   [np.array(loop, dtype=np.int32) for loop in faces],
                                   [np.array(refs, dtype=np.int16) for refs in cells])
        assert np.array_equal(again.vertices, cube2.vertices)
        assert np.array_equal(again.faces.flat, cube2.faces.flat)

    def test_zero_length_edge_named(self):
        # vertex 8 is a copy of vertex 1, inserted into the loop of the last
        # face: the loop edge (1, 8) has zero length
        vertices = UNIT_CUBE["vertices"] + [UNIT_CUBE["vertices"][1]]
        faces = UNIT_CUBE["faces"][:-1] + [[1, 2, 6, 5, 8]]
        edges = []                         # numbered in order of first appearance
        for loop in faces:
            for a, b in zip(loop, loop[1:] + loop[:1]):
                if (min(a, b), max(a, b)) not in edges:
                    edges.append((min(a, b), max(a, b)))
        e = edges.index((1, 8))
        assert e > 0
        with pytest.raises(vm.MeshGeometryError,
                           match=rf"^edge {e} \(vertices 1, 8\) has zero length$"):
            vm.derive_topology(vertices, faces, UNIT_CUBE["cells"])

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(-3, 30), max_size=7), st.booleans(),
                              st.integers(0, 6), st.integers(0, 6)), max_size=12))
    def test_repeats_match_sets(self, drawn):
        # each list may get a planted repeat: a copy of its entry i at j
        lists = []
        for values, plant, i, j in drawn:
            if plant and values:
                values = values[:j] + [values[i % len(values)]] + values[j:]
            lists.append(values)
        ragged, fits = vm._index_lists(lists)
        assert fits.all()
        assert vm._repeats(ragged).tolist() == [len(set(v)) < len(v) for v in lists]

    def test_one_sign_flipped_is_open_boundary(self):
        cells = [[-1] + UNIT_CUBE["cells"][0][1:]]
        with pytest.raises(vm.MeshTopologyError, match="open cell boundary"):
            vm.derive_topology(UNIT_CUBE["vertices"], UNIT_CUBE["faces"], cells)

    # cube:2 with an entity no cell reaches: each is rejected by name, where
    # it once failed late in the run, or changed the DOF count unnoticed.

    def test_face_off_the_mesh_rejected(self, cube2):
        vertices, faces, cells = vm._pvm_arrays(cube2)
        vertices += [[2, 0, 0], [3, 0, 0], [2, 1, 0]]
        faces += [[27, 28, 29]]
        with pytest.raises(vm.MeshTopologyError, match="^face 36 belongs to no cell$"):
            vm.derive_topology(vertices, faces, cells)

    def test_unlisted_reversed_face_rejected(self, cube2):
        vertices, faces, cells = vm._pvm_arrays(cube2)
        with pytest.raises(vm.MeshTopologyError, match="^face 36 belongs to no cell$"):
            vm.derive_topology(vertices, faces + [faces[0][::-1]], cells)

    def test_stray_vertex_rejected(self, cube2):
        vertices, faces, cells = vm._pvm_arrays(cube2)
        with pytest.raises(vm.MeshTopologyError, match="^vertex 27 belongs to no face$"):
            vm.derive_topology(vertices + [[0.5, 0.5, 2.0]], faces, cells)


# The invariants derive_topology enforces, recomputed face by face and cell
# by cell from a mesh's vertices over its incidences: the oracle of
# derive_topology, and so of validate_mesh, which rebuilds through it.

def oracle_violations(mesh):
    """Each violated invariant of ``mesh``'s vertices over its incidences:
    planarity, face and cell closure, positive face areas and cell
    volumes, and the shape ratios h_e/h_F and h_F/h_K."""
    v, out = mesh.vertices, []
    area_vecs, centers, h_f = [], [], []
    for f, loop in enumerate(mesh.faces):
        pts = v[loop]
        diameter = max(np.linalg.norm(a - b) for a, b in itertools.combinations(pts, 2))
        rel = pts - pts.mean(axis=0)
        residual = np.abs(rel @ np.linalg.svd(rel)[2][2]).max()
        area_vec = 0.5 * sum(np.cross(a, b) for a, b in zip(rel, np.roll(rel, -1, axis=0)))
        ends = v[mesh.edges[mesh.face_edges[f]]]
        sides = mesh.face_edge_signs[f][:, None] * (ends[:, 1] - ends[:, 0])
        closure = np.linalg.norm(sides.sum(axis=0))
        ratio = np.linalg.norm(sides, axis=1).min() / diameter
        out += [message for failed, message in (
            (residual > vm.PLANARITY_TOL * diameter,
             f"face {f}: planarity residual {residual:.3e}"),
            (not np.linalg.norm(area_vec) > 0, f"face {f}: nonpositive area"),
            (closure > 1e-12 * diameter, f"face {f}: open edge loop {closure:.3e}"),
            (ratio < vm.SHAPE_RATIO_MIN, f"face {f}: min h_e/h_F = {ratio:.3e}"),
        ) if failed]
        area_vecs.append(area_vec)
        centers.append(pts.mean(axis=0))
        h_f.append(diameter)
    for k, (fids, signs) in enumerate(zip(mesh.cell_faces, mesh.cell_face_signs)):
        pts = v[np.unique(np.concatenate([mesh.faces[f] for f in fids]))]
        diameter = max(np.linalg.norm(a - b) for a, b in itertools.combinations(pts, 2))
        flux = np.linalg.norm(sum(s * area_vecs[f] for f, s in zip(fids, signs)))
        volume = sum(s * area_vecs[f] @ centers[f] for f, s in zip(fids, signs)) / 3
        ratio = min(h_f[f] for f in fids) / diameter
        out += [message for failed, message in (
            (flux > vm.CLOSURE_TOL * diameter**2, f"cell {k}: open boundary {flux:.3e}"),
            (volume <= 0, f"cell {k}: nonpositive volume"),
            (ratio < vm.SHAPE_RATIO_MIN, f"cell {k}: min h_F/h_K = {ratio:.3e}"),
        ) if failed]
    return out


def validated(mesh):
    """``validate_mesh``'s report and the oracle's violations, which agree
    on whether the mesh is valid."""
    report, oracle = vm.validate_mesh(mesh), oracle_violations(mesh)
    assert report.ok == (not oracle), (report.violations, oracle)
    assert len(report.violations) <= 1
    return report, oracle


def rebuild_error(mesh):
    """The MeshError of ``derive_topology`` on the mesh's vertices and
    incidences, each list written out here."""
    cells = [(signs * (fids + 1)).tolist()
             for fids, signs in zip(mesh.cell_faces, mesh.cell_face_signs)]
    with pytest.raises(vm.MeshError) as info:
        vm.derive_topology(mesh.vertices, [loop.tolist() for loop in mesh.faces], cells)
    return info.value


class TestValidate:
    def test_cube_planarity_exact(self, cube4):
        assert validated(cube4)[0].ok
        quads = cube4.vertices[cube4.faces.flat].reshape(-1, 4, 3)
        assert vm._plane_residual(quads).max() == 0.0

    def test_nonplanar_face_flagged(self, cube1):
        lifted = cube1.vertices.copy()
        lifted[-1] += 1e-3                 # the corner (1, 1, 1) of its three faces
        bent = dataclasses.replace(cube1, vertices=lifted)
        rep, oracle = validated(bent)
        assert sum("planarity residual" in v for v in oracle) == 3
        error = rebuild_error(bent)
        assert isinstance(error, vm.MeshGeometryError) and "nonplanar face" in str(error)
        assert rep.violations == [str(error)]

    def test_min_edge_face_ratio(self, cube2, monkeypatch):
        # exhaustive oracle over all faces; derive_topology holds the same
        # ratio against SHAPE_RATIO_MIN
        h_f = face_diameters(cube2)
        expected = min(cube2.edge_lengths[cube2.face_edges[f]].min() / h_f[f]
                       for f in range(cube2.n_faces))
        assert expected == pytest.approx(1 / np.sqrt(2), rel=1e-14)
        monkeypatch.setattr(vm, "SHAPE_RATIO_MIN", expected * (1 - 1e-14))
        assert validated(cube2)[0].ok
        monkeypatch.setattr(vm, "SHAPE_RATIO_MIN", expected * (1 + 1e-14))
        assert validated(cube2)[0].violations == [
            f"face 0 is not shape-regular: min h_e/h_F = {expected:.3e}"]

    def test_stats(self, voro27):
        h_f = face_diameters(voro27)
        expected = min(h_f[voro27.cell_faces[k]].min() / voro27.cell_diameters[k]
                       for k in range(voro27.n_cells))
        # the per-cell ratios derive_topology holds against SHAPE_RATIO_MIN
        ratio = vm._face_cell_ratios(voro27.cell_faces, h_f, voro27.cell_diameters).min()
        assert ratio == pytest.approx(expected, rel=1e-14)
        assert 0.0 < ratio < 1.0
        assert voro27.n_cells == 27 and voro27.h == voro27.cell_diameters.max()
        assert (voro27.cell_diameters > 0).all() and (voro27.edge_lengths > 0).all()

    def test_shape_ratio_flagged(self, cube2, monkeypatch):
        # cube2's h_e/h_F = 0.707 and h_F/h_K = 0.816
        monkeypatch.setattr(vm, "SHAPE_RATIO_MIN", 0.75)
        rep, oracle = validated(cube2)
        assert rep.violations == ["face 0 is not shape-regular: min h_e/h_F = 7.071e-01"]
        assert oracle == [f"face {f}: min h_e/h_F = 7.071e-01" for f in range(cube2.n_faces)]
        assert not rep.ok

    def test_degenerate_area_flagged(self, cube1):
        # flattened onto z = 0, the four side faces (x- and y-normal) have
        # zero area
        squashed = dataclasses.replace(cube1, vertices=cube1.vertices * [1, 1, 0])
        rep, oracle = validated(squashed)
        assert [v for v in oracle if "area" in v] == [f"face {f}: nonpositive area"
                                                      for f in range(4)]
        assert rep.violations == ["face 0 has zero area"] == [str(rebuild_error(squashed))]
        assert not rep.ok

    def test_closure_identities(self, cube4, voro8, lcell, two_prisms):
        for m in (cube4, voro8, lcell, two_prisms):
            # the oracle's face and cell closure residuals are within 1e-12
            rep, oracle = validated(m)
            assert rep.ok and not oracle, (rep.violations, oracle)


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


# The per-entity construction and validation loops derive_topology ran
# before its incidences were held flat, kept as oracles.

def tuple_incidences(faces, cells):
    """Per-entity tuples of the raw input: vertex loops, loop edges
    numbered by first appearance with their signs, cell faces and signs;
    and the (lo, hi) edges in that numbering."""
    loops = tuple(np.asarray(loop, dtype=int) for loop in faces)
    numbering = {}
    face_edges, face_edge_signs = [], []
    for loop in loops:
        pairs = list(zip(loop.tolist(), np.roll(loop, -1).tolist()))
        face_edges.append(np.array([numbering.setdefault((min(a, b), max(a, b)), len(numbering))
                                    for a, b in pairs]))
        face_edge_signs.append(np.array([1 if a < b else -1 for a, b in pairs]))
    refs = [np.asarray(r, dtype=int) for r in cells]
    tuples = {"faces": loops, "face_edges": tuple(face_edges),
              "face_edge_signs": tuple(face_edge_signs),
              "cell_faces": tuple(np.abs(r) - 1 for r in refs),
              "cell_face_signs": tuple(np.sign(r).astype(int) for r in refs)}
    return tuples, np.array(list(numbering))


def old_validation(vertices, faces, cells):
    """Raise what the per-face, then per-cell, checks raised first."""
    nv = len(vertices)
    for i, loop in enumerate(faces):
        try:
            loop = np.asarray(loop, dtype=int)
        except OverflowError as exc:
            raise vm.MeshFormatError(f"face {i} has an index out of range") from exc
        if loop.size < 3:
            raise vm.MeshTopologyError(f"face {i} has fewer than 3 vertices")
        if loop.min() < 0 or loop.max() >= nv:
            raise vm.MeshTopologyError(f"face {i} references a missing vertex")
        if np.unique(loop).size != loop.size:
            raise vm.MeshTopologyError(f"inconsistent loop: face {i} repeats a vertex")
    nf = len(faces)
    for k, refs in enumerate(cells):
        try:
            refs = np.asarray(refs, dtype=int)
        except OverflowError as exc:
            raise vm.MeshFormatError(f"cell {k} has an index out of range") from exc
        if refs.size < 4 or np.any(refs == 0):
            raise vm.MeshTopologyError(f"cell {k} has an invalid face list")
        idx = np.abs(refs) - 1
        if idx.max() >= nf:
            raise vm.MeshTopologyError(f"cell {k} references a missing face")
        if np.unique(idx).size != idx.size:
            raise vm.MeshTopologyError(f"cell {k} repeats a face")


LOOP_MESSAGES = re.compile(r"(face|cell) \d+ (has an index out of range|has fewer than 3 "
                           r"vertices|references a missing|has an invalid face list|repeats a)")

BUILDERS = {
    "cube4": lambda: vm.generate_cube_mesh(4),
    "lcell": conftest.build_lcell,
    "two_prisms": conftest.build_two_prisms,
    "voro8": lambda: vm.load_mesh(DATA / "voro8.json"),
    "voro27": lambda: vm.load_mesh(DATA / "voro27.json"),
    "agglo4": lambda: agglo.agglomerated_cube(4, 1),
}


class TestShapeRegularity:
    def test_folded_cells_rejected(self, tmp_path):
        with pytest.raises(vm.MeshGeometryError, match=r"face \d+ is not shape-regular"):
            vm.load_mesh(write_json(tmp_path, folded_voro8()))

    def test_cell_ratio_checked(self, monkeypatch):
        # agglo4's 10-face cells have min h_F/h_K = 0.471, its edges 0.707
        monkeypatch.setattr(vm, "SHAPE_RATIO_MIN", 0.5)
        with pytest.raises(vm.MeshGeometryError, match=r"h_F/h_K = 4\.714e-01"):
            agglo.agglomerated_cube(4, 1)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_fixture_meshes_load(self, name):
        # every invariant holds, the shape ratios at SHAPE_RATIO_MIN or above
        assert oracle_violations(BUILDERS[name]()) == []


class TestBoundaryFlags:
    """An edge is a boundary edge exactly where it lies on a boundary face,
    so the curl restricted to boundary faces and interior edges is empty:
    eliminating the boundary DOFs needs no check of its own."""

    @pytest.mark.parametrize("name", ["cube1", "cube2", "cube4", "cube8", "agglo4", "lcell",
                                      "two_prisms", "voro8", "voro27"])
    def test_boundary_face_edges_are_boundary_edges(self, name, request):
        m = request.getfixturevalue(name)
        on_boundary_face = np.zeros(m.n_edges, bool)
        for f in np.flatnonzero(m.boundary_faces):
            assert m.boundary_edges[m.face_edges[f]].all()
            on_boundary_face[m.face_edges[f]] = True
        assert np.array_equal(on_boundary_face, m.boundary_edges)
        c = build_incidence(m).C
        assert c[np.flatnonzero(m.boundary_faces)][:, np.flatnonzero(~m.boundary_edges)].nnz == 0


class TestRaggedMatchesTuples:
    """Every per-entity view of the flat incidences equals the per-entity
    tuple built from the raw input."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Build a mesh, recording the raw faces and cells it was made of."""
        calls = []
        original = vm.derive_topology

        def recording(vertices, faces, cells, name=""):
            calls.append((faces, cells))
            return original(vertices, faces, cells, name=name)

        for module in (vm, conftest, agglo):
            monkeypatch.setattr(module, "derive_topology", recording)

        def build(name):
            mesh = BUILDERS[name]()
            return mesh, calls[-1]
        return build

    @pytest.mark.parametrize("name", SPLIT_MESHES + ["agglo4"])
    def test_views_equal_tuples(self, name, built):
        m, (faces, cells) = built(name)
        tuples, edges = tuple_incidences(faces, cells)
        assert np.array_equal(m.edges, edges)
        for field, want in tuples.items():
            ragged = getattr(m, field)
            assert len(ragged) == len(want)
            assert all(np.array_equal(a, b) and a.dtype.kind == "i"
                       for a, b in zip(ragged, want, strict=True))
            assert all(np.array_equal(ragged[i], want[i]) for i in range(len(want)))
            assert np.array_equal(ragged[-1], want[-1])
            with pytest.raises(IndexError):
                ragged[len(want)]
            sizes = [w.size for w in want]
            assert np.array_equal(ragged.owners, np.repeat(np.arange(len(want)), sizes))
            assert np.array_equal(np.diff(ragged.offsets), sizes)

    def test_shared_offsets_and_owners(self, voro27):
        for a, b in ((voro27.faces, voro27.face_edges), (voro27.faces, voro27.face_edge_signs),
                     (voro27.cell_faces, voro27.cell_face_signs)):
            assert a.offsets is b.offsets and a.owners is b.owners


VORO8 = json.loads((DATA / "voro8.json").read_text())
N_REFS = max(len(VORO8["vertices"]), len(VORO8["faces"])) + 2
INDEX = st.one_of(st.integers(-N_REFS, N_REFS),
                  st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**30, -10**30]))


@st.composite
def mutated_voro8(draw):
    """voro8 with a few faces or cells edited; every face and cell stays
    a list of JSON integers, so the document passes derive_topology's
    entry checks and reaches its validation."""
    doc = copy.deepcopy(VORO8)
    # Edits favour one face and one cell, so that one entity often fails
    # several checks at once.
    focus = {key: draw(st.integers(0, len(doc[key]) - 1)) for key in ("faces", "cells")}
    for _ in range(draw(st.integers(1, 4))):
        key = draw(st.sampled_from(["faces", "cells"]))
        lists = doc[key]
        op = draw(st.sampled_from(["set", "delete", "repeat", "insert", "clear",
                                   "replace list", "drop list", "add list"]))
        if op == "add list":
            lists.append(draw(st.lists(INDEX, max_size=6)))
            continue
        if not lists:
            continue
        i = min(draw(st.one_of(st.just(focus[key]), st.integers(0, len(lists) - 1))),
                len(lists) - 1)
        refs = lists[i]
        j = draw(st.integers(0, max(len(refs) - 1, 0)))
        if op == "replace list":
            lists[i] = draw(st.lists(INDEX, max_size=6))
        elif op == "drop list":
            del lists[i]
        elif op == "insert":
            refs.insert(j, draw(INDEX))
        elif op == "clear":
            refs.clear()
        elif refs and op == "set":
            refs[j] = draw(INDEX)
        elif refs and op == "delete":
            del refs[j]
        elif refs and op == "repeat":
            refs.append(refs[j])
    return doc


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(doc=mutated_voro8())
def test_load_mesh_fuzz_matches_per_entity_validation(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "mesh.json"
    path.write_text(json.dumps(doc))
    try:
        old_validation(doc["vertices"], doc["faces"], doc["cells"])
        want = None
    except vm.MeshError as exc:
        want = exc
    try:
        vm.load_mesh(path)
        got = None
    except vm.MeshError as exc:     # anything else escapes and fails the test
        got = exc
    if want is not None:
        assert (type(got), str(got)) == (type(want), str(want))
    elif got is not None:
        assert not LOOP_MESSAGES.search(str(got)), got
