import contextlib
import copy
import io
import json
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, folded_voro8, scipy_csr
from vemaxwell import cli, derham, generate_cube_mesh, load_mesh
from vemaxwell.mesh import MeshFormatError, _pvm_arrays


class TestRunConfig:
    def test_tau_must_divide(self):
        with pytest.raises(cli.ConfigError, match="does not divide"):
            cli.RunConfig("cube:2", 1, Fraction(3, 10), T=1.0)

    def test_same_step_rule_as_run(self):
        # the rule of stepper.step_count, which stepper.run applies too
        with pytest.raises(cli.ConfigError, match="does not divide"):
            cli.RunConfig("cube:2", 2, Fraction(1, 10**7), T=1.000000001e-6)
        with pytest.raises(cli.ConfigError, match="does not divide"):
            cli.RunConfig("cube:2", 2, Fraction(0))

    def test_bad_case(self):
        with pytest.raises(cli.ConfigError, match="case"):
            cli.RunConfig("cube:2", 9, Fraction(1, 2))

    def test_bad_eta(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig("cube:2", 1, Fraction(1, 2), eta_edge=-1.0)


class TestRunSingle:
    def test_smoke_cube2(self, tmp_path):
        t0 = time.perf_counter()
        out = tmp_path / "row.csv"
        cfg = cli.RunConfig("cube:2", 1, Fraction(1, 2), out=str(out))
        rep = cli.run_single(cfg)
        assert time.perf_counter() - t0 < 5.0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("cube8,")
        assert rep.label == "cube8"
        assert rep.err_E > 0

    def test_reproducible_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            cfg = cli.RunConfig("cube:2", 2, Fraction(1, 4),
                                out=str(tmp_path / name))
            cli.run_single(cfg)
            outs.append((tmp_path / name).read_bytes())
        # identical configs produce identical bytes except the wall-time field
        def strip_wall(b):
            return b",".join(b.split(b",")[:-1])
        assert strip_wall(outs[0]) == strip_wall(outs[1])

    def test_monitors_written(self, tmp_path):
        mon = tmp_path / "mon.csv"
        cfg = cli.RunConfig("cube:2", 1, Fraction(1, 2), monitors=str(mon))
        cli.run_single(cfg)
        lines = mon.read_text().strip().split("\n")
        assert lines[0] == "step,t,energy,divB,cg_iters,residual"
        assert len(lines) == 4

    def test_csv_div_b_is_last_monitor(self, tmp_path):
        out, mon = tmp_path / "row.csv", tmp_path / "mon.csv"
        cfg = cli.RunConfig("cube:2", 2, Fraction(1, 4), out=str(out),
                            monitors=str(mon))
        cli.run_single(cfg)
        header, row = out.read_text().strip().split("\n")
        div_b = row.split(",")[header.split(",").index("div_B")]
        mon_header, *rows = mon.read_text().strip().split("\n")
        last = rows[-1].split(",")[mon_header.split(",").index("divB")]
        assert div_b == last

    def test_mesh_file_source(self, tmp_path, voro8):
        from vemaxwell import save_mesh
        path = tmp_path / "v.json"
        save_mesh(voro8, path)
        cfg = cli.RunConfig(str(path), 1, Fraction(1, 2))
        rep = cli.run_single(cfg)
        assert rep.label == "voro8"


class TestRunConvergence:
    def test_three_levels_mechanics(self, tmp_path):
        out = tmp_path / "conv.csv"
        cfg = cli.RunConfig("cube:1", 2, Fraction(1, 4), out=str(out))
        report = cli.run_convergence(cfg, 3)
        assert [r.label for r in report.rows] == ["cube1", "cube8", "cube64"]
        assert [r.tau for r in report.rows] == [0.25, 0.125, 0.0625]
        # rates recomputed by hand from the emitted rows
        for i, (a, b) in enumerate(zip(report.rows, report.rows[1:])):
            expected = np.log(a.err_E / b.err_E) / np.log(a.h / b.h)
            assert report.rates_E[i] == pytest.approx(expected, rel=1e-12)
        text = report.table(1.0)
        assert "rate level" in text and "not reproducible" in text
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("#") and lines[1] == cli.CSV_HEADER
        assert len(lines) == 5

    def test_full_grid_mode(self, tmp_path):
        out = tmp_path / "grid.csv"
        cfg = cli.RunConfig("cube:1", 1, Fraction(1, 2), out=str(out), grid=True)
        report = cli.run_convergence(cfg, 2)
        assert report.grid is not None
        assert len(report.grid) == 2 and len(report.grid[0]) == 2
        # diagonal entries coincide with the default-mode rows
        assert report.rows[0] is report.grid[0][0]
        assert report.rows[1] is report.grid[1][1]
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6       # note + header + 4 runs
        text = report.table(1.0)
        assert text.count("/") >= 4  # every cell filled

    def test_identical_levels_rejected(self, tmp_path, voro8):
        from vemaxwell import save_mesh
        path = tmp_path / "v.json"
        save_mesh(voro8, path)
        cfg = cli.RunConfig(str(path), 1, Fraction(1, 2))
        with pytest.raises(cli.ConfigError, match="not refined"):
            cli.run_convergence(cfg, 2, mesh_sources=[str(path), str(path)])

    def test_needs_two_levels(self):
        cfg = cli.RunConfig("cube:2", 1, Fraction(1, 2))
        with pytest.raises(cli.ConfigError, match="2 levels"):
            cli.run_convergence(cfg, 1)


class TestMain:
    def test_exit_zero(self, capsys):
        code = cli.main(["--generate", "cube:2", "--case", "1", "--tau", "1/2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(cli.CSV_HEADER)

    def test_config_error_exit_two(self, capsys):
        code = cli.main(["--generate", "cube:2", "--case", "1", "--tau", "0.3"])
        assert code == 2
        code = cli.main(["--generate", "cube:2", "--case", "9", "--tau", "1/2"])
        assert code == 2
        code = cli.main(["--generate", "cube:2", "--case", "1", "--tau", "bogus"])
        assert code == 2
        for levels in ("1", "2"):       # a study parses cube:<n> as a single run does
            code = cli.main(["--generate", "cube:abc", "--case", "1", "--tau", "1/2",
                             "--levels", levels])
            assert code == 2
            assert "bad mesh source 'cube:abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["voronoi:8", str(DATA / "voro8.json"), "Cube:2", ""],
                             ids=["generator", "mesh-file", "capitalised", "empty"])
    @pytest.mark.parametrize("levels", ["1", "2"])
    def test_generate_takes_only_cube(self, capsys, source, levels):
        # neither another generator nor a mesh file is read as a mesh source
        code = cli.main(["--generate", source, "--case", "2", "--tau", "1/4",
                         "--levels", levels])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --generate takes cube:<n>, not {source!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("levels", ["0", "-3"])
    def test_nonpositive_levels_exit_two(self, capsys, levels):
        code = cli.main(["--generate", "cube:2", "--case", "2", "--tau", "1/4",
                         "--levels", levels])
        assert code == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and "--levels" in captured.err
        assert captured.out == ""                        # no run was made

    def test_grid_without_study_exit_two(self, capsys):
        code = cli.main(["--generate", "cube:2", "--case", "2", "--tau", "1/4", "--grid"])
        assert code == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and "--grid" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("study", [["--levels", "2"], ["--levels", "2", "--grid"]])
    def test_monitors_in_study_exit_two(self, capsys, tmp_path, study):
        mon = tmp_path / "m.csv"
        code = cli.main(["--generate", "cube:1", "--case", "2", "--tau", "1/2",
                         "--monitors", str(mon)] + study)
        assert code == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and "--monitors" in captured.err
        assert captured.out == "" and not mon.exists()   # no run was made

    @pytest.mark.parametrize("flag, study", [("--out", []), ("--monitors", []),
                                             ("--out", ["--levels", "2"])],
                             ids=["out", "monitors", "study-out"])
    @pytest.mark.parametrize("name, message", [("missing/x.csv", "No such file or directory"),
                                               ("", "Is a directory")],
                             ids=["missing-directory", "directory"])
    def test_unwritable_path_fails_before_the_run(self, capsys, tmp_path, monkeypatch,
                                                  flag, study, name, message):
        def run(*args, **kwargs):
            raise AssertionError("stepper.run entered")

        monkeypatch.setattr(cli.stepper, "run", run)
        code = cli.main(["--generate", "cube:1", "--case", "2", "--tau", "1/2",
                         flag, str(tmp_path / name)] + study)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno") and message in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "missing").exists()

    def test_not_shape_regular_exit_three(self, capsys, tmp_path):
        path = tmp_path / "folded.json"
        path.write_text(json.dumps(folded_voro8()))
        code = cli.main(["--mesh", str(path), "--case", "1", "--tau", "1/4"])
        assert code == 3
        captured = capsys.readouterr()
        assert "not shape-regular" in captured.err and captured.out == ""

    def test_stray_vertex_exit_three(self, capsys, tmp_path, cube2):
        # once exit 3 from the gradient correction's "nonpositive diagonal"
        vertices, faces, cells = _pvm_arrays(cube2)
        path = tmp_path / "stray.json"
        path.write_text(json.dumps({"vertices": vertices + [[0.5, 0.5, 2.0]],
                                    "faces": faces, "cells": cells}))
        code = cli.main(["--mesh", str(path), "--case", "2", "--tau", "1/2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "error: vertex 27 belongs to no face\n" and captured.out == ""

    def test_out_of_memory_exit_three(self, capsys):
        # the mesh's vertex numbering, its first array (7.11 PiB), is refused outright
        code = cli.main(["--generate", "cube:100000", "--case", "2", "--tau", "1/4"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_one_level_is_a_single_run(self, capsys):
        code = cli.main(["--generate", "cube:1", "--case", "2", "--tau", "1/2",
                         "--levels", "1"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == cli.CSV_HEADER and len(out) == 2

    @pytest.mark.parametrize("flag, value", [("--T", "inf"), ("--T", "nan"),
                                             ("--eta-edge", "nan"), ("--eta-face", "inf")])
    def test_non_finite_value_exit_two(self, capsys, flag, value):
        code = cli.main(["--generate", "cube:2", "--case", "2", "--tau", "1/4", flag, value])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_T_exit_two(self, capsys, value):
        code = cli.main(["--generate", "cube:2", "--case", "2", "--tau", "1/4", "--T", value])
        assert code == 2
        err = capsys.readouterr().err
        assert "is not positive" in err and "does not divide" not in err

    def test_step_count_not_finite_exit_two(self, capsys):
        # 1e308 / 0.25 overflows: no step count reaches T
        code = cli.main(["--generate", "cube:2", "--case", "2", "--tau", "1/4", "--T", "1e308"])
        assert code == 2
        err = capsys.readouterr().err
        assert "step count T/tau = 1e+308/0.25 is not finite" in err
        assert "does not divide" not in err

    @pytest.mark.parametrize("argv, steps", [(["--tau", "1e-300"], "1e+300"),
                                             (["--tau", "1e-17"], "1e+17"),
                                             (["--tau", "1/4", "--T", "1e17"], "4e+17")])
    def test_step_count_past_2_53_exit_two(self, capsys, monkeypatch, argv, steps):
        # past 2**53 every float is an integer, so the divisibility check
        # says nothing; the config error comes before any mesh is built
        def no_mesh(n):
            raise AssertionError("mesh built")

        monkeypatch.setattr(cli.vmesh, "generate_cube_mesh", no_mesh)
        code = cli.main(["--generate", "cube:1", "--case", "2"] + argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: the step count T/tau = ")
        assert captured.err.endswith(f"= {steps} exceeds 2**53\n") and captured.out == ""

    @pytest.mark.parametrize("name", ["run 1, coarse", "two\nlines"])
    def test_csv_breaking_mesh_name_exit_three(self, capsys, tmp_path, name):
        doc = json.loads((DATA / "voro8.json").read_text())
        doc["name"] = name
        path = tmp_path / "named.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "row.csv"
        code = cli.main(["--mesh", str(path), "--case", "1", "--tau", "1/4",
                         "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert "comma or a line break" in captured.err and captured.out == ""
        assert not out.exists()

    @staticmethod
    def unnamed_mesh(tmp_path, stem):
        doc = json.loads((DATA / "voro8.json").read_text())
        del doc["name"]
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("stem", ["two\nlines", "two\rlines"])
    def test_csv_breaking_file_stem_exit_three(self, capsys, tmp_path, stem):
        # an unnamed mesh is labelled by its file stem, under the rule of
        # a JSON name
        out = tmp_path / "row.csv"
        code = cli.main(["--mesh", self.unnamed_mesh(tmp_path, stem), "--case", "1",
                         "--tau", "1/4", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert "comma or a line break" in captured.err and captured.out == ""
        assert not out.exists()

    def test_file_stem_with_comma_rejected(self, tmp_path):
        # an unnamed mesh's label comes from its file stem, which must not
        # break the CSV row either
        path = self.unnamed_mesh(tmp_path, "run 1, coarse")
        with pytest.raises(MeshFormatError, match="comma or a line break"):
            cli.run_single(cli.RunConfig(path, 1, Fraction(1, 4)))

    def test_existing_mesh_path_with_comma_is_one_mesh(self, capsys, tmp_path):
        # --mesh splits at commas only where the whole value names no file
        folder = tmp_path / "with, comma"
        folder.mkdir()
        path = folder / "m.json"
        path.write_text((DATA / "voro8.json").read_text())
        code = cli.main(["--mesh", str(path), "--case", "1", "--tau", "1/4"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.strip().split("\n")
        assert lines[0] == cli.CSV_HEADER and len(lines) == 2
        assert lines[1].startswith("voro8,")

    @pytest.mark.parametrize("source", ["cube:2", "cube:2,cube:4"])
    def test_mesh_source_is_always_a_file(self, capsys, tmp_path, monkeypatch, source):
        # only --generate makes a cube: --mesh cube:2 reads a file of that name
        monkeypatch.chdir(tmp_path)
        code = cli.main(["--mesh", source, "--case", "2", "--tau", "1/2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot parse cube:2: ")
        assert "No such file" in captured.err and captured.out == ""

    def test_mesh_file_named_like_a_cube_loads(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "cube:2").write_text((DATA / "voro8.json").read_text())
        monkeypatch.chdir(tmp_path)
        code = cli.main(["--mesh", "cube:2", "--case", "1", "--tau", "1/2"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.strip().split("\n")
        assert lines[0] == cli.CSV_HEADER and len(lines) == 2
        assert lines[1].startswith("voro8,")

    def test_missing_mesh_exit_three(self, capsys):
        code = cli.main(["--mesh", "/nonexistent/mesh.json", "--case", "1",
                         "--tau", "1/2"])
        assert code == 3

    def test_tau_decimal_accepted(self, capsys):
        code = cli.main(["--generate", "cube:1", "--case", "1", "--tau", "0.5"])
        assert code == 0


def pvm_document(mesh):
    vertices, faces, cells = _pvm_arrays(mesh)
    return {"name": mesh.name, "vertices": vertices, "faces": faces, "cells": cells}


DOCUMENTS = {"cube1": pvm_document(generate_cube_mesh(1)),
             "cube2": pvm_document(generate_cube_mesh(2)),
             "voro8": json.loads((DATA / "voro8.json").read_text())}
ODD_LEAVES = ["0", True, False, float("nan"), 1e308, 10**20, [], {}]


@st.composite
def malformed_documents(draw):
    """A PVM document of cube:1, cube:2 or voro8 with one to three edits:
    an entry of an array, or of one of its entries, deleted, duplicated or
    made an odd leaf value; an array reversed, shuffled or emptied; an
    index shifted; a vertex nudged."""
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["vertices", "faces", "cells"]))
        array = doc[key]
        if array and draw(st.booleans()):
            array = array[draw(st.integers(0, len(array) - 1))]
        if not isinstance(array, list):
            continue
        op = draw(st.sampled_from(["delete", "duplicate", "odd", "reverse", "shuffle",
                                   "empty", "shift", "nudge"]))
        j = draw(st.integers(0, max(len(array) - 1, 0)))
        if op == "reverse":
            array.reverse()
        elif op == "shuffle":
            array[:] = draw(st.permutations(array))
        elif op == "empty":
            array.clear()
        elif not array:
            continue
        elif op == "delete":
            del array[j]
        elif op == "duplicate":
            array.insert(j, copy.deepcopy(array[j]))
        elif op == "odd":
            array[j] = draw(st.sampled_from(ODD_LEAVES))
        elif op == "shift" and type(array[j]) is int:
            array[j] += draw(st.sampled_from([-2, -1, 1, 3, 100]))
        elif op == "nudge":
            vertex = doc["vertices"][j % len(doc["vertices"])] if doc["vertices"] else None
            if isinstance(vertex, list) and vertex and type(vertex[0]) in (int, float):
                vertex[0] += draw(st.sampled_from([1e-9, -1e-3, 0.05, 0.4]))
    return doc


def assert_exact_sequence_and_projectors(mesh):
    """C G = 0 and D C = 0 to 1e-13 of the products' magnitudes (entries
    of G scale as 1 / h_e), and the projectors reproduce every constant
    field to 1e-13."""
    ops = derham.build_incidence(mesh)
    for a, b in ((ops.C, ops.G), (ops.D, ops.C)):
        a, b = scipy_csr(a), scipy_csr(b)
        assert abs(a @ b).max() <= 1e-13 * (abs(a) @ abs(b)).max()
    proj = derham.build_projectors(mesh)
    for c in np.eye(3):
        edge, face = mesh.edge_tangents @ c, mesh.face_normals @ c
        tangential = c - (mesh.face_normals @ c)[:, None] * mesh.face_normals
        assert np.abs((proj.edge_cell @ edge).reshape(-1, 3) - c).max() <= 1e-13
        assert np.abs((proj.face_cell @ face).reshape(-1, 3) - c).max() <= 1e-13
        assert np.abs((proj.face_tangential @ edge).reshape(-1, 3) - tangential).max() <= 1e-13


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(doc=malformed_documents())
def test_malformed_mesh_fails_with_one_error_line_or_runs(doc, tmp_path_factory):
    # a standing property of mesh input: a typed error and exit 3, or a
    # mesh that keeps the exact sequence and the projector identities
    path = tmp_path_factory.mktemp("malformed") / "mesh.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(["--mesh", str(path), "--case", "2", "--tau", "1/2", "--T", "0.5"])
    if code == 3:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
    else:
        assert code == 0, err.getvalue()
        assert_exact_sequence_and_projectors(load_mesh(path))
