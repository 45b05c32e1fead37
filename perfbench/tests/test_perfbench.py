"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import agglo  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from workloads import END_TO_END, WORKLOADS  # noqa: E402


# --- agglomerated cube generator ---------------------------------------------

def test_generator_deterministic_per_seed():
    a, b = agglo.agglomerated_cube(4, 7), agglo.agglomerated_cube(4, 7)
    assert [c.tolist() for c in a.cell_faces] == [c.tolist() for c in b.cell_faces]
    assert [f.tolist() for f in a.faces] == [f.tolist() for f in b.faces]
    assert agglo.group_hexes(4, 7) == agglo.group_hexes(4, 7)


def test_generator_differs_across_seeds():
    groups = [agglo.group_hexes(4, seed) for seed in range(1, 6)]
    assert len({json.dumps(g) for g in groups}) == len(groups)
    a, b = agglo.agglomerated_cube(4, 1), agglo.agglomerated_cube(4, 2)
    assert [f.tolist() for f in a.faces] != [f.tolist() for f in b.faces]


@pytest.mark.parametrize("n, seed", [(2, 1), (4, 1), (4, 3)])
def test_generated_mesh_passes_its_checks(n, seed):
    mesh = agglo.agglomerated_cube(n, seed)
    blocks = (n // 2) ** 3
    assert agglo.check(mesh) == {6: blocks, 10: 2 * blocks, 14: blocks}


def test_groups_partition_the_hexes_into_connected_shapes():
    n = 4
    groups = agglo.group_hexes(n, 5)
    assert sorted(c for g in groups for c in g) == list(range(n**3))

    def ijk(c):
        return c // (n * n), (c // n) % n, c % n

    def adjacent(a, b):
        return sum(abs(x - y) for x, y in zip(ijk(a), ijk(b))) == 1

    for g in groups:
        if len(g) == 2:
            assert adjacent(*g)
        elif len(g) == 3:
            corner, b, c = g
            assert adjacent(corner, b) and adjacent(corner, c)
            # an L, not a straight bar: the arms leave along different axes
            assert not adjacent(b, c) and sum(
                x != y for x, y in zip(ijk(b), ijk(c))) == 2


def test_check_rejects_a_plain_cube():
    from vemaxwell import generate_cube_mesh
    with pytest.raises(agglo.AggloError, match="face counts"):
        agglo.check(generate_cube_mesh(2))


def test_odd_n_is_rejected():
    with pytest.raises(ValueError):
        agglo.group_hexes(3, 1)


# --- span arithmetic ---------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    rows = [Span("a", 0.0, 10.0),
            Span("b", 1.0, 3.0, parent=0),
            Span("c", 4.0, 8.0, parent=0),
            Span("d", 5.0, 6.0, parent=2),
            Span("e", 11.0, 12.0)]
    assert spans.self_times(rows) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_loop_self_time_starts_after_init():
    rows = [Span("stepper.run", 0.0, 20.0),
            Span("stepper.init", 1.0, 5.0, parent=0),
            Span("derham.interp_edge", 6.0, 7.0, parent=0),
            Span("stepper.advance", 7.0, 10.0, parent=0),
            Span("linalg.cg", 8.0, 9.5, parent=3),
            Span("stepper.divergence_norm", 10.0, 11.0, parent=0)]
    # loop = 5..20 (15 s) minus direct children 1 + 3 + 1
    assert spans.loop_self_time(rows) == pytest.approx(10.0)
    assert spans.covered_s(rows, parent="stepper.run") == pytest.approx(9.0)


def test_recorder_nests_spans_and_survives_exceptions():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)

    def boom():
        raise RuntimeError("x")

    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    failing = rec.wrap("failing", boom)
    assert outer(1) == 4
    with pytest.raises(RuntimeError):
        failing()
    assert inner(0) == 1
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("outer", -1), ("inner", 0), ("failing", -1), ("inner", -1)]
    assert all(s.end >= s.start for s in rec.spans)


def test_cg_bytes_read_either_matrix_type():
    import scipy.sparse as sps
    from vemaxwell import SparseMatrix
    a = sps.random(50, 50, density=0.1, random_state=1, format="csr") + sps.eye(50)
    a = a.tocsr()
    assert spans._matrix_shape(a) == spans._matrix_shape(SparseMatrix.from_scipy(a))
    n, nnz, ib, pb = spans._matrix_shape(a)
    assert spans.cg_bytes_per_iteration(n, nnz, ib, pb) == (
        nnz * (8 + ib) + (n + 1) * pb + 16 * n + spans.CG_VECTOR_PASSES * 8 * n)


def test_install_reports_a_missing_target(monkeypatch):
    import vemaxwell.stepper  # noqa: F401
    monkeypatch.setattr(spans, "TARGETS", {"stepper.gone": ("stepper.no_such_function",)})
    assert spans.install(spans.Recorder()) == ["stepper.no_such_function"]


def test_missing_targets_drop_their_metrics():
    rows = [Span("cli.run_single", 0.0, 1.0)]
    m = spans.layer_metrics(rows, 0.5, missing=("linalg.cg_solve",))
    assert not any(k.startswith("linalg.") for k in m)
    assert m["cli.run_single_s"] == pytest.approx(1.0)


# --- one real run through the child process ----------------------------------

def _child(tmp_path, trace):
    result = tmp_path / f"r{trace}.json"
    argv = ["--generate", "cube:2", "--case", "2", "--tau", "1/2",
            "--monitors", str(tmp_path / "m.csv")]
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(result),
                           str(trace), "--", *argv],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(result.read_text())


def test_traced_run_reports_every_published_layer_metric(tmp_path):
    _, record = _child(tmp_path, 1)
    assert record["missing"] == []
    metrics = run.traced_metrics(record)
    published = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in published["per_layer"]}
    computed_later = {"trace.untraced_run_s", "trace.overhead_s"}
    assert set(metrics) | computed_later == layer_names
    assert spans.mesh_size(spans.from_rows(record["spans"])) == {
        "cells": 8, "faces": 36, "edges": 54}
    assert metrics["linalg.cg_calls"] == 2
    assert 0 < metrics["trace.uncovered_s"] < metrics["trace.run_s"]


def test_untraced_run_times_phases_in_order(tmp_path):
    _, record = _child(tmp_path, 0)
    p = record["phases"]
    assert 0 < record["import_s"] < p["first_step"] < p["run_end"] <= p["error_start"]
    assert p["error_start"] < p["error_end"] < record["run_s"]
    assert set(run.e2e_metrics(record, 2)) == set(END_TO_END)


def test_window_summary_takes_medians_of_setup_and_rss_and_means_of_the_rest():
    runs = [{"run_s": r, "setup_s": s, "step_ms": 1.0, "error_s": 2 * r, "peak_rss_mb": m}
            for r, s, m in [(3.0, 1.0, 90.0), (3.0, 1.1, 91.0), (6.0, 5.0, 99.0)]]
    assert run.summarise(runs) == {"run_s": 4.0, "setup_s": 1.1, "step_ms": 1.0,
                                   "error_s": 8.0, "peak_rss_mb": 91.0}
    # a phase whose hook is missing from one run is left out
    del runs[0]["error_s"]
    assert "error_s" not in run.summarise(runs)


def _cube2_bench(tmp_path, proc, **size):
    """A bench whose workload has the cube:2 run's size unless overridden."""
    row = run.read_csv(proc.stdout)[-1]
    bench = run.Bench("hex-coarse-dt", 1, tmp_path)
    cube2 = dict(cells=8, faces=36, edges=54, n_edge_dofs=int(row["n_edge_dofs"]),
                 n_face_dofs=int(row["n_face_dofs"]))
    bench.w = dataclasses.replace(bench.w, tau="1/2", **{**cube2, **size})
    (tmp_path / "monitors.csv").write_text((tmp_path / "m.csv").read_text())
    return bench


def test_gate_rejects_errors_off_the_reference(tmp_path):
    proc, record = _child(tmp_path, 0)
    with pytest.raises(run.RunFailure, match="reference"):
        _cube2_bench(tmp_path, proc).check(proc, record)


def test_gate_passes_matching_errors_and_sizes(tmp_path):
    proc, record = _child(tmp_path, 1)
    row = run.read_csv(proc.stdout)[-1]
    bench = _cube2_bench(tmp_path, proc)
    bench.w = dataclasses.replace(bench.w, ref_err_E=float(row["err_E"]),
                                  ref_err_B=float(row["err_B"]))
    bench.check(proc, record)


@pytest.mark.parametrize("trace, size, match", [
    (0, {"n_face_dofs": 1}, "DOFs"),
    (1, {"edges": 53}, "mesh has"),
])
def test_gate_rejects_a_different_input_size(tmp_path, trace, size, match):
    proc, record = _child(tmp_path, trace)
    with pytest.raises(run.RunFailure, match=match):
        _cube2_bench(tmp_path, proc, **size).check(proc, record)


def test_benchmark_json_matches_the_workloads():
    published = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in published["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in published["end_to_end"]} == END_TO_END
