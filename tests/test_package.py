import ast
import dataclasses
import functools
import math
import os
import pathlib
import subprocess
import sys

import pytest

import vemaxwell
from vemaxwell.cases import ErrorReport, ManufacturedCase
from vemaxwell.derham import IncidenceOps
from vemaxwell.forms import CoefficientSet
from vemaxwell.geometry import BoxRule, QuadratureRule
from vemaxwell.linalg import SolutionSpace, SolveReport
from vemaxwell.mesh import PolyMesh, Ragged, SimplexSplit, ValidationReport
from vemaxwell.stepper import RunResult, SimulationState, StepMonitor, StepOperators

SOURCES = sorted(pathlib.Path(vemaxwell.__file__).parent.glob("*.py"))
# The benchmark's scripts read the package too; its tests do not count.
PERFBENCH = sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))


def test_every_export_resolves():
    missing = [name for name in vemaxwell.__all__ if not hasattr(vemaxwell, name)]
    assert missing == []


def test_cli_imports_no_test_dependency():
    # the command runs where only numpy and scipy are installed, and of
    # scipy it loads the compiled CSR kernels alone: the scipy.sparse
    # package would add about 180 ms and 20 MB to an import of about
    # 0.15 s, most of it in numpy.f2py, numpy.testing, numpy.ma and
    # numpy.random, which its array-API layer loads.  A run of either
    # case loads none of them either (np.unique and np.median would load
    # numpy.ma, 10-17 ms)
    src = str(pathlib.Path(vemaxwell.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = """if True:
        import contextlib, io, sys, vemaxwell.cli

        def unwanted():
            return sorted({m.split('.')[0] for m in sys.modules}
                          & {'sympy', 'hypothesis', 'pytest'}
                          | {m for m in sys.modules if m.split('.')[0] == 'scipy'}
                          - {'scipy.sparse._sparsetools'}
                          | {m for m in sys.modules if m.split('.')[:2] in (
                              ['numpy', 'f2py'], ['numpy', 'testing'], ['numpy', 'ma'],
                              ['numpy', 'random'])})

        print(unwanted())
        with contextlib.redirect_stdout(io.StringIO()):
            for case in ('1', '2'):
                vemaxwell.cli.main(['--generate', 'cube:2', '--case', case, '--tau', '1/4'])
        print(unwanted())"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split("\n") == ["[]", "[]", ""]


# Left out: ElementProjectors, whose face_tangential only the tests read,
# as the paper's face projector (acceptance criterion 3).
@pytest.mark.parametrize("cls", [PolyMesh, SimplexSplit, Ragged, StepOperators,
                                 ManufacturedCase, QuadratureRule, BoxRule,
                                 SimulationState, IncidenceOps, SolutionSpace,
                                 SolveReport, CoefficientSet, ErrorReport,
                                 StepMonitor, RunResult, ValidationReport])
def test_every_mesh_field_is_read(cls):
    # a field or property that only tests read does not belong in the
    # package.  The check matches attribute names, not owners: a member
    # passes when any class's attribute of that name is read, so it misses
    # a member that shares its name with one read elsewhere.
    read = {node.attr for path in SOURCES + PERFBENCH
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = [f.name for f in dataclasses.fields(cls)] + [
        name for name, value in vars(cls).items()
        if isinstance(value, (property, functools.cached_property))]
    unread = [name for name in members if name not in read]
    assert unread == []


def test_code_lines_counts_code_only():
    import code_lines

    source = '''"""Module docstring,
over two lines."""
import os  # a trailing comment counts as code


class A:
    """Class docstring."""

    x = (1,
         2)


def f():
    """Function docstring."""
    # a comment line
    s = """a string
that is not a docstring"""
    return s
'''
    # import, class line, x's two lines, def line, s's two lines, return
    assert code_lines.code_lines(source) == 8


def test_paired_runs_summary():
    import paired_runs

    metrics = [dict(name="run_s", better="lower", bound=0.25),
               dict(name="peak_rss_mb", better="lower", bound=0.05),
               dict(name="rate", better="higher", bound=0.1),
               dict(name="error_s", better="lower", bound=0.25)]
    parent = [1.0, 1.1, 0.9, 1.2, 0.8, 1.0, 1.05, 0.95, 1.15, 0.85]
    pairs = [(dict(run_s=p, peak_rss_mb=60.0, rate=10.0, error_s=1.0),
              dict(run_s=0.5 * p if i else 1.5, peak_rss_mb=67.0 if i % 2 else 60.0,
                   rate=10.0 + (1.0 if i < 8 else -1.0)))
             for i, p in enumerate(parent)]
    rows = {r["metric"]: r for r in paired_runs.summarise(pairs, metrics)}
    assert "error_s" not in rows            # no pair has it on both sides
    run = rows["run_s"]
    assert (run["pairs"], run["wins"]) == (10, 9)
    assert run["parent_median"] == 1.0 and run["change_median"] == pytest.approx(0.5125)
    assert (run["parent_q1"], run["parent_q3"]) == pytest.approx((0.9125, 1.0875))
    assert run["gain"] and run["within_bound"]
    # five ties and five losses: no win, and a median 5.8 % up is out of a
    # 5 % bound
    rss = rows["peak_rss_mb"]
    assert (rss["wins"], rss["gain"], rss["within_bound"]) == (0, False, False)
    assert rss["change_median"] == 63.5
    # higher is better: 8 of 10 wins is short of nine tenths
    rate = rows["rate"]
    assert (rate["wins"], rate["gain"], rate["within_bound"]) == (8, False, True)
    # run_s halves, past its 25 % bound; the rate's 10 % rise only meets
    # its 10 % bound, and the RSS got worse
    assert run["past_bound"] and not rate["past_bound"] and not rss["past_bound"]


def test_paired_runs_past_bound_is_the_claim_margin():
    # a 23.5 % fall shows a gain over a tight spread, yet misses a 25 %
    # bound; a 46 % fall clears it
    import paired_runs

    metrics = [dict(name="error_s", better="lower", bound=0.25)]
    parent = [0.0381 + 0.0002 * (i % 3) for i in range(10)]
    for fall, past in ((0.235, False), (0.46, True)):
        pairs = [(dict(error_s=p), dict(error_s=(1 - fall) * p)) for p in parent]
        row, = paired_runs.summarise(pairs, metrics)
        assert (row["wins"], row["gain"], row["past_bound"]) == (10, True, past)
        line = paired_runs.row_line("agglo-case1", row)
        assert line.split()[0] == "agglo-case1" and line.endswith(f"True True {past}")
        assert len(line.split()) == len(paired_runs.HEADER.split())


def test_paired_runs_pair_line():
    import paired_runs

    metrics = [dict(name="run_s"), dict(name="setup_s"), dict(name="error_s")]
    line = paired_runs.pair_line("hex-fine-dt", 3, dict(run_s=0.34812, setup_s=0.25),
                                 dict(run_s=0.2, error_s=1e-3), metrics)
    assert line == ("hex-fine-dt pair 3: run_s 0.3481 -> 0.2, setup_s 0.25 -> -, "
                    "error_s - -> 0.001")


def test_paired_runs_workload_filter():
    import paired_runs

    bench = dict(workloads=[dict(name=n) for n in ("hex-coarse-dt", "hex-fine-dt",
                                                   "agglo-case1")])
    assert paired_runs.selected(bench, None) == ["hex-coarse-dt", "hex-fine-dt",
                                                 "agglo-case1"]
    assert paired_runs.selected(bench, ["agglo-case1", "hex-coarse-dt"]) == [
        "hex-coarse-dt", "agglo-case1"]
    with pytest.raises(ValueError, match="unknown workload 'hex'"):
        paired_runs.selected(bench, ["hex"])


def test_compare_runs_columns():
    import compare_runs

    header = "label,err_E,div_B,wall_s\n"
    parent = header + "cube8,2.000000000000000e-01,0.0,2.5e+00\ncube8,1.0e-01,1.0e-16,3.0\n"
    wall = parent.replace("2.5e+00", "2.0e+00")
    diffs, identical = compare_runs.compare(parent, wall)
    assert identical and diffs == dict(label=0.0, err_E=0.0, div_B=0.0, wall_s=0.2)
    # the same number in another text is a difference of 0 that still
    # breaks byte identity; unequal text is infinitely far apart
    change = wall.replace("1.0e-01", "1.000000000000001e-01").replace("1.0e-16", "0.1e-15")
    diffs, identical = compare_runs.compare(parent, change.replace("cube8,2", "cube9,2"))
    assert not identical
    assert diffs["err_E"] == pytest.approx(1e-15, rel=0.2)
    assert (diffs["div_B"], diffs["label"]) == (0.0, math.inf)
    assert not compare_runs.compare(parent, parent.rstrip("\n"))[1]
    with pytest.raises(ValueError, match="number of rows"):
        compare_runs.compare(parent, header)
    with pytest.raises(ValueError, match="field count"):
        compare_runs.compare(parent, parent.replace("3.0", "3.0,1"))
    # a physical output drifts past the benchmark's bound; solver work and
    # values at round-off are printed, never checked
    row = ("label,h,tau,err_E,err_B,div_B,n_edge_dofs,n_face_dofs,cg_iters_total,wall_s\n"
           "{},2.165e-01,3.125e-02,{:.15e},1.0e-01,{},300,{},{},{}\n")
    base = row.format("cube512", 0.2, 1e-16, 1344, 395, 2.5)
    for change, drift in ((row.format("cube512", 0.2 * (1 + 5e-10), 7e-16, 1344, 900, 9.0), []),
                          (row.format("cube512", 0.2 * (1 + 2e-9), 1e-16, 1344, 395, 2.5),
                           ["err_E"]),
                          (row.format("cube729", 0.2, 1e-16, 1345, 395, 2.5),
                           ["label", "n_face_dofs"])):
        assert compare_runs.drifted(compare_runs.compare(base, change)[0], 1e-9) == drift
    rows = "step,t,energy,divB,cg_iters,residual\n1,5.0e-01,{:.15e},{},{},{}\n"
    base = rows.format(1.0, 1e-16, 3, 2e-15)
    for change, drift in ((rows.format(1 + 5e-10, 3e-16, 9, 7e-14), []),
                          (rows.format(1 + 2e-9, 1e-16, 3, 2e-15), ["energy"])):
        assert compare_runs.drifted(compare_runs.compare(base, change)[0], 1e-9) == drift
