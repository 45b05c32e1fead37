"""Run the benchmark's workloads once in each of two checkouts and compare
what the runs write:

    python tests/compare_runs.py PARENT CHANGE

PARENT and CHANGE are checkout directories.  Each workload of CHANGE's
``perfbench/workloads.py`` runs through each checkout's own
``vemaxwell.cli`` with the workload's argv (``--T 1``, default ``eta`` and
``tol``), ``--out`` and ``--monitors``.  The agglomerated mesh is built
once, at the benchmark's default seed, by CHANGE's ``perfbench/agglo.py``,
and both checkouts read the same file.  Per workload and file (the CSV
row and the monitor file) it prints whether the two are byte-identical
apart from ``wall_s``, then the largest relative difference of each
column.  Nothing is written under either checkout.  Exits 1 when a run
failed, when two files cannot be compared row by row, or when a physical
output (a ``CHECKED`` column) differs by more than the ``ERR_RTOL`` of
CHANGE's ``perfbench/run.py``, the bound the benchmark holds its errors to.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORED = ("wall_s",)
# The physical outputs of the CSV row and the monitor file.  The other
# columns are printed only: they hold solver work (wall_s, cg_iters_total,
# cg_iters) or values at round-off (residual, div_B, divB).
CHECKED = ("label", "h", "tau", "err_E", "err_B", "n_edge_dofs", "n_face_dofs",
           "step", "t", "energy")
CLI = "import sys; from vemaxwell.cli import main; sys.exit(main(sys.argv[1:]))"


def relative_difference(p: str, c: str) -> float:
    """|p - c| / max(|p|, |c|) of two CSV fields; 0 where they are the same
    text or both zero, inf where unequal text is not a number."""
    if p == c:
        return 0.0
    try:
        p, c = float(p), float(c)
    except ValueError:
        return math.inf
    scale = max(abs(p), abs(c))
    return abs(p - c) / scale if scale else 0.0


def compare(parent: str, change: str, ignore=IGNORED) -> tuple[dict, bool]:
    """(largest relative difference per column, whether the two CSV texts
    are byte-identical apart from the ``ignore`` columns).  ValueError
    where their headers or row counts differ."""
    p_lines, c_lines = parent.splitlines(), change.splitlines()
    if p_lines[:1] != c_lines[:1] or len(p_lines) != len(c_lines):
        raise ValueError("the files differ in header or number of rows")
    header = p_lines[0].split(",")
    diffs = dict.fromkeys(header, 0.0)
    identical = parent.endswith("\n") == change.endswith("\n")
    for p_row, c_row in zip(p_lines[1:], c_lines[1:]):
        p_fields, c_fields = p_row.split(","), c_row.split(",")
        if len(p_fields) != len(header) or len(c_fields) != len(header):
            raise ValueError("a row's field count differs from the header's")
        for name, p, c in zip(header, p_fields, c_fields):
            diffs[name] = max(diffs[name], relative_difference(p, c))
            identical &= name in ignore or p == c
    return diffs, identical


def drifted(diffs: dict, rtol: float) -> list:
    """The ``CHECKED`` columns of ``diffs`` that differ by more than ``rtol``."""
    return [name for name in CHECKED if diffs.get(name, 0.0) > rtol]


def run(checkout: Path, argv: list, work: Path) -> dict:
    """{file name: text} of one CLI run of ``checkout``'s sources in ``work``."""
    work.mkdir()
    files = {"out.csv": work / "out.csv", "monitors.csv": work / "monitors.csv"}
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CLI, *argv, "--out", str(files["out.csv"]),
                           "--monitors", str(files["monitors.csv"])],
                          cwd=work, env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()}")
    return {name: path.read_text(encoding="utf-8") for name, path in files.items()}


def benchmark(change: Path, tmp: Path) -> tuple[dict, float]:
    """({workload name: CLI argv}, ERR_RTOL) of CHANGE's benchmark, the
    agglomerated mesh saved once in ``tmp``.  The benchmark's modules are
    imported without writing bytecode next to them."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(change.resolve() / "src"), str(change.resolve() / "perfbench")]
    import agglo
    import workloads
    from run import ERR_RTOL
    from vemaxwell import save_mesh

    argvs = {}
    for name, w in workloads.WORKLOADS.items():
        if w.agglomerate:
            mesh = agglo.agglomerated_cube(w.cube, workloads.DEFAULT_SEED)
            path = tmp / f"{mesh.name}.json"
            save_mesh(mesh, path)
            source = ["--mesh", str(path)]
        else:
            source = ["--generate", f"cube:{w.cube}"]
        argvs[name] = source + ["--case", str(w.case), "--tau", w.tau, "--T", "1"]
    return argvs, ERR_RTOL


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argvs, rtol = benchmark(args.change, tmp)
        for name, cli_argv in argvs.items():
            try:
                texts = [run(side, cli_argv, tmp / f"{name}-{i}")
                         for i, side in enumerate((args.parent, args.change))]
            except RuntimeError as exc:
                print(f"{name} run failed: {exc}")
                ok = False
                continue
            for file in texts[0]:
                try:
                    diffs, identical = compare(texts[0][file], texts[1][file])
                except ValueError as exc:
                    print(f"{name} {file} not comparable: {exc}")
                    ok = False
                    continue
                print(f"{name} {file} byte-identical apart from "
                      f"{', '.join(IGNORED)}: {identical}")
                drift = drifted(diffs, rtol)
                for column, d in diffs.items():
                    print(f"  {column} {d:.3g}"
                          + (f" DRIFT: above ERR_RTOL {rtol:g}" if column in drift else ""))
                ok &= not drift
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
