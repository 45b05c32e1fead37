"""Single-run and convergence-study drivers with CSV/table emission."""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cases, linalg, mesh as vmesh, stepper
from .cases import ErrorReport
from .forms import DEFAULT_ETA_EDGE, DEFAULT_ETA_FACE, StabWeights

CSV_HEADER = ("label,h,tau,err_E,err_B,div_B,"
              "n_edge_dofs,n_face_dofs,cg_iters_total,wall_s")
_NOTE = ("# note: published random/Voronoi-mesh error values are not "
         "reproducible (the meshes are unrecoverable); rates below are "
         "computed from this run's own errors")


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass
class RunConfig:
    mesh_source: str | Path        # a "cube:<n>" str is generated; a Path or other str is read
    case_id: int
    tau: Fraction
    T: float = 1.0
    eta_edge: float = DEFAULT_ETA_EDGE
    eta_face: float = DEFAULT_ETA_FACE
    tol: float = 1e-12
    out: str | None = None
    monitors: str | None = None
    grid: bool = False

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise ConfigError("solver tolerance must lie in (0, 1)")
        try:
            cases.get_case(self.case_id)
            StabWeights(self.eta_edge, self.eta_face)
            stepper.step_count(self.T, float(self.tau))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _cube_size(source: str) -> int:
    """The n of a ``cube:<n>`` mesh source."""
    try:
        n = int(source.split(":", 1)[1])
    except ValueError as exc:
        raise ConfigError(f"bad mesh source {source!r}") from exc
    if n < 1:
        raise ConfigError("cube:<n> needs n >= 1")
    return n


def _load_source(source: str | Path):
    if isinstance(source, str) and source.startswith("cube:"):
        return vmesh.generate_cube_mesh(_cube_size(source))
    m = vmesh.load_mesh(source)
    label = m.name or Path(source).stem             # a CSV row's first field
    if any(c in label for c in ",\r\n"):
        raise vmesh.MeshFormatError(f"{source}: name {label!r} holds a comma or a line break")
    return m if m.name else dataclasses.replace(m, name=label)


def _check_writable(*paths) -> None:
    """OSError unless each given path can be written as a file: not a
    directory, in an existing, writable directory.  Creates nothing, so a
    bad path fails before the run instead of after it."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(folder):
            code = errno.ENOENT
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def _csv_row(rep: ErrorReport) -> str:
    return (f"{rep.label},{rep.h:.15e},{rep.tau:.15e},{rep.err_E:.15e},"
            f"{rep.err_B:.15e},{rep.div_B:.15e},{rep.n_edge_dofs},"
            f"{rep.n_face_dofs},{rep.cg_iters_total},{rep.wall_s:.15e}")


def run_single(config: RunConfig) -> ErrorReport:
    """One (mesh, tau) run; returns the error report with run metadata."""
    _check_writable(config.out, config.monitors)
    t0 = time.perf_counter()
    m = _load_source(config.mesh_source)
    case = cases.get_case(config.case_id)
    stab = StabWeights(config.eta_edge, config.eta_face)
    result = stepper.run(m, case, float(config.tau), config.T, stab=stab,
                         tol=config.tol)
    ops = result.ops
    e, b = np.zeros(m.n_edges), np.zeros(m.n_faces)
    e[ops.interior_edges], b[ops.interior_faces] = result.state.e, result.state.b
    errors = cases.l2_error(m, ops.projectors, e, b, case, config.T)
    rep = dataclasses.replace(
        errors, n_edge_dofs=ops.interior_edges.size, n_face_dofs=ops.interior_faces.size,
        tau=float(config.tau), div_B=result.monitors[-1].div_b,
        label=m.name,
        cg_iters_total=result.cg_iters_total,
        wall_s=time.perf_counter() - t0)
    if config.monitors:
        stepper.write_monitors(result.monitors, config.monitors)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.write(_csv_row(rep) + "\n")
    return rep


@dataclass
class ConvergenceReport:
    """Per-level errors and pairwise observed rates on the refinement
    diagonal (both h and tau halved between consecutive levels).  When the
    full grid is requested, off-diagonal (mesh, tau) combinations fill the
    row/column table; rates are still reported along the diagonal only."""

    rows: list = field(default_factory=list)        # diagonal, per level
    rates_E: list = field(default_factory=list)
    rates_B: list = field(default_factory=list)
    grid: list | None = None                        # levels x levels reports

    def table(self, T: float) -> str:
        lines = [_NOTE, f"errors at T={T:g} as err_E / err_B"]
        taus = [row.tau for row in self.rows]
        head = f"{'label':<12}{'h':>12}" + "".join(
            f"{'tau=' + _fmt_tau(t):>28}" for t in taus)
        lines.append(head)
        for i, row in enumerate(self.rows):
            cells = []
            for j in range(len(self.rows)):
                rep = (self.grid[i][j] if self.grid is not None
                       else row if i == j else None)
                cells.append(f"{rep.err_E:.5e} / {rep.err_B:.5e}"
                             if rep is not None else "-")
            lines.append(f"{row.label:<12}{row.h:>12.5e}"
                         + "".join(f"{c:>28}" for c in cells))
        for i, (re_, rb) in enumerate(zip(self.rates_E, self.rates_B)):
            lines.append(f"rate level {i}->{i + 1}:  E {re_:.3f}   B {rb:.3f}")
        return "\n".join(lines) + "\n"


def _fmt_tau(tau: float) -> str:
    frac = Fraction(tau).limit_denominator(10**9)
    return f"{frac.numerator}/{frac.denominator}" if frac.denominator > 1 else str(frac)


def run_convergence(config: RunConfig, levels: int,
                    mesh_sources=None) -> ConvergenceReport:
    """Simultaneous refinement study: cube n doubling (or a user-supplied
    mesh list) with tau halving in lockstep.  ``config.grid`` runs every
    (mesh, tau) combination instead of the diagonal only."""
    if levels < 2:
        raise ConfigError("a convergence study needs at least 2 levels")
    if config.monitors:
        raise ConfigError("--monitors writes one run's steps; a convergence study "
                          "makes several runs")
    if mesh_sources is None:
        if not (isinstance(config.mesh_source, str) and config.mesh_source.startswith("cube:")):
            raise ConfigError("convergence without a mesh list needs cube:<n>")
        n0 = _cube_size(config.mesh_source)
        mesh_sources = [f"cube:{n0 * 2**lvl}" for lvl in range(levels)]
    elif len(mesh_sources) != levels:
        raise ConfigError("need one mesh per level")
    _check_writable(config.out)

    def level_config(source, j):
        return dataclasses.replace(config, mesh_source=source, tau=config.tau / 2**j,
                                   out=None)

    report = ConvergenceReport()
    if config.grid:
        report.grid = [[run_single(level_config(source, j))
                        for j in range(levels)]
                       for source in mesh_sources]
        report.rows = [report.grid[i][i] for i in range(levels)]
    else:
        report.rows = [run_single(level_config(source, lvl))
                       for lvl, source in enumerate(mesh_sources)]
    for a, b in zip(report.rows, report.rows[1:]):
        if not b.h < a.h:
            raise ConfigError("h not refined between consecutive levels")
        scale = np.log(a.h / b.h)
        report.rates_E.append(float(np.log(a.err_E / b.err_E) / scale))
        report.rates_B.append(float(np.log(a.err_B / b.err_B) / scale))

    if config.out:
        emit = ([r for row in report.grid for r in row]
                if report.grid is not None else report.rows)
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(_NOTE + "\n" + CSV_HEADER + "\n")
            for row in emit:
                fh.write(_csv_row(row) + "\n")
    return report


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vemaxwell",
        description="Virtual element Maxwell solver on polyhedral meshes",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--mesh", help="PVM-JSON mesh path, or a comma-separated list "
                                    "of paths for multi-level convergence runs; a "
                                    "value that names an existing file is one "
                                    "mesh, commas and all")
    src.add_argument("--generate", metavar="cube:<n>",
                     help="structured mesh source, e.g. cube:4")
    p.add_argument("--case", type=int, required=True, help="test case id (1|2)")
    p.add_argument("--tau", required=True, help="time step as rational p/q")
    p.add_argument("--T", type=float, default=RunConfig.T, help="final time")
    p.add_argument("--eta-edge", type=float, default=RunConfig.eta_edge)
    p.add_argument("--eta-face", type=float, default=RunConfig.eta_face)
    p.add_argument("--tol", type=float, default=RunConfig.tol, help="CG relative tolerance")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--levels", type=int, default=1,
                   help="number of simultaneous-refinement levels (>= 2 for a study)")
    p.add_argument("--grid", action="store_true",
                   help="run every (mesh, tau) combination, not just the "
                        "refinement diagonal")
    p.add_argument("--monitors", help="per-step monitor CSV path (single runs)")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tau = Fraction(args.tau)
    except (ValueError, ZeroDivisionError):
        print(f"error: cannot parse tau {args.tau!r}", file=sys.stderr)
        return 2

    sources = None
    # --mesh names files only: a path "cube:2" is read, never generated
    mesh_source = args.generate if args.mesh is None else Path(args.mesh)
    if args.mesh and "," in args.mesh and not os.path.isfile(args.mesh):
        sources = [Path(source) for source in args.mesh.split(",")]
        mesh_source = sources[0]

    try:
        config = RunConfig(mesh_source=mesh_source, case_id=args.case, tau=tau,
                           T=args.T, eta_edge=args.eta_edge,
                           eta_face=args.eta_face, tol=args.tol, out=args.out,
                           monitors=args.monitors, grid=args.grid)
        study = args.levels >= 2 or sources is not None
        if args.generate is not None and not args.generate.startswith("cube:"):
            raise ConfigError(f"--generate takes cube:<n>, not {args.generate!r}")
        if args.levels < 1:
            raise ConfigError(f"--levels must be at least 1, got {args.levels}")
        if args.grid and not study:
            raise ConfigError("--grid needs a convergence study "
                              "(--levels >= 2 or a comma-separated --mesh list)")
        if study:
            levels = args.levels if args.levels >= 2 else len(sources)
            report = run_convergence(config, levels, mesh_sources=sources)
            sys.stdout.write(report.table(args.T))
        else:
            rep = run_single(config)
            sys.stdout.write(CSV_HEADER + "\n" + _csv_row(rep) + "\n")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (vmesh.MeshError, linalg.NonConvergenceError,
            linalg.IndefiniteMatrixError, stepper.InitialDivergenceError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
