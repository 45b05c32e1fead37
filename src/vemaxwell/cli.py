"""Single-run and convergence-study drivers with CSV/table emission."""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cases, linalg, mesh as vmesh, stepper
from .cases import ErrorReport
from .forms import StabWeights

CSV_HEADER = ("label,h,tau,err_E,err_B,div_B,"
              "n_edge_dofs,n_face_dofs,cg_iters_total,wall_s")
_NOTE = ("# note: published random/Voronoi-mesh error values are not "
         "reproducible (the meshes are unrecoverable); rates below are "
         "computed from this run's own errors")


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass
class RunConfig:
    mesh_source: str               # "cube:<n>" or a PVM-JSON path
    case_id: int
    tau: Fraction
    T: float = 1.0
    eta_edge: float = 0.01
    eta_face: float = 0.5
    tol: float = 1e-12
    out: str | None = None
    monitors: str | None = None
    grid: bool = False

    def __post_init__(self):
        if self.case_id not in (1, 2):
            raise ConfigError(f"unknown case id {self.case_id}")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.eta_edge <= 0 or self.eta_face <= 0:
            raise ConfigError("stabilization weights must be positive")
        if not 0 < self.tol < 1:
            raise ConfigError("solver tolerance must lie in (0, 1)")
        steps = self.T / float(self.tau)
        if abs(steps - round(steps)) > 1e-12 * max(steps, 1.0) or round(steps) < 1:
            raise ConfigError(f"tau={self.tau} does not divide T={self.T}")


def _load_source(source: str):
    if source.startswith("cube:"):
        try:
            n = int(source.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad mesh source {source!r}") from exc
        if n < 1:
            raise ConfigError("cube:<n> needs n >= 1")
        return vmesh.generate_cube_mesh(n)
    m = vmesh.load_mesh(source)
    if not m.name:
        stem = source.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        m = dataclasses.replace(m, name=stem)
    return m


def _csv_row(rep: ErrorReport) -> str:
    return (f"{rep.label},{rep.h:.15e},{rep.tau:.15e},{rep.err_E:.15e},"
            f"{rep.err_B:.15e},{rep.div_B:.15e},{rep.n_edge_dofs},"
            f"{rep.n_face_dofs},{rep.cg_iters_total},{rep.wall_s:.15e}")


def run_single(config: RunConfig) -> ErrorReport:
    """One (mesh, tau) run; returns the error report with run metadata."""
    t0 = time.perf_counter()
    m = _load_source(config.mesh_source)
    case = cases.get_case(config.case_id)
    stab = StabWeights(config.eta_edge, config.eta_face)
    result = stepper.run(m, case, float(config.tau), config.T, stab=stab,
                         tol=config.tol)
    dofs = result.ops.dofs
    rep = cases.l2_error(m, dofs, result.ops.projectors,
                         dofs.expand_edge(result.state.e),
                         dofs.expand_face(result.state.b), case, config.T)
    rep.tau = float(config.tau)
    rep.div_B = result.monitors[-1].div_b
    rep.label = m.name or config.mesh_source
    rep.cg_iters_total = result.cg_iters_total
    rep.wall_s = time.perf_counter() - t0
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
    if mesh_sources is None:
        if not config.mesh_source.startswith("cube:"):
            raise ConfigError("convergence without a mesh list needs cube:<n>")
        n0 = int(config.mesh_source.split(":", 1)[1])
        mesh_sources = [f"cube:{n0 * 2**lvl}" for lvl in range(levels)]
    elif len(mesh_sources) != levels:
        raise ConfigError("need one mesh per level")

    def level_config(source, j):
        return RunConfig(mesh_source=source, case_id=config.case_id,
                         tau=config.tau / 2**j, T=config.T,
                         eta_edge=config.eta_edge, eta_face=config.eta_face,
                         tol=config.tol)

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
    src.add_argument("--mesh", help="PVM-JSON mesh path (comma-separated list "
                                    "for multi-level convergence runs)")
    src.add_argument("--generate", metavar="cube:<n>",
                     help="structured mesh source, e.g. cube:4")
    p.add_argument("--case", type=int, required=True, help="test case id (1|2)")
    p.add_argument("--tau", required=True, help="time step as rational p/q")
    p.add_argument("--T", type=float, default=1.0, help="final time")
    p.add_argument("--eta-edge", type=float, default=0.01)
    p.add_argument("--eta-face", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-12, help="CG relative tolerance")
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
    mesh_source = args.generate or args.mesh
    if args.mesh and "," in args.mesh:
        sources = args.mesh.split(",")
        mesh_source = sources[0]

    try:
        config = RunConfig(mesh_source=mesh_source, case_id=args.case, tau=tau,
                           T=args.T, eta_edge=args.eta_edge,
                           eta_face=args.eta_face, tol=args.tol, out=args.out,
                           monitors=args.monitors, grid=args.grid)
        if args.levels >= 2 or sources is not None:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
