"""Backward-Euler time integration of the reduced (electric-only) system.

Each step solves the SPD system

    (M_eps + tau M_sigma + tau^2 C' M_f C) e_new
        = M_eps e + tau load(J) + tau C' M_f b

on the interior edge DOFs and then updates the magnetic DOFs exactly,
b_new = b - tau C e_new.  Because the discrete divergence annihilates the
discrete curl, the update preserves zero divergence up to round-off for
every solver tolerance; the coupled two-field formulation is recovered
identically and never assembled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .cases import ManufacturedCase
from .derham import (DeRhamDofs, ElementProjectors, build_dofs,
                     build_incidence, build_projectors, divergence_norm,
                     interpolate_edge, interpolate_face)
from .forms import CoefficientSet, StabWeights, assemble_global, sample_coefficients
from .mesh import PolyMesh

DIV_INIT_TOL = 1e-9


class InitialDivergenceError(ValueError):
    """The initial magnetic field failed the discrete solenoidality check."""


@dataclass(frozen=True)
class SimulationState:
    """Interior DOF vectors at step m; the time is recomputed as m * tau."""

    e: np.ndarray
    b: np.ndarray
    step: int
    tau: float

    @property
    def t(self) -> float:
        return self.step * self.tau


@dataclass(frozen=True)
class StepOperators:
    """Assembled matrices reused across all steps of one run."""

    mesh: PolyMesh
    dofs: DeRhamDofs
    projectors: ElementProjectors
    coeffs: CoefficientSet
    tau: float
    m_eps: object          # interior edge x interior edge
    m_sigma: object
    m_edge_load: object    # interior edge x all edges, unweighted product
    m_face: object         # interior face x interior face
    c_int: object          # interior face x interior edge
    d_full: object         # cells x all faces
    system: linalg.SparseMatrix


def build_step_operators(mesh: PolyMesh, dofs: DeRhamDofs,
                         projectors: ElementProjectors, coeffs: CoefficientSet,
                         tau: float, stab: StabWeights = StabWeights()) -> StepOperators:
    if tau <= 0:
        raise ValueError("tau must be positive")
    ie, if_ = dofs.interior_edges, dofs.interior_faces

    ops = build_incidence(mesh)
    # Rows of C belonging to boundary faces must touch only boundary
    # edges, otherwise zeroed boundary magnetic DOFs would not stay zero
    # under the reduced update.  This is a mesh property, checked here.
    c_bnd = ops.C[np.flatnonzero(dofs.boundary_faces)][:, ie]
    if c_bnd.nnz:
        raise ValueError("boundary face with an interior edge; mesh unsupported")
    c_int = ops.C[if_][:, ie].tocsr()

    # One pass of local edge products serves all three edge matrices; the
    # unit-weight one keeps its boundary columns for the load.
    m_eps, m_sigma, m_edge_full = assemble_global(
        mesh, dofs, [coeffs.eps_hat, coeffs.sigma_hat, np.ones(mesh.n_cells)],
        "edge", projectors, stab, restrict=[True, True, False])
    m_edge_load = m_edge_full[ie].tocsr()
    m_face = assemble_global(mesh, dofs, 1.0 / coeffs.mu_hat, "face", projectors, stab)

    curl_term = (c_int.T @ m_face @ c_int).tocsr()
    curl_term = 0.5 * (curl_term + curl_term.T)     # exact symmetry
    system = linalg.SparseMatrix.from_scipy(m_eps + tau * m_sigma + tau**2 * curl_term)
    return StepOperators(mesh, dofs, projectors, coeffs, tau, m_eps, m_sigma,
                         m_edge_load, m_face, c_int, ops.D, system)


def init_state(ops: StepOperators, case: ManufacturedCase) -> SimulationState:
    """Interpolate the initial fields and verify discrete solenoidality."""
    mesh, dofs = ops.mesh, ops.dofs
    e_full = interpolate_edge(mesh, lambda p: case.E(p, 0.0))
    b_full = interpolate_face(mesh, lambda p: case.B(p, 0.0))
    div0 = np.abs(ops.d_full @ b_full).max()
    if div0 > DIV_INIT_TOL:
        raise InitialDivergenceError(
            f"initial magnetic field is not solenoidal: |D b0|_inf = {div0:.3e}"
        )
    return SimulationState(e=e_full[dofs.interior_edges],
                           b=b_full[dofs.interior_faces], step=0, tau=ops.tau)


def advance(state: SimulationState, ops: StepOperators, j_full: np.ndarray,
            tol: float = 1e-12):
    """One backward-Euler step given the interpolated current at t + tau.

    Returns (new state, SolveReport).  The load couples interior test
    functions to every DOF of the interpolated current, so ``j_full`` is
    a full edge vector, not an interior one.
    """
    tau = ops.tau
    rhs = (ops.m_eps @ state.e
           + tau * (ops.m_edge_load @ j_full)
           + tau * (ops.c_int.T @ (ops.m_face @ state.b)))
    e_new, report = linalg.cg_solve(ops.system, rhs, tol=tol)
    b_new = state.b - tau * (ops.c_int @ e_new)
    return SimulationState(e=e_new, b=b_new, step=state.step + 1, tau=tau), report


@dataclass(frozen=True)
class StepMonitor:
    step: int
    t: float
    energy: float       # [eps e, e] + [mu^-1 b, b]
    div_b: float
    cg_iters: int
    residual: float

    def csv_row(self) -> str:
        return (f"{self.step},{self.t:.15e},{self.energy:.15e},"
                f"{self.div_b:.15e},{self.cg_iters},{self.residual:.15e}")


MONITOR_HEADER = "step,t,energy,divB,cg_iters,residual"


@dataclass
class RunResult:
    state: SimulationState
    monitors: list
    cg_iters_total: int
    wall_s: float
    ops: StepOperators


def run(mesh: PolyMesh, case: ManufacturedCase, tau: float, T: float,
        stab: StabWeights = StabWeights(), tol: float = 1e-12) -> RunResult:
    """Integrate from interpolated initial data to T = M tau.

    Records per-step monitors (discrete energy, |div B_h|, solver work).
    Raises ValueError if tau does not evenly divide T.
    """
    t_start = time.perf_counter()
    n_steps = int(round(T / tau))
    if n_steps < 1 or abs(n_steps * tau - T) > 1e-12 * max(T, 1.0):
        raise ValueError(f"tau={tau} does not divide T={T}")

    dofs = build_dofs(mesh)
    coeffs = sample_coefficients(mesh, case.eps, case.sigma, case.mu)
    ops = build_step_operators(mesh, dofs, build_projectors(mesh), coeffs, tau, stab)
    state = init_state(ops, case)

    def monitor(st: SimulationState, iters: int, residual: float) -> StepMonitor:
        div = divergence_norm(mesh, ops.d_full, dofs.expand_face(st.b))
        energy = float(st.e @ (ops.m_eps @ st.e) + st.b @ (ops.m_face @ st.b))
        return StepMonitor(st.step, st.step * tau, energy, div, iters, residual)

    # The edge interpolant is linear, so each step's load is a combination
    # of the current's spatial terms, each interpolated once per run.
    j_terms = [(a, interpolate_edge(mesh, g)) for a, g in case.J_terms]
    monitors = [monitor(state, 0, 0.0)]
    total_iters = 0
    for m in range(n_steps):
        t_next = (m + 1) * tau
        j_full = sum((a(t_next) * j for a, j in j_terms), np.zeros(mesh.n_edges))
        state, report = advance(state, ops, j_full, tol=tol)
        total_iters += report.iterations
        monitors.append(monitor(state, report.iterations, report.residual))
    return RunResult(state, monitors, total_iters, time.perf_counter() - t_start, ops)


def write_monitors(monitors, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MONITOR_HEADER + "\n")
        for row in monitors:
            fh.write(row.csv_row() + "\n")
