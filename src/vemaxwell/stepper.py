"""Backward-Euler time integration of the reduced (electric-only) system.

Each step solves the SPD system

    (M_eps + tau M_sigma + tau^2 C' M_f C) e_new
        = M_eps e + tau load(J) + tau C' M_f b

on the interior edge DOFs and then updates the magnetic DOFs exactly,
b_new = b - tau C e_new.  Because the discrete divergence annihilates the
discrete curl, the update preserves zero divergence up to round-off for
every solver tolerance; the coupled two-field formulation is recovered
identically and never assembled.

The matrix is the same at every step, so CG starts each solve from the
A-orthogonal projection of the new solution onto the span of earlier
ones, which also gives A times the guess.  That span is solver memory,
not part of the state: ``run`` builds one ``linalg.SolutionSpace`` from
the initial e and passes it to every ``advance``, which guesses from it
and extends it, so a ``SimulationState`` holds (e, b) and their cached
products alone.  The span always holds the three latest solutions (the
initial e counting as one), so in the A-norm the guess is never farther
from the solution than their quadratic extrapolation.
Every operator a step applies is built once per run in
``StepOperators``, each square matrix as one ``forms.assemble_global``
Gram product of local factors restricted to interior DOFs, or a sum of
two, so each is symmetric bit for bit; the load of each spatial term of
the current is formed once per run.  A step with k CG iterations
makes k + 5 sparse products: C' (M_f b) for the right-hand side, k + 1
in CG, A d for the new basis row, [C; M_eps] e_new for the magnetic
update and the energy, and [M_f; D] b_new for the energy, the next
right-hand side and the divergence monitor.  CG is
Jacobi-preconditioned while the mass term dominates the system's
diagonal, and gradient-corrected (``linalg.hybrid_preconditioner``) once
the curl part outweighs it (``curl_mass_ratio`` above
``CURL_MASS_SWITCH``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .cases import ManufacturedCase
from .derham import (ElementProjectors, build_incidence, build_projectors,
                     divergence_norm, interpolate_edge, interpolate_face)
from .forms import (CoefficientSet, StabWeights, assemble_global, local_edge_mass,
                    local_face_mass, sample_coefficients)
from .mesh import PolyMesh

DIV_INIT_TOL = 1e-9

# The gradient correction pays one more sparse product per CG iteration
# to remove the slow gradient-kernel modes of the curl-curl term.  Those
# modes only slow Jacobi once that term weighs on the system, so the
# correction is switched on where the curl part of the median diagonal
# entry outweighs its mass part: a balance of the two terms, not a
# fitted value.  Iteration counts break even near 0.3; the margin pays
# for the extra product.
CURL_MASS_SWITCH = 1.0

# Vectors the CG guess's solution space holds before it restarts from the
# latest half of its solutions.  Iterations fall with every vector kept,
# but each one costs five passes over n doubles per step, and the space
# holds 2 * 30 * n doubles (0.2 MB on cube:6, 44 MB on cube:32), twice
# that while a restart compresses it.  In the README's sweep the step time
# is flat from capacity 30 to 40 and the peak memory is not.
PROJECTION_CAPACITY = 30


class InitialDivergenceError(ValueError):
    """The initial magnetic field failed the discrete solenoidality check."""


@dataclass(frozen=True, eq=False)
class SimulationState:
    """Interior DOF vectors at step m, at time m ``StepOperators.tau``.

    ``m_eps_e`` and ``m_face_b`` are M_eps e and M_f b, read by the energy
    monitor and by the next step's right-hand side; ``div`` is the cell
    divergence D b, read by the divergence monitor.  Build states with
    ``make_state``.
    """

    e: np.ndarray
    b: np.ndarray
    step: int
    m_eps_e: np.ndarray
    m_face_b: np.ndarray
    div: np.ndarray


@dataclass(frozen=True, eq=False)
class StepOperators:
    """Assembled matrices reused across all steps of one run.

    The run eliminates the DOFs of boundary edges (E x n = 0) and faces
    (B . n = 0), so the reduced system stays SPD; ``interior_edges`` and
    ``interior_faces`` are the global ids of the DOFs it keeps, in the
    order of the state's ``e`` and ``b``.  Matrices applied to the same
    vector are stacked, so each pair costs one product.
    """

    mesh: PolyMesh
    projectors: ElementProjectors
    tau: float
    interior_edges: np.ndarray
    interior_faces: np.ndarray
    curl_mass: linalg.SparseMatrix      # [C_int; M_eps], (interior face + edge) x interior edge
    face_mass_div: linalg.SparseMatrix  # [M_f; D_int], (interior face + cell) x interior face
    m_edge_load: linalg.SparseMatrix    # interior edge x all edges, unweighted product
    c_int_t: linalg.SparseMatrix        # interior edge x interior face, C_int'
    system: linalg.SparseMatrix
    precond: linalg.SparseMatrix | None  # CG preconditioner matrix, None for Jacobi


def curl_mass_ratio(system: linalg.SparseMatrix, m_eps: linalg.SparseMatrix) -> float:
    """Median over interior edges of (diag A - diag M_eps) / diag M_eps:
    how far tau M_sigma + tau^2 C' M_f C outweighs the mass term on the
    diagonal of the step matrix A; 0 on a mesh without interior edges."""
    if system.shape[0] == 0:
        return 0.0
    d_eps = m_eps.diagonal
    # np.median's value, from a sort: np.median itself loads numpy.ma
    ratios = np.sort((system.diagonal - d_eps) / d_eps)
    return float(0.5 * (ratios[(ratios.size - 1) // 2] + ratios[ratios.size // 2]))


def build_step_operators(mesh: PolyMesh, projectors: ElementProjectors,
                         coefficients: CoefficientSet, tau: float,
                         stab: StabWeights = StabWeights()) -> StepOperators:
    if tau <= 0:
        raise ValueError("tau must be positive")
    ie = np.flatnonzero(~mesh.boundary_edges)
    if_ = np.flatnonzero(~mesh.boundary_faces)

    ops = build_incidence(mesh)
    # Every edge of a boundary face is a boundary edge (derive_topology's
    # definition), so C[boundary faces, ie] = 0: a zeroed b stays zero, and
    # F_f C[:, ie] gives C_int' M_f C_int.
    c_ie = ops.C[:, ie]
    c_int = c_ie[if_]

    # Every square matrix is the Gram matrix of local factors restricted to
    # interior DOFs and scaled row by row, so it is symmetric bit for bit,
    # and so is A, their sum; the unit-weight load keeps every column of J.
    face = local_face_mass(mesh, projectors, stab)
    w_face = face.weighted(1.0 / coefficients.mu_hat)
    m_face = assemble_global(face.f[:, if_], w_face)
    curl_term = assemble_global(face.f @ c_ie, w_face)
    edge = local_edge_mass(mesh, projectors, stab)
    f_edge = edge.f[:, ie]
    m_edge_load = (edge.f.T @ f_edge).T     # the transpose sorts the indices
    eps, sigma = coefficients.eps_hat, coefficients.sigma_hat
    w_eps, w_system = edge.weighted(eps), edge.weighted(eps + tau * sigma)
    del face, edge          # the all-DOF factors, freed before the largest products
    m_eps = assemble_global(f_edge, w_eps)
    system = assemble_global(f_edge, w_system) + tau**2 * curl_term
    del curl_term
    precond = None
    if curl_mass_ratio(system, m_eps) > CURL_MASS_SWITCH:
        # C G = 0, so L = G' A G is the Gram matrix of the mass factor times
        # G: diag L is a sum of weighted squares, with no curl term to cancel
        g_int = ops.G[ie][:, np.flatnonzero(~mesh.boundary_vertices)]
        fg = f_edge @ g_int
        np.square(fg.data, out=fg.data)
        diag_l = fg.T @ w_system
        del fg
        precond = linalg.hybrid_preconditioner(system.inverse_diagonal, g_int, diag_l)
    return StepOperators(mesh, projectors, tau, ie, if_,
                         linalg.vstack([c_int, m_eps]),
                         linalg.vstack([m_face, ops.D[:, if_]]),
                         m_edge_load, c_int.T, system, precond)


def make_state(ops: StepOperators, e: np.ndarray, b: np.ndarray, step: int = 0,
               m_eps_e: np.ndarray | None = None) -> SimulationState:
    """The state (e, b) at ``step``, with M_f b and D b from one stacked
    product; ``m_eps_e``, M_eps e, is formed where it is not given."""
    nf = ops.interior_faces.size
    if m_eps_e is None:
        m_eps_e = linalg.matvec(ops.curl_mass, e)[nf:]
    face = linalg.matvec(ops.face_mass_div, b)      # [M_f b; D_int b]
    return SimulationState(e, b, step, m_eps_e, face[:nf], face[nf:])


def init_state(ops: StepOperators, case: ManufacturedCase) -> SimulationState:
    """Interpolate the initial fields and verify discrete solenoidality.

    A field whose time factors all vanish at t = 0 (E and B of case 1, B
    of case 2) starts as zeros and is neither evaluated nor interpolated.
    The check reads the interior face DOFs that the run evolves, with the
    boundary ones dropped, so it fails where ``B0 . n`` does not vanish on
    the boundary as well as where ``div B0`` does not vanish.
    """
    mesh = ops.mesh
    e_full = (np.zeros(mesh.n_edges) if case.vanishes(0, 0.0)
              else interpolate_edge(mesh, lambda p: case.E(p, 0.0)))
    b_full = (np.zeros(mesh.n_faces) if case.vanishes(1, 0.0)
              else interpolate_face(mesh, lambda p: case.B(p, 0.0)))
    state = make_state(ops, e_full[ops.interior_edges], b_full[ops.interior_faces])
    div0 = np.abs(state.div).max()
    if div0 > DIV_INIT_TOL:
        raise InitialDivergenceError(
            f"initial magnetic field is not solenoidal: |D b0|_inf = {div0:.3e}"
        )
    return state


def advance(state: SimulationState, ops: StepOperators, load: np.ndarray,
            space: linalg.SolutionSpace, tol: float = 1e-12):
    """One backward-Euler step given the load at t + tau.

    Returns (new state, SolveReport).  ``load`` is ``ops.m_edge_load @ j``
    for the edge interpolant j of the current at t + tau: the interior
    test functions against every DOF of the current.  CG starts from
    ``space.guess(rhs)``, whose A x0 spares it the first residual's
    product, preconditioned by ``ops.precond``; ``space``, earlier
    solutions of ``ops.system``, then takes in the solve.
    """
    tau = ops.tau
    rhs = state.m_eps_e + tau * (load + linalg.matvec(ops.c_int_t, state.m_face_b))
    guess = space.guess(rhs)
    e_new, report = linalg.cg_solve(ops.system, rhs, tol=tol, x0=guess.x,
                                    precond=ops.precond, a_x0=guess.a_x)
    space.extend(ops.system, e_new, guess)
    nf = ops.interior_faces.size
    edge = linalg.matvec(ops.curl_mass, e_new)      # [C_int e_new; M_eps e_new]
    return make_state(ops, e_new, state.b - tau * edge[:nf], state.step + 1,
                      edge[nf:]), report


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
    ops: StepOperators


def step_count(T: float, tau: float) -> int:
    """The number n of steps of size tau that reach T; ValueError unless
    T > 0, tau > 0 and T / tau is finite, at most 2**53 and within
    1e-12 n of an integer n >= 1.  Past 2**53 a float no longer holds every
    integer, so T / tau is an integer whatever tau and the check says
    nothing."""
    if not T > 0:
        raise ValueError(f"T={T} is not positive")
    steps = T / tau if tau > 0 else np.nan
    if np.isinf(steps):
        raise ValueError(f"the step count T/tau = {T}/{tau} is not finite")
    if steps > 2**53:
        raise ValueError(f"the step count T/tau = {T}/{tau} = {steps:.3g} exceeds 2**53")
    n = int(round(steps)) if np.isfinite(steps) else 0
    if n < 1 or abs(steps - n) > 1e-12 * n:
        raise ValueError(f"tau={tau} does not divide T={T}")
    return n


def run(mesh: PolyMesh, case: ManufacturedCase, tau: float, T: float,
        stab: StabWeights = StabWeights(), tol: float = 1e-12) -> RunResult:
    """Integrate from interpolated initial data to T = M tau.

    Records per-step monitors (discrete energy, |div B_h|, solver work).
    Raises ValueError if tau does not evenly divide T (``step_count``).
    """
    n_steps = step_count(T, tau)
    coefficients = sample_coefficients(mesh, case.eps, case.sigma, case.mu)
    ops = build_step_operators(mesh, build_projectors(mesh), coefficients, tau, stab)
    state = init_state(ops, case)
    space = linalg.SolutionSpace.spanned_by(ops.system, state.e, PROJECTION_CAPACITY)

    def monitor(st: SimulationState, iters: int, residual: float) -> StepMonitor:
        div = divergence_norm(mesh, st.div)
        energy = float(st.e @ st.m_eps_e + st.b @ st.m_face_b)
        return StepMonitor(st.step, st.step * tau, energy, div, iters, residual)

    # The edge interpolant and the load are linear in the current, so step
    # m's load combines one load per spatial term, each formed once, with
    # the time factors at t_{m+1}, all evaluated at once.
    times = tau * np.arange(1, n_steps + 1)
    coef = np.zeros((n_steps, len(case.J_terms)))
    loads = np.zeros((len(case.J_terms), ops.interior_edges.size))
    for i, (a, g) in enumerate(case.J_terms):
        coef[:, i] = a(times)
        loads[i] = ops.m_edge_load @ interpolate_edge(mesh, g)
    monitors = [monitor(state, 0, 0.0)]
    total_iters = 0
    for m in range(n_steps):
        state, report = advance(state, ops, coef[m] @ loads, space, tol=tol)
        total_iters += report.iterations
        monitors.append(monitor(state, report.iterations, report.residual))
    return RunResult(state, monitors, total_iters, ops)


def write_monitors(monitors, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MONITOR_HEADER + "\n")
        for row in monitors:
            fh.write(row.csv_row() + "\n")
