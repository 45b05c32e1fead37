import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import blocks, expand, free_evolution, scipy_csr, weighted_product
from vemaxwell import cases, cli, forms, generate_cube_mesh, geometry, linalg, stepper
from vemaxwell import derham as vd


def zero_field(p, t=0.0):
    return np.zeros(np.asarray(p).shape)


def make_case(E0, B0, eps=1.0, sigma=0.0, mu=1.0):
    """Free-evolution case: closed forms only needed at t = 0."""
    return free_evolution(cases.case1(), E0, B0, eps=eps, sigma=sigma, mu=mu)


def spatial_e(p):
    # case-2 electric profile: zero tangential trace
    out = np.zeros(np.asarray(p).shape)
    out[..., 2] = np.sin(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])
    return out


def spatial_b(p):
    # divergence-free, zero normal trace
    out = np.zeros(np.asarray(p).shape)
    out[..., 0] = -np.cos(np.pi * p[..., 1]) * np.sin(np.pi * p[..., 0])
    out[..., 1] = np.cos(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])
    return out / 2.2


def step_operators(mesh, case, tau):
    """The operators ``stepper.run`` builds for this case."""
    coeffs = forms.sample_coefficients(mesh, case.eps, case.sigma, case.mu)
    return stepper.build_step_operators(mesh, vd.build_projectors(mesh), coeffs, tau)


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` made through any vemaxwell binding."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("vemaxwell") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def flux_loop_norm(mesh, b_full):
    """Per-cell flux loop: sqrt(sum_K (sum_F s_KF |F| b_F)^2 / |K|)."""
    div_sq = 0.0
    for k in range(mesh.n_cells):
        fids = mesh.cell_faces[k]
        flux = (mesh.cell_face_signs[k] * mesh.face_areas[fids] * b_full[fids]).sum()
        div_sq += flux**2 / mesh.cell_volumes[k]
    return float(np.sqrt(div_sq))


def step_rhs(ops, state, load):
    """Right-hand side of the step from ``state``, formed from its vectors."""
    blk = blocks(ops)
    return (blk.m_eps @ state.e + ops.tau * load
            + ops.tau * (blk.c_int.T @ (blk.m_face @ state.b)))


def record_steps(monkeypatch, on_step=None):
    """Record (state, load, new state, report) of every ``advance``, and
    call ``on_step(space, size)`` after each with the run's solution space
    and its size before the step."""
    advance = stepper.advance
    steps = []

    def recording_advance(state, ops, load, space, tol):
        size = space.size
        new, report = advance(state, ops, load, space, tol=tol)
        steps.append((state, load, new, report))
        if on_step is not None:
            on_step(space, size)
        return new, report

    monkeypatch.setattr(stepper, "advance", recording_advance)
    return steps


def record_cg_starts(monkeypatch):
    """Record (right-hand side, x0) of every ``linalg.cg_solve``."""
    cg_solve = linalg.cg_solve
    starts = []

    def recording_cg(a, b, tol=1e-12, maxiter=None, x0=None, precond=None, a_x0=None):
        starts.append((b, x0))
        return cg_solve(a, b, tol=tol, maxiter=maxiter, x0=x0, precond=precond,
                        a_x0=a_x0)

    monkeypatch.setattr(linalg, "cg_solve", recording_cg)
    return starts


def span_of(ops, state):
    """The solution space a run starts from: the span of the state's e."""
    return linalg.SolutionSpace.spanned_by(ops.system, state.e, stepper.PROJECTION_CAPACITY)


def cold_start_run(ops, case, n_steps, tol):
    """The step loop with every CG solve started from zero: the oracle of
    the warm-started ``stepper.run``.  Returns the final state, the total
    CG iterations and the norm of each step's right-hand side."""
    state = stepper.init_state(ops, case)
    j_terms = [(a, vd.interpolate_edge(ops.mesh, g)) for a, g in case.J_terms]
    c_int, total, rhs_norms = blocks(ops).c_int, 0, []
    for m in range(n_steps):
        t_next = (m + 1) * ops.tau
        j_full = sum((a(t_next) * j for a, j in j_terms), np.zeros(ops.mesh.n_edges))
        rhs = step_rhs(ops, state, ops.m_edge_load @ j_full)
        e_new, report = linalg.cg_solve(ops.system, rhs, tol=tol, precond=ops.precond)
        state = stepper.make_state(ops, e_new, state.b - ops.tau * (c_int @ e_new),
                                   state.step + 1)
        total += report.iterations
        rhs_norms.append(np.linalg.norm(rhs))
    return state, total, rhs_norms


def run_with_jacobi(monkeypatch, *args, **kwargs):
    """``stepper.run`` with every CG solve Jacobi-preconditioned, whatever
    preconditioner the step operators hold."""
    cg_solve = linalg.cg_solve

    def jacobi_cg(*cg_args, precond=None, **cg_kwargs):
        return cg_solve(*cg_args, **cg_kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "cg_solve", jacobi_cg)
        return stepper.run(*args, **kwargs)


def assert_runs_agree(ops, got, want, rhs_norms, tol, n_steps, label):
    """Two runs whose every solve met ``|r| <= tol |rhs|`` differ only by
    what tol lets each solve leave.

    A solve that meets the tolerance leaves e off by A^-1 r, and the state
    (e, b) off by at most tol |rhs| / sqrt(lambda_min(A)) in the energy
    norm |(e, b)|^2 = [eps e, e] + [mu^-1 b, b] (A dominates
    M_eps + tau^2 C' M_f C).  Backward Euler does not increase that norm,
    so after n steps the runs differ by at most the sum of both runs'
    per-step bounds (``rhs_norms`` holds the right-hand side norms of
    both), plus round-off.
    """
    lam_a = np.linalg.eigvalsh(scipy_csr(ops.system).toarray())[0]
    energy_gap = tol * sum(rhs_norms) / np.sqrt(lam_a)
    eps = np.finfo(float).eps
    scale = np.abs(np.concatenate([want.e, want.b])).max()
    blk = blocks(ops)
    for g, w, mass in ((got.e, want.e, blk.m_eps), (got.b, want.b, blk.m_face)):
        bound = (energy_gap / np.sqrt(np.linalg.eigvalsh(mass.toarray())[0])
                 + n_steps * 64 * eps * scale)
        assert np.linalg.norm(g - w) <= bound, (label, bound)


class TestInitState:
    def test_case2_initial_b_vanishes(self, cube2):
        state = stepper.init_state(step_operators(cube2, cases.case2(), 0.5),
                                   cases.case2())
        assert np.abs(state.b).max() == 0.0
        assert np.abs(state.e).max() > 0.0

    def test_case1_zero_initial_state(self, cube2):
        state = stepper.init_state(step_operators(cube2, cases.case1(), 0.5),
                                   cases.case1())
        assert np.abs(state.e).max() == 0.0
        assert np.abs(state.b).max() == 0.0
        assert state.step == 0

    @pytest.mark.parametrize("case_id", [1, 2])
    def test_vanishing_fields_are_not_evaluated(self, cube2, case_id, trig_calls,
                                                face_quadrature_calls, monkeypatch):
        # case 1: E(., 0) = B(., 0) = 0; case 2: B(., 0) = 0, so only E is
        # interpolated and evaluated, once, at the edge interpolation's
        # points, and no face rule is mapped
        case = cases.get_case(case_id)
        ops = step_operators(cube2, case, 0.5)
        edge_calls = count_calls(monkeypatch, vd, "interpolate_edge")
        trig_calls.clear()
        face_quadrature_calls.clear()
        stepper.init_state(ops, case)
        edge_points = cube2.n_edges * geometry.segment_rule(vd.INTERP_EDGE_DEGREE)[0].size
        assert trig_calls == {1: [], 2: [edge_points] * 4}[case_id]
        assert len(edge_calls) == {1: 0, 2: 1}[case_id]
        assert face_quadrature_calls == []

    def test_nonvanishing_b_is_interpolated(self, cube2, face_quadrature_calls):
        # the control: a B(., 0) with a nonzero factor maps every face rule once
        case = make_case(zero_field, spatial_b)
        ops = step_operators(cube2, case, 0.5)
        every_face = geometry.face_quadrature(cube2, slice(None), vd.INTERP_FACE_DEGREE)
        face_quadrature_calls.clear()
        stepper.init_state(ops, case)
        assert sum(face_quadrature_calls) == every_face.weights.size

    def test_nonsolenoidal_rejected(self, cube2):
        bad = make_case(zero_field, lambda p: np.stack(
            [p[..., 0], np.zeros(p[..., 0].shape), np.zeros(p[..., 0].shape)],
            axis=-1))
        with pytest.raises(stepper.InitialDivergenceError):
            stepper.init_state(step_operators(cube2, bad, 0.5), bad)

    def test_normal_trace_rejected(self, cube4):
        # div B0 = 0, but B0 . n = -+1 on the walls x = 0, 1: the run drops
        # those boundary face DOFs, so its D b would start at about 2.8
        uniform = make_case(zero_field, lambda p: np.broadcast_to([1.0, 0.0, 0.0],
                                                                  np.shape(p)))
        with pytest.raises(stepper.InitialDivergenceError):
            stepper.init_state(step_operators(cube4, uniform, 0.25), uniform)


class TestAdvance:
    def test_zero_data_stays_zero(self, cube2):
        case = make_case(zero_field, zero_field)
        res = stepper.run(cube2, case, 0.25, 1.0)
        assert np.abs(res.state.e).max() == 0.0
        assert np.abs(res.state.b).max() == 0.0

    def test_single_step_identity(self, cube4):
        # from (0, b): e1 solves (M_eps + tau^2 C' M_f C) e1 = tau C' M_f b
        case = make_case(zero_field, spatial_b)
        proj = vd.build_projectors(cube4)
        coeffs = forms.sample_coefficients(cube4, 1.0, 0.0, 1.0)
        tau = 0.25
        ops = stepper.build_step_operators(cube4, proj, coeffs, tau)
        state = stepper.init_state(ops, case)
        load = np.zeros(ops.interior_edges.size)
        new, rep = stepper.advance(state, ops, load, span_of(ops, state), tol=1e-13)
        blk = blocks(ops)
        rhs = tau * (blk.c_int.T @ (blk.m_face @ state.b))
        lhs = ops.system @ new.e
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()
        assert np.abs(new.e).max() > 0.0      # C' M_f b != 0 here
        assert new.step == 1

    def test_divergence_preserved_each_step(self, cube4):
        case = make_case(spatial_e, spatial_b)
        res = stepper.run(cube4, case, 1 / 8, 1.0)
        for mon in res.monitors:
            assert mon.div_b <= 1e-12

    def test_reduced_matches_coupled_two_field_solve(self, cube2):
        # dense oracle: solve the full (e, b) block system the reduced
        # path was eliminated from, and compare one step
        proj = vd.build_projectors(cube2)
        case = cases.case2()
        coeffs = forms.sample_coefficients(cube2, case.eps, case.sigma, case.mu)
        tau = 0.125
        ops = stepper.build_step_operators(cube2, proj, coeffs, tau)
        rng = np.random.default_rng(8)
        ie = ops.interior_edges
        ne, nf = ie.size, ops.interior_faces.size
        state = stepper.make_state(ops, rng.standard_normal(ne), rng.standard_normal(nf))
        j_full = rng.standard_normal(cube2.n_edges)
        new, _ = stepper.advance(state, ops, ops.m_edge_load @ j_full, span_of(ops, state),
                                 tol=1e-13)

        blk = blocks(ops)
        m_eps = blk.m_eps.toarray()
        m_sig = weighted_product(cube2, proj, coeffs.sigma_hat, "edge")[ie][:, ie].toarray()
        m_f = blk.m_face.toarray()
        c = blk.c_int.toarray()
        block = np.zeros((ne + nf, ne + nf))
        block[:ne, :ne] = m_eps / tau + m_sig
        block[:ne, ne:] = -c.T @ m_f
        block[ne:, :ne] = m_f @ c
        block[ne:, ne:] = m_f / tau
        rhs = np.concatenate([
            (ops.m_edge_load @ j_full) + m_eps @ state.e / tau,
            m_f @ state.b / tau,
        ])
        sol = np.linalg.solve(block, rhs)
        scale = np.abs(sol).max()
        assert np.abs(new.e - sol[:ne]).max() <= 1e-9 * scale
        assert np.abs(new.b - sol[ne:]).max() <= 1e-9 * scale

    def test_affine_superposition(self, cube2):
        proj = vd.build_projectors(cube2)
        coeffs = forms.sample_coefficients(cube2, 1.0, 0.5, 1.0)
        ops = stepper.build_step_operators(cube2, proj, coeffs, 0.125)
        rng = np.random.default_rng(2)
        ne, nf = ops.interior_edges.size, ops.interior_faces.size
        def rand_state():
            return stepper.make_state(ops, rng.standard_normal(ne), rng.standard_normal(nf))
        s1, s2 = rand_state(), rand_state()
        l1, l2 = rng.standard_normal(ne), rng.standard_normal(ne)
        zero = stepper.make_state(ops, np.zeros(ne), np.zeros(nf))
        sum_state = stepper.make_state(ops, s1.e + s2.e, s1.b + s2.b)
        a1, _ = stepper.advance(s1, ops, l1, span_of(ops, s1), tol=1e-13)
        a2, _ = stepper.advance(s2, ops, l2, span_of(ops, s2), tol=1e-13)
        a0, _ = stepper.advance(zero, ops, np.zeros(ne), span_of(ops, zero), tol=1e-13)
        asum, _ = stepper.advance(sum_state, ops, l1 + l2, span_of(ops, sum_state), tol=1e-13)
        scale = max(np.abs(asum.e).max(), 1.0)
        assert np.abs(asum.e - (a1.e + a2.e - a0.e)).max() <= 1e-11 * scale
        assert np.abs(asum.b - (a1.b + a2.b - a0.b)).max() <= 1e-11 * scale


class TestWarmStart:
    @pytest.mark.parametrize("capacity", [linalg.RESTART_SOLUTIONS, 5,
                                          stepper.PROJECTION_CAPACITY])
    def test_guess_no_worse_than_quadratic_extrapolation(self, cube4, monkeypatch,
                                                         capacity):
        # the space spans the three latest solutions, restarted or not, so
        # its A-orthogonal projection is at least as close in the A-norm
        # as 3 (e_n - e_{n-1}) + e_{n-2} from the same solutions
        monkeypatch.setattr(stepper, "PROJECTION_CAPACITY", capacity)
        full = []
        steps = record_steps(monkeypatch, lambda space, size: full.append(size == capacity))
        starts = record_cg_starts(monkeypatch)
        res = stepper.run(cube4, cases.case2(), 1 / 16, 1.0)
        a = scipy_csr(res.ops.system).toarray()

        def a_norm(v):
            return float(np.sqrt(v @ a @ v))

        e = [state.e for state, *_ in steps]
        for n in range(2, len(steps)):
            state, load = steps[n][:2]
            rhs = step_rhs(res.ops, state, load)
            exact = np.linalg.solve(a, rhs)
            projected = a_norm(exact - starts[n][1])
            extrapolated = a_norm(exact - (3.0 * (e[n] - e[n - 1]) + e[n - 2]))
            assert projected <= extrapolated + 1e-12 * a_norm(exact), (n, capacity)
        restarts = sum(full)        # a full space restarts before it grows
        assert (restarts > 0) is (capacity < len(steps))

    def test_space_stays_a_orthonormal_through_restarts(self, cube4, monkeypatch):
        # at a small step successive solutions are nearly parallel: a
        # restart orthonormalises their coordinates, which nearly cancel,
        # and each increment's Gram-Schmidt cancels most of it; neither may
        # leave V' A V away from I, nor let that error grow with restarts
        rows, restarts = [], []

        def after_step(space, size):
            rows.append(space.v[:space.size].copy())
            restarts.append(space.size < size)

        steps = record_steps(monkeypatch, after_step)
        res = stepper.run(cube4, cases.case2(), 1 / 256, 0.25)
        csr = scipy_csr(res.ops.system)
        eps = np.finfo(float).eps
        assert len(rows) == len(steps) == 64
        for v in rows:
            assert np.abs(v @ (csr @ v.T) - np.eye(len(v))).max() <= 64 * eps
        assert sum(restarts) == 3

    def test_advance_starts_cg_from_projection(self, cube4, monkeypatch):
        # CG starts from the A-orthogonal projection of the step's solution
        # onto the span of the initial e and every solution since
        ops = step_operators(cube4, cases.case2(), 1 / 16)
        starts = record_cg_starts(monkeypatch)
        rng = np.random.default_rng(21)
        ne, nf = ops.interior_edges.size, ops.interior_faces.size
        states = [stepper.make_state(ops, rng.standard_normal(ne), rng.standard_normal(nf))]
        space = span_of(ops, states[0])
        sizes = [space.size]
        for _ in range(5):
            states.append(stepper.advance(states[-1], ops, rng.standard_normal(ne), space,
                                          tol=1e-12)[0])
            sizes.append(space.size)
        a = scipy_csr(ops.system).toarray()
        for n, (rhs, x0) in enumerate(starts):
            s = np.array([state.e for state in states[:n + 1]]).T
            want = s @ np.linalg.solve(s.T @ a @ s, s.T @ rhs)
            assert np.abs(x0 - want).max() <= 1e-10 * np.abs(want).max(), n
        assert sizes == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("mesh_name, tau", [("cube4", 1 / 16), ("voro27", 1 / 16)])
    def test_matches_cold_start_oracle(self, request, monkeypatch, mesh_name, tau):
        """Warm and cold starts differ only by what tol lets each solve
        leave (``assert_runs_agree``)."""
        mesh, case, tol = request.getfixturevalue(mesh_name), cases.case2(), 1e-12
        steps = record_steps(monkeypatch)
        res = stepper.run(mesh, case, tau, 1.0, tol=tol)
        ops = res.ops
        cold, cold_iters, cold_rhs = cold_start_run(ops, case, len(steps), tol)

        warm_rhs = [np.linalg.norm(step_rhs(ops, s, j)) for s, j, _, _ in steps]
        assert_runs_agree(ops, res.state, cold, warm_rhs + cold_rhs, tol,
                          len(steps), mesh_name)
        assert res.cg_iters_total < cold_iters
        assert max(m.div_b for m in res.monitors) <= 1e-12

    @pytest.mark.parametrize("mesh_name", ["cube4", "voro27"])
    def test_energy_identity_every_step(self, request, monkeypatch, mesh_name):
        """1/2 (E1 - E0) + 1/2 (|e1 - e0|_eps^2 + |b1 - b0|_mu^-1^2)
        + tau |e1|_sigma^2 = tau (J1, e1), E = [eps e, e] + [mu^-1 b, b].

        It follows from the step equations with e1 their exact solution.
        The solve leaves the residual r = rhs - A e1, which moves the
        identity by -r.e1, so |r.e1| <= residual |rhs| |e1| bounds it;
        what is left is round-off on the summed magnitudes of the terms.
        """
        mesh, case, tau = request.getfixturevalue(mesh_name), cases.case2(), 1 / 16
        steps = record_steps(monkeypatch)
        res = stepper.run(mesh, case, tau, 1.0, tol=1e-12)
        ops = res.ops
        sigma_hat = forms.sample_coefficients(mesh, case.eps, case.sigma, case.mu).sigma_hat
        ie = ops.interior_edges
        m_sigma = weighted_product(mesh, ops.projectors, sigma_hat, "edge")[ie][:, ie]
        eps = np.finfo(float).eps
        _, m_eps, m_face, _ = blocks(ops)

        def sq(m, v):
            return float(v @ (m @ v))

        assert len(steps) == 16
        for state, load, new, report in steps:
            de, db = new.e - state.e, new.b - state.b
            energy0 = sq(m_eps, state.e) + sq(m_face, state.b)
            energy1 = sq(m_eps, new.e) + sq(m_face, new.b)
            terms = [0.5 * energy1, -0.5 * energy0, 0.5 * sq(m_eps, de),
                     0.5 * sq(m_face, db), tau * sq(m_sigma, new.e),
                     -tau * float(load @ new.e)]
            solve = (report.residual * np.linalg.norm(step_rhs(ops, state, load))
                     * np.linalg.norm(new.e))
            bound = solve + 64 * eps * sum(abs(t) for t in terms)
            assert abs(sum(terms)) <= bound, (mesh_name, new.step, sum(terms), bound)


class TestGradientCorrection:
    @pytest.mark.parametrize("mesh_name", ["cube4", "voro8"])
    def test_preconditioner_is_spd(self, request, mesh_name):
        # P = D_A^-1 + G D_L^-1 G', L = G' A G, against a dense oracle
        mesh = request.getfixturevalue(mesh_name)
        ops = step_operators(mesh, cases.case2(), 1 / 16)
        assert isinstance(ops.precond, linalg.SparseMatrix)
        a = scipy_csr(ops.system).toarray()
        g = scipy_csr(vd.gradient_matrix(mesh))[ops.interior_edges][
            :, ~mesh.boundary_vertices].toarray()
        want = np.diag(1.0 / np.diag(a)) + g @ np.diag(1.0 / np.diag(g.T @ a @ g)) @ g.T
        p = scipy_csr(ops.precond).toarray()
        assert np.array_equal(p, p.T)
        assert np.abs(p - want).max() <= 1e-13 * np.abs(want).max()
        assert np.linalg.eigvalsh(p)[0] > 0.0

    @pytest.mark.parametrize("tau", [1 / 2, 1 / 4])
    def test_preconditioner_matches_mass_factor_oracle(self, cube8, tau):
        # C G = 0, so L = G' A G is (F_e G)' W (F_e G), with F_e the edge
        # mass factor on interior edges and W the system's row weights:
        # formed densely from the mass factor alone, diag L has no curl
        # term to cancel
        case = cases.case2()
        proj = vd.build_projectors(cube8)
        coeffs = forms.sample_coefficients(cube8, case.eps, case.sigma, case.mu)
        ops = stepper.build_step_operators(cube8, proj, coeffs, tau)
        assert ops.precond is not None
        edge = forms.local_edge_mass(cube8, proj)
        g = scipy_csr(vd.gradient_matrix(cube8))[ops.interior_edges][
            :, ~cube8.boundary_vertices].toarray()
        fg = scipy_csr(edge.f)[:, ops.interior_edges] @ g
        w = edge.weighted(coeffs.eps_hat + tau * coeffs.sigma_hat)
        d = np.diag(fg.T @ (w[:, None] * fg))
        want = np.diag(1.0 / ops.system.diagonal) + g @ np.diag(1.0 / d) @ g.T
        assert np.abs(scipy_csr(ops.precond).toarray() - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n, tau, on", [(8, 1 / 32, True), (6, 1 / 512, False)])
    def test_switch_rule(self, n, tau, on):
        # on where the curl part of the median diagonal entry of A
        # outweighs the mass part, Jacobi otherwise
        mesh = generate_cube_mesh(n)
        ops = step_operators(mesh, cases.case2(), tau)
        m_eps = blocks(ops).m_eps
        d_a, d_eps = ops.system.diagonal, m_eps.diagonal()
        ratio = np.median((d_a - d_eps) / d_eps)
        assert stepper.curl_mass_ratio(ops.system, linalg.SparseMatrix.from_scipy(m_eps)) == ratio
        assert bool(ratio > stepper.CURL_MASS_SWITCH) is on
        assert (ops.precond is not None) is on

    def test_corrected_and_jacobi_runs_agree(self, cube4, monkeypatch):
        case, tau, tol = cases.case2(), 1 / 16, 1e-12
        steps = record_steps(monkeypatch)
        corrected = stepper.run(cube4, case, tau, 1.0, tol=tol)
        jacobi = run_with_jacobi(monkeypatch, cube4, case, tau, 1.0, tol=tol)
        ops = corrected.ops
        assert ops.precond is not None and len(steps) == 32
        rhs = [np.linalg.norm(step_rhs(ops, s, j)) for s, j, _, _ in steps]
        assert_runs_agree(ops, corrected.state, jacobi.state, rhs, tol, 16, "cube4")
        assert corrected.cg_iters_total < jacobi.cg_iters_total
        assert max(m.div_b for m in corrected.monitors) <= 1e-12

    @pytest.mark.parametrize("mesh_name, case_id, tau, jacobi_iters, corrected_iters",
                             [("cube8", 2, 1 / 32, 785, 395), ("cube6", 2, 1 / 512, 895, 895),
                              ("agglo4", 1, 1 / 16, 208, 165)],
                             ids=["hex-coarse-dt", "hex-fine-dt", "agglo-case1"])
    def test_iteration_counts(self, request, monkeypatch, mesh_name, case_id, tau,
                              jacobi_iters, corrected_iters):
        # deterministic counts of the benchmark's configurations: fewer
        # where the correction is on, the same Jacobi solves where it is off
        mesh = (generate_cube_mesh(6) if mesh_name == "cube6"
                else request.getfixturevalue(mesh_name))
        case = cases.get_case(case_id)
        res = stepper.run(mesh, case, tau, 1.0)
        jacobi = run_with_jacobi(monkeypatch, mesh, case, tau, 1.0)
        assert (jacobi.cg_iters_total, res.cg_iters_total) == (jacobi_iters,
                                                               corrected_iters)
        assert (res.ops.precond is None) is (jacobi_iters == corrected_iters)
        if res.ops.precond is None:
            assert np.array_equal(res.state.e, jacobi.state.e)


class TestRun:
    def test_step_count(self, cube2):
        res = stepper.run(cube2, make_case(zero_field, zero_field), 1 / 8, 1.0)
        assert len(res.monitors) == 9
        assert res.monitors[-1].t == pytest.approx(1.0)

    def test_tau_must_divide(self, cube2):
        with pytest.raises(ValueError, match="does not divide"):
            stepper.run(cube2, cases.case1(), 0.3, 1.0)

    def test_tau_must_divide_small_T(self, cube1):
        # T / tau = 10.00000001: ten steps end 1e-15 short of T, inside
        # an absolute 1e-12 but not within 1e-12 of the step count
        with pytest.raises(ValueError, match="does not divide"):
            stepper.run(cube1, cases.case2(), 1e-7, 1.000000001e-6)

    @pytest.mark.parametrize("T, tau, n", [(1.0, 1 / 8, 8), (0.9, 0.3, 3), (1e-6, 1e-7, 10),
                                           (3.0, 3.0, 1), (1.0, 1 / 512, 512)])
    def test_step_count_rule(self, T, tau, n):
        assert stepper.step_count(T, tau) == n

    @pytest.mark.parametrize("T, tau", [(1.0, 0.3), (1.000000001e-6, 1e-7), (0.5, 1.0),
                                        (1.0, 0.0), (1.0, -0.5), (1.0, np.nan),
                                        (np.inf, 0.25), (np.nan, 0.25), (0.0, 0.25)])
    def test_step_count_rejects(self, T, tau):
        with pytest.raises(ValueError):
            stepper.step_count(T, tau)

    @pytest.mark.parametrize("T, tau", [(1.0, 1e-300), (1.0, 1e-17), (1e17, 0.25),
                                        (2.0**53 + 2.0, 1.0)])
    def test_step_count_past_2_53_rejected(self, T, tau):
        # every float past 2**53 is an integer, so divisibility says nothing
        with pytest.raises(ValueError, match=r"T/tau = .* exceeds 2\*\*53"):
            stepper.step_count(T, tau)

    def test_step_count_up_to_2_53(self):
        assert stepper.step_count(2.0**53, 1.0) == 2**53

    def test_energy_dissipation_free_evolution(self, cube4):
        case = make_case(spatial_e, spatial_b, eps=1.0, sigma=1.0, mu=1.0)
        res = stepper.run(cube4, case, 1 / 16, 1.0)
        energies = [m.energy for m in res.monitors]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert energies[-1] < energies[0]

    def test_case1_divergence_free_at_final_time(self, cube4):
        res = stepper.run(cube4, cases.case1(), 1 / 8, 1.0, tol=1e-12)
        assert res.monitors[-1].div_b <= 1e-10

    def test_monitor_csv(self, cube2, tmp_path):
        res = stepper.run(cube2, cases.case1(), 0.5, 1.0)
        path = tmp_path / "monitors.csv"
        stepper.write_monitors(res.monitors, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,t,energy,divB,cg_iters,residual"
        assert len(lines) == 4

    def test_first_order_in_time(self, cube2):
        # successive tau-halvings change the final state by O(tau); the
        # per-halving difference ratios climb monotonically toward 2 once
        # the oscillation is resolved (measured: 1.43, 1.67, 1.82, 1.91
        # over 1/32..1/1024)
        sols = []
        for tau_inv in (64, 128, 256, 512, 1024):
            res = stepper.run(cube2, cases.case2(), 1 / tau_inv, 1.0)
            sols.append(np.concatenate([res.state.e, res.state.b]))
        diffs = [np.linalg.norm(a - b) for a, b in zip(sols, sols[1:])]
        ratios = [a / b for a, b in zip(diffs, diffs[1:])]
        assert all(b >= a for a, b in zip(ratios, ratios[1:])), ratios
        assert 1.75 <= ratios[-1] <= 2.25, ratios

    def test_load_is_current_at_new_time(self, cube2, monkeypatch):
        # backward Euler: step n -> n+1 loads the interpolant of J(t_{n+1})
        case, tau = cases.case1(), 0.25
        steps = record_steps(monkeypatch)
        res = stepper.run(cube2, case, tau, 1.0)
        assert [state.step for state, *_ in steps] == [0, 1, 2, 3]
        for state, load, _, _ in steps:
            t = (state.step + 1) * tau
            want = res.ops.m_edge_load @ vd.interpolate_edge(
                cube2, lambda p: sum(a(t) * g(p) for a, g in case.J_terms))
            assert np.abs(load - want).max() <= 1e-13 * np.abs(want).max()

    def test_tightening_tol_never_increases_div(self, cube4, voro27,
                                                monkeypatch):
        """div B_h stays within a round-off bound at every step, whatever
        the CG tolerance.

        In exact arithmetic b_n = b_0 - tau sum_{m<=n} C e_m gives
        D b_n = D b_0 for any iterates e_m, because D C = 0.  In floating
        point the cancelled flux terms leave at most

            div_b(n) <= c_n * eps * S_n,
            S_n = || |D| |b_0| || + sum_{m<=n} tau || |D| |C| |e_m| ||,

        with ||v||^2 = sum_K |K| v_K^2 the cell norm of divergence_norm
        and eps the machine epsilon.  c_n = gamma_k / eps comes from the
        standard summation bound gamma_k = k u / (1 - k u), u = eps / 2,
        where k counts the roundings along one cell's flux: n updates
        accumulated in each face DOF, E terms of (C e)_f (E = most edges
        per face) plus the tau scaling, F terms of the flux sum (F = most
        faces per cell) and one in each stored entry of C, so
        k = n + E + F + 2.  Both cases start from b_0 = 0, so S_0 = 0 and
        div_b(0) must be exactly zero.  Tightening tol never takes div_b
        above this bound; no order among round-off values is implied.

        Sweeps: cube:4 with case 1 (0-5 warm-started iterations per step
        for tol <= 1e-5; 4-5 from a zero guess) and voro27 with case 2
        (3-9 iterations per step at tol 1e-2, 47-53 at 1e-13), both with
        the gradient-corrected preconditioner, so the bound is checked on
        solves that really differ.
        """
        eps = np.finfo(float).eps
        u = eps / 2
        tau = 1 / 8
        tols = [10.0**-k for k in range(2, 14)]
        advance = stepper.advance
        iterates = []

        def recording_advance(state, ops, load, space, tol):
            new, report = advance(state, ops, load, space, tol=tol)
            iterates.append(new.e)
            return new, report

        monkeypatch.setattr(stepper, "advance", recording_advance)
        for mesh, case in ((cube4, cases.case1()), (voro27, cases.case2())):
            abs_d = abs(scipy_csr(vd.divergence_matrix(mesh)))
            abs_c = abs(scipy_csr(vd.curl_matrix(mesh)))
            root_vol = np.sqrt(mesh.cell_volumes)
            max_edges = max(len(e) for e in mesh.face_edges)
            max_faces = max(len(f) for f in mesh.cell_faces)

            def cell_norm(v):
                return float(np.linalg.norm(root_vol * v))

            ops = step_operators(mesh, case, tau)
            b0 = stepper.init_state(ops, case).b
            s_0 = cell_norm(abs_d @ np.abs(expand(b0, ops.interior_faces, mesh.n_faces)))
            finals = []
            for tol in tols:
                iterates.clear()
                res = stepper.run(mesh, case, tau, 1.0, tol=tol)
                assert len(iterates) == len(res.monitors) - 1
                s_n = s_0
                for n, mon in enumerate(res.monitors):
                    if n:
                        e_m = np.abs(expand(iterates[n - 1], ops.interior_edges,
                                            mesh.n_edges))
                        s_n += tau * cell_norm(abs_d @ (abs_c @ e_m))
                    k = n + max_edges + max_faces + 2
                    bound = k * u / (1 - k * u) * s_n
                    assert mon.div_b <= bound, (mesh.name, tol, n,
                                                mon.div_b, bound)
                finals.append(res.state.e)
            # the loosest and tightest solves really differ
            scale = np.abs(finals[-1]).max()
            assert np.abs(finals[0] - finals[-1]).max() >= 1e-6 * scale


class TestDivergenceNorm:
    def test_curl_range_is_divergence_free(self, cube2):
        c = vd.curl_matrix(cube2)
        v = np.random.default_rng(3).standard_normal(cube2.n_edges)
        b = c @ v
        d = vd.divergence_matrix(cube2)
        assert stepper.divergence_norm(cube2, d @ b) <= 1e-12 * np.abs(b).max()

    def test_single_face_unit_cube(self, cube1):
        top = next(f for f in range(6)
                   if abs(cube1.face_centroids[f][2] - 1.0) < 1e-14)
        b = np.zeros(6)
        b[top] = 1.0
        d = vd.divergence_matrix(cube1)
        assert stepper.divergence_norm(cube1, d @ b) == pytest.approx(1.0, rel=1e-14)

    def test_zero(self, cube1):
        d = vd.divergence_matrix(cube1)
        assert stepper.divergence_norm(cube1, d @ np.zeros(6)) == 0.0

    def test_matches_per_cell_flux_loop(self, cube4, voro8, voro27, lcell):
        rng = np.random.default_rng(5)
        for mesh in (cube4, voro8, voro27, lcell):
            b = rng.standard_normal(mesh.n_faces)
            norm = stepper.divergence_norm(mesh, vd.divergence_matrix(mesh) @ b)
            assert norm == pytest.approx(flux_loop_norm(mesh, b), rel=1e-13), mesh.name


class TestProductCount:
    def test_at_most_k_plus_5_products_per_step(self, monkeypatch):
        # a Jacobi step with k CG iterations makes k + 5 sparse products:
        # C' (M_f b), k + 1 in CG, A d for the basis, [C; M_eps] e and
        # [M_f; D] b, with the monitors and the load taking none
        from scipy.sparse import _sparsetools
        products = [0]
        matvec = _sparsetools.csr_matvec

        def counted(*args):
            products[0] += 1
            return matvec(*args)

        monkeypatch.setattr(_sparsetools, "csr_matvec", counted)
        entries = []
        advance = stepper.advance

        def counting_advance(state, ops, load, space, tol):
            entries.append(products[0])
            return advance(state, ops, load, space, tol=tol)

        monkeypatch.setattr(stepper, "advance", counting_advance)
        res = stepper.run(generate_cube_mesh(4), cases.case2(), 1 / 64, 1.0)
        assert res.ops.precond is None and len(entries) == 64
        per_step = np.diff(entries + [products[0]])
        iterations = [m.cg_iters for m in res.monitors[1:]]
        assert (per_step - iterations <= 5).all(), per_step - iterations


class TestOperatorsBuiltOnce:
    def test_one_divergence_matrix_per_run(self, cube2, monkeypatch):
        calls = count_calls(monkeypatch, vd, "divergence_matrix")
        res = stepper.run(cube2, cases.case2(), 0.25, 1.0)
        assert len(calls) == 1
        assert max(m.div_b for m in res.monitors) <= 1e-12

    def test_one_divergence_matrix_per_single_run(self, monkeypatch):
        # the error report's div_B is the run's last monitor, not a new D
        calls = count_calls(monkeypatch, vd, "divergence_matrix")
        cli.run_single(cli.RunConfig("cube:2", 2, Fraction(1, 4)))
        assert len(calls) == 1

    @pytest.mark.parametrize("case_id", [1, 2])
    @pytest.mark.parametrize("n_steps", [4, 16])
    def test_current_interpolated_once_per_term(self, cube2, monkeypatch,
                                                case_id, n_steps):
        # E(0) once unless it vanishes (case 1), then each spatial term of J
        # once, whatever the step count
        case = cases.get_case(case_id)
        calls = count_calls(monkeypatch, vd, "interpolate_edge")
        res = stepper.run(cube2, case, 1 / n_steps, 1.0)
        assert len(res.monitors) == n_steps + 1
        assert len(calls) == {1: 0, 2: 1}[case_id] + len(case.J_terms)

    def test_one_local_mass_pass_per_space(self, voro8, monkeypatch):
        edge_calls = count_calls(monkeypatch, forms, "local_edge_mass")
        face_calls = count_calls(monkeypatch, forms, "local_face_mass")
        stepper.run(voro8, cases.case2(), 0.125, 0.25)
        assert len(edge_calls) == 1
        assert len(face_calls) == 1

    def test_step_hooks_called_through_module_globals(self, cube2, monkeypatch):
        # timing hooks replace these module attributes; a run that bound
        # them to locals would bypass the hooks without failing
        counts = dict.fromkeys(("advance", "divergence_norm", "cg_solve"), 0)
        for module, name in ((stepper, "advance"), (stepper, "divergence_norm"),
                             (linalg, "cg_solve")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        n = 4
        res = stepper.run(cube2, cases.case2(), 1 / n, 1.0)
        assert res.cg_iters_total > 0
        assert counts == {"advance": n, "divergence_norm": n + 1, "cg_solve": n}

    def test_transpose_and_interior_divergence_held(self, voro27):
        case = cases.case2()
        ops = step_operators(voro27, case, 0.125)
        blk = blocks(ops)
        assert isinstance(ops.c_int_t, linalg.SparseMatrix) and blk.d_int.format == "csr"
        assert (scipy_csr(ops.c_int_t) != blk.c_int.T).nnz == 0
        d_full = vd.divergence_matrix(voro27)
        assert (blk.d_int != scipy_csr(d_full)[:, ops.interior_faces]).nnz == 0
        # the monitor on interior faces is bit-identical to the full-vector one
        b = np.random.default_rng(6).standard_normal(ops.interior_faces.size)
        res = stepper.run(voro27, case, 0.125, 0.5)
        for v in (b, res.state.b):
            assert (stepper.divergence_norm(voro27, blk.d_int @ v)
                    == stepper.divergence_norm(
                        voro27, d_full @ expand(v, ops.interior_faces, voro27.n_faces)))


def test_array_records_compare_by_identity(cube2):
    # field-wise == would ask numpy arrays for one truth value, and the
    # frozen records would not hash
    case = cases.case2()
    a, b = step_operators(cube2, case, 0.5), step_operators(cube2, case, 0.5)
    coeffs = [forms.sample_coefficients(cube2, case.eps, case.sigma, case.mu)
              for _ in range(2)]
    pairs = [(a, b), (a.projectors, b.projectors),
             tuple(coeffs), (a.system, b.system),
             (stepper.init_state(a, case), stepper.init_state(b, case)),
             (vd.build_incidence(cube2), vd.build_incidence(cube2)),
             (geometry.cell_quadrature(cube2, 0), geometry.cell_quadrature(cube2, 0))]
    for x, y in pairs:
        assert x == x and x != y, type(x).__name__
        assert len({x, y, x}) == 2 and {x: 1}[x] == 1


class TestBoundaryStructure:
    def test_boundary_faces_touch_only_boundary_edges(self, cube4, voro8, voro27):
        for m in (cube4, voro8, voro27):
            c = vd.curl_matrix(m)
            rows = np.flatnonzero(m.boundary_faces)
            block = c[rows][:, np.flatnonzero(~m.boundary_edges)]
            assert block.nnz == 0
