import dataclasses
import sys
from fractions import Fraction

import numpy as np
import pytest

from vemaxwell import cases, cli, forms, stepper
from vemaxwell import derham as vd


def zero_field(p, t=0.0):
    return np.zeros(np.asarray(p).shape)


def make_case(E0, B0, eps=1.0, sigma=0.0, mu=1.0):
    """Free-evolution case: closed forms only needed at t = 0."""
    base = cases.case1()
    return dataclasses.replace(
        base, E=lambda p, t: E0(p), B=lambda p, t: B0(p), J_terms=(),
        eps=forms._as_field(eps), sigma=forms._as_field(sigma),
        mu=forms._as_field(mu))


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


def step_operators(mesh, case, tau, dofs=None, projectors=None):
    """The operators ``stepper.run`` builds for this case."""
    coeffs = forms.sample_coefficients(mesh, case.eps, case.sigma, case.mu)
    return stepper.build_step_operators(
        mesh, dofs if dofs is not None else vd.build_dofs(mesh),
        projectors if projectors is not None else vd.build_projectors(mesh),
        coeffs, tau)


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
        assert state.t == 0.0

    def test_nonsolenoidal_rejected(self, cube2):
        bad = make_case(zero_field, lambda p: np.stack(
            [p[..., 0], np.zeros(p[..., 0].shape), np.zeros(p[..., 0].shape)],
            axis=-1))
        with pytest.raises(stepper.InitialDivergenceError):
            stepper.init_state(step_operators(cube2, bad, 0.5), bad)


class TestAdvance:
    def test_zero_data_stays_zero(self, cube2):
        case = make_case(zero_field, zero_field)
        res = stepper.run(cube2, case, 0.25, 1.0)
        assert np.abs(res.state.e).max() == 0.0
        assert np.abs(res.state.b).max() == 0.0

    def test_single_step_identity(self, cube4):
        # from (0, b): e1 solves (M_eps + tau^2 C' M_f C) e1 = tau C' M_f b
        case = make_case(zero_field, spatial_b)
        dofs = vd.build_dofs(cube4)
        proj = vd.build_projectors(cube4)
        coeffs = forms.sample_coefficients(cube4, 1.0, 0.0, 1.0)
        tau = 0.25
        ops = stepper.build_step_operators(cube4, dofs, proj, coeffs, tau)
        state = stepper.init_state(ops, case)
        j_full = np.zeros(cube4.n_edges)
        new, rep = stepper.advance(state, ops, j_full, tol=1e-13)
        rhs = tau * (ops.c_int.T @ (ops.m_face @ state.b))
        lhs = ops.system.to_scipy() @ new.e
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()
        assert np.abs(new.e).max() > 0.0      # C' M_f b != 0 here
        assert new.step == 1 and new.t == pytest.approx(tau)

    def test_divergence_preserved_each_step(self, cube4):
        case = make_case(spatial_e, spatial_b)
        res = stepper.run(cube4, case, 1 / 8, 1.0)
        for mon in res.monitors:
            assert mon.div_b <= 1e-12

    def test_reduced_matches_coupled_two_field_solve(self, cube2):
        # dense oracle: solve the full (e, b) block system the reduced
        # path was eliminated from, and compare one step
        dofs = vd.build_dofs(cube2)
        proj = vd.build_projectors(cube2)
        case = cases.case2()
        coeffs = forms.sample_coefficients(cube2, case.eps, case.sigma, case.mu)
        tau = 0.125
        ops = stepper.build_step_operators(cube2, dofs, proj, coeffs, tau)
        rng = np.random.default_rng(8)
        ne, nf = dofs.n_interior_edges, dofs.n_interior_faces
        state = stepper.SimulationState(rng.standard_normal(ne),
                                        rng.standard_normal(nf), 0, tau)
        j_full = rng.standard_normal(cube2.n_edges)
        new, _ = stepper.advance(state, ops, j_full, tol=1e-13)

        m_eps = ops.m_eps.toarray()
        m_sig = ops.m_sigma.toarray()
        m_f = ops.m_face.toarray()
        c = ops.c_int.toarray()
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
        dofs = vd.build_dofs(cube2)
        proj = vd.build_projectors(cube2)
        coeffs = forms.sample_coefficients(cube2, 1.0, 0.5, 1.0)
        ops = stepper.build_step_operators(cube2, dofs, proj, coeffs, 0.125)
        rng = np.random.default_rng(2)
        ne, nf = dofs.n_interior_edges, dofs.n_interior_faces
        def rand_state():
            return stepper.SimulationState(
                e=rng.standard_normal(ne), b=rng.standard_normal(nf),
                step=0, tau=0.125)
        s1, s2 = rand_state(), rand_state()
        j1 = rng.standard_normal(cube2.n_edges)
        j2 = rng.standard_normal(cube2.n_edges)
        zero = stepper.SimulationState(np.zeros(ne), np.zeros(nf), 0, 0.125)
        sum_state = stepper.SimulationState(s1.e + s2.e - 0.0, s1.b + s2.b,
                                            0, 0.125)
        a1, _ = stepper.advance(s1, ops, j1, tol=1e-13)
        a2, _ = stepper.advance(s2, ops, j2, tol=1e-13)
        a0, _ = stepper.advance(zero, ops, np.zeros(cube2.n_edges), tol=1e-13)
        asum, _ = stepper.advance(sum_state, ops, j1 + j2, tol=1e-13)
        scale = max(np.abs(asum.e).max(), 1.0)
        assert np.abs(asum.e - (a1.e + a2.e - a0.e)).max() <= 1e-11 * scale
        assert np.abs(asum.b - (a1.b + a2.b - a0.b)).max() <= 1e-11 * scale


class TestRun:
    def test_step_count(self, cube2):
        res = stepper.run(cube2, make_case(zero_field, zero_field), 1 / 8, 1.0)
        assert len(res.monitors) == 9
        assert res.monitors[-1].t == pytest.approx(1.0)

    def test_tau_must_divide(self, cube2):
        with pytest.raises(ValueError, match="does not divide"):
            stepper.run(cube2, cases.case1(), 0.3, 1.0)

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
        advance = stepper.advance
        loads = []

        def recording_advance(state, ops, j_full, tol):
            loads.append((state.step, j_full))
            return advance(state, ops, j_full, tol=tol)

        monkeypatch.setattr(stepper, "advance", recording_advance)
        stepper.run(cube2, case, tau, 1.0)
        assert [step for step, _ in loads] == [0, 1, 2, 3]
        for step, j_full in loads:
            t = (step + 1) * tau
            want = vd.interpolate_edge(
                cube2, lambda p: sum(a(t) * g(p) for a, g in case.J_terms))
            assert np.abs(j_full - want).max() <= 1e-13 * np.abs(want).max()

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

        Sweeps: cube:4 with case 1 (CG reaches round-off in 5 iterations
        for tol <= 1e-5) and voro27 with case 2 (tens of iterations per
        step at tol 1e-2, over a hundred at 1e-13), so the bound is
        checked on solves that really differ.
        """
        eps = np.finfo(float).eps
        u = eps / 2
        tau = 1 / 8
        tols = [10.0**-k for k in range(2, 14)]
        advance = stepper.advance
        iterates = []

        def recording_advance(state, ops, j_full, tol):
            new, report = advance(state, ops, j_full, tol=tol)
            iterates.append(new.e)
            return new, report

        monkeypatch.setattr(stepper, "advance", recording_advance)
        for mesh, case in ((cube4, cases.case1()), (voro27, cases.case2())):
            dofs = vd.build_dofs(mesh)
            proj = vd.build_projectors(mesh)
            abs_d = abs(vd.divergence_matrix(mesh))
            abs_c = abs(vd.curl_matrix(mesh))
            root_vol = np.sqrt(mesh.cell_volumes)
            max_edges = max(len(e) for e in mesh.face_edges)
            max_faces = max(len(f) for f in mesh.cell_faces)

            def cell_norm(v):
                return float(np.linalg.norm(root_vol * v))

            b0 = stepper.init_state(step_operators(mesh, case, tau, dofs, proj),
                                    case).b
            s_0 = cell_norm(abs_d @ np.abs(dofs.expand_face(b0)))
            finals = []
            for tol in tols:
                iterates.clear()
                res = stepper.run(mesh, case, tau, 1.0, tol=tol)
                assert len(iterates) == len(res.monitors) - 1
                s_n = s_0
                for n, mon in enumerate(res.monitors):
                    if n:
                        e_m = np.abs(dofs.expand_edge(iterates[n - 1]))
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
        assert stepper.divergence_norm(cube2, d, b) <= 1e-12 * np.abs(b).max()

    def test_single_face_unit_cube(self, cube1):
        top = next(f for f in range(6)
                   if abs(cube1.face_centroids[f][2] - 1.0) < 1e-14)
        b = np.zeros(6)
        b[top] = 1.0
        d = vd.divergence_matrix(cube1)
        assert stepper.divergence_norm(cube1, d, b) == pytest.approx(1.0, rel=1e-14)

    def test_zero(self, cube1):
        d = vd.divergence_matrix(cube1)
        assert stepper.divergence_norm(cube1, d, np.zeros(6)) == 0.0

    def test_matches_per_cell_flux_loop(self, cube4, voro8, voro27, lcell):
        rng = np.random.default_rng(5)
        for mesh in (cube4, voro8, voro27, lcell):
            b = rng.standard_normal(mesh.n_faces)
            norm = stepper.divergence_norm(mesh, vd.divergence_matrix(mesh), b)
            assert norm == pytest.approx(flux_loop_norm(mesh, b), rel=1e-13), mesh.name


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
        # E(0) once, then each spatial term of J once, whatever the step count
        case = cases.get_case(case_id)
        calls = count_calls(monkeypatch, vd, "interpolate_edge")
        res = stepper.run(cube2, case, 1 / n_steps, 1.0)
        assert len(res.monitors) == n_steps + 1
        assert len(calls) == 1 + len(case.J_terms)

    def test_one_local_mass_pass_per_space(self, voro8, monkeypatch):
        edge_calls = count_calls(monkeypatch, forms, "local_edge_mass")
        face_calls = count_calls(monkeypatch, forms, "local_face_mass")
        stepper.run(voro8, cases.case2(), 0.125, 0.25)
        assert len(edge_calls) == 1
        assert len(face_calls) == 1

    def test_matrices_match_per_weight_assembly(self, voro27):
        case, tau = cases.case2(), 0.125
        dofs = vd.build_dofs(voro27)
        proj = vd.build_projectors(voro27)
        coeffs = forms.sample_coefficients(voro27, case.eps, case.sigma, case.mu)
        ops = stepper.build_step_operators(voro27, dofs, proj, coeffs, tau)

        def assemble(weights, kind, **kw):
            return forms.assemble_global(voro27, dofs, weights, kind, proj, **kw)

        m_eps = assemble(coeffs.eps_hat, "edge")
        m_sigma = assemble(coeffs.sigma_hat, "edge")
        m_face = assemble(1.0 / coeffs.mu_hat, "face")
        m_load = assemble(np.ones(voro27.n_cells), "edge",
                          restrict=False)[dofs.interior_edges].tocsr()
        curl = (ops.c_int.T @ m_face @ ops.c_int).tocsr()
        system = m_eps + tau * m_sigma + tau**2 * (0.5 * (curl + curl.T))
        for got, want in ((ops.m_eps, m_eps), (ops.m_sigma, m_sigma),
                          (ops.m_face, m_face), (ops.m_edge_load, m_load),
                          (ops.system.to_scipy(), system)):
            assert got.shape == want.shape
            assert (got != want).nnz == 0


class TestBoundaryStructure:
    def test_boundary_faces_touch_only_boundary_edges(self, cube4, voro8, voro27):
        for m in (cube4, voro8, voro27):
            dofs = vd.build_dofs(m)
            c = vd.curl_matrix(m)
            rows = np.flatnonzero(dofs.boundary_faces)
            block = c[rows][:, dofs.interior_edges]
            assert block.nnz == 0
