"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 7 and 8 assert the stated rate window / row monotonicity for both
fields.  The electric-field parts hold; the magnetic-field parts fail for
a verified reason (time- and space-error components of B cancel on coarse
(mesh, tau) pairs, dipping the total below its own space floor), so those
two tests are expected to stay red.  The README's "Known deviations"
section carries the full analysis.
"""

import time

import numpy as np
import pytest

from conftest import (block_rows, build_lcell, build_two_prisms, cell_edges,
                      constant_edge_dofs, constant_face_dofs, expand)
from vemaxwell import cases, cli, stepper
from vemaxwell import derham as vd
from vemaxwell import generate_cube_mesh, load_mesh
from conftest import DATA, free_evolution, strong_form_residual, weighted_product


def report(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="module")
def cube4m():
    return generate_cube_mesh(4)


@pytest.fixture(scope="module")
def voro(request):
    return load_mesh(DATA / "voro27.json")


@pytest.fixture(scope="module")
def convergence_rows():
    """Shared by criteria 5 and 7: the case-2 refinement diagonal."""
    rows = []
    for n, tau in [(2, "1/8"), (4, "1/16"), (8, "1/32")]:
        from fractions import Fraction
        cfg = cli.RunConfig(f"cube:{n}", 2, Fraction(tau))
        rows.append(cli.run_single(cfg))
    return rows


def test_criterion_1_discrete_exact_sequence(cube4m, voro):
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in (cube4m, voro):
        g = vd.gradient_matrix(m)
        c = vd.curl_matrix(m)
        d = vd.divergence_matrix(m)
        for _ in range(50):
            p = rng.standard_normal(m.n_vertices)
            v = rng.standard_normal(m.n_edges)
            gp, cv = g @ p, c @ v
            worst = max(worst,
                        np.abs(c @ gp).max() / np.abs(gp).max(),
                        np.abs(d @ cv).max() / np.abs(cv).max())
    ok = worst <= 1e-13
    report(f"criterion 1 (exact sequence, cube:4 + {voro.name}): "
           f"worst ratio {worst:.2e} <= 1e-13 -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_2_commuting_diagrams(cube4m):
    import sympy as sp
    from vemaxwell import geometry as vg
    t0 = time.perf_counter()
    x, y, z = sp.symbols("x y z", real=True)

    def vec(exprs):
        fns = [sp.lambdify((x, y, z), e, "numpy") for e in exprs]
        def f(p):
            return np.stack([np.broadcast_to(fn(p[..., 0], p[..., 1], p[..., 2]),
                                             p[..., 0].shape) for fn in fns], axis=-1)
        return f

    e_sym = [sp.sin(sp.pi * y) * z**2, sp.cos(x) * sp.exp(y / 2),
             x * y * z + sp.sin(z)]
    curl = [sp.diff(e_sym[2], y) - sp.diff(e_sym[1], z),
            sp.diff(e_sym[0], z) - sp.diff(e_sym[2], x),
            sp.diff(e_sym[1], x) - sp.diff(e_sym[0], y)]
    r1 = np.abs(vd.curl_matrix(cube4m) @ vd.interpolate_edge(cube4m, vec(e_sym))
                - vd.interpolate_face(cube4m, vec(curl))).max()

    v_sym = sp.sin(x) * y + sp.exp(z / 3) * sp.cos(y)
    fn = sp.lambdify((x, y, z), v_sym, "numpy")
    grad = [sp.diff(v_sym, s) for s in (x, y, z)]
    r2 = np.abs(vd.gradient_matrix(cube4m)
                @ vd.interpolate_node(cube4m, lambda p: fn(p[..., 0], p[..., 1], p[..., 2]))
                - vd.interpolate_edge(cube4m, vec(grad))).max()

    b_sym = [sp.sin(sp.pi * y) * z, sp.cos(x) * y, sp.exp(x / 2) + z * y]
    div_fn = sp.lambdify((x, y, z),
                         sum(sp.diff(b_sym[i], s) for i, s in enumerate((x, y, z))),
                         "numpy")
    avg = np.empty(cube4m.n_cells)
    for k in range(cube4m.n_cells):
        rule = vg.cell_quadrature(cube4m, k, 12)
        avg[k] = (rule.weights @ div_fn(rule.points[:, 0], rule.points[:, 1],
                                        rule.points[:, 2])) / cube4m.cell_volumes[k]
    r3 = np.abs(vd.divergence_matrix(cube4m)
                @ vd.interpolate_face(cube4m, vec(b_sym)) - avg).max()

    wall = time.perf_counter() - t0
    ok = max(r1, r2, r3) <= 1e-9 and wall < 10.0
    report(f"criterion 2 (commuting diagrams): curl {r1:.2e}, grad {r2:.2e}, "
           f"div {r3:.2e} <= 1e-9, {wall:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert max(r1, r2, r3) <= 1e-9
    assert wall < 10.0


def test_criterion_3_projector_consistency(cube4m):
    meshes = [cube4m, build_two_prisms(), build_lcell(),
              load_mesh(DATA / "voro8.json")]
    c = np.array([0.7, -0.4, 1.2])
    g = np.array([1.0, -2.0, 3.0])
    worst = 0.0
    for m in meshes:
        proj = vd.build_projectors(m)
        for k in range(m.n_cells):
            te = m.edge_tangents[cell_edges(m, k)]
            pe = block_rows(proj.edge_cell, k, cell_edges(m, k))
            worst = max(worst, np.abs(pe @ (te @ c) - c).max())
            worst = max(worst, np.abs(pe @ (te @ g) - g).max())
            nf = m.face_normals[m.cell_faces[k]]
            pf = block_rows(proj.face_cell, k, m.cell_faces[k])
            worst = max(worst, np.abs(pf @ (nf @ c) - c).max())
        for f in range(m.n_faces):
            n = m.face_normals[f]
            ct = c - (c @ n) * n
            dofs = m.edge_tangents[m.face_edges[f]] @ ct
            pt = block_rows(proj.face_tangential, f, m.face_edges[f])
            worst = max(worst, np.abs(pt @ dofs - ct).max())
    ok = worst <= 1e-12
    report(f"criterion 3 (projector consistency on cube/prism/nonconvex/voro): "
           f"worst error {worst:.2e} <= 1e-12 -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_4_discrete_product_contracts(cube4m, voro):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    c1v = np.array([0.9, 0.1, -0.6])
    c2v = np.array([-0.2, 1.1, 0.4])
    worst_cons = 0.0
    sym_exact = True
    pd_ok = True
    for m in (cube4m, voro):
        proj = vd.build_projectors(m)
        for kind, mk_dofs in (("edge", constant_edge_dofs),
                              ("face", constant_face_dofs)):
            mat = weighted_product(m, proj, np.ones(m.n_cells), kind)
            u, v = mk_dofs(m, c1v), mk_dofs(m, c2v)
            exact = (c1v @ c2v) * m.cell_volumes.sum()
            worst_cons = max(worst_cons, abs(u @ (mat @ v) - exact) / abs(exact))
            diff = mat - mat.T
            sym_exact &= (diff.nnz == 0 or np.abs(diff.data).max() == 0.0)
            # on all DOFs, so also on the interior ones a run keeps
            for _ in range(100):
                xvec = rng.standard_normal(mat.shape[0])
                pd_ok &= bool(xvec @ (mat @ xvec) > 0.0)
    wall = time.perf_counter() - t0
    ok = worst_cons <= 1e-12 and sym_exact and pd_ok and wall < 30.0
    report(f"criterion 4 (product contracts): consistency {worst_cons:.2e} "
           f"<= 1e-12, symmetry exact: {sym_exact}, positive definite: {pd_ok}, "
           f"{wall:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_5_divergence_free_induction(cube4m):
    t0 = time.perf_counter()
    res = stepper.run(cube4m, cases.case1(), 1 / 8, 1.0, tol=1e-12)
    div = res.monitors[-1].div_b
    wall = time.perf_counter() - t0
    ok = div <= 1e-9 and wall < 60.0
    report(f"criterion 5 (div-free induction, case 1, cube:4, tau=1/8): "
           f"|div B_h(T)| = {div:.2e} <= 1e-9, {wall:.1f}s -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_6_energy_dissipation(cube4m):
    t0 = time.perf_counter()

    def e0(p):
        out = np.zeros(np.asarray(p).shape)
        out[..., 2] = np.sin(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])
        return out

    def b0(p):
        out = np.zeros(np.asarray(p).shape)
        out[..., 0] = -np.cos(np.pi * p[..., 1]) * np.sin(np.pi * p[..., 0])
        out[..., 1] = np.cos(np.pi * p[..., 0]) * np.sin(np.pi * p[..., 1])
        return out / 2.2

    c2 = cases.case2()      # variable coefficients with sigma >= 0
    free = free_evolution(c2, e0, b0)
    res = stepper.run(cube4m, free, 1 / 16, 1.0)
    energies = [m.energy for m in res.monitors]
    monotone = all(b <= a for a, b in zip(energies, energies[1:]))
    wall = time.perf_counter() - t0
    ok = monotone and len(energies) == 17 and wall < 60.0
    report(f"criterion 6 (energy dissipation, J=0, 16 steps): monotone "
           f"{monotone}, E0={energies[0]:.4f} -> E16={energies[-1]:.4f}, "
           f"{wall:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_7_convergence_rate(convergence_rows):
    rows = convergence_rows
    rate_e = float(np.log2(rows[1].err_E / rows[2].err_E))
    rate_b = float(np.log2(rows[1].err_B / rows[2].err_B))
    ok_e = 0.8 <= rate_e <= 1.3
    ok_b = 0.8 <= rate_b <= 1.3
    status_e = "PASS" if ok_e else "FAIL"
    status_b = ("PASS" if ok_b else
                "FAIL (known: B time/space error cancellation at "
                "(cube:4, 1/16); see README, Known deviations)")
    errs_e = [f"{r.err_E:.4f}" for r in rows]
    errs_b = [f"{r.err_B:.4f}" for r in rows]
    report("criterion 7 (case-2 simultaneous refinement, cube:2/4/8, "
           "tau=1/8,1/16,1/32):\n"
           f"  errors E: {errs_e}  B: {errs_b}\n"
           f"  finest-pair rate E = {rate_e:.3f} in [0.8, 1.3] -> {status_e}\n"
           f"  finest-pair rate B = {rate_b:.3f} in [0.8, 1.3] -> {status_b}")
    assert ok_e, f"E rate {rate_e:.3f} outside [0.8, 1.3]"
    assert ok_b, f"B rate {rate_b:.3f} outside [0.8, 1.3]"


def test_criterion_8_row_monotonicity(cube4m):
    t0 = time.perf_counter()
    errs_e, errs_b = [], []
    for tau_inv in (8, 16, 32, 64):
        res = stepper.run(cube4m, cases.case2(), 1 / tau_inv, 1.0)
        ops = res.ops
        rep = cases.l2_error(cube4m, ops.projectors,
                             expand(res.state.e, ops.interior_edges, cube4m.n_edges),
                             expand(res.state.b, ops.interior_faces, cube4m.n_faces),
                             cases.case2(), 1.0)
        errs_e.append(rep.err_E)
        errs_b.append(rep.err_B)
    mono_e = all(b <= a for a, b in zip(errs_e, errs_e[1:]))
    mono_b = all(b <= a for a, b in zip(errs_b, errs_b[1:]))
    wall = time.perf_counter() - t0
    status_e = "PASS" if mono_e else "FAIL"
    status_b = ("PASS" if mono_b else
                "FAIL (known: B error is non-monotone in tau on this mesh; "
                "published coarse-mesh results show the same; see "
                "README, Known deviations)")
    fmt_e = [f"{v:.4f}" for v in errs_e]
    fmt_b = [f"{v:.4f}" for v in errs_b]
    report("criterion 8 (fixed cube:4 row, tau=1/8..1/64, case 2):\n"
           f"  err_E: {fmt_e} non-increasing: {status_e}\n"
           f"  err_B: {fmt_b} non-increasing: {status_b}  [{wall:.0f}s]")
    assert wall < 300.0
    assert mono_e, f"err_E row not monotone: {errs_e}"
    assert mono_b, f"err_B row not monotone: {errs_b}"


def test_criterion_9_manufactured_case_self_check():
    t0 = time.perf_counter()
    r1 = strong_form_residual(cases.case1(), 1000)
    r2 = strong_form_residual(cases.case2(), 1000)

    rng = np.random.default_rng(13)
    worst_trace = 0.0
    for case in (cases.case1(), cases.case2()):
        for axis in range(3):
            for wall_pos in (0.0, 1.0):
                p = rng.random((1700, 3))
                p[:, axis] = wall_pos
                ts = rng.random(1700)
                n = np.zeros(3)
                n[axis] = 1.0
                worst_trace = max(worst_trace,
                                  np.abs(np.cross(case.E(p, ts), n)).max(),
                                  np.abs(case.B(p, ts) @ n).max())

    # solenoidality via fourth-order finite differences
    pts = rng.random((100, 3))
    ts = rng.random(100)
    worst_div = 0.0
    for case in (cases.case1(), cases.case2()):
        div = np.zeros(100)
        h = 1e-4
        for a, e in enumerate(np.eye(3)):
            d = (-case.B(pts + 2 * h * e, ts) + 8 * case.B(pts + h * e, ts)
                 - 8 * case.B(pts - h * e, ts) + case.B(pts - 2 * h * e, ts)) / (12 * h)
            div += d[:, a]
        worst_div = max(worst_div, np.abs(div).max())

    wall = time.perf_counter() - t0
    ok = (r1 <= 1e-8 and r2 <= 1e-8 and worst_trace <= 1e-12
          and worst_div <= 1e-10 and wall < 10.0)
    report(f"criterion 9 (manufactured-case self-check): residuals "
           f"{r1:.2e}/{r2:.2e} <= 1e-8, traces {worst_trace:.2e} <= 1e-12, "
           f"div {worst_div:.2e} <= 1e-10, {wall:.1f}s -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert ok
