"""Every matrix the package builds, rebuilt through ``scipy.sparse`` with
the expressions that built it before ``linalg.SparseMatrix`` held them:
the two must agree bit for bit, index arrays (values and type) and values
alike.  ``linalg.SparseMatrix`` calls scipy's own CSR kernels in scipy's
order, so a difference here is a kernel called out of turn, and the step
loop's products would round differently.
"""

import numpy as np
import pytest
import scipy.sparse as sps

from conftest import scipy_csr
from vemaxwell import cases, derham, forms, linalg, stepper

MESHES = ["cube4", "lcell", "voro8", "agglo4"]
TAU = 1.0 / 16            # the hybrid preconditioner is on, where there are interior edges


def coo(rows, cols, vals, shape):
    return sps.csr_matrix((vals, (rows, cols)), shape=shape)


def block(rows, cols, blocks, shape):
    _, a, b = blocks.shape
    r, c = np.broadcast_arrays(a * np.asarray(rows)[:, None, None] + np.arange(a)[:, None],
                               b * np.asarray(cols)[:, None, None] + np.arange(b))
    return coo(r.ravel(), c.ravel(), blocks.ravel(), shape)


def incidence(m):
    inv_len = 1.0 / m.edge_lengths
    g = coo(np.repeat(np.arange(m.n_edges), 2), m.edges.ravel(),
            np.stack([-inv_len, inv_len], axis=1).ravel(), (m.n_edges, m.n_vertices))
    rows, cols = m.face_edges.owners, m.face_edges.flat
    c = coo(rows, cols, m.face_edge_signs.flat * m.edge_lengths[cols] / m.face_areas[rows],
            (m.n_faces, m.n_edges))
    rows, cols = m.cell_faces.owners, m.cell_faces.flat
    d = coo(rows, cols, m.cell_face_signs.flat * m.face_areas[cols] / m.cell_volumes[rows],
            (m.n_cells, m.n_faces))
    return g, c, d


def projectors(m):
    nf, nc, ne = m.n_faces, m.n_cells, m.n_edges
    faces, eids = m.face_edges.owners, m.face_edges.flat
    arm = m.edge_midpoints[eids] - m.face_centroids[faces]
    tangential = (m.face_edge_signs.flat[:, None] * m.edge_lengths[eids, None]
                  * np.cross(m.face_normals[faces], arm) / m.face_areas[faces, None])
    face_tangential = block(faces, eids, tangential[:, :, None], (3 * nf, ne))
    cells, fids, signs = m.cell_faces.owners, m.cell_faces.flat, m.cell_face_signs.flat
    r = m.face_centroids[fids] - m.cell_centroids[cells]
    n_out = signs[:, None] * m.face_normals[fids]
    combine = (np.einsum("ij,ij->i", n_out, r)[:, None, None] * np.eye(3)
               - n_out[:, :, None] * r[:, None, :])
    combine *= (m.face_areas[fids] / (2.0 * m.cell_volumes[cells]))[:, None, None]
    edge_cell = block(cells, fids, combine, (3 * nc, 3 * nf)) @ face_tangential
    face_mean = (signs * m.face_areas[fids])[:, None] * r / m.cell_volumes[cells, None]
    return face_tangential, edge_cell, block(cells, fids, face_mean[:, :, None], (3 * nc, nf))


def sqrt_scaled(f, w):
    return sps.csr_matrix((f.data * np.repeat(np.sqrt(w), np.diff(f.indptr)),
                           f.indices, f.indptr), shape=f.shape)


def local_factors(m, p, cells, ids, directions, stab):
    pairs = np.arange(cells.size)
    select = coo(pairs, ids, np.ones(pairs.size), (pairs.size, p.shape[1]))
    dofs_of_mean = block(pairs, cells, directions[:, None, :], (pairs.size, p.shape[0]))
    f = sps.vstack([p, select - dofs_of_mean @ p], format="csr")
    return sqrt_scaled(f, np.concatenate([np.repeat(m.cell_volumes, 3), stab]))


def edge_factor(m, edge_cell, eta):
    cell_faces, face_edges = m.cell_faces, m.face_edges
    mult = (coo(cell_faces.owners, cell_faces.flat, np.ones(cell_faces.flat.size),
                (m.n_cells, m.n_faces))
            @ coo(face_edges.owners, face_edges.flat, np.ones(face_edges.flat.size),
                  (m.n_faces, m.n_edges))).tocoo()
    s = m.cell_diameters[mult.row] ** 2 * mult.data * m.edge_lengths[mult.col]
    return local_factors(m, edge_cell, mult.row, mult.col, m.edge_tangents[mult.col], eta * s)


def face_factor(m, face_cell, eta):
    cells, fids = m.cell_faces.owners, m.cell_faces.flat
    s = m.cell_diameters[cells] * m.face_areas[fids]
    return local_factors(m, face_cell, cells, fids, m.face_normals[fids], eta * s)


def gram(f, w):
    h = sqrt_scaled(f, w)
    return (h.T @ h).tocsr()


def step_operators(m, local, coefficients, tau):
    """The step matrices from the package's own factors and row weights,
    which the factor comparison checks on their own."""
    ie, if_ = np.flatnonzero(~m.boundary_edges), np.flatnonzero(~m.boundary_faces)
    g, c, d = incidence(m)
    c_ie = c[:, ie].tocsr()
    c_int = c_ie[if_]
    face, edge = local
    w_face = face.weighted(1.0 / coefficients.mu_hat)
    f_face, f_all = scipy_csr(face.f), scipy_csr(edge.f)
    f_edge = f_all[:, ie]
    eps, sigma = coefficients.eps_hat, coefficients.sigma_hat
    w_system = edge.weighted(eps + tau * sigma)
    m_eps = gram(f_edge, edge.weighted(eps))
    system = gram(f_edge, w_system) + tau**2 * gram(f_face @ c_ie, w_face)
    system.sort_indices()
    system.sum_duplicates()
    precond = None
    if ie.size:
        g_int = g[ie][:, np.flatnonzero(~m.boundary_vertices)].tocsr()
        fg = f_edge @ g_int
        np.square(fg.data, out=fg.data)
        diag_l = fg.T @ w_system
        h_t = sps.diags(1.0 / np.sqrt(diag_l)) @ g_int.T
        precond = (sps.diags(1.0 / system.diagonal()) + h_t.T @ h_t).tocsr()
    return dict(curl_mass=sps.vstack([c_int, m_eps], format="csr"),
                face_mass_div=sps.vstack([gram(f_face[:, if_], w_face), d[:, if_]],
                                         format="csr"),
                m_edge_load=(f_edge.T @ f_all).tocsr(), c_int_t=c_int.T.tocsr(),
                system=system, precond=precond)


def assert_same(ours, ref):
    assert isinstance(ours, linalg.SparseMatrix) and ref.format == "csr"
    assert ours.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(ours, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("name", MESHES)
def test_every_matrix_is_scipys_bit_for_bit(name, request):
    m = request.getfixturevalue(name)
    ops = derham.build_incidence(m)
    for ours, ref in zip((ops.G, ops.C, ops.D), incidence(m)):
        assert_same(ours, ref)
    proj = derham.build_projectors(m)
    ref_proj = projectors(m)
    for ours, ref in zip((proj.face_tangential, proj.edge_cell, proj.face_cell), ref_proj):
        assert_same(ours, ref)

    stab = forms.StabWeights()
    local = (forms.local_face_mass(m, proj, stab), forms.local_edge_mass(m, proj, stab))
    assert_same(local[0].f, face_factor(m, ref_proj[2], stab.eta_face))
    assert_same(local[1].f, edge_factor(m, ref_proj[1], stab.eta_edge))

    case = cases.case2()
    coefficients = forms.sample_coefficients(m, case.eps, case.sigma, case.mu)
    ops = stepper.build_step_operators(m, proj, coefficients, TAU, stab)
    ref_ops = step_operators(m, local, coefficients, TAU)
    assert (ops.precond is None) == (ref_ops["precond"] is None) == (name == "lcell")
    for field, ref in ref_ops.items():
        if ref is not None:
            assert_same(getattr(ops, field), ref)
