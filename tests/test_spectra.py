"""The discrete Maxwell eigenproblem on the edge space.

The de Rham inequalities behind the method say, in discrete form, that
the curl-curl pencil ``(C_i' M_f C_i, M_e)`` with unit coefficients has
exactly the discrete gradients as its kernel and no spurious eigenvalue
between that kernel and the physical spectrum, with a first eigenvalue
that converges as h -> 0.  On the PEC unit cube the exact first
eigenvalue is 2 pi^2.  The grad-div pencil ``(D_i' diag|K| D_i, M_f)``
on interior faces likewise has exactly the discrete curls as its kernel
and a first eigenvalue bounded below, which converges to pi^2.  The
pencils are built from ``assemble_global`` and the incidence matrices as
a run builds them, and solved densely.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps

from conftest import scipy_csr, weighted_product
from vemaxwell import derham as vd
from vemaxwell import generate_cube_mesh

# An eigenvalue at most this fraction of the largest counts as kernel;
# the kernel sits below 1e-15 of it on every mesh here.
KERNEL_RTOL = 1e-12
LAMBDA_EXACT = 2.0 * np.pi**2


def spectrum(mesh):
    """Generalized eigenvalues of (C_i' M_f C_i, M_e), ascending, and the
    number of interior nodes."""
    ie, if_ = np.flatnonzero(~mesh.boundary_edges), np.flatnonzero(~mesh.boundary_faces)
    proj = vd.build_projectors(mesh)
    ones = np.ones(mesh.n_cells)
    m_e = weighted_product(mesh, proj, ones, "edge")[ie][:, ie]
    m_f = weighted_product(mesh, proj, ones, "face")[if_][:, if_]
    c = scipy_csr(vd.curl_matrix(mesh))[if_][:, ie]
    lam = sla.eigh((c.T @ m_f @ c).toarray(), m_e.toarray(), eigvals_only=True)
    return lam, int(np.count_nonzero(~mesh.boundary_vertices))


def split(lam):
    """(kernel eigenvalues, the rest)."""
    n = int(np.count_nonzero(lam <= KERNEL_RTOL * lam[-1]))
    return lam[:n], lam[n:]


@pytest.mark.parametrize("name, interior_nodes",
                         [("cube2", 1), ("cube4", 27), ("voro8", 7), ("voro27", 52),
                          ("agglo4", 27)])
def test_kernel_is_the_gradients_and_no_mode_below_lambda_1(name, interior_nodes, request):
    lam, n_nodes = spectrum(request.getfixturevalue(name))
    kernel, rest = split(lam)
    assert n_nodes == interior_nodes
    assert kernel.size == interior_nodes
    assert np.abs(kernel).max() <= KERNEL_RTOL * lam[-1]
    # no spurious mode between the kernel and the first physical eigenvalue
    assert rest[0] >= LAMBDA_EXACT


def test_first_eigenvalue_converges():
    first = np.array([split(spectrum(generate_cube_mesh(n))[0])[1][0]
                      for n in (4, 6, 8)]) / np.pi**2
    assert first == pytest.approx([2.649, 2.274, 2.1515], abs=1e-3)
    assert np.all(np.diff(first) < 0) and np.all(first > 2.0)
    excess = first - 2.0
    rates = np.log(excess[:-1] / excess[1:]) / np.log([6 / 4, 8 / 6])
    assert rates.min() >= 1.8


def div_spectrum(mesh):
    """Generalized eigenvalues of (D_i' diag|K| D_i, M_f), ascending."""
    if_ = np.flatnonzero(~mesh.boundary_faces)
    m_f = weighted_product(mesh, vd.build_projectors(mesh), np.ones(mesh.n_cells), "face")
    d = scipy_csr(vd.divergence_matrix(mesh))[:, if_]
    k = d.T @ sps.diags(mesh.cell_volumes) @ d
    return sla.eigh(k.toarray(), m_f[if_][:, if_].toarray(), eigvals_only=True)


@pytest.mark.parametrize("name", ["cube2", "cube4", "cube6", "voro8", "voro27", "agglo4"])
def test_div_kernel_is_the_curls_and_first_eigenvalue_bounded(name, request):
    # bounds stated before measuring: by the exact sequence the kernel is
    # the curls of interior edge functions, of dimension n_ie - n_iv, and D
    # maps onto the zero-mean cell constants; the first nonzero eigenvalue
    # is at least pi^2 / 2 on every mesh
    m = generate_cube_mesh(6) if name == "cube6" else request.getfixturevalue(name)
    kernel, rest = split(div_spectrum(m))
    n_ie = np.count_nonzero(~m.boundary_edges)
    n_iv = np.count_nonzero(~m.boundary_vertices)
    assert kernel.size == n_ie - n_iv
    assert rest.size == m.n_cells - 1
    assert rest[0] >= np.pi**2 / 2


def test_first_div_eigenvalue_rises():
    first = [split(div_spectrum(generate_cube_mesh(n)))[1][0] for n in (2, 4, 6)]
    assert np.all(np.diff(first) > 0)
