# Generated by python tests/case_source.py with sympy 1.14.0; do not edit.
"""Closed-form fields of the manufactured cases as numpy functions.

Spatial parts map (x, y, z) to a 3-tuple and time factors map t to
a value.  In ``CASE1``/``CASE2``, ``E`` and ``B`` give the time
factors of their terms, ``EB`` maps (x, y, z) to the spatial parts
of all E terms and of all B terms at once, each distinct sin/cos
evaluated once, and ``J`` gives the current's terms.  Case 1's
parts are sums of products of one-dimensional factors, each one
a local named coordinate first (``y_dq`` is q'(y), with
q(u) = u^2 (1 - u)^2 and S(u) = sin^2(pi u)), computed just
before its first use and deleted after its last.  A product
lists its factors by coordinate, the coordinate with the most
factors first.
"""

from numpy import cos, pi, sin


def case1_eps(x, y, z):
    return 1


def case1_sigma(x, y, z):
    return 1


def case1_mu(x, y, z):
    return 1


def case1_time0(t):
    return t


def case1_time1(t):
    return t**2


def case1_time2(t):
    return -1/2*t**2


def case1_EB(x, y, z):
    x0 = sin(pi*x)
    x1 = sin(pi*y)
    x2 = sin(pi*z)
    x3 = cos(pi*x)
    x4 = cos(pi*y)
    x5 = cos(pi*z)
    y_d2q = 2*(6*y**2 - 6*y + 1)
    y_q = y**2*(y - 1)**2
    z_d2q = 2*(6*z**2 - 6*z + 1)
    z_q = z**2*(z - 1)**2
    B0_x = 4*pi*x*(x - 1)*(2*x - 1)*x1*x4*z_q + 4*pi*x*(x - 1)*(2*x - 1)*x2*x5*y_q - x0**2*y_d2q*z_q - x0**2*y_q*z_d2q
    x_d2q = 2*(6*x**2 - 6*x + 1)
    x_q = x**2*(x - 1)**2
    B0_y = 4*pi*y*(y - 1)*(2*y - 1)*x0*x3*z_q - x_d2q*x1**2*z_q - x_q*x1**2*z_d2q + 4*pi*y*(y - 1)*(2*y - 1)*x2*x5*x_q
    del z_d2q
    E0_z = 2*x*(x - 1)*(2*x - 1)*x1**2*z_q - 2*y*(y - 1)*(2*y - 1)*x0**2*z_q
    del z_q
    B0_z = 4*pi*z*(z - 1)*(2*z - 1)*x0*x3*y_q + 4*pi*z*(z - 1)*(2*z - 1)*x1*x4*x_q - x_d2q*y_q*x2**2 - x_q*y_d2q*x2**2
    del x_d2q, y_d2q
    E0_x = -2*z*(z - 1)*(2*z - 1)*x_q*x1**2 + 2*y*(y - 1)*(2*y - 1)*x_q*x2**2
    del x_q
    E0_y = -2*x*(x - 1)*(2*x - 1)*y_q*x2**2 + 2*z*(z - 1)*(2*z - 1)*x0**2*y_q
    del y_q
    return ((E0_x, E0_y, E0_z), (pi*x3*x1*x2, pi*x0*x4*x2, pi*x0*x1*x5)), ((B0_x, B0_y, B0_z),)


def case1_space0(x, y, z):
    x0 = sin(pi*x)
    x1 = sin(pi*y)
    x2 = sin(pi*z)
    x_q = x**2*(x - 1)**2
    g_x = -2*z*(z - 1)*(2*z - 1)*x_q*x1**2 + 2*y*(y - 1)*(2*y - 1)*x_q*x2**2
    del x_q
    y_q = y**2*(y - 1)**2
    g_y = -2*x*(x - 1)*(2*x - 1)*y_q*x2**2 + 2*z*(z - 1)*(2*z - 1)*x0**2*y_q
    del y_q
    z_q = z**2*(z - 1)**2
    g_z = 2*x*(x - 1)*(2*x - 1)*x1**2*z_q - 2*y*(y - 1)*(2*y - 1)*x0**2*z_q
    return (g_x, g_y, g_z)


def case1_time3(t):
    return 1


def case1_space1(x, y, z):
    x0 = sin(pi*x)
    x1 = sin(pi*y)
    x2 = sin(pi*z)
    x3 = cos(pi*x)
    x4 = cos(pi*y)
    x5 = cos(pi*z)
    return (pi*x3*x1*x2, pi*x0*x4*x2, pi*x0*x1*x5)


def case1_space2(x, y, z):
    x0 = sin(pi*x)
    x1 = sin(pi*y)
    x2 = sin(pi*z)
    x3 = cos(pi*x)
    x4 = cos(pi*y)
    x5 = cos(pi*z)
    x_d2q = 2*(6*x**2 - 6*x + 1)
    x_q = x**2*(x - 1)**2
    g_x = 2*z*(z - 1)*(2*z - 1)*x_d2q*x1**2 + 12*x_q*x1**2*(2*z - 1) - 2*y*(y - 1)*(2*y - 1)*x_d2q*x2**2 - 12*x_q*(2*y - 1)*x2**2 - 4*pi**2*y*(y - 1)*(2*y - 1)*(x2 + x5)*(-x2 + x5)*x_q + 4*pi**2*z*(z - 1)*(2*z - 1)*(x1 + x4)*(-x1 + x4)*x_q
    del x_d2q, x_q
    y_d2q = 2*(6*y**2 - 6*y + 1)
    y_q = y**2*(y - 1)**2
    g_y = 2*x*(x - 1)*(2*x - 1)*y_d2q*x2**2 + 4*pi**2*x*(x - 1)*(2*x - 1)*(x2 + x5)*(-x2 + x5)*y_q - 2*z*(z - 1)*(2*z - 1)*x0**2*y_d2q - 12*x0**2*y_q*(2*z - 1) + 12*(2*x - 1)*y_q*x2**2 - 4*pi**2*z*(z - 1)*(2*z - 1)*(x0 + x3)*(-x0 + x3)*y_q
    del y_d2q, y_q
    z_d2q = 2*(6*z**2 - 6*z + 1)
    z_q = z**2*(z - 1)**2
    g_z = -2*x*(x - 1)*(2*x - 1)*x1**2*z_d2q - 4*pi**2*x*(x - 1)*(2*x - 1)*(x1 + x4)*(-x1 + x4)*z_q + 2*y*(y - 1)*(2*y - 1)*x0**2*z_d2q + 12*x0**2*(2*y - 1)*z_q - 12*(2*x - 1)*x1**2*z_q + 4*pi**2*y*(y - 1)*(2*y - 1)*(x0 + x3)*(-x0 + x3)*z_q
    return (g_x, g_y, g_z)


def case2_eps(x, y, z):
    return -x**2 - z + 2


def case2_sigma(x, y, z):
    return -y**2 + z + 2


def case2_mu(x, y, z):
    return (x**2 + y**2 + z**2 + 1)**(-1.0)


def case2_time0(t):
    return cos((11/5)*pi*t)


def case2_time1(t):
    return (5/11)*sin((11/5)*pi*t)


def case2_EB(x, y, z):
    x0 = sin(pi*x)
    x1 = sin(pi*y)
    x2 = cos(pi*x)
    x3 = cos(pi*y)
    return ((0, 0, x0*x1),), ((-x0*x3, x1*x2, 0),)


def case2_space0(x, y, z):
    x0 = sin(pi*x)
    x1 = sin(pi*y)
    return (0, 0, x0*x1)


def case2_space1(x, y, z):
    x0 = sin(pi*x)
    x1 = sin(pi*y)
    x2 = cos(pi*x)
    x3 = cos(pi*y)
    return (-2*x1*x2*z, -2*x0*x3*z, 2*x*x1*x2 - 2*pi*x0*x1*(x**2 + y**2 + z**2 + 1) + 2*x0*x3*y)


def case2_time2(t):
    return sin((11/5)*pi*t)


CASE1 = {
    'eps': case1_eps,
    'sigma': case1_sigma,
    'mu': case1_mu,
    'E': (case1_time0, case1_time1),
    'B': (case1_time2,),
    'EB': case1_EB,
    'J': (
        (case1_time3, ((1.0, 'eps', case1_space0),)),
        (case1_time0, ((2.0, 'eps', case1_space1), (1.0, 'sigma', case1_space0))),
        (case1_time1, ((1.0, 'sigma', case1_space1), (0.5, None, case1_space2))),
    ),
}


CASE2 = {
    'eps': case2_eps,
    'sigma': case2_sigma,
    'mu': case2_mu,
    'E': (case2_time0,),
    'B': (case2_time1,),
    'EB': case2_EB,
    'J': (
        (case2_time2, ((-6.911503837897545, 'eps', case2_space0), (-0.45454545454545453, None, case2_space1))),
        (case2_time0, ((1.0, 'sigma', case2_space0),)),
    ),
}
