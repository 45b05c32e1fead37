# Generated by python tests/case_source.py with sympy 1.14.0; do not edit.
"""Closed-form fields of the manufactured cases as numpy functions.

Spatial parts map (x, y, z) to a 3-tuple and time factors map t to
a value.  In ``CASE1``/``CASE2``, ``E`` and ``B`` give the time
factors of their terms, ``EB`` maps (x, y, z) to the spatial parts
of all E terms and of all B terms at once, and ``J`` gives the
current's terms.  Every sin(pi u) and cos(pi u) of a coordinate u
is a local (``x_s``, ``x_c``) computed from t = tan(pi u / 2) by
the half-angle forms t w and w - 1, with w = 2 / (1 + t^2).
Case 1's parts are sums of products of one-dimensional factors,
collected by the factors of one coordinate: S(u) = sin^2(pi u),
and q(u) = u^2 (1 - u)^2 and its derivatives written in powers of
p(u) = u (u - 1), a local named coordinate first (``y_p``)
computed just before its first use and deleted after its last.
A product lists its factors by coordinate, the coordinate with
the most factors first.
"""

from numpy import cos, pi, sin, tan


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
    x_t = tan((1/2)*pi*x)
    x_w = 2/(x_t**2 + 1)
    x_s = x_t*x_w
    x_c = x_w - 1
    del x_t, x_w
    y_t = tan((1/2)*pi*y)
    y_w = 2/(y_t**2 + 1)
    y_s = y_t*y_w
    y_c = y_w - 1
    del y_t, y_w
    z_t = tan((1/2)*pi*z)
    z_w = 2/(z_t**2 + 1)
    z_s = z_t*z_w
    z_c = z_w - 1
    del z_t, z_w
    x_p = x*(x - 1)
    y_p = y*(y - 1)
    z_p = z*(z - 1)
    E0_x = 2*(y_p*(2*y - 1)*z_s**2 - z_p*(2*z - 1)*y_s**2)*x_p**2
    E0_y = 2*(z_p*(2*z - 1)*x_s**2 - x_p*(2*x - 1)*z_s**2)*y_p**2
    B0_x = 4*pi*(y_c*y_s*z_p**2 + z_c*z_s*y_p**2)*x_p*(2*x - 1) - 2*(y_p**2*(6*z_p + 1) + (6*y_p + 1)*z_p**2)*x_s**2
    B0_y = 4*pi*(x_c*x_s*z_p**2 + z_c*z_s*x_p**2)*y_p*(2*y - 1) - 2*(x_p**2*(6*z_p + 1) + (6*x_p + 1)*z_p**2)*y_s**2
    B0_z = 4*pi*(x_c*x_s*y_p**2 + y_c*y_s*x_p**2)*z_p*(2*z - 1) - 2*(x_p**2*(6*y_p + 1) + (6*x_p + 1)*y_p**2)*z_s**2
    E0_z = 2*(x_p*(2*x - 1)*y_s**2 - y_p*(2*y - 1)*x_s**2)*z_p**2
    del x_p, y_p, z_p
    return ((E0_x, E0_y, E0_z), (pi*x_c*y_s*z_s, pi*x_s*y_c*z_s, pi*x_s*y_s*z_c)), ((B0_x, B0_y, B0_z),)


def case1_space0(x, y, z):
    x_t = tan((1/2)*pi*x)
    x_w = 2/(x_t**2 + 1)
    x_s = x_t*x_w
    del x_t, x_w
    y_t = tan((1/2)*pi*y)
    y_w = 2/(y_t**2 + 1)
    y_s = y_t*y_w
    del y_t, y_w
    z_t = tan((1/2)*pi*z)
    z_w = 2/(z_t**2 + 1)
    z_s = z_t*z_w
    del z_t, z_w
    x_p = x*(x - 1)
    y_p = y*(y - 1)
    z_p = z*(z - 1)
    g_x = 2*(y_p*(2*y - 1)*z_s**2 - z_p*(2*z - 1)*y_s**2)*x_p**2
    g_y = 2*(z_p*(2*z - 1)*x_s**2 - x_p*(2*x - 1)*z_s**2)*y_p**2
    g_z = 2*(x_p*(2*x - 1)*y_s**2 - y_p*(2*y - 1)*x_s**2)*z_p**2
    return (g_x, g_y, g_z)


def case1_time3(t):
    return 1


def case1_space1(x, y, z):
    x_t = tan((1/2)*pi*x)
    x_w = 2/(x_t**2 + 1)
    x_s = x_t*x_w
    x_c = x_w - 1
    del x_t, x_w
    y_t = tan((1/2)*pi*y)
    y_w = 2/(y_t**2 + 1)
    y_s = y_t*y_w
    y_c = y_w - 1
    del y_t, y_w
    z_t = tan((1/2)*pi*z)
    z_w = 2/(z_t**2 + 1)
    z_s = z_t*z_w
    z_c = z_w - 1
    del z_t, z_w
    return (pi*x_c*y_s*z_s, pi*x_s*y_c*z_s, pi*x_s*y_s*z_c)


def case1_space2(x, y, z):
    x_t = tan((1/2)*pi*x)
    x_w = 2/(x_t**2 + 1)
    x_s = x_t*x_w
    x_c = x_w - 1
    del x_t, x_w
    y_t = tan((1/2)*pi*y)
    y_w = 2/(y_t**2 + 1)
    y_s = y_t*y_w
    y_c = y_w - 1
    del y_t, y_w
    z_t = tan((1/2)*pi*z)
    z_w = 2/(z_t**2 + 1)
    z_s = z_t*z_w
    z_c = z_w - 1
    del z_t, z_w
    x_p = x*(x - 1)
    y_p = y*(y - 1)
    z_p = z*(z - 1)
    g_x = 4*(3*y_s**2*(2*z - 1) + pi**2*(y_c + y_s)*(y_c - y_s)*z_p*(2*z - 1) - pi**2*y_p*(2*y - 1)*(z_c + z_s)*(z_c - z_s) - 3*(2*y - 1)*z_s**2)*x_p**2 + 2*(z_p*(2*z - 1)*y_s**2 - y_p*(2*y - 1)*z_s**2)*(12*x_p + 2)
    g_y = 4*(pi**2*x_p*(2*x - 1)*(z_c + z_s)*(z_c - z_s) + 3*(2*x - 1)*z_s**2 - 3*x_s**2*(2*z - 1) - pi**2*(x_c + x_s)*(x_c - x_s)*z_p*(2*z - 1))*y_p**2 + 2*(x_p*(2*x - 1)*z_s**2 - z_p*(2*z - 1)*x_s**2)*(12*y_p + 2)
    g_z = 2*(y_p*(2*y - 1)*x_s**2 - x_p*(2*x - 1)*y_s**2)*(12*z_p + 2) + 4*(3*x_s**2*(2*y - 1) + pi**2*(x_c + x_s)*(x_c - x_s)*y_p*(2*y - 1) - pi**2*x_p*(2*x - 1)*(y_c + y_s)*(y_c - y_s) - 3*(2*x - 1)*y_s**2)*z_p**2
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
    x_t = tan((1/2)*pi*x)
    x_w = 2/(x_t**2 + 1)
    x_s = x_t*x_w
    x_c = x_w - 1
    del x_t, x_w
    y_t = tan((1/2)*pi*y)
    y_w = 2/(y_t**2 + 1)
    y_s = y_t*y_w
    y_c = y_w - 1
    del y_t, y_w
    return ((0, 0, x_s*y_s),), ((-x_s*y_c, x_c*y_s, 0),)


def case2_space0(x, y, z):
    x_t = tan((1/2)*pi*x)
    x_w = 2/(x_t**2 + 1)
    x_s = x_t*x_w
    del x_t, x_w
    y_t = tan((1/2)*pi*y)
    y_w = 2/(y_t**2 + 1)
    y_s = y_t*y_w
    del y_t, y_w
    return (0, 0, x_s*y_s)


def case2_space1(x, y, z):
    x_t = tan((1/2)*pi*x)
    x_w = 2/(x_t**2 + 1)
    x_s = x_t*x_w
    x_c = x_w - 1
    del x_t, x_w
    y_t = tan((1/2)*pi*y)
    y_w = 2/(y_t**2 + 1)
    y_s = y_t*y_w
    y_c = y_w - 1
    del y_t, y_w
    return (-2*x_c*y_s*z, -2*x_s*y_c*z, 2*x*x_c*y_s + 2*x_s*y*y_c - 2*pi*x_s*y_s*(x**2 + y**2 + z**2 + 1))


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
