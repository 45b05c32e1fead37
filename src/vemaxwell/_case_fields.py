# Generated by python tests/case_source.py with sympy 1.14.0; do not edit.
"""Closed-form fields of the manufactured cases as numpy functions.

Spatial parts map (x, y, z) to a 3-tuple, time factors map t to a
value, and ``CASE1``/``CASE2`` give each field's terms.
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


def case1_space0(x, y, z):
    return (x**2*y**2*(1 - x)**2*(2*y - 2)*sin(pi*z)**2 + 2*x**2*y*(1 - x)**2*(1 - y)**2*sin(pi*z)**2 - x**2*z**2*(1 - x)**2*(2*z - 2)*sin(pi*y)**2 - 2*x**2*z*(1 - x)**2*(1 - z)**2*sin(pi*y)**2, -x**2*y**2*(1 - y)**2*(2*x - 2)*sin(pi*z)**2 - 2*x*y**2*(1 - x)**2*(1 - y)**2*sin(pi*z)**2 + y**2*z**2*(1 - y)**2*(2*z - 2)*sin(pi*x)**2 + 2*y**2*z*(1 - y)**2*(1 - z)**2*sin(pi*x)**2, x**2*z**2*(1 - z)**2*(2*x - 2)*sin(pi*y)**2 + 2*x*z**2*(1 - x)**2*(1 - z)**2*sin(pi*y)**2 - y**2*z**2*(1 - z)**2*(2*y - 2)*sin(pi*x)**2 - 2*y*z**2*(1 - y)**2*(1 - z)**2*sin(pi*x)**2)


def case1_time1(t):
    return t**2


def case1_space1(x, y, z):
    return (pi*sin(pi*y)*sin(pi*z)*cos(pi*x), pi*sin(pi*x)*sin(pi*z)*cos(pi*y), pi*sin(pi*x)*sin(pi*y)*cos(pi*z))


def case1_time2(t):
    return -1/2*t**2


def case1_space2(x, y, z):
    return (2*pi*x**2*y**2*(1 - y)**2*(2*x - 2)*sin(pi*z)*cos(pi*z) + 2*pi*x**2*z**2*(1 - z)**2*(2*x - 2)*sin(pi*y)*cos(pi*y) + 4*pi*x*y**2*(1 - x)**2*(1 - y)**2*sin(pi*z)*cos(pi*z) + 4*pi*x*z**2*(1 - x)**2*(1 - z)**2*sin(pi*y)*cos(pi*y) - 2*y**2*z**2*(1 - y)**2*sin(pi*x)**2 - 2*y**2*z**2*(1 - z)**2*sin(pi*x)**2 - 4*y**2*z*(1 - y)**2*(2*z - 2)*sin(pi*x)**2 - 2*y**2*(1 - y)**2*(1 - z)**2*sin(pi*x)**2 - 4*y*z**2*(1 - z)**2*(2*y - 2)*sin(pi*x)**2 - 2*z**2*(1 - y)**2*(1 - z)**2*sin(pi*x)**2, 2*pi*x**2*y**2*(1 - x)**2*(2*y - 2)*sin(pi*z)*cos(pi*z) + 4*pi*x**2*y*(1 - x)**2*(1 - y)**2*sin(pi*z)*cos(pi*z) - 2*x**2*z**2*(1 - x)**2*sin(pi*y)**2 - 2*x**2*z**2*(1 - z)**2*sin(pi*y)**2 - 4*x**2*z*(1 - x)**2*(2*z - 2)*sin(pi*y)**2 - 2*x**2*(1 - x)**2*(1 - z)**2*sin(pi*y)**2 - 4*x*z**2*(1 - z)**2*(2*x - 2)*sin(pi*y)**2 + 2*pi*y**2*z**2*(1 - z)**2*(2*y - 2)*sin(pi*x)*cos(pi*x) + 4*pi*y*z**2*(1 - y)**2*(1 - z)**2*sin(pi*x)*cos(pi*x) - 2*z**2*(1 - x)**2*(1 - z)**2*sin(pi*y)**2, -2*x**2*y**2*(1 - x)**2*sin(pi*z)**2 - 2*x**2*y**2*(1 - y)**2*sin(pi*z)**2 - 4*x**2*y*(1 - x)**2*(2*y - 2)*sin(pi*z)**2 + 2*pi*x**2*z**2*(1 - x)**2*(2*z - 2)*sin(pi*y)*cos(pi*y) + 4*pi*x**2*z*(1 - x)**2*(1 - z)**2*sin(pi*y)*cos(pi*y) - 2*x**2*(1 - x)**2*(1 - y)**2*sin(pi*z)**2 - 4*x*y**2*(1 - y)**2*(2*x - 2)*sin(pi*z)**2 + 2*pi*y**2*z**2*(1 - y)**2*(2*z - 2)*sin(pi*x)*cos(pi*x) + 4*pi*y**2*z*(1 - y)**2*(1 - z)**2*sin(pi*x)*cos(pi*x) - 2*y**2*(1 - x)**2*(1 - y)**2*sin(pi*z)**2)


def case1_time3(t):
    return 1


def case1_time4(t):
    return 2*t


def case1_space3(x, y, z):
    return (2*pi**2*x**2*y**2*(1 - x)**2*(2*y - 2)*sin(pi*z)**2 - 2*pi**2*x**2*y**2*(1 - x)**2*(2*y - 2)*cos(pi*z)**2 - 2*x**2*y**2*(2*y - 2)*sin(pi*z)**2 + 4*pi**2*x**2*y*(1 - x)**2*(1 - y)**2*sin(pi*z)**2 - 4*pi**2*x**2*y*(1 - x)**2*(1 - y)**2*cos(pi*z)**2 - 12*x**2*y*(1 - x)**2*sin(pi*z)**2 - 4*x**2*y*(1 - y)**2*sin(pi*z)**2 - 2*pi**2*x**2*z**2*(1 - x)**2*(2*z - 2)*sin(pi*y)**2 + 2*pi**2*x**2*z**2*(1 - x)**2*(2*z - 2)*cos(pi*y)**2 + 2*x**2*z**2*(2*z - 2)*sin(pi*y)**2 - 4*pi**2*x**2*z*(1 - x)**2*(1 - z)**2*sin(pi*y)**2 + 4*pi**2*x**2*z*(1 - x)**2*(1 - z)**2*cos(pi*y)**2 + 12*x**2*z*(1 - x)**2*sin(pi*y)**2 + 4*x**2*z*(1 - z)**2*sin(pi*y)**2 - 6*x**2*(1 - x)**2*(2*y - 2)*sin(pi*z)**2 + 6*x**2*(1 - x)**2*(2*z - 2)*sin(pi*y)**2 - 4*x*y**2*(2*x - 2)*(2*y - 2)*sin(pi*z)**2 - 8*x*y*(1 - y)**2*(2*x - 2)*sin(pi*z)**2 + 4*x*z**2*(2*x - 2)*(2*z - 2)*sin(pi*y)**2 + 8*x*z*(1 - z)**2*(2*x - 2)*sin(pi*y)**2 - 2*y**2*(1 - x)**2*(2*y - 2)*sin(pi*z)**2 - 4*y*(1 - x)**2*(1 - y)**2*sin(pi*z)**2 + 2*z**2*(1 - x)**2*(2*z - 2)*sin(pi*y)**2 + 4*z*(1 - x)**2*(1 - z)**2*sin(pi*y)**2, -2*pi**2*x**2*y**2*(1 - y)**2*(2*x - 2)*sin(pi*z)**2 + 2*pi**2*x**2*y**2*(1 - y)**2*(2*x - 2)*cos(pi*z)**2 + 2*x**2*y**2*(2*x - 2)*sin(pi*z)**2 + 4*x**2*y*(2*x - 2)*(2*y - 2)*sin(pi*z)**2 + 2*x**2*(1 - y)**2*(2*x - 2)*sin(pi*z)**2 - 4*pi**2*x*y**2*(1 - x)**2*(1 - y)**2*sin(pi*z)**2 + 4*pi**2*x*y**2*(1 - x)**2*(1 - y)**2*cos(pi*z)**2 + 4*x*y**2*(1 - x)**2*sin(pi*z)**2 + 12*x*y**2*(1 - y)**2*sin(pi*z)**2 + 8*x*y*(1 - x)**2*(2*y - 2)*sin(pi*z)**2 + 4*x*(1 - x)**2*(1 - y)**2*sin(pi*z)**2 + 2*pi**2*y**2*z**2*(1 - y)**2*(2*z - 2)*sin(pi*x)**2 - 2*pi**2*y**2*z**2*(1 - y)**2*(2*z - 2)*cos(pi*x)**2 - 2*y**2*z**2*(2*z - 2)*sin(pi*x)**2 + 4*pi**2*y**2*z*(1 - y)**2*(1 - z)**2*sin(pi*x)**2 - 4*pi**2*y**2*z*(1 - y)**2*(1 - z)**2*cos(pi*x)**2 - 12*y**2*z*(1 - y)**2*sin(pi*x)**2 - 4*y**2*z*(1 - z)**2*sin(pi*x)**2 + 6*y**2*(1 - y)**2*(2*x - 2)*sin(pi*z)**2 - 6*y**2*(1 - y)**2*(2*z - 2)*sin(pi*x)**2 - 4*y*z**2*(2*y - 2)*(2*z - 2)*sin(pi*x)**2 - 8*y*z*(1 - z)**2*(2*y - 2)*sin(pi*x)**2 - 2*z**2*(1 - y)**2*(2*z - 2)*sin(pi*x)**2 - 4*z*(1 - y)**2*(1 - z)**2*sin(pi*x)**2, 2*pi**2*x**2*z**2*(1 - z)**2*(2*x - 2)*sin(pi*y)**2 - 2*pi**2*x**2*z**2*(1 - z)**2*(2*x - 2)*cos(pi*y)**2 - 2*x**2*z**2*(2*x - 2)*sin(pi*y)**2 - 4*x**2*z*(2*x - 2)*(2*z - 2)*sin(pi*y)**2 - 2*x**2*(1 - z)**2*(2*x - 2)*sin(pi*y)**2 + 4*pi**2*x*z**2*(1 - x)**2*(1 - z)**2*sin(pi*y)**2 - 4*pi**2*x*z**2*(1 - x)**2*(1 - z)**2*cos(pi*y)**2 - 4*x*z**2*(1 - x)**2*sin(pi*y)**2 - 12*x*z**2*(1 - z)**2*sin(pi*y)**2 - 8*x*z*(1 - x)**2*(2*z - 2)*sin(pi*y)**2 - 4*x*(1 - x)**2*(1 - z)**2*sin(pi*y)**2 - 2*pi**2*y**2*z**2*(1 - z)**2*(2*y - 2)*sin(pi*x)**2 + 2*pi**2*y**2*z**2*(1 - z)**2*(2*y - 2)*cos(pi*x)**2 + 2*y**2*z**2*(2*y - 2)*sin(pi*x)**2 + 4*y**2*z*(2*y - 2)*(2*z - 2)*sin(pi*x)**2 + 2*y**2*(1 - z)**2*(2*y - 2)*sin(pi*x)**2 - 4*pi**2*y*z**2*(1 - y)**2*(1 - z)**2*sin(pi*x)**2 + 4*pi**2*y*z**2*(1 - y)**2*(1 - z)**2*cos(pi*x)**2 + 4*y*z**2*(1 - y)**2*sin(pi*x)**2 + 12*y*z**2*(1 - z)**2*sin(pi*x)**2 + 8*y*z*(1 - y)**2*(2*z - 2)*sin(pi*x)**2 + 4*y*(1 - y)**2*(1 - z)**2*sin(pi*x)**2 - 6*z**2*(1 - z)**2*(2*x - 2)*sin(pi*y)**2 + 6*z**2*(1 - z)**2*(2*y - 2)*sin(pi*x)**2)


def case2_eps(x, y, z):
    return -x**2 - z + 2


def case2_sigma(x, y, z):
    return -y**2 + z + 2


def case2_mu(x, y, z):
    return (x**2 + y**2 + z**2 + 1)**(-1.0)


def case2_time0(t):
    return cos((11/5)*pi*t)


def case2_space0(x, y, z):
    return (0, 0, sin(pi*x)*sin(pi*y))


def case2_time1(t):
    return (5/11)*sin((11/5)*pi*t)


def case2_space1(x, y, z):
    return (-sin(pi*x)*cos(pi*y), sin(pi*y)*cos(pi*x), 0)


def case2_time2(t):
    return -11/5*pi*sin((11/5)*pi*t)


def case2_space2(x, y, z):
    return (-2*z*sin(pi*y)*cos(pi*x), -2*z*sin(pi*x)*cos(pi*y), 2*x*sin(pi*y)*cos(pi*x) + 2*y*sin(pi*x)*cos(pi*y) - 2*pi*(x**2 + y**2 + z**2 + 1)*sin(pi*x)*sin(pi*y))


def case2_time3(t):
    return sin((11/5)*pi*t)


CASE1 = {
    'eps': case1_eps,
    'sigma': case1_sigma,
    'mu': case1_mu,
    'E': ((case1_time0, case1_space0), (case1_time1, case1_space1)),
    'B': ((case1_time2, case1_space2),),
    'E_t': ((case1_time3, case1_space0), (case1_time4, case1_space1)),
    'curl_mu_inv_B': ((case1_time2, case1_space3),),
    'J': (
        (case1_time3, ((1.0, 'eps', case1_space0),)),
        (case1_time0, ((2.0, 'eps', case1_space1), (1.0, 'sigma', case1_space0))),
        (case1_time1, ((1.0, 'sigma', case1_space1), (0.5, None, case1_space3))),
    ),
}


CASE2 = {
    'eps': case2_eps,
    'sigma': case2_sigma,
    'mu': case2_mu,
    'E': ((case2_time0, case2_space0),),
    'B': ((case2_time1, case2_space1),),
    'E_t': ((case2_time2, case2_space0),),
    'curl_mu_inv_B': ((case2_time1, case2_space2),),
    'J': (
        (case2_time3, ((-6.911503837897545, 'eps', case2_space0), (-0.45454545454545453, None, case2_space2))),
        (case2_time0, ((1.0, 'sigma', case2_space0),)),
    ),
}
