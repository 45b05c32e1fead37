"""Symbolic derivation of the two manufactured cases, printed as numpy source.

Each case fixes E and B in closed form as (time factor, spatial 3-vector)
terms.  Time derivatives act on the time factors and curls on the spatial
parts only, and the current ``J = eps E_t + sigma E - curl(mu^-1 B)`` is
grouped by time factor, constants folded out, so it stays a short sum of
such terms.  ``render()`` prints the result with the printer that
``sympy.lambdify(..., "numpy")`` uses, as the module ``vemaxwell.cases``
reads.  Each case gets ``case<id>_EB``: the spatial parts of every E
and B term from one set of sin/cos calls, which E, B and the error norms
evaluate; its table gives the time factors of those terms, and J's terms
with one function per distinct spatial part.  Rewrite that module with

    python tests/case_source.py

and check the committed module against ``render()`` byte for byte, as
``tests/test_cases.py`` does, with

    python tests/case_source.py --check
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import sympy as sp
from sympy.printing.numpy import NumPyPrinter

X, Y, Z, T = sp.symbols("x y z t", real=True)

TARGET = pathlib.Path(__file__).resolve().parents[1] / "src" / "vemaxwell" / "_case_fields.py"
COMMAND = "python tests/case_source.py"

# The settings lambdify(..., "numpy") gives its printer, so the printed
# expressions evaluate exactly as the lambdified ones did.
PRINTER_SETTINGS = {"fully_qualified_modules": False, "inline": True,
                    "allow_unknown_functions": True, "user_functions": {}}


def curl(v):
    return sp.Matrix([
        sp.diff(v[2], Y) - sp.diff(v[1], Z),
        sp.diff(v[0], Z) - sp.diff(v[2], X),
        sp.diff(v[1], X) - sp.diff(v[0], Y),
    ])


def grad(s):
    return sp.Matrix([sp.diff(s, X), sp.diff(s, Y), sp.diff(s, Z)])


def case1():
    """Unit coefficients; bump-like potentials with zero boundary traces.

    The magnetic field is the time integral of -curl E, which fixes its
    sign relative to the double-curl potential.  Every term carries a
    t or t^2 factor, so the initial data vanish identically.
    """
    pi = sp.pi
    phi = sp.Matrix([
        sp.sin(pi * X) ** 2 * Y**2 * (1 - Y) ** 2 * Z**2 * (1 - Z) ** 2,
        X**2 * (1 - X) ** 2 * sp.sin(pi * Y) ** 2 * Z**2 * (1 - Z) ** 2,
        X**2 * (1 - X) ** 2 * Y**2 * (1 - Y) ** 2 * sp.sin(pi * Z) ** 2,
    ])
    psi = grad(sp.sin(pi * X) * sp.sin(pi * Y) * sp.sin(pi * Z))
    a = curl(phi)
    e_terms = [(T, a), (T**2, psi)]
    b_terms = [(-T**2 / 2, curl(a))]
    one = sp.Integer(1)
    return derive(e_terms, b_terms, one, one, one)


def case2():
    """Polarized standing wave with variable material coefficients."""
    pi = sp.pi
    omega = sp.Rational(11, 5) * pi            # 2.2 pi
    g = sp.Matrix([0, 0, sp.sin(pi * X) * sp.sin(pi * Y)])
    h = sp.Matrix([
        -sp.cos(pi * Y) * sp.sin(pi * X),
        sp.cos(pi * X) * sp.sin(pi * Y),
        0,
    ])
    e_terms = [(sp.cos(omega * T), g)]
    b_terms = [(sp.sin(omega * T) / sp.Rational(11, 5), h)]
    mu = 1 / (1 + X**2 + Y**2 + Z**2)
    eps = 2 - X**2 - Z
    sigma = 2 - Y**2 + Z
    return derive(e_terms, b_terms, eps, sigma, mu)


def derive(e_terms, b_terms, eps, sigma, mu):
    """The term structure of a case from E and B given as (time factor,
    spatial 3-vector) terms.

    ``E`` and ``B`` are lists of (time factor, spatial part) pairs; ``J``
    is a list of (time factor, [(constant, "eps" | "sigma" | None, spatial
    part), ...]) groups, one per distinct time factor once its constant is
    split off.
    """
    curl_terms = [(a, curl(h / mu)) for a, h in b_terms]
    e_t_terms = [(a.diff(T), g) for a, g in e_terms]
    groups = {}
    for a, w, g in ([(a, "eps", g) for a, g in e_t_terms]
                    + [(a, "sigma", g) for a, g in e_terms]
                    + [(-a, None, g) for a, g in curl_terms]):
        c, a = a.as_independent(T, as_Add=False)
        groups.setdefault(a, []).append((float(c), w, g))
    return {"eps": eps, "sigma": sigma, "mu": mu,
            "E": e_terms, "B": b_terms, "J": list(groups.items())}


def shared_calls(exprs):
    """The distinct sin/cos calls of ``exprs`` as locals x0, x1, ..., and
    ``exprs`` with each call replaced by its local.

    A case-1 spatial part repeats a handful of calls dozens of times, so
    each call is evaluated once per point.  Polynomial subexpressions stay
    inline: ``sympy.cse`` would hold up to 70 of them at once, one array per
    chunk of points each, for no further gain.  On ``case1_EB`` over one
    8192-point chunk (2-core Xeon VM, numpy 2.4), full ``sympy.cse`` and a
    per-coordinate factoring took 2.58 and 2.44 ms against 2.38 ms for
    this form in one trial; in 200 interleaved pairs, full ``cse`` took
    4.17 ms against 4.29 ms (medians, host in a slower phase) and held
    3.6 MB of temporaries against 1.1 MB.
    """
    calls = sorted(set().union(*(e.atoms(sp.sin, sp.cos) for e in exprs)),
                   key=sp.default_sort_key)
    names = sp.symbols(f"x:{len(calls)}")
    return list(zip(names, calls)), [e.xreplace(dict(zip(calls, names))) for e in exprs]


def _tuple(items) -> str:
    items = list(items)
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _case_source(case_id, fields, printer):
    """Function definitions and the ``CASE<id>`` table of one case."""
    defs = []
    names = {}

    def function(kind, args, exprs):
        key = (args, tuple(exprs))
        if key not in names:
            names[key] = f"case{case_id}_{kind}{sum(k[0] == args for k in names)}"
            shared, reduced = shared_calls(exprs) if kind == "space" else ([], exprs)
            body = ", ".join(printer.doprint(e) for e in reduced)
            if len(exprs) > 1:
                body = f"({body})"
            define(names[key], args, shared, body)
        return names[key]

    def define(name, args, shared, body):
        lines = [f"    {printer.doprint(s)} = {printer.doprint(e)}\n" for s, e in shared]
        defs.append(f"def {name}({args}):\n" + "".join(lines) + f"    return {body}\n")

    def fused():
        """``case<id>_EB``: the spatial parts of every E term, then of every
        B term, as 3-tuples, from one set of shared sin/cos calls."""
        terms = [g for key in ("E", "B") for _, g in fields[key]]
        shared, reduced = shared_calls([e for g in terms for e in g])
        parts = [_tuple(printer.doprint(e) for e in reduced[i:i + 3])
                 for i in range(0, len(reduced), 3)]
        n_e = len(fields["E"])
        name = f"case{case_id}_EB"
        define(name, "x, y, z", shared, f"{_tuple(parts[:n_e])}, {_tuple(parts[n_e:])}")
        return name

    def space(v):
        return function("space", "x, y, z", list(v))

    def time(a):
        return function("time", "t", [a])

    rows = []
    for w in ("eps", "sigma", "mu"):
        name = f"case{case_id}_{w}"
        defs.append(f"def {name}(x, y, z):\n    return {printer.doprint(fields[w])}\n")
        rows.append(f"    {w!r}: {name},")
    for key in ("E", "B"):
        rows.append(f"    {key!r}: {_tuple(time(a) for a, _ in fields[key])},")
    rows.append(f"    'EB': {fused()},")
    rows.append("    'J': (")
    for a, parts in fields["J"]:
        triples = _tuple(f"({c!r}, {w!r}, {space(g)})" for c, w, g in parts)
        rows.append(f"        ({time(a)}, {triples}),")
    rows.append("    ),")
    table = f"CASE{case_id} = {{\n" + "\n".join(rows) + "\n}\n"
    return "\n\n".join(defs), table


def render() -> str:
    """Source of ``vemaxwell/_case_fields.py``."""
    printer = NumPyPrinter(PRINTER_SETTINGS)
    blocks = [_case_source(case_id, fields, printer)
              for case_id, fields in ((1, case1()), (2, case2()))]
    imports = ", ".join(sorted(printer.module_imports.get("numpy", ())))
    header = (f"# Generated by {COMMAND} with sympy {sp.__version__}; do not edit.\n"
              '"""Closed-form fields of the manufactured cases as numpy functions.\n\n'
              "Spatial parts map (x, y, z) to a 3-tuple and time factors map t to\n"
              "a value.  In ``CASE1``/``CASE2``, ``E`` and ``B`` give the time\n"
              "factors of their terms, ``EB`` maps (x, y, z) to the spatial parts\n"
              "of all E terms and of all B terms at once, each distinct sin/cos\n"
              "evaluated once, and ``J`` gives the current's terms.\n"
              '"""\n\n'
              f"from numpy import {imports}\n")
    sections = [header] + [defs for defs, _ in blocks] + [table for _, table in blocks]
    return "\n\n".join(sections)


def stale_line() -> str | None:
    """None if the committed module is ``render()`` byte for byte, else a
    message naming its first differing line."""
    committed = TARGET.read_bytes()
    rendered = render().encode()
    if committed == rendered:
        return None
    old, new = committed.splitlines(keepends=True), rendered.splitlines(keepends=True)
    n = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    have, want = (repr(lines[n]) if n < len(lines) else "the end of the file"
                  for lines in (old, new))
    return f"{TARGET}:{n + 1}: has {have}, render() gives {want}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite, or check, the generated case module.")
    parser.add_argument("--check", action="store_true",
                        help="exit 1, naming the first differing line, if the "
                             "committed module is not render()")
    args = parser.parse_args(argv)
    if args.check:
        message = stale_line()
        if message is not None:
            print(f"stale: {message}; rewrite it with {COMMAND}", file=sys.stderr)
            return 1
        print(f"{TARGET} is up to date")
        return 0
    TARGET.write_text(render(), encoding="utf-8")
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
