"""Symbolic derivation of the two manufactured cases, printed as numpy source.

Each case fixes E and B in closed form as (time factor, spatial 3-vector)
terms.  Time derivatives act on the time factors and curls on the spatial
parts only, and the current ``J = eps E_t + sigma E - curl(mu^-1 B)`` is
grouped by time factor, constants folded out, so it stays a short sum of
such terms.  ``render()`` prints the result with the printer that
``sympy.lambdify(..., "numpy")`` uses, as the module ``vemaxwell.cases``
reads.  Each case gets ``case<id>_EB``: the spatial parts of every E
and B term from one ``tan`` per coordinate, whose half-angle forms give
every sine and cosine (``half_angle``), which E, B and the error norms
evaluate; its table gives the time factors of those terms, and J's terms
with one function per distinct spatial part.  Case 1's potential is a
product of one-dimensional factors, kept symbolic while deriving, so
each of its functions computes each factor it needs once, as a local
(``spatial_body``).  Rewrite that module with

    python tests/case_source.py

and check the committed module against ``render()`` byte for byte, as
``tests/test_cases.py`` does, with

    python tests/case_source.py --check
"""

from __future__ import annotations

import argparse
import ast
import itertools
import pathlib
import sys

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.printing.numpy import NumPyPrinter
from sympy.printing.precedence import PRECEDENCE

X, Y, Z, T, U = sp.symbols("x y z t u", real=True)

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

    The potential ``phi_i = S(x_i) q(x_j) q(x_k)`` is derived with ``S`` and
    ``q`` left as undefined functions of one coordinate, so each curl is a
    short sum of products of one-dimensional factors and their
    derivatives; ``factors`` gives them their closed forms,
    ``S(u) = sin^2(pi u)`` and ``q(u) = u^2 (1 - u)^2``.  The magnetic
    field is the time integral of -curl E, which fixes its sign relative
    to the double-curl potential.  Every term carries a t or t^2 factor,
    so the initial data vanish identically.

    The polynomial factors are written in powers of ``p(u) = u (u - 1)``
    (``base``, ``in_powers``): q = p^2, q' = (4u - 2) p and q'' = 12 p + 2;
    S = s^2 and S' = 2 pi s c are products of the half-angle locals
    (``half_angle``).  ``held`` gives p, and p alone, a local per
    coordinate; every factor is written inline from p, s and c, and each
    part is collected by the factors of one coordinate
    (``factored_text``).  On one 8192-point chunk of ``case1_EB`` (2-vCPU
    Xeon VM, numpy 2.4.6, medians of 40 interleaved rounds) that takes
    0.59 ms, against 1.37 ms for the six sin/cos calls with q and q''
    held that it replaces, and holds 18 arrays of the chunk's size at
    once, against 17.  With the half-angle locals, holding q and q''
    instead took 0.69 ms and held 17; holding q' as well took 0.57 ms
    but held 20; holding p and q' took 0.53 ms but held 19 in the best
    of every order of the parts; holding S, S', q, q' and q'' took 0.72 ms
    and held 25.  ``TestEvaluationMemory`` holds the peak to 18.
    """
    pi = sp.pi
    S, q = sp.Function("S"), sp.Function("q")
    phi = sp.Matrix([S(X) * q(Y) * q(Z), q(X) * S(Y) * q(Z), q(X) * q(Y) * S(Z)])
    psi = grad(sp.sin(pi * X) * sp.sin(pi * Y) * sp.sin(pi * Z))
    a = curl(phi)
    e_terms = [(T, a), (T**2, psi)]
    b_terms = [(-T**2 / 2, curl(a))]
    one = sp.Integer(1)
    factors = {S: sp.sin(pi * U) ** 2, q: U**2 * (1 - U) ** 2}
    return derive(e_terms, b_terms, one, one, one, factors, held=("p",), base=U * (U - 1))


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


def derive(e_terms, b_terms, eps, sigma, mu, factors=None, held=(), base=None):
    """The term structure of a case from E and B given as (time factor,
    spatial 3-vector) terms.

    ``E`` and ``B`` are lists of (time factor, spatial part) pairs; ``J``
    is a list of (time factor, [(constant, "eps" | "sigma" | None, spatial
    part), ...]) groups, one per distinct time factor once its constant is
    split off.  ``factors`` maps each undefined function of the spatial
    parts to its closed form in ``U``, ``base`` is a polynomial in ``U``
    in whose powers the polynomial factors are written (``in_powers``),
    and ``held`` names the factors (``q``, ``dq``, ... as ``spatial_body``
    prints them, ``p`` for ``base``) that get locals.
    """
    curl_terms = [(a, curl(h / mu)) for a, h in b_terms]
    e_t_terms = [(a.diff(T), g) for a, g in e_terms]
    groups = {}
    for a, w, g in ([(a, "eps", g) for a, g in e_t_terms]
                    + [(a, "sigma", g) for a, g in e_terms]
                    + [(-a, None, g) for a, g in curl_terms]):
        c, a = a.as_independent(T, as_Add=False)
        groups.setdefault(a, []).append((float(c), w, g))
    return {"eps": eps, "sigma": sigma, "mu": mu, "factors": factors or {}, "held": held,
            "base": base, "E": e_terms, "B": b_terms, "J": list(groups.items())}


def half_angle(exprs):
    """``exprs`` with each sin(pi u) and cos(pi u) of a coordinate u
    replaced by the local ``u_s`` or ``u_c``, and the statements that
    compute those locals from one ``u_t = tan(pi u / 2)`` per coordinate:
    ``u_w = 2/(1 + u_t^2)``, ``u_s = u_t u_w``, ``u_c = u_w - 1``.

    numpy's float64 ``tan`` is several times faster than its ``sin`` or
    ``cos`` (27 against 115 and 129 us per 8192 values, numpy 2.4.6 on a
    2-vCPU Xeon VM), and every coordinate needs both.  On 2e6 points of
    [-4, 4] the half-angle forms are within 1.0 eps (sine) and 1.5 eps
    (cosine) of ``np.sin``/``np.cos`` of ``pi u``; where pi u / 2 is next
    to an odd multiple of pi / 2, ``u_t`` is huge but finite and so are
    they.
    ValueError names a sin or cos of any other argument.  These are the
    only subexpressions shared as such: ``sympy.cse`` on the expanded
    case-1 fields held 3.6 MB of temporaries against 1.1 MB for no gain in
    time, and case 1 shares its one-dimensional factors instead
    (``case1``).
    """
    calls = set().union(*(e.atoms(sp.sin, sp.cos) for e in exprs))
    wanted = {}
    for call in calls:
        u = call.args[0] / sp.pi
        if u not in (X, Y, Z):
            raise ValueError(f"{call} is not a sine or cosine of pi times a coordinate")
        wanted.setdefault(u, set()).add(call.func)
    lines, names = [], {}
    for u in sorted(wanted, key=sp.default_sort_key):
        t, w, s, c = (sp.Symbol(f"{u}_{k}", real=True) for k in "twsc")
        lines += [(t, sp.tan(sp.pi * u / 2)), (w, 2 / (t**2 + 1))]
        for func, local, value in ((sp.sin, s, t * w), (sp.cos, c, w - 1)):
            if func in wanted[u]:
                names[func(sp.pi * u)] = local
                lines.append((local, value))
        lines.append((None, (t, w)))
    return lines, [e.xreplace(names) for e in exprs]


def one_dimensional_factors(exprs, factors, base=None):
    """``exprs`` with each one-dimensional factor of ``factors`` (an
    undefined function of one coordinate, or a derivative of one) replaced
    by a symbol named after it, and each symbol's factored closed form.
    With a ``base`` polynomial, a polynomial form is written in powers of
    the symbol ``u_p`` of ``base(u)`` instead (``in_powers``), and each
    such symbol's form is ``base(u)``."""
    derivatives = set().union(*(e.atoms(sp.Derivative) for e in exprs))
    exprs = [e.xreplace({d: _factor_symbol(d.expr, d.derivative_count) for d in derivatives})
             for e in exprs]
    applied = set().union(*(e.atoms(AppliedUndef) for e in exprs))
    exprs = [e.xreplace({f: _factor_symbol(f, 0) for f in applied}) for e in exprs]
    forms = {}
    for f, n in [(d.expr, d.derivative_count) for d in derivatives] + [(f, 0) for f in applied]:
        u = f.args[0]
        form = sp.factor(sp.diff(factors[f.func].subs(U, u), u, n))
        if base is not None and form.is_polynomial(u):
            p = sp.Symbol(f"{u}_p", real=True)
            forms[p] = base.subs(U, u)
            form = in_powers(form, u, forms[p], p)
        forms[_factor_symbol(f, n)] = form
    return exprs, dict(sorted(forms.items(), key=lambda item: item[0].name))


def in_powers(form, u, base, p):
    """The polynomial ``form`` in ``u`` as ``r_0 + p (r_1 + p (r_2 + ...))``,
    each ``r_k`` its remainder on division by ``base`` and ``p`` standing
    for ``base``.  For case 1's bump ``q(u) = u^2 (1 - u)^2`` and
    ``p = u (u - 1)`` that is ``q = p^2``, ``q' = (4 u - 2) p`` and
    ``q'' = 12 p + 2``: one, three and two array operations in place of
    four, six and six, after the two of p itself."""
    quotient, remainder = sp.div(sp.expand(form), base, u)
    if quotient == 0:
        return sp.factor(remainder)
    return sp.factor(remainder) + p * in_powers(quotient, u, base, p)


def _factor_symbol(f, n):
    """The symbol of the ``n``-th derivative of ``f = F(u)``: ``u_F``,
    ``u_dF``, ``u_d2F`` ...  Named coordinate first, like the
    half-angle locals ``u_s`` and ``u_c``."""
    prefix = "" if n == 0 else "d" if n == 1 else f"d{n}"
    return sp.Symbol(f"{f.args[0]}_{prefix}{f.func.__name__}", real=True)


def schedule(uses, temporaries):
    """The order in which to compute the outputs that use locals, given
    the set of locals each output uses and the temporaries its expression
    holds in flight.  Each local is defined before the first output that
    uses it and deleted after the last; the order is the one, the first
    among equals, that holds the fewest arrays (computed outputs, live
    locals and the temporaries of the output being computed) at any one
    step."""
    def peak(order):
        worst, live = 0, set()
        for i, k in enumerate(order):
            live |= uses[k]
            worst = max(worst, i + len(live) + temporaries[k])
            live &= set().union(*(uses[j] for j in order[i + 1:]))
        return worst

    return min(itertools.permutations([k for k, u in enumerate(uses) if u]), key=peak)


def in_flight(text):
    """The most arrays that evaluating the Python expression ``text`` holds
    at once beyond the arrays it names, the result included.  Python
    evaluates an operation's operands left to right and numpy allocates
    its result while both live; a number or ``pi`` is a scalar, and an
    operation on scalars alone makes no array."""
    def walk(node):                          # (makes an array, peak) of node
        if isinstance(node, (ast.Name, ast.Constant)):
            return False, 0
        operands = ([node.left, node.right] if isinstance(node, ast.BinOp)
                    else [node.operand] if isinstance(node, ast.UnaryOp) else node.args)
        held = peak = 0
        arrays = False
        for operand in operands:
            made, need = walk(operand)
            peak = max(peak, held + need)
            held += made
            arrays |= made or (isinstance(operand, ast.Name) and operand.id != "pi")
        return arrays, max(peak, held + arrays)

    return walk(ast.parse(text, mode="eval").body)[1]


def spatial_body(exprs, names, fields, printer):
    """The statements of a spatial function of ``exprs``, and each
    output's text: its local from ``names`` where it uses factor locals,
    else its expression.

    The half-angle locals of every coordinate's sine and cosine come
    first (``half_angle``).  A factor of a kind in ``fields["held"]`` gets
    a local per coordinate; every other factor is written inline.  The
    outputs that use factor locals follow in ``schedule`` order, each
    local defined just before its first use and deleted after its last;
    the other outputs are written inline in the return.
    """
    exprs, forms = one_dimensional_factors(exprs, fields["factors"], fields["base"])
    inline = {s: form for s, form in forms.items()                 # "y_dq" is of kind "dq"
              if s.name.split("_", 1)[1] not in fields["held"]}
    local = [s for s in forms if s not in inline]
    trig, reduced = half_angle([forms[s] for s in local] + [e.xreplace(inline) for e in exprs])
    local, outputs = dict(zip(local, reduced)), reduced[len(local):]
    uses = [e.free_symbols & set(local) for e in outputs]
    doprint = printer.doprint
    if fields["factors"]:
        axes = {X: 0, Y: 1, Z: 2}                  # the coordinate of each symbol
        for s, e in [(s, e) for s, e in trig if s is not None] + list(local.items()):
            (axes[s],) = {axes[a] for a in e.free_symbols}

        def doprint(e):
            return factored_text(e, axes, printer)

    def line(target, value):
        return f"    {printer.doprint(target)} = {value}\n"

    lines = [line(s, printer.doprint(e)) if s is not None
             else f"    del {', '.join(str(d) for d in e)}\n" for s, e in trig]
    text = [doprint(e) for e in outputs]
    order = schedule(uses, [in_flight(t) for t in text])
    live = set()
    for i, k in enumerate(order):
        lines += [line(s, printer.doprint(form)) for s, form in local.items()
                  if s in uses[k] - live]
        live |= uses[k]
        lines.append(line(sp.Symbol(names[k]), text[k]))
        text[k] = names[k]
        dead = live - set().union(*(uses[j] for j in order[i + 1:]))
        live -= dead
        if dead and (i + 1 < len(order) or len(order) < len(outputs)):   # else return frees
            lines.append(f"    del {', '.join(sorted(s.name for s in dead))}\n")
    return "".join(lines), text


def factored_text(e, axes, printer):
    """Text of the sum of products ``e`` with its terms collected by the
    factors of one coordinate: ``f*(a + b) + g*(c + d)`` where f and g
    are products of that coordinate's factors, the coordinate that leaves
    the fewest such groups, ties in x, y, z order.  Each group's sum is
    written first and multiplied by its factor after, so it holds no
    product of its own in flight; constants common to a sum are written
    once, before it.  A group of one term is written as ``grouped_text``
    writes it, as is ``e`` where no coordinate collects two terms.  On a
    box rule's nodes the sums are of arrays of the other two axes, and
    only the products with the collected factors reach the full size.
    The case-1 parts collect so: E0 is the cross product of q' and S,
    times q, coordinate by coordinate; B0 is q' times a sum of products
    of S' and q, less S times a sum of products of q'' and q."""
    terms = e.as_ordered_terms() if isinstance(e, sp.Add) else [e]
    groups = None
    for axis in range(3):
        collected = {}
        for term in terms:
            own = sp.Mul(*[f for f in sp.Mul.make_args(term)
                           if f.free_symbols and axes[next(iter(f.free_symbols))] == axis])
            collected.setdefault(own, []).append(term / own)
        if groups is None or len(collected) < len(groups):
            groups = collected
    if len(groups) == len(terms):
        return grouped_text(e, axes, printer)
    text = ""
    for own, rest in sorted(groups.items(), key=lambda g: bool(g[1][0].as_coeff_Mul()[0] < 0)):
        if len(rest) == 1:
            part = grouped_text(own * rest[0], axes, printer)
            negative = part.startswith("-")
            part = part.removeprefix("-")
        else:
            c, inner = sp.factor_terms(sp.Add(*rest)).as_independent(*e.free_symbols,
                                                                     as_Add=False)
            negative = c.could_extract_minus_sign()
            head = "" if abs(c) == 1 else f"{printer.doprint(abs(c))}*"
            part = "*".join([f"{head}({grouped_text(inner, axes, printer)})"]
                            + [printer.parenthesize(f, PRECEDENCE["Mul"])
                               for f in sp.Mul.make_args(own) if f != 1])
        text += (" - " if negative else " + ") if text else ("-" if negative else "")
        text += part
    return text


def grouped_text(e, axes, printer):
    """Text of the sum of products ``e`` with each product's factors
    grouped by coordinate, after the constants: the coordinate with the
    most factors first, ties in x, y, z order.  ``axes`` gives the
    coordinate (0, 1, 2) of each symbol.  Python multiplies left to right,
    so on a box rule's (c, 6, 1, 1), (c, 1, 6, 1) and (c, 1, 1, 6) nodes
    the first group multiplies arrays of one axis, the second arrays of
    two, and only the last group's factors reach the full (c, 6, 6, 6)
    size.  Without parentheses a product stays one running product, so on
    unrelated points it holds no array more than the ungrouped one."""
    text = ""
    terms = e.as_ordered_terms() if isinstance(e, sp.Add) else [e]
    for term in sorted(terms, key=lambda t: bool(t.as_coeff_Mul()[0] < 0)):   # no leading minus
        c, rest = term.as_coeff_Mul()
        sign = "" if not text else " - " if c < 0 else " + "
        constants, parts = [abs(c) if text else c], [[], [], []]
        for f in sp.Mul.make_args(rest):
            coordinates = {axes[s] for s in f.free_symbols}
            if coordinates:
                (axis,) = coordinates
                parts[axis].append(f)
            else:
                constants.append(f)
        factors = [f for part in sorted(parts, key=len, reverse=True) for f in part]
        body = "*".join(printer.parenthesize(f, PRECEDENCE["Mul"]) for f in factors)
        head = sp.Mul(*constants)
        text += sign + (body if head == 1 else f"-{body}" if head == -1
                        else f"{printer.doprint(head)}*{body}")
    return text


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
            if kind == "space":
                lines, outputs = spatial_body(exprs, [f"g_{c}" for c in "xyz"], fields, printer)
            else:
                lines, outputs = "", [printer.doprint(e) for e in exprs]
            body = ", ".join(outputs)
            if len(exprs) > 1:
                body = f"({body})"
            define(names[key], args, lines, body)
        return names[key]

    def define(name, args, lines, body):
        defs.append(f"def {name}({args}):\n" + lines + f"    return {body}\n")

    def fused():
        """``case<id>_EB``: the spatial parts of every E term, then of every
        B term, as 3-tuples, from one set of half-angle locals."""
        terms = [(f"{key}{k}", g) for key in ("E", "B") for k, (_, g) in enumerate(fields[key])]
        lines, outputs = spatial_body([e for _, g in terms for e in g],
                                      [f"{name}_{c}" for name, _ in terms for c in "xyz"],
                                      fields, printer)
        parts = [_tuple(outputs[i:i + 3]) for i in range(0, len(outputs), 3)]
        n_e = len(fields["E"])
        name = f"case{case_id}_EB"
        define(name, "x, y, z", lines, f"{_tuple(parts[:n_e])}, {_tuple(parts[n_e:])}")
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
              "of all E terms and of all B terms at once, and ``J`` gives the\n"
              "current's terms.  Every sin(pi u) and cos(pi u) of a coordinate u\n"
              "is a local (``x_s``, ``x_c``) computed from t = tan(pi u / 2) by\n"
              "the half-angle forms t w and w - 1, with w = 2 / (1 + t^2).\n"
              "Case 1's parts are sums of products of one-dimensional factors,\n"
              "collected by the factors of one coordinate: S(u) = sin^2(pi u),\n"
              "and q(u) = u^2 (1 - u)^2 and its derivatives written in powers of\n"
              "p(u) = u (u - 1), a local named coordinate first (``y_p``)\n"
              "computed just before its first use and deleted after its last.\n"
              "A product lists its factors by coordinate, the coordinate with\n"
              "the most factors first.\n"
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
