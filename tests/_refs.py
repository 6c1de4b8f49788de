"""Reference rules and test-data generators shared by the tests.

The library does not call any of these.  Each is either a reference that a
test compares a library kernel against (the Hausdorff measure, the
coherence check, a witness's JSON object, the query renderer) or a seeded
generator of field values for the property tests.
"""

import random
from fractions import Fraction

from spinnerlab.cantor import CANTOR_GENERATOR, CantorEvent
from spinnerlab import cantor
from spinnerlab.field import Generator, NonArchValue, Poly, render_exact, \
    render_ratio
from spinnerlab.intervals import EMPTY_CONDITION, conditional
from spinnerlab.lottery import RegularityWitness, _render_coin
from spinnerlab.query import (BraceLit, ClassifyExpr, CoinLit, CompareExpr,
                              Complement, FullLit, LiteralRun, Prob, Query,
                              SetChain, St, TicketLit, Translate)
from spinnerlab.report import PropertyReport
from spinnerlab.sampling import _below


# -- field values -------------------------------------------------------------

def rand_poly(rng: random.Random, max_degree: int, max_den: int,
              max_num: int = 100, nonzero: bool = False) -> Poly:
    bits = rng.getrandbits
    while True:
        coeffs = [Fraction(_below(bits, 2 * max_num + 1) - max_num,
                           1 + _below(bits, max_den))
                  for _ in range(_below(bits, max_degree + 1) + 1)]
        p = Poly(coeffs)
        if not (nonzero and p.is_zero()):
            return p


def rand_value(rng: random.Random, generator: Generator, max_degree: int = 4,
               max_den: int = 100) -> NonArchValue:
    num = rand_poly(rng, max_degree, max_den)
    den = rand_poly(rng, max_degree, max_den, nonzero=True)
    return NonArchValue(generator, num, den)


def rand_limited_value(rng: random.Random, generator: Generator,
                       max_degree: int = 4, max_den: int = 100) -> NonArchValue:
    """Value with nonnegative valuation, so a standard part exists."""
    num = rand_poly(rng, max_degree, max_den)
    den = rand_poly(rng, max_degree, max_den, nonzero=True)
    coeffs = list(den.coeffs)
    if not coeffs or coeffs[0] == 0:
        bits = rng.getrandbits
        const = Fraction(1 + _below(bits, 100), 1 + _below(bits, max_den))
        coeffs = [const] + coeffs[1:] if coeffs else [const]
    return NonArchValue(generator, num, Poly(coeffs))


# -- cylinder events ----------------------------------------------------------

def hausdorff_measure(e: CantorEvent) -> Fraction:
    """Normalized Hausdorff measure: the cut pairs' total length / 2^depth."""
    return Fraction(sum(hi - lo for lo, hi in e.cuts), 1 << e.depth)


def coherence_check(a: CantorEvent, b: CantorEvent) -> PropertyReport:
    """The Hausdorff measure ratio against the conditional counting
    probability, which on cylinder events are exactly equal, with the
    counterexample text of ``cantor.coherence_sides``.  The probability is
    looked up in ``cantor`` at each call, so a test that replaces it there
    replaces it here too."""
    given = conditional(cantor.cantor_probability, a, b, EMPTY_CONDITION)
    ratio = hausdorff_measure(a & b) / hausdorff_measure(b)
    counterexamples = []
    if given != NonArchValue.constant(CANTOR_GENERATOR, ratio):
        counterexamples.append(
            f"a={a.render()}, b={b.render()}: measure ratio {ratio} "
            f"!= conditional {given}")
    return PropertyReport.from_checks(
        "cantor-conditional-coherence", cases=1,
        counterexamples=counterexamples,
        witnesses=[f"measure-ratio = {ratio}", f"conditional = {given}"])


# -- overflow witnesses -------------------------------------------------------

def witness_dict(w: RegularityWitness) -> dict:
    """The witness's JSON object: n, product and, with a rotation, the
    orbit k * rotation mod 1 for k < n."""
    out = {"n": w.n, "product": render_exact(w.product)}
    if w.rotation is not None:
        out["points"] = [str(k * w.rotation % 1) for k in range(w.n)]
    return out


# -- query text ---------------------------------------------------------------

def render_query(q: Query) -> str:
    return f"{q.model}: {_render_expr(q.expr)}"


def _render_expr(e) -> str:
    if isinstance(e, Prob):
        if e.given is None:
            return f"P({render_set(e.event)})"
        return f"P({render_set(e.event)} | {render_set(e.given)})"
    if isinstance(e, St):
        return f"st({_render_expr(e.prob)})"
    if isinstance(e, ClassifyExpr):
        return f"classify({_render_expr(e.prob)})"
    if isinstance(e, CompareExpr):
        return f"compare({_render_expr(e.left)}, {_render_expr(e.right)})"
    raise TypeError(f"not an expression node: {e!r}")


def _render_literal(part) -> str:
    if isinstance(part, BraceLit):
        return "{" + ", ".join(part.items) + "}"
    left, left_in, right, right_in = part
    return (f"{'[' if left_in else '('}{render_ratio(*left)},"
            f"{render_ratio(*right)}{']' if right_in else ')'}")


def render_set(node) -> str:
    if isinstance(node, LiteralRun):
        return " u ".join(map(_render_literal, node.parts))
    if isinstance(node, FullLit):
        return "full"
    if isinstance(node, SetChain):
        parts = [render_set(node.first)]
        for op, operand in node.rest:
            parts += (op, render_set(operand))
        return " ".join(parts)
    if isinstance(node, Complement):
        return f"compl({render_set(node.arg)})"
    if isinstance(node, Translate):
        return f"translate({render_set(node.arg)},{node.offset})"
    if isinstance(node, CoinLit):
        return _render_coin(node.dropped, node.pins, node.all_heads)
    if isinstance(node, TicketLit):
        return "ticket" if node.count is None else f"tickets({node.count})"
    raise TypeError(f"not a set node: {node!r}")
