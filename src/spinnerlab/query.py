"""Event/probability query language over the five models.

Grammar (ASCII aliases next to the set symbols):

    query    := model ":" expr
    model    := "minimal" | "grid" | "cantor" | "coinflip" | "lottery"
    expr     := "st" "(" prob ")" | "classify" "(" prob ")"
              | "compare" "(" prob "," prob ")" | prob
    prob     := "P" "(" set [ "|" set ] ")"
    set      := run { ("u" | "∪") run | ("n" | "∩") atom }
    run      := interval { ("u" | "∪") interval } | atom
    atom     := interval | braces | "full"
              | "compl" "(" set ")" | "translate" "(" set "," rational ")"
              | coin | ticket
    interval := ("[" | "(") rational "," rational (")" | "]")
    braces   := "{" [ item { "," item } ] "}"
    item     := nat [ "/" nat ]
    coin     := "allheads" [">" nat] ["&" pin] | pin
    pin      := "pin" "(" [ nat ":" ("H"|"T") { "," ... } ] ")"
    ticket   := "ticket" | "tickets" "(" nat ")"
    rational := ["-"] nat ["/" nat]

A brace item is resolved against the selected model: a rational point for
the interval models, a {0,2}-address for the cantor model.  A run of
digits (a numeral or an address) holds at most 4300 of them.  Parse errors
carry the offending position and the expected tokens; vocabulary
mismatches (a cylinder set under the grid model, set union of coin
events, ...) raise :class:`QueryTypeError` during evaluation.

An interval literal with unsigned endpoints, ``[1/3, 2/3)``, and a brace
list, ``{0022, 2}`` or ``{1/3, 0}``, are each read as one token word; one
``findall`` gives a brace word's items, written as the token pass writes
them.  A ``u`` run of interval literals where a run of ``u`` operands
starts (at the start of a set and after each ``u``, not after ``n``)
becomes one :class:`IntervalRun` node, so a long union of intervals costs
one regular-expression match per literal.  Every interval literal is an
IntervalRun; a lone literal is a run of one.  A signed or over-long numeral
is read token by token.  When the literal-word pass raises a ParseError,
the text is parsed again token by token and that error is raised, so
messages and positions do not depend on the literal words.  Endpoints
are still validated at evaluation, in operand order.

Interval sets and cylinder events are built by one fold over ``u``/``n``
chains and ``compl``, with a leaf builder for each model.  Every model's
``P(A | B)`` is ``intervals.conditional``, as in the kernels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Union

from .cantor import CantorEvent, CantorModel, cantor_probability
from .errors import DomainError, ParseError, QueryTypeError
from .field import (MAX_NUMERAL_DIGITS, Classification, Kind, NonArchValue,
                    Ordering, Sign, TokenCursor, render_exact)
from .intervals import IntervalSet, _clean, conditional, lebesgue_length
from .lottery import (CoinEvent, LotteryModel, coinflip_probability,
                      lottery_ticket_probability)
from .spinner import GridModel, grid_probability

MODELS = ("minimal", "grid", "cantor", "coinflip", "lottery")

_MAX_NESTING = 64


# -- abstract syntax ------------------------------------------------------------

@dataclass(frozen=True)
class IntervalRun:
    """Interval literals joined by ``u``, each its (left, left_in, right,
    right_in) tuple; a lone literal is a run of one."""
    literals: tuple[tuple[Fraction, bool, Fraction, bool], ...]


@dataclass(frozen=True)
class BraceLit:
    items: tuple[str, ...]


@dataclass(frozen=True)
class FullLit:
    pass


@dataclass(frozen=True)
class SetOp:
    op: str  # "union" | "intersect"
    left: "SetNode"
    right: "SetNode"


@dataclass(frozen=True)
class Complement:
    arg: "SetNode"


@dataclass(frozen=True)
class Translate:
    arg: "SetNode"
    offset: Fraction


@dataclass(frozen=True)
class CoinLit:
    all_heads: bool
    dropped: int
    pins: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class TicketLit:
    count: "int | None"  # None means a single ticket


SetNode = Union[IntervalRun, BraceLit, FullLit, SetOp, Complement,
                Translate, CoinLit, TicketLit]


def _unroll(node: SetOp) -> tuple[SetNode, list[tuple[str, SetNode]]]:
    """The first operand of a left-nested ``SetOp`` chain, then its
    (operator, operand) pairs in order: a loop over the left spine, so no
    walk over a chain recurses once per operand."""
    rest = []
    while isinstance(node, SetOp):
        rest.append((node.op, node.right))
        node = node.left
    rest.reverse()
    return node, rest


@dataclass(frozen=True)
class Prob:
    event: SetNode
    given: "SetNode | None" = None


@dataclass(frozen=True)
class St:
    prob: Prob


@dataclass(frozen=True)
class ClassifyExpr:
    prob: Prob


@dataclass(frozen=True)
class CompareExpr:
    left: Prob
    right: Prob


@dataclass(frozen=True)
class Query:
    model: str
    expr: Union[Prob, St, ClassifyExpr, CompareExpr]


# -- parser ---------------------------------------------------------------------

_OPS = "[](){},:|&>/∪∩-"

# the set operators: the words u and n, and the symbols read as them
_SET_OPS = {"u": "u", "n": "n", "∪": "u", "∩": "n"}

_WRAPPERS = {"st": St, "classify": ClassifyExpr, "compare": CompareExpr}

# an interval literal with unsigned endpoints, or a brace list, as one token
# word; a longer numeral does not match, so it is lexed token by token and
# meets the lexer's digit cap
_NUMERAL = rf"\d{{1,{MAX_NUMERAL_DIGITS}}}"
_ENDPOINT = rf"{_NUMERAL}(?:\s*/\s*{_NUMERAL})?"
_LITERAL_WORD = rf"[\[(]\s*{_ENDPOINT}\s*,\s*{_ENDPOINT}\s*[\])]"
_BRACE_WORD = rf"\{{\s*(?:{_ENDPOINT}(?:\s*,\s*{_ENDPOINT})*\s*)?\}}"
_BRACE_ITEM_RE = re.compile(r"\d+(?:\s*/\s*\d+)?")
_LITERAL_RE = re.compile(
    r"([\[(])\s*(\d+)(?:\s*/\s*(\d+))?\s*,\s*(\d+)(?:\s*/\s*(\d+))?\s*([\])])")


def _is_literal(word: str) -> bool:
    # a literal word starts with "[" or "(", which alone are operator words
    return len(word) > 1 and word[0] in "[("


def _literals(words: "list[str]") -> "list[tuple]":
    """The (left, left_in, right, right_in) tuple of each literal word."""
    try:
        return [(Fraction(int(p), int(q)) if q else Fraction(int(p)),
                 lb == "[",
                 Fraction(int(r), int(s)) if s else Fraction(int(r)),
                 rb == "]")
                for lb, p, q, r, s, rb in _LITERAL_RE.findall("".join(words))]
    except ZeroDivisionError:
        # the token-by-token pass reports where
        raise ParseError("zero denominator in rational literal") from None


def _brace_word(word: str) -> BraceLit:
    """A brace word's items, each written as the token pass writes it."""
    items = _BRACE_ITEM_RE.findall(word)
    for i, item in enumerate(items if "/" in word else ()):
        if "/" in item:
            p, q = map(int, item.split("/"))
            if not q:  # the token-by-token pass reports where
                raise ParseError("zero denominator in rational literal")
            items[i] = f"{p}/{q}"
    return BraceLit(tuple(items))


class _Parser(TokenCursor):
    def __init__(self, text: str, literal_words: bool = False):
        super().__init__(text, _OPS, f"{_LITERAL_WORD}|{_BRACE_WORD}"
                         if literal_words else "")
        if "∪" in text or "∩" in text:
            self.words = [_SET_OPS.get(word, word) for word in self.words]
        self.depth = 0

    # grammar

    def parse_query(self) -> Query:
        model = self.peek()
        if model not in MODELS:
            # u and n are set operators, not names
            if not self.at_name() or model in _SET_OPS:
                self.fail("a model name")
            at = self.position(self.pos)
            raise ParseError(f"unknown model {model!r} at position {at}; "
                             f"expected one of {', '.join(MODELS)}",
                             position=at)
        self.pos += 1
        self.expect_op(":")
        expr = self.parse_expr()
        self.expect_end()
        return Query(model, expr)

    def parse_expr(self):
        wrap = _WRAPPERS.get(self.peek())
        if wrap is None:
            return self.parse_prob()
        self.pos += 1
        self.expect_op("(")
        probs = [self.parse_prob()]
        if wrap is CompareExpr:
            self.expect_op(",")
            probs.append(self.parse_prob())
        self.expect_op(")")
        return wrap(*probs)

    def parse_prob(self) -> Prob:
        self.expect_op("P")
        self.expect_op("(")
        event = self.parse_set()
        given = None
        if self.accept_op("|"):
            given = self.parse_set()
        self.expect_op(")")
        return Prob(event, given)

    def parse_set(self) -> SetNode:
        node = self.parse_atom()
        words = self.words
        while True:
            op = words[self.pos]
            if op != "u" and op != "n":
                return node
            self.pos += 1
            right = self.parse_atom()
            node = SetOp("union" if op == "u" else "intersect", node, right)

    def parse_atom(self) -> SetNode:
        word = self.peek()
        if not word:
            self.fail("a set expression")
        if word[0] == "(" or word[0] == "[":
            if len(word) > 1:
                return self.parse_literals()
            return self.parse_interval()
        if word[0] == "{":
            if len(word) > 1:
                self.pos += 1
                return _brace_word(word)
            return self.parse_braces()
        if word == "full":
            self.pos += 1
            return FullLit()
        if word == "compl":
            inner = self.parse_nested()
            self.expect_op(")")
            return Complement(inner)
        if word == "translate":
            inner = self.parse_nested()
            self.expect_op(",")
            offset = self.expect_rational()
            self.expect_op(")")
            return Translate(inner, offset)
        if word == "allheads":
            return self.parse_allheads()
        if word == "pin":
            pins = self.parse_pin()
            return CoinLit(False, 0, pins)
        if word == "ticket":
            self.pos += 1
            return TicketLit(None)
        if word == "tickets":
            self.pos += 1
            self.expect_op("(")
            count = self.expect_nat()
            self.expect_op(")")
            return TicketLit(count)
        self.fail("an interval, '{', 'full', 'compl', 'translate', "
                  "a coin literal or a ticket literal")

    def parse_nested(self) -> SetNode:
        """The set in ``keyword(``, nested at most _MAX_NESTING deep."""
        self.pos += 1
        self.expect_op("(")
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError("set expression nests too deeply",
                             position=self.position(self.pos))
        inner = self.parse_set()
        self.depth -= 1
        return inner

    def parse_literals(self) -> IntervalRun:
        """A literal word.  Where a run of ``u`` operands starts, at the
        start of a set or after ``u`` but not after ``n``, the literal
        words joined by ``u`` that follow it are read too, as one
        IntervalRun."""
        words = self.words
        i = j = self.pos
        if words[i - 1] != "n":
            while words[j + 1] == "u" and _is_literal(words[j + 2]):
                j += 2
        self.pos = j + 1
        return IntervalRun(tuple(_literals(words[i:j + 1:2])))

    def parse_interval(self) -> IntervalRun:
        lb = self.expect_op("(", "[")
        left = self.expect_rational()
        self.expect_op(",")
        right = self.expect_rational()
        rb = self.expect_op(")", "]")
        return IntervalRun(((left, lb == "[", right, rb == "]"),))

    def parse_braces(self) -> BraceLit:
        self.expect_op("{")
        items = []
        if not self.accept_op("}"):
            while True:
                items.append(self.parse_brace_item())
                if self.accept_op("}"):
                    break
                self.expect_op(",")
        return BraceLit(tuple(items))

    def parse_brace_item(self) -> str:
        word = self.peek()
        if not word.isdecimal():
            self.fail("a point or cylinder address")
        self.pos += 1
        if self.accept_op("/"):
            return f"{int(word)}/{self.expect_denominator()}"
        return word

    def parse_allheads(self) -> CoinLit:
        self.expect_op("allheads")
        dropped = 0
        if self.accept_op(">"):
            dropped = self.expect_nat()
        pins: tuple[tuple[int, str], ...] = ()
        if self.accept_op("&"):
            pins = self.parse_pin()
        return CoinLit(True, dropped, pins)

    def parse_pin(self) -> tuple[tuple[int, str], ...]:
        self.expect_op("pin")
        self.expect_op("(")
        pins = []
        if not self.accept_op(")"):
            while True:
                pos = self.expect_nat()
                if pos < 1:
                    raise ParseError("pinned positions start at 1",
                                     position=self.position(self.pos - 1))
                self.expect_op(":")
                outcome = self.expect_op("H", "T")
                pins.append((pos, outcome))
                if self.accept_op(")"):
                    break
                self.expect_op(",")
        return tuple(sorted(pins))


def parse_query(text: str) -> Query:
    """Parse a query; ParseError carries position and expected tokens."""
    try:
        return _Parser(text, literal_words=True).parse_query()
    except ParseError:
        pass
    # the token-by-token pass gives the error its position and message
    return _Parser(text).parse_query()


# -- rendering ------------------------------------------------------------------

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


def _render_interval(left, left_in, right, right_in) -> str:
    return f"{'[' if left_in else '('}{left},{right}{']' if right_in else ')'}"


def render_set(node: SetNode) -> str:
    if isinstance(node, IntervalRun):
        return " u ".join(_render_interval(*lit) for lit in node.literals)
    if isinstance(node, BraceLit):
        return "{" + ", ".join(node.items) + "}"
    if isinstance(node, FullLit):
        return "full"
    if isinstance(node, SetOp):
        first, rest = _unroll(node)
        parts = [render_set(first)]
        for op, operand in rest:
            parts += ("u" if op == "union" else "n", render_set(operand))
        return " ".join(parts)
    if isinstance(node, Complement):
        return f"compl({render_set(node.arg)})"
    if isinstance(node, Translate):
        return f"translate({render_set(node.arg)},{node.offset})"
    if isinstance(node, CoinLit):
        return CoinEvent(node.dropped, node.pins, node.all_heads).render()
    if isinstance(node, TicketLit):
        return "ticket" if node.count is None else f"tickets({node.count})"
    raise TypeError(f"not a set node: {node!r}")


# -- evaluation -----------------------------------------------------------------

_POINT_RE = re.compile(r"\d+(?:/\d+)?$")


def _fold(node: SetNode, leaf):
    """The set of ``node``, built by ``leaf`` but for chains and ``compl``:
    ``A u B n C`` is ``(A u B) n C``, operands are built in order so the
    first bad one names the error, and each maximal ``u`` run is one union."""
    if isinstance(node, Complement):
        return _fold(node.arg, leaf).complement()
    if not isinstance(node, SetOp):
        return leaf(node)
    first, rest = _unroll(node)
    event, run = None, [_fold(first, leaf)]
    for op, operand in rest:
        part = _fold(operand, leaf)
        if op == "union":
            run.append(part)
        else:
            event = _join(event, run) & part
            run = []
    return _join(event, run)


def _join(event, run: list):
    """The union of a ``u`` run's sets, then with the event, if any."""
    if not run:
        return event
    union = run[0].union(*run[1:]) if len(run) > 1 else run[0]
    return union if event is None else event | union


def _interval_leaf(node: SetNode, model: str) -> IntervalSet:
    """One operand under an interval model; an IntervalRun's literals make
    one set."""
    if isinstance(node, IntervalRun):
        cuts = [cut for lit in node.literals for cut in _clean(*lit)]
    elif isinstance(node, BraceLit):
        cuts = []
        for item in node.items:
            if len(item) > 1 and set(item) <= {"0", "2"}:
                raise QueryTypeError(
                    f"brace item {item!r} looks like a cylinder address; "
                    f"cylinder sets belong to the cantor model, not "
                    f"{model}")
            if not _POINT_RE.fullmatch(item):
                raise QueryTypeError(
                    f"brace item {item!r} is not a rational point")
            x = Fraction(item)
            cuts += _clean(x, True, x, True)
    elif isinstance(node, FullLit):
        cuts = _clean(0, True, 1, False)
    elif isinstance(node, Translate):
        return _to_interval_set(node.arg, model).translate_mod1(node.offset)
    elif isinstance(node, CoinLit):
        raise QueryTypeError(f"coin events do not belong to the {model} model")
    elif isinstance(node, TicketLit):
        raise QueryTypeError(f"ticket events do not belong to the {model} "
                             f"model")
    else:
        raise TypeError(f"not a set node: {node!r}")
    return IntervalSet._from_cuts(cuts)


def _to_interval_set(node: SetNode, model: str) -> IntervalSet:
    return _fold(node, partial(_interval_leaf, model=model))


def _cantor_leaf(node: SetNode) -> CantorEvent:
    if isinstance(node, BraceLit):
        try:
            return CantorEvent(node.items)
        except DomainError:
            bad = next(i for i in node.items if not set(i) <= {"0", "2"})
            raise QueryTypeError(
                f"brace item {bad!r} is not a cylinder address over {{0,2}}; "
                f"rational points belong to the interval models") from None
    if isinstance(node, FullLit):
        return CantorEvent.full()
    if isinstance(node, Translate):
        raise QueryTypeError("translate is not defined for cylinder events")
    if isinstance(node, IntervalRun):
        raise QueryTypeError("interval sets do not belong to the cantor "
                             "model; use cylinder addresses over {0,2}")
    raise QueryTypeError("this event does not belong to the cantor model")


def _to_cantor_event(node: SetNode) -> CantorEvent:
    return _fold(node, _cantor_leaf)


def _to_coin_event(node: SetNode) -> CoinEvent:
    if isinstance(node, CoinLit):
        return CoinEvent.make(dropped_prefix=node.dropped,
                              pinned=dict(node.pins),
                              all_heads=node.all_heads)
    first, rest = _unroll(node) if isinstance(node, SetOp) else (node, [])
    # a run of two or more literals is a union
    if (isinstance(first, IntervalRun) and len(first.literals) > 1
            or any(op == "union" for op, _ in rest)):
        raise QueryTypeError("union of coin events is not supported; "
                             "only intersection is defined")
    if not rest:
        raise QueryTypeError("only coin literals (allheads, pin) and their "
                             "intersections belong to the coinflip model")
    return CoinEvent.conjunction(
        [_to_coin_event(first)]
        + [_to_coin_event(operand) for _, operand in rest])


def _to_ticket_count(node: SetNode) -> int:
    if isinstance(node, TicketLit):
        return 1 if node.count is None else node.count
    raise QueryTypeError("only ticket literals belong to the lottery model")


Value = Union[Fraction, NonArchValue]


_GRID, _CANTOR = GridModel(), CantorModel()


# these rules look their probability function up in this module at each
# call, so a wrapper installed on the name (a tracer, a test) sees every query
def _grid_probability(event: IntervalSet) -> NonArchValue:
    return grid_probability(_GRID, event)


def _cantor_probability(event: CantorEvent) -> NonArchValue:
    return cantor_probability(_CANTOR, event)


# model -> (event builder, probability, DomainError message for a condition
# of probability 0, or None where the model has no conditional queries)
_RULES = {
    "minimal": (partial(_to_interval_set, model="minimal"), lebesgue_length,
                "conditioning on a null event: the minimal model assigns it "
                "measure 0, so the conditional is undefined here"),
    "grid": (partial(_to_interval_set, model="grid"), _grid_probability,
             "conditioning on the empty event"),
    "cantor": (_to_cantor_event, _cantor_probability,
               "conditioning on the empty event"),
    "coinflip": (_to_coin_event, coinflip_probability,
                 "conditioning on an inconsistent coin event"),
    "lottery": (_to_ticket_count,
                partial(lottery_ticket_probability, LotteryModel()), None),
}


def _eval_prob(p: Prob, model: str) -> Value:
    """P(A), or P(A | B) = P(A & B) / P(B) for P(B) > 0."""
    if model not in _RULES:
        raise QueryTypeError(f"unknown model {model!r}")
    build, probability, null_condition = _RULES[model]
    if p.given is not None and null_condition is None:
        raise QueryTypeError("conditional queries are not defined for "
                             "ticket blocks")
    event = build(p.event)
    if p.given is None:
        return probability(event)
    return conditional(probability, event, build(p.given), null_condition)


def _classify_rational(r: Fraction) -> Classification:
    if r == 0:
        return Classification(Kind.INFINITESIMAL, Sign.ZERO)
    sign = Sign.POSITIVE if r > 0 else Sign.NEGATIVE
    return Classification(Kind.LIMITED, sign)


def _value_st(v: Value) -> Fraction:
    return v if isinstance(v, Fraction) else v.standard_part()


def _value_classification(v: Value) -> Classification:
    return _classify_rational(v) if isinstance(v, Fraction) else v.classify()


def compare_values(a: Value, b: Value) -> tuple[Ordering, "Value | None",
                                                 Value]:
    """Ordering plus exact ratio (None against zero) and difference."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        ordering = (Ordering.LESS if a < b
                    else Ordering.GREATER if a > b else Ordering.EQUAL)
        ratio = a / b if b != 0 else None
        return ordering, ratio, a - b
    if isinstance(a, Fraction):
        a = NonArchValue.constant(b.generator, a)
    if isinstance(b, Fraction):
        b = NonArchValue.constant(a.generator, b)
    ratio = a / b if not b.is_zero() else None
    return a.compare(b), ratio, a - b


@dataclass
class EvalResult:
    """Rendered outcome of one query: value, standard part, classification."""

    value_text: str
    standard_part: "str | None" = None
    classification: "str | None" = None

    def lines(self) -> list[str]:
        out = [f"value: {self.value_text}"]
        if self.standard_part is not None:
            out.append(f"standard_part: {self.standard_part}")
        if self.classification is not None:
            out.append(f"classification: {self.classification}")
        return out


def evaluate(q: Query) -> EvalResult:
    """Evaluate a parsed query; deterministic and exact."""
    expr = q.expr
    if isinstance(expr, (Prob, St)):
        v = evaluate_value(q)
        return EvalResult(render_exact(v), render_exact(_value_st(v)),
                          _value_classification(v).render())
    if isinstance(expr, ClassifyExpr):
        v = _eval_prob(expr.prob, q.model)
        return EvalResult(_value_classification(v).render())
    if isinstance(expr, CompareExpr):
        a = _eval_prob(expr.left, q.model)
        b = _eval_prob(expr.right, q.model)
        ordering, ratio, difference = compare_values(a, b)
        if ratio is not None:
            return EvalResult(f"{ordering} (ratio {render_exact(ratio)})")
        return EvalResult(f"{ordering} (difference "
                          f"{render_exact(difference)})")
    raise TypeError(f"not a query expression: {expr!r}")


def evaluate_value(q: Query) -> Value:
    """The raw exact value of a probability or standard-part query."""
    expr = q.expr
    if isinstance(expr, Prob):
        return _eval_prob(expr, q.model)
    if isinstance(expr, St):
        return _value_st(_eval_prob(expr.prob, q.model))
    raise QueryTypeError("only P(...) and st(...) queries produce a value "
                         "to compare")
