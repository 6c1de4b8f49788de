"""Event/probability query language over the five models.

Grammar (ASCII aliases next to the set symbols):

    query    := model ":" expr
    model    := "minimal" | "grid" | "cantor" | "coinflip" | "lottery"
    expr     := "st" "(" prob ")" | "classify" "(" prob ")"
              | "compare" "(" prob "," prob ")" | prob
    prob     := "P" "(" set [ "|" set ] ")"
    set      := run { ("u" | "∪") run | ("n" | "∩") atom }
    run      := literal { ("u" | "∪") literal } | atom
    atom     := literal | "full"
              | "compl" "(" set ")" | "translate" "(" set "," rational ")"
              | coin | ticket
    literal  := interval | braces
    interval := ("[" | "(") rational "," rational (")" | "]")
    braces   := "{" [ item { "," item } ] "}"
    item     := nat [ "/" nat ]
    coin     := "allheads" [">" nat] ["&" pin] | pin
    pin      := "pin" "(" [ nat ":" ("H"|"T") { "," ... } ] ")"
    ticket   := "ticket" | "tickets" "(" nat ")"
    rational := ["-"] nat ["/" nat]

A ``rational`` in an interval literal or a translate offset is read as
the ints (p, q) in lowest terms with q > 0 (``TokenCursor.expect_ratio``),
and a rational brace point as the same pair at evaluation; the interval
kernel's cuts hold those ints, so no ``Fraction`` is made for an endpoint
or an offset.  A brace item is resolved against the selected model: a
rational point for the interval models, a {0,2}-address for the cantor
model.  A run of digits (a numeral or an address) holds at most 4300 of
them.  Parse errors carry the offending position and the expected
tokens; vocabulary mismatches (a cylinder set under the grid model, set
union of coin events, ...) raise :class:`QueryTypeError` during
evaluation.

The text is read once, token by token.  Interval literals, ``[1/3, 2/3)``,
and brace lists, ``{0022, 2}`` or ``{1/3, 0}``, joined by ``u`` where a
run of ``u`` operands starts (at the start of a set and after each ``u``,
not after ``n``) become one :class:`LiteralRun` node; a lone literal is a
run of one.  A run is built as one set, so a long union of literals costs
one merge.  Endpoints and brace items are validated at evaluation, in
operand order, so the first bad part of a run names the error.  A set
with a ``u`` or ``n`` is one flat :class:`SetChain` node, its operands in
order; a set without one is its lone operand.  Only ``compl`` and
``translate`` nest a set, at most 64 deep, so a parsed query of any length
the parser accepts compares, hashes and prints.

The syntax nodes are slotted dataclasses with ``==`` and ``hash`` over
their fields, not frozen ones: a frozen dataclass sets each field through
``object.__setattr__``, which more than doubles the cost of building a
node, and parsing builds several per query.  Nothing assigns to a node
after it is built.  Nodes of different classes are unequal even when
their fields are equal, so ``St(p) != ClassifyExpr(p)``.

The models are the rows of one table, ``_RULES``, and ``MODELS`` is its
keys: a row names the model's event builder, its probability and its
null-condition message.  A model is its kernels, and its probability is a
function of the event alone.  A row's lambda looks the kernel up in this
module at each call, so a wrapper on the kernel's name here (a tracer, a
test) sees every query of that model.  Interval sets and cylinder events
are built by one fold over ``u``/``n`` chains and ``compl``, with a leaf
builder for each model.  Every model's ``P(A | B)`` is
``intervals.conditional``, as in the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Union

from .cantor import CantorEvent, _is_address, cantor_probability
from .errors import DomainError, ParseError, QueryTypeError
from .field import (NonArchValue, TokenCursor, Value, classify,
                    compare_values, render_exact, render_ratio, standard_part)
from .intervals import (EMPTY_CONDITION, IntervalSet, Ratio, _clean,
                        conditional, lebesgue_length)
from .lottery import (CoinEvent, coinflip_probability,
                      lottery_ticket_probability)
from .spinner import grid_probability

_MAX_NESTING = 64


# -- abstract syntax ------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class BraceLit:
    """A brace list's items, resolved against the model at evaluation."""
    items: tuple[str, ...]


@dataclass(slots=True, unsafe_hash=True)
class LiteralRun:
    """Interval literals and brace lists joined by ``u``: each part an
    interval's (left, left_in, right, right_in) tuple, each endpoint the
    ints (p, q) in lowest terms with q > 0, or a BraceLit; a lone literal
    is a run of one."""
    parts: tuple["tuple[Ratio, bool, Ratio, bool] | BraceLit", ...]


@dataclass(slots=True, unsafe_hash=True)
class FullLit:
    pass


@dataclass(slots=True, unsafe_hash=True)
class SetChain:
    """A ``u``/``n`` chain, flat: its first operand, then each (op, operand)
    pair in order, op the word "u" or "n"."""
    first: "SetNode"
    rest: tuple[tuple[str, "SetNode"], ...]


@dataclass(slots=True, unsafe_hash=True)
class Complement:
    arg: "SetNode"


@dataclass(slots=True, unsafe_hash=True)
class Translate:
    arg: "SetNode"
    offset: Ratio


@dataclass(slots=True, unsafe_hash=True)
class CoinLit:
    all_heads: bool
    dropped: int
    pins: tuple[tuple[int, str], ...]


@dataclass(slots=True, unsafe_hash=True)
class TicketLit:
    count: "int | None"  # None means a single ticket


SetNode = Union[LiteralRun, FullLit, SetChain, Complement, Translate, CoinLit,
                TicketLit]


@dataclass(slots=True, unsafe_hash=True)
class Prob:
    event: SetNode
    given: "SetNode | None" = None


@dataclass(slots=True, unsafe_hash=True)
class St:
    prob: Prob


@dataclass(slots=True, unsafe_hash=True)
class ClassifyExpr:
    prob: Prob


@dataclass(slots=True, unsafe_hash=True)
class CompareExpr:
    left: Prob
    right: Prob


@dataclass(slots=True, unsafe_hash=True)
class Query:
    model: str
    expr: Union[Prob, St, ClassifyExpr, CompareExpr]


# -- parser ---------------------------------------------------------------------

_OPS = "[](){},:|&>/∪∩-"

# the set operators: the words u and n, and the symbols read as them
_SET_OPS = {"u": "u", "n": "n", "∪": "u", "∩": "n"}

_WRAPPERS = {"st": St, "classify": ClassifyExpr, "compare": CompareExpr}

# the words a literal starts with
_LITERAL_START = ("(", "[", "{")


class _Parser(TokenCursor):
    def __init__(self, text: str):
        super().__init__(text, _OPS)
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
        """A lone operand, or the SetChain of a set with an operator."""
        first = self.parse_atom()
        words, rest = self.words, []
        while True:
            op = words[self.pos]
            if op != "u" and op != "n":
                return SetChain(first, tuple(rest)) if rest else first
            self.pos += 1
            rest.append((op, self.parse_atom()))

    def parse_atom(self) -> SetNode:
        word = self.peek()
        if not word:
            self.fail("a set expression")
        if word in _LITERAL_START:
            return self.parse_run()
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
            offset = self.expect_ratio()
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

    def parse_run(self) -> LiteralRun:
        """A literal.  Where a run of ``u`` operands starts, at the start of
        a set or after ``u`` but not after ``n``, the literals joined by
        ``u`` that follow it are read too, as one LiteralRun."""
        words, start = self.words, self.pos
        parts = [self.parse_literal()]
        if words[start - 1] != "n":
            while words[self.pos] == "u" and \
                    words[self.pos + 1] in _LITERAL_START:
                self.pos += 1
                parts.append(self.parse_literal())
        return LiteralRun(tuple(parts))

    def parse_literal(self) -> "tuple | BraceLit":
        """An interval's (left, left_in, right, right_in) tuple, its
        endpoints reduced pairs, or a brace list; the rules read the words
        directly, for a long run's sake."""
        words = self.words
        opening = words[self.pos]
        self.pos += 1
        if opening == "{":
            return self.parse_braces()
        left = self.expect_ratio()
        if words[self.pos] != ",":
            self.fail("','")
        self.pos += 1
        right = self.expect_ratio()
        closing = words[self.pos]
        if closing != ")" and closing != "]":
            self.fail("')' or ']'")
        self.pos += 1
        return left, opening == "[", right, closing == "]"

    def parse_braces(self) -> BraceLit:
        """The items after ``{``: a numeral as written, ``p/q`` in decimal."""
        words, i, items = self.words, self.pos, []
        if words[i] != "}":
            while True:
                item = words[i]
                if not item.isdecimal():
                    self.pos = i
                    self.fail("a point or cylinder address")
                if words[i + 1] == "/":
                    item = f"{int(item)}/{self.denominator_at(i + 2)}"
                    i += 2
                items.append(item)
                i += 1
                if words[i] == "}":
                    break
                if words[i] != ",":
                    self.pos = i
                    self.fail("','")
                i += 1
        self.pos = i + 1
        return BraceLit(tuple(items))

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
    return _Parser(text).parse_query()


# -- evaluation -----------------------------------------------------------------

def _fold(node: SetNode, leaf, *args):
    """The set of ``node``, built by ``leaf(operand, *args)`` but for chains
    and ``compl``:
    a SetChain's operands are read in one loop over its pairs, ``A u B n C``
    is ``(A u B) n C``, operands are built in order so the first bad one
    names the error, and each maximal ``u`` run is one union."""
    if isinstance(node, Complement):
        return _fold(node.arg, leaf, *args).complement()
    if not isinstance(node, SetChain):
        return leaf(node, *args)
    event, run = None, [_fold(node.first, leaf, *args)]
    for op, operand in node.rest:
        part = _fold(operand, leaf, *args)
        if op == "u":
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
    """One operand under an interval model; a LiteralRun's parts make one
    set, checked in operand order."""
    if isinstance(node, LiteralRun):
        cuts = []
        for part in node.parts:
            if not isinstance(part, BraceLit):
                cuts += _clean(*part)
                continue
            for item in part.items:
                if len(item) > 1 and _is_address(item):
                    raise QueryTypeError(
                        f"brace item {item!r} looks like a cylinder address; "
                        f"cylinder sets belong to the cantor model, not "
                        f"{model}")
                p, _, q = item.partition("/")
                p, q = int(p), int(q or 1)
                g = gcd(p, q)
                x = (p // g, q // g)
                cuts += _clean(x, True, x, True)
    elif isinstance(node, FullLit):
        cuts = _clean((0, 1), True, (1, 1), False)
    elif isinstance(node, Translate):
        return _to_interval_set(node.arg, model)._translate(*node.offset)
    elif isinstance(node, CoinLit):
        raise QueryTypeError(f"coin events do not belong to the {model} model")
    elif isinstance(node, TicketLit):
        raise QueryTypeError(f"ticket events do not belong to the {model} "
                             f"model")
    else:
        raise TypeError(f"not a set node: {node!r}")
    return IntervalSet._from_cuts(cuts)


def _to_interval_set(node: SetNode, model: str) -> IntervalSet:
    return _fold(node, _interval_leaf, model)


def _cantor_leaf(node: SetNode) -> CantorEvent:
    if isinstance(node, LiteralRun):
        # the items of the brace lists before the first interval literal
        items = []
        for part in node.parts:
            if not isinstance(part, BraceLit):
                break
            items += part.items
        try:
            event = CantorEvent(items)
        except DomainError:
            bad = next(i for i in items if not _is_address(i))
            raise QueryTypeError(
                f"brace item {bad!r} is not a cylinder address over {{0,2}}; "
                f"rational points belong to the interval models") from None
        if not isinstance(part, BraceLit):
            raise QueryTypeError("interval sets do not belong to the cantor "
                                 "model; use cylinder addresses over {0,2}")
        return event
    if isinstance(node, FullLit):
        return CantorEvent.full()
    if isinstance(node, Translate):
        raise QueryTypeError("translate is not defined for cylinder events")
    raise QueryTypeError("this event does not belong to the cantor model")


def _to_cantor_event(node: SetNode) -> CantorEvent:
    return _fold(node, _cantor_leaf)


def _to_coin_event(node: SetNode) -> CoinEvent:
    if isinstance(node, CoinLit):
        return CoinEvent(node.dropped, node.pins, node.all_heads)
    first, rest = (node.first, node.rest) if isinstance(node, SetChain) \
        else (node, ())
    # a run of two or more literals is a union
    if (isinstance(first, LiteralRun) and len(first.parts) > 1
            or any(op == "u" for op, _ in rest)):
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


# model -> (event builder, probability, DomainError message for a condition
# of probability 0, or None where the model has no conditional queries)
_RULES = {
    "minimal": (partial(_to_interval_set, model="minimal"),
                lambda event: lebesgue_length(event),
                "conditioning on a null event: the minimal model assigns it "
                "measure 0, so the conditional is undefined here"),
    "grid": (partial(_to_interval_set, model="grid"),
             lambda event: grid_probability(event), EMPTY_CONDITION),
    "cantor": (_to_cantor_event, lambda event: cantor_probability(event),
               EMPTY_CONDITION),
    "coinflip": (_to_coin_event, lambda event: coinflip_probability(event),
                 "conditioning on an inconsistent coin event"),
    "lottery": (_to_ticket_count,
                lambda count: lottery_ticket_probability(count), None),
}
MODELS = tuple(_RULES)


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


@dataclass(slots=True)
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
        text = render_exact(v)
        # a rational (the minimal model's value, st(...)) is its own
        # standard part; a field value's is read from its integer form
        st_text = (render_ratio(*v._standard_ratio())
                   if isinstance(v, NonArchValue) else text)
        return EvalResult(text, st_text, classify(v).render())
    if isinstance(expr, ClassifyExpr):
        v = _eval_prob(expr.prob, q.model)
        return EvalResult(classify(v).render())
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
        return standard_part(_eval_prob(expr.prob, q.model))
    raise QueryTypeError("only P(...) and st(...) queries produce a value "
                         "to compare")
