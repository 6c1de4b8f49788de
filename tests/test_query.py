import json
import random
import string
import sys
import time
from fractions import Fraction as F
from functools import cache, partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _refs import render_query, render_set
from spinnerlab import cantor, intervals, query, spinner
from spinnerlab.errors import DomainError, ParseError, QueryTypeError
from spinnerlab.field import NonArchValue
from spinnerlab.query import (BraceLit, ClassifyExpr, CoinLit, Complement,
                              CompareExpr, EvalResult, FullLit, LiteralRun,
                              Prob, Query, SetChain, St, TicketLit,
                              Translate, evaluate, evaluate_value,
                              parse_query, _to_cantor_event, _to_interval_set)
from spinnerlab.spinner import SPINNER_GENERATOR


def interval_part(left, left_in, right, right_in):
    """An interval literal as a run holds it: each rational endpoint as the
    ints (p, q) in lowest terms."""
    return (F(left).as_integer_ratio(), left_in,
            F(right).as_integer_ratio(), right_in)


def interval_lit(left, left_in, right, right_in):
    """A lone interval literal: a run of one."""
    return LiteralRun((interval_part(left, left_in, right, right_in),))


def brace_lit(*items):
    """A lone brace list: a run of one."""
    return LiteralRun((BraceLit(items),))


# -- parsing ----------------------------------------------------------------------

def test_parse_union_of_interval_and_point():
    q = parse_query("grid: P([0,1/4) u {1/3})")
    assert q.model == "grid"
    assert q.expr == Prob(LiteralRun((
        interval_part(F(0), True, F(1, 4), False), BraceLit(("1/3",)))))


def test_parse_standard_part_query():
    q = parse_query("grid: st(P({1/3}))")
    assert q == Query("grid", St(Prob(brace_lit("1/3"))))
    # nodes of different kinds are unequal even when their fields are equal
    p = q.expr.prob
    assert St(p) != ClassifyExpr(p) and ClassifyExpr(p) != St(p)
    assert Complement(FullLit()) != Translate(FullLit(), (0, 1))


def test_parse_reports_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_query("minimal: P([0,1/2]")
    assert "end of input" in str(exc.value)
    assert "')'" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_query("minimal: P [0,1/2])")
    assert exc.value.position == 11

    with pytest.raises(ParseError) as exc:
        parse_query("grid: P({1/3}) extra")
    assert "trailing input" in str(exc.value)

    # a brace point with a zero denominator is a parse error at the
    # denominator, like an interval endpoint
    for text, position in (("grid: P({1/0})", 11), ("minimal: P({3/0})", 14),
                           ("grid: P([0,1/0))", 13)):
        with pytest.raises(ParseError) as exc:
            parse_query(text)
        assert str(exc.value) == "zero denominator in rational literal"
        assert exc.value.position == position


def test_parse_reads_every_whitespace_character_between_tokens():
    expected = parse_query("grid: P(full)")
    for text in ("grid:\x0bP(full)", "grid:\xa0P(full)", "grid: P(full)\x0b",
                 "grid: P(full)\u3000", "\u3000grid :\x0cP (\tfull\n)"):
        assert parse_query(text) == expected, repr(text)
    with pytest.raises(ParseError, match="unexpected character '.'") as exc:
        parse_query("grid:\xa0P(full) .")
    assert exc.value.position == 14


def test_parse_unknown_model():
    with pytest.raises(ParseError, match="unknown model 'uniform'"):
        parse_query("uniform: P(full)")


def test_parse_conditional_and_operators():
    q = parse_query("grid: P([0,1/4) | [0,1/2) ∪ {3/4})")
    assert q.expr.given is not None
    q2 = parse_query("grid: P([0,1/4) | [0,1/2) u {3/4})")
    assert q == q2
    q3 = parse_query("grid: P([0,1/2) ∩ (1/4,1))")
    q4 = parse_query("grid: P([0,1/2) n (1/4,1))")
    assert q3 == q4


def test_parse_coin_literals():
    assert parse_query("coinflip: P(allheads)").expr.event \
        == CoinLit(True, 0, ())
    assert parse_query("coinflip: P(allheads>3)").expr.event \
        == CoinLit(True, 3, ())
    assert parse_query("coinflip: P(pin(1:H,2:T))").expr.event \
        == CoinLit(False, 0, ((1, "H"), (2, "T")))
    assert parse_query("coinflip: P(allheads&pin(2:T))").expr.event \
        == CoinLit(True, 0, ((2, "T"),))


def test_parse_ticket_literals():
    assert parse_query("lottery: P(ticket)").expr.event == TicketLit(None)
    assert parse_query("lottery: P(tickets(1000))").expr.event \
        == TicketLit(1000)


def test_parse_nesting_guard():
    deep = "grid: P(" + "compl(" * 200 + "{0}" + ")" * 200 + ")"
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_query(deep)


# errors that must read the same whether or not a text holds interval
# literals: (query, message, position)
PINNED_PARSE_ERRORS = [
    ("lottery: P(tickets(1,2))",
     "syntax error at position 20: got ',', expected ')'", 20),
    ("coinflip: P(pin(1,2))",
     "syntax error at position 17: got ',', expected ':'", 17),
    ("grid: P(full [0,1))",
     "syntax error at position 13: got '[', expected ')'", 13),
    ("grid: P([0,1/0) u [0,1))", "zero denominator in rational literal", 13),
    ("minimal: P([0,1/\u0660))", "zero denominator in rational literal", 16),
]


@pytest.mark.parametrize("text, message, position", PINNED_PARSE_ERRORS)
def test_parse_errors_keep_message_and_position(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert str(exc.value) == message
    assert exc.value.position == position


def test_interval_literals_are_validated_at_evaluation_in_operand_order():
    q = parse_query("cantor: P([1/2,0))")
    with pytest.raises(QueryTypeError, match="interval sets do not belong"):
        evaluate(q)
    with pytest.raises(DomainError,
                       match="interval endpoints out of order: 1/2 > 0"):
        evaluate(parse_query("grid: P([1/2,0) u {0202})"))
    with pytest.raises(QueryTypeError, match="brace item '0202' looks like"):
        evaluate(parse_query("grid: P({0202} u [1/2,0))"))
    # the first bad part of a run of interval literals and brace lists
    # names the error
    with pytest.raises(QueryTypeError, match="brace item '02' looks like"):
        evaluate(parse_query("grid: P([0,1/2) u {02} u [2,3))"))
    with pytest.raises(QueryTypeError, match="interval sets do not belong"):
        evaluate(parse_query("cantor: P({02} u [0,1) u {5})"))
    # a union of interval literals under the coin model is a union first
    for text in ("coinflip: P([0,1) u [0,1))",
                 "coinflip: P([0,1) u [0,1) n pin(1:H))"):
        with pytest.raises(QueryTypeError, match="union of coin events"):
            evaluate(parse_query(text))


def test_interval_literals_read_unicode_decimal_digits():
    r = evaluate(parse_query("minimal: P([0,\u0661/\u0663))"))
    assert r.lines()[0] == "value: 1/3"


# -- render/parse round trip ----------------------------------------------------------

INTERVAL_ATOMS = [
    interval_lit(F(0), True, F(1, 2), False),
    interval_lit(F(1, 3), False, F(2, 3), True),
    brace_lit("1/3"),
    brace_lit("0", "1/2", "3/4"),
    FullLit(),
]


def _run_parts(node):
    """The parts of a LiteralRun, else ()."""
    return node.parts if isinstance(node, LiteralRun) else ()


def chain(left, op, right):
    """``left op right`` as one flat SetChain: a chain ``left`` is
    extended, any other node is its first operand."""
    if isinstance(left, SetChain):
        return SetChain(left.first, left.rest + ((op, right),))
    return SetChain(left, ((op, right),))


def canonical_union(left, right):
    """The node the parser builds for ``left u right``: where a run of u
    operands starts (a chain's first operand, or one after u), literals
    joined by u are one LiteralRun."""
    if isinstance(right, LiteralRun):
        if _run_parts(left):
            return LiteralRun(_run_parts(left) + _run_parts(right))
        if isinstance(left, SetChain):
            op, last = left.rest[-1]
            if op == "u" and _run_parts(last):
                return SetChain(left.first, left.rest[:-1] + (
                    ("u", LiteralRun(_run_parts(last) + _run_parts(right))),))
    return chain(left, "u", right)


def gen_interval_set(rng, depth):
    if depth == 0:
        return rng.choice(INTERVAL_ATOMS)
    kind = rng.randrange(4)
    if kind == 0:
        return Complement(gen_interval_set(rng, depth - 1))
    if kind == 1:
        arg = gen_interval_set(rng, depth - 1)
        t = F(rng.randint(-8, 8), rng.randint(1, 8))
        return Translate(arg, (t.numerator, t.denominator))
    left = gen_interval_set(rng, depth - 1)
    right = gen_interval_set(rng, 0)
    if kind == 2:
        return canonical_union(left, right)
    return chain(left, "n", right)


def gen_cantor_set(rng, depth):
    atoms = [brace_lit("0"), brace_lit("02", "20"), brace_lit("222"),
             FullLit()]
    if depth == 0:
        return rng.choice(atoms)
    kind = rng.randrange(3)
    if kind == 0:
        return Complement(gen_cantor_set(rng, depth - 1))
    left = gen_cantor_set(rng, depth - 1)
    if kind == 1:
        return canonical_union(left, rng.choice(atoms))
    return chain(left, "n", rng.choice(atoms))


def gen_query(rng):
    model = rng.choice(("minimal", "grid", "cantor", "coinflip", "lottery"))
    depth = rng.randint(0, 5)
    if model in ("minimal", "grid"):
        event = gen_interval_set(rng, depth)
        given = gen_interval_set(rng, 0) if rng.random() < 0.3 else None
    elif model == "cantor":
        event = gen_cantor_set(rng, depth)
        given = gen_cantor_set(rng, 0) if rng.random() < 0.3 else None
    elif model == "coinflip":
        event = rng.choice([CoinLit(True, 0, ()), CoinLit(True, 2, ()),
                            CoinLit(False, 0, ((1, "H"),)),
                            CoinLit(True, 1, ((3, "H"),))])
        given = CoinLit(True, 1, ()) if rng.random() < 0.3 else None
    else:
        event = rng.choice([TicketLit(None), TicketLit(7)])
        given = None
    prob = Prob(event, given)
    wrap = rng.randrange(4)
    if wrap == 0:
        return Query(model, St(prob))
    if wrap == 1:
        return Query(model, CompareExpr(prob, Prob(event)))
    return Query(model, prob)


def test_render_parse_round_trip_to_depth_5():
    rng = random.Random(71)
    names = {**vars(query), "Fraction": F}
    for _ in range(500):
        q = gen_query(rng)
        parsed = parse_query(render_query(q))
        assert parsed == q
        assert hash(parsed) == hash(q)
        assert eval(repr(q), names) == q


def test_render_parse_round_trip_of_non_canonical_chains():
    # a chain of literals built pair by pair renders as the run the parser
    # reads back: the text and the value survive, the runs need not
    rng = random.Random(77)
    atoms = INTERVAL_ATOMS + [interval_lit(F(1, 5), True, F(1, 5), True)]
    runs = 0
    for _ in range(300):
        node = rng.choice(atoms)
        for _ in range(rng.randint(1, 12)):
            node = chain(node, rng.choice("uun"), rng.choice(atoms))
        text = f"grid: P({render_set(node)})"
        parsed = parse_query(text)
        event = parsed.expr.event
        operands = ([event.first, *(o for _, o in event.rest)]
                    if isinstance(event, SetChain) else [event])
        runs += any(len(_run_parts(operand)) > 1 for operand in operands)
        assert render_query(parsed) == text
        assert evaluate(parsed) == evaluate(Query("grid", Prob(node)))
    assert runs > 50


def _mixed_chain_text():
    """A 5000-operand grid chain of random operators and atoms."""
    rng = random.Random(75)
    atoms = ("[0,1/2)", "(1/3,2/3]", "{1/3}", "{0, 1/2, 3/4}", "full",
             "compl([0,1/2) n {1/3})", "translate(full,-1/8)")
    return "grid: P(" + rng.choice(atoms) + "".join(
        f" {rng.choice('un')} {rng.choice(atoms)}" for _ in range(4999)) + ")"


def _alternating_chain_text():
    """An 8000-operand grid chain that alternates u and n (83 KB)."""
    return "grid: P(" + " u ".join(
        f"{{{i}/4000}} n full" for i in range(4000)) + ")"


def test_render_parse_round_trip_of_a_5000_operand_chain():
    text = _mixed_chain_text()
    assert render_query(parse_query(text)) == text


@pytest.mark.parametrize("make_text",
                         [_mixed_chain_text, _alternating_chain_text])
def test_a_long_chain_compares_hashes_and_prints(make_text):
    # a chain is one flat node, so ==, hash and repr walk its operands in a
    # loop and do not recurse once per operand
    text = make_text()
    q, again = parse_query(text), parse_query(text)
    assert q is not again and q == again
    assert hash(q) == hash(again)
    assert repr(q) == repr(again)
    assert eval(repr(q), {**vars(query), "Fraction": F}) == q
    assert q != parse_query(text.replace(" n ", " u ", 1))


# -- a u run of literals is one node ---------------------------------------------

def test_a_u_run_of_interval_literals_is_one_node():
    a = interval_part(F(0), True, F(1, 4), False)
    b = interval_part(F(1, 3), False, F(1, 2), True)
    assert parse_query("grid: P([0,1/4) u (1/3,1/2])").expr.event \
        == LiteralRun((a, b))
    # interval literals and brace lists join one run
    assert parse_query("grid: P([0,1/4) u {1/3} u (1/2,1])").expr.event \
        == LiteralRun((a, BraceLit(("1/3",)),
                       interval_part(F(1, 2), False, F(1), True)))
    # a literal after n is one operand, so the chain still folds left to
    # right: ((a n b) u a) u b
    assert parse_query("grid: P([0,1/4) n (1/3,1/2] u [0,1/4) u (1/3,1/2])"
                       ).expr.event \
        == SetChain(LiteralRun((a,)),
                    (("n", LiteralRun((b,))), ("u", LiteralRun((a, b)))))
    # and so is a brace list after n
    assert parse_query("cantor: P({0} n {02} u {2})").expr.event \
        == SetChain(brace_lit("0"),
                    (("n", brace_lit("02")), ("u", brace_lit("2"))))
    # a literal reads any whitespace between its tokens
    assert parse_query("grid: P(\u3000( 1 /3 ,\xa01/2\t] u [0,1/4))") \
        == parse_query("grid: P((1/3,1/2] u [0,1/4))")


_UNIT = st.fractions(0, 1, max_denominator=12)
_INTERVAL_LITERAL = st.builds(
    lambda lb, ends, rb: f"{lb}{min(ends)},{max(ends)}{rb}",
    st.sampled_from("[("), st.tuples(_UNIT, _UNIT), st.sampled_from(")]"))


def _braces(items):
    return st.lists(items, max_size=3).map(
        lambda xs: "{" + ", ".join(map(str, xs)) + "}")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["minimal", "grid", "cantor"]), st.data())
def test_a_run_equals_the_pairwise_union_of_its_operands(model, data):
    if model == "cantor":
        operand = _braces(st.text("02", min_size=1, max_size=5))
        build = _to_cantor_event
    else:
        operand = st.one_of(_INTERVAL_LITERAL, _braces(_UNIT))
        build = partial(_to_interval_set, model=model)
    texts = data.draw(st.lists(operand, min_size=1, max_size=8))
    run = parse_query(f"{model}: P({' u '.join(texts)})").expr.event
    assert isinstance(run, LiteralRun) and len(run.parts) == len(texts)
    sets = [build(parse_query(f"{model}: P({t})").expr.event) for t in texts]
    expected = sets[0]
    for s in sets[1:]:
        expected = expected | s
    assert build(run) == expected


def _space(rng):
    return "".join(rng.choice(" \t\xa0\u3000")
                   for _ in range(rng.randint(0, 2)))


def _numeral(rng):
    # mostly short numerals; zeros for denominators, and numerals at and
    # just past the digit cap
    kind = rng.randrange(100)
    if kind == 0:
        return rng.choice(["1" * 4300, "1" * 4301])
    if kind < 8:
        return rng.choice(["0", "00", "\u0660"])
    return "".join(rng.choice("0123456789\u0660\u0661\u0663")
                   for _ in range(rng.randint(1, 3)))


def _endpoint_text(rng):
    text = rng.choice(["", "", "", "-"]) + _space(rng) + _numeral(rng)
    if rng.random() < 0.5:
        text += _space(rng) + "/" + _space(rng) + _numeral(rng)
    return text


def _literal_text(rng):
    return (rng.choice("[(") + _space(rng) + _endpoint_text(rng) + _space(rng)
            + "," + _space(rng) + _endpoint_text(rng) + _space(rng)
            + rng.choice(")]"))


def _unit_literal_text(rng):
    """A literal inside [0,1] with its endpoints in order."""
    d = rng.randint(1, 12)
    a = rng.randint(0, d)
    b = rng.randint(a, d)
    return (rng.choice("[(") + _space(rng) + f"{a}/{d}" + _space(rng) + ","
            + f"{b}" + _space(rng) + f"/{d}" + rng.choice(")]"))


def _brace_item_text(rng):
    # an address, often with leading zeros, or any numeral; sometimes a
    # denominator, which may be 0 or 00
    if rng.random() < 0.5:
        text = "".join(rng.choice("02") for _ in range(rng.randint(1, 6)))
    else:
        text = _numeral(rng)
    if rng.randrange(4) == 0:
        text += _space(rng) + "/" + _space(rng) + _numeral(rng)
    return text


def _brace_text(rng):
    """A brace list, now and then with a stray leading or trailing comma."""
    inner = "".join(_space(rng) + "," + _space(rng) + _brace_item_text(rng)
                    for _ in range(rng.randint(0, 4)))[1:]
    if rng.randrange(10) == 0:
        inner += ","
    return "{" + _space(rng) + inner + _space(rng) + "}"


def _unit_brace_text(rng):
    """A brace list of points in [0,1] or of cylinder addresses."""
    d = rng.randint(1, 12)
    items = [f"{rng.randint(0, d)}/{d}" if d > 1 else "".join(
        rng.choice("02") for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(1, 3))]
    return "{" + _space(rng) + ", ".join(items) + _space(rng) + "}"


def _operand_text(rng):
    kind = rng.randrange(40)
    if kind < 2:
        return ("tickets", "pin")[kind] + _literal_text(rng)
    if kind < 5:
        return rng.choice(["{1/3}", "full"])
    if kind < 18:
        return _unit_literal_text(rng)
    if kind < 24:
        return _literal_text(rng)
    if kind < 34:
        return _unit_brace_text(rng)
    return _brace_text(rng)


def _literal_query(rng):
    """A query whose set holds interval literals and brace lists, some of
    them where the grammar wants something else (after tickets, pin, P or
    n)."""
    operands = [_operand_text(rng) for _ in range(rng.randint(1, 6))]
    chain = operands[0] + "".join(
        f"{_space(rng)} {rng.choice(['u', 'n', '∪', '∩'])} {_space(rng)}{x}"
        for x in operands[1:])
    model = rng.choice(query.MODELS[:3] * 3 + query.MODELS[3:])
    if rng.randrange(30) == 0:
        return f"{model}: P{operands[0]}"
    return f"{model}: P({chain})"


# brace lists at the edges of the grammar: empty, stray commas, leading
# zeros, zero and over-long denominators, numerals at the digit cap
BRACE_EDGE_CASES = [
    "{}", "{ }", "{\u3000}", "{0002, 02}", "{007/0010, 0}", "{1/0}",
    "{1/00}", "{1 / \u0660}", "{0,}", "{0, 2,}", "{,}", "{0 2}",
    "{\u0661/\u0663,\xa0\u0660}", "{\t0\u3000,\xa02 }",
    "{" + "0" * 4300 + "}", "{" + "0" * 4301 + "}",
    "{1/" + "1" * 4300 + "}", "{1/" + "1" * 4301 + "}",
    "{1/2/3}", "{-1/2}", "{0} u {2}", "compl({00, 02})",
]

# the outcome of every brace edge case and of 500 random literal queries,
# recorded at commit 9e942db, when parse_query first read each interval
# literal and brace list as one regular-expression word
LITERAL_OUTCOMES = Path(__file__).parent / "data" / "literal_outcomes.json"


@cache
def recorded_outcomes():
    with LITERAL_OUTCOMES.open(encoding="utf-8") as fh:
        return {entry["text"]: entry["outcome"] for entry in json.load(fh)}


def literal_outcome(text):
    """The rendered query and its result lines, or an error's type, message
    and position, at the first step that raises."""
    outcome = {}
    try:
        q = parse_query(text)
        outcome["render"] = render_query(q)
        outcome["lines"] = evaluate(q).lines()
    except (ParseError, QueryTypeError, DomainError) as exc:
        outcome["error"] = [type(exc).__name__, str(exc),
                            getattr(exc, "position", None)]
    return outcome


def test_literal_words_agree_with_the_plain_token_pass():
    """The token rules give each random literal query the outcome that the
    literal-word reader gave it."""
    rng = random.Random(16)
    for _ in range(500):
        text = _literal_query(rng)
        assert literal_outcome(text) == recorded_outcomes()[text], text


@pytest.mark.parametrize("model", query.MODELS)
@pytest.mark.parametrize("braces", BRACE_EDGE_CASES,
                         ids=[ascii(b)[:24] for b in BRACE_EDGE_CASES])
def test_brace_words_agree_with_the_plain_token_pass(model, braces):
    """The token rules give each brace edge case the outcome that the
    brace-word reader gave it, alone and as a condition."""
    for text in (f"{model}: P({braces})", f"{model}: P(full | {braces})"):
        assert literal_outcome(text) == recorded_outcomes()[text]


# -- every query form keeps its recorded outcome ----------------------------------

def _form_rational(rng, lo=0, hi=1):
    """A rational in [lo, hi] over a small denominator, as written."""
    q = rng.randint(1, 40)
    return str(F(rng.randint(lo * q, hi * q), q))


def _form_interval_operand(rng, depth):
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        a, b = sorted(F(_form_rational(rng)) for _ in range(2))
        return f"{rng.choice('[(')}{a},{b}{rng.choice(')]')}"
    if kind == 1:
        return "{" + ", ".join(_form_rational(rng)
                               for _ in range(rng.randint(0, 4))) + "}"
    if kind == 2:
        return "full"
    if kind == 3:
        # a run of literals joined by u
        return " u ".join(_form_interval_operand(rng, 0)
                          for _ in range(rng.randint(2, 4)))
    if kind == 4:
        return rng.choice(["[0,1)", "[0,1]", "(0,1)", "{0}", "{}"])
    if kind in (5, 6):
        return f"compl({_form_set(rng, depth - 1, _form_interval_operand)})"
    return (f"translate({_form_set(rng, depth - 1, _form_interval_operand)},"
            f"{_form_rational(rng, -2, 2)})")


def _form_cantor_operand(rng, depth):
    kind = rng.randrange(4 if depth else 3)
    if kind == 0:
        return "{" + ", ".join(
            "".join(rng.choice("02") for _ in range(rng.randint(1, 7)))
            for _ in range(rng.randint(0, 6))) + "}"
    if kind == 1:
        return "full"
    if kind == 2:
        return rng.choice(["{0}", "{2}", "{}", "{0, 2}", "{00, 22}"])
    return f"compl({_form_set(rng, depth - 1, _form_cantor_operand)})"


def _form_coin_operand(rng, depth):
    pins = ",".join(f"{p}:{rng.choice('HT')}" for p in
                    rng.sample(range(1, 12), rng.randint(0, 4)))
    kind = rng.randrange(5)
    if kind == 0:
        return "allheads"
    if kind == 1:
        return f"allheads>{rng.randint(0, 70)}"
    if kind == 2:
        return f"allheads>{rng.randint(0, 9)}&pin({pins})"
    if kind == 3:
        return f"allheads&pin({pins})"
    return f"pin({pins})"


def _form_ticket_operand(rng, depth):
    return rng.choice(["ticket", f"tickets({rng.randint(1, 10 ** 6)})"])


def _form_set(rng, depth, operand):
    """A set of up to four operands joined by the model's operators."""
    ops = ["n", "∩"] if operand is _form_coin_operand else ["u", "n", "∪",
                                                            "∩"]
    text = operand(rng, depth)
    for _ in range(rng.randrange(4) if operand is not _form_ticket_operand
                   else 0):
        text += f" {rng.choice(ops)} {operand(rng, depth)}"
    return text


_FORM_OPERANDS = {"minimal": _form_interval_operand,
                  "grid": _form_interval_operand,
                  "cantor": _form_cantor_operand,
                  "coinflip": _form_coin_operand,
                  "lottery": _form_ticket_operand}


def _form_prob(rng, model):
    # one set in 25 is another model's, so type errors show too
    operand = (_FORM_OPERANDS[rng.choice(query.MODELS)]
               if rng.randrange(25) == 0 else _FORM_OPERANDS[model])
    event = _form_set(rng, 2, operand)
    if model == "lottery" or rng.randrange(3):
        return f"P({event})"
    return f"P({event} | {_form_set(rng, 1, _FORM_OPERANDS[model])})"


def _form_query(rng):
    """A query of any form: P, P(A | B), st, classify or compare, over any
    model."""
    model = rng.choice(query.MODELS)
    form = rng.randrange(5)
    if form == 0:
        return f"{model}: st({_form_prob(rng, model)})"
    if form == 1:
        return f"{model}: classify({_form_prob(rng, model)})"
    if form == 2:
        return (f"{model}: compare({_form_prob(rng, model)}, "
                f"{_form_prob(rng, model)})")
    return f"{model}: {_form_prob(rng, model)}"


# one text for each kind of user error
USER_ERROR_QUERIES = [
    "grid: P(full) #", "grid: P({" + "1" * 4301 + "})",
    "uniform: P(full)", "u: P(full)", "grid P(full)", "grid: P(full",
    "grid: P(full) P", "grid: P([0,1/0))", "coinflip: P(pin(0:H))",
    "grid: P(" + "compl(" * 65 + "full" + ")" * 65 + ")",
    "grid: P(sideways)", "grid: Q(full)", "coinflip: P(pin(1:X))",
    "grid: P({02})", "grid: P(allheads)", "minimal: P(ticket)",
    "cantor: P({1/3})", "cantor: P([0,1))", "cantor: P(translate(full,1/2))",
    "cantor: P(allheads)", "coinflip: P(allheads u pin(1:H))",
    "coinflip: P(full)", "lottery: P(full)",
    "lottery: P(ticket | ticket)", "lottery: P(tickets(0))",
    "grid: P([1/2,0))", "grid: P([0,2))", "minimal: P(full | {1/2})",
    "grid: P(full | {})", "cantor: P(full | {})",
    "coinflip: P(allheads | pin(1:H) n pin(1:T))",
    "coinflip: P(allheads>" + "9" * 30 + ")",
]

# the outcome of USER_ERROR_QUERIES and of 600 random queries of every
# form, recorded at commit 4875932, before the standard part and class
# were printed from the integer form
QUERY_OUTCOMES = Path(__file__).parent / "data" / "query_outcomes.json"


def form_queries():
    """USER_ERROR_QUERIES, then 600 distinct seeded random queries."""
    rng = random.Random(34)
    texts = dict.fromkeys(USER_ERROR_QUERIES)
    while len(texts) < len(USER_ERROR_QUERIES) + 600:
        texts[_form_query(rng)] = None
    return list(texts)


def test_every_query_form_keeps_its_recorded_outcome():
    with QUERY_OUTCOMES.open(encoding="utf-8") as fh:
        recorded = {entry["text"]: entry["outcome"] for entry in json.load(fh)}
    texts = form_queries()
    assert texts == list(recorded)
    for text in texts:
        assert literal_outcome(text) == recorded[text], text


# -- chains fold left to right --------------------------------------------------------

def _rand_interval_operand(rng):
    a, b = sorted(F(rng.randint(0, 12), 12) for _ in range(2))
    kind = rng.randrange(5)
    if kind == 0:
        return f"{{{a}, {b}}}"
    if kind == 1:
        return "full"
    if kind == 2:
        return f"compl([{a},{b}))"
    if kind == 3:
        return f"translate(({a},{b}],{rng.randint(1, 11)}/12)"
    return f"{rng.choice('[(')}{a},{b}{rng.choice(')]')}"


def _rand_cantor_operand(rng):
    def address():
        return "".join(rng.choices("02", k=rng.randint(1, 4)))
    kind = rng.randrange(4)
    if kind == 0:
        return "full"
    if kind == 1:
        return f"compl({{{address()}}})"
    return "{" + ", ".join(address() for _ in range(rng.randint(1, 3))) + "}"


def test_mixed_chains_equal_the_pairwise_left_fold():
    rng = random.Random(74)
    for model, operand, build in (
            ("grid", _rand_interval_operand,
             lambda node: _to_interval_set(node, "grid")),
            ("cantor", _rand_cantor_operand, _to_cantor_event)):
        for _ in range(150):
            texts = [operand(rng) for _ in range(rng.randint(1, 40))]
            ops = [rng.choice("un") for _ in texts[1:]]
            chain = texts[0] + "".join(f" {op} {t}"
                                       for op, t in zip(ops, texts[1:]))
            sets = [build(parse_query(f"{model}: P({t})").expr.event)
                    for t in texts]
            expected = sets[0]
            for op, s in zip(ops, sets[1:]):
                expected = expected | s if op == "u" else expected & s
            got = build(parse_query(f"{model}: P({chain})").expr.event)
            assert got == expected, chain


def test_alternating_4000_operand_chain_matches_a_point_count():
    # every endpoint lies on the lattice k/N, so a set is a bit set with
    # bit 2k for the point k/N and bit 2k+1 for the open cell after it
    n_lattice, rng = 2000, random.Random(76)
    points = int("01" * n_lattice, 2)

    def interval(a, a_in, b, b_in):
        bits = ((1 << 2 * b) - 1) ^ ((1 << 2 * a + 1) - 1)
        bits |= a_in << 2 * a | b_in << 2 * b
        lb, rb = "[" if a_in else "(", "]" if b_in else ")"
        return f"{lb}{F(a, n_lattice)},{F(b, n_lattice)}{rb}", bits

    def union_operand():
        k = rng.randrange(n_lattice - 3)
        if rng.random() < 0.7:
            return f"{{{k}/{n_lattice}}}", 1 << 2 * k
        return interval(k, rng.random() < 0.5, k + rng.randint(1, 3),
                        rng.random() < 0.5)

    def intersect_operand():
        r, k = rng.random(), rng.randrange(n_lattice)
        if r < 0.7:
            return "full", (1 << 2 * n_lattice) - 1
        if r < 0.85:
            return f"compl({{{k}/{n_lattice}}})", \
                ((1 << 2 * n_lattice) - 1) ^ (1 << 2 * k)
        if r < 0.93:
            return interval(0, True, n_lattice - rng.randint(1, 20), False)
        return interval(rng.randint(1, 20), False, n_lattice, False)

    text, members = union_operand()
    for i in range(1, 4000):
        op = "u" if i % 2 else "n"
        operand, bits = union_operand() if op == "u" else intersect_operand()
        text += f" {op} {operand}"
        members = members | bits if op == "u" else members & bits
    cells = (members & points << 1).bit_count()
    dots = (members & points).bit_count()
    assert dots > 1000 and cells > 100  # the set kept growing
    for model, expected in (
            ("minimal", F(cells, n_lattice)),
            ("grid", NonArchValue.affine(SPINNER_GENERATOR,
                                         F(cells, n_lattice), dots - cells))):
        q = f"{model}: P({text})"
        assert evaluate_value(parse_query(q)) == expected
        assert render_query(parse_query(q)) == q


# each model's probability kernel, then a P(A) query and, where the model
# defines conditionals, a P(A | B) query, each with its value
MODEL_KERNELS = {
    "minimal": ("lebesgue_length", ("P([0,1/2))", "1/2"),
                ("P([0,1/4) | [0,1/2))", "1/2")),
    "grid": ("grid_probability", ("P({1/3})", "eps"),
             ("P({1/3} | [0,1/2))", "2*eps")),
    "cantor": ("cantor_probability", ("P({0})", "1/2"),
               ("P({00} | {0})", "1/2")),
    "coinflip": ("coinflip_probability", ("P(allheads)", "h"),
                 ("P(pin(1:H) | pin(2:T))", "1/2")),
    "lottery": ("lottery_ticket_probability", ("P(tickets(3))", "3*delta")),
}


def test_every_model_probability_is_looked_up_at_call_time(monkeypatch):
    """A wrapper on a kernel's name in ``query`` sees every query of its
    model: one call for P(A), two for P(A | B)."""
    assert tuple(MODEL_KERNELS) == query.MODELS
    calls = []
    for name, *_ in MODEL_KERNELS.values():
        def counted(*args, _real=getattr(query, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(query, name, counted)
    for model, (name, *cases) in MODEL_KERNELS.items():
        for text, value in cases:
            calls.clear()
            assert evaluate(parse_query(f"{model}: {text}")).value_text \
                == value
            assert calls == [name] * (1 + ("|" in text)), (model, text)


def test_an_unknown_model_in_a_built_query_is_refused_by_the_table():
    with pytest.raises(QueryTypeError, match="^unknown model 'uniform'$"):
        evaluate(Query("uniform", Prob(FullLit())))


# -- parser totality (fuzz) -------------------------------------------------------------

FUZZ_ALPHABET = string.ascii_letters + string.digits + "[](){}<>,:|&/^*-+. \t"


def test_parser_totality_on_fuzzed_input():
    rng = random.Random(72)
    for _ in range(400):
        text = "".join(rng.choice(FUZZ_ALPHABET)
                       for _ in range(rng.randint(0, 120)))
        try:
            parse_query(text)
        except ParseError:
            pass
    long_text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(10 ** 4))
    with pytest.raises(ParseError):
        parse_query(long_text)


def test_parser_totality_on_mutated_queries():
    rng = random.Random(73)
    base = 'grid: compare(P(translate(compl([0,1/4) u {1/3}),1/8)), P(full))'
    for _ in range(400):
        chars = list(base)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice(FUZZ_ALPHABET)
        try:
            parse_query("".join(chars))
        except ParseError:
            pass


# -- evaluation -----------------------------------------------------------------------

def test_eval_grid_point():
    r = evaluate(parse_query("grid: P({1/3})"))
    assert r == EvalResult("eps", "0", "infinitesimal-positive")


def test_eval_minimal_point_contrast():
    r = evaluate(parse_query("minimal: P({1/3})"))
    assert r.value_text == "0"


def test_eval_standard_part_query():
    r = evaluate(parse_query("grid: st(P({1/3}))"))
    assert r.value_text == "0"


def test_eval_classify_query():
    r = evaluate(parse_query("grid: classify(P({0}))"))
    assert r.value_text == "infinitesimal-positive"
    r = evaluate(parse_query("minimal: classify(P([0,1/2)))"))
    assert r.value_text == "limited-noninfinitesimal-positive"


@pytest.mark.parametrize("text, value, st_text, kind", [
    ("grid: P([0,1/3) u {1/2} | (1/4,1])", "1/9 + 4/3*eps", "1/9",
     "limited-noninfinitesimal-positive"),
    ("cantor: P({02, 2} | {0, 22})", "2/3", "2/3",
     "limited-noninfinitesimal-positive"),
    ("coinflip: P(allheads>3&pin(1:T,5:H) | pin(1:T))", "8*h", "0",
     "infinitesimal-positive"),
    ("lottery: P(tickets(12))", "12*delta", "0", "infinitesimal-positive")])
def test_eval_prints_a_field_value_with_no_fraction(monkeypatch, text, value,
                                                     st_text, kind):
    # the value, its standard part and its class print from the value's
    # integers
    q = parse_query(text)
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    new = F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    lines = evaluate(q).lines()
    monkeypatch.undo()
    assert not built, (lines, built)
    assert lines == [f"value: {value}", f"standard_part: {st_text}",
                     f"classification: {kind}"]


def test_eval_coinflip_compare():
    r = evaluate(parse_query(
        "coinflip: compare(P(allheads), P(allheads>1))"))
    assert r.value_text == "Less (ratio 1/2)"


def test_eval_conditionals():
    r = evaluate(parse_query("grid: P([0,1/4) | [0,1/2))"))
    assert r.value_text == "1/2"
    r = evaluate(parse_query("cantor: P({00} | {0})"))
    assert r.value_text == "1/2"
    r = evaluate(parse_query("coinflip: P(allheads | allheads>1)"))
    assert r.value_text == "1/2"
    r = evaluate(parse_query("grid: P([0,1/2) | {1/3})"))
    assert r.value_text == "1"


def test_eval_translate_and_complement():
    r = evaluate(parse_query("grid: P(translate([3/4,1),1/4))"))
    assert r.value_text == "1/4"
    r = evaluate(parse_query("cantor: P(compl({0}))"))
    assert r.value_text == "1/2"
    r = evaluate(parse_query("minimal: P(compl({1/3}))"))
    assert r.value_text == "1"


def test_eval_lottery():
    r = evaluate(parse_query("lottery: P(tickets(1000))"))
    assert r == EvalResult("1000*delta", "0", "infinitesimal-positive")


def test_eval_inconsistent_coin_event_is_zero():
    r = evaluate(parse_query("coinflip: P(allheads&pin(2:T))"))
    assert r.value_text == "0"
    assert r.classification == "infinitesimal-zero"


def test_eval_lottery_conditional_rejected():
    with pytest.raises(QueryTypeError, match="ticket blocks"):
        evaluate(parse_query("lottery: P(ticket | tickets(2))"))


def test_eval_type_mismatches():
    with pytest.raises(QueryTypeError, match="cylinder"):
        evaluate(parse_query("grid: P({02})"))
    with pytest.raises(QueryTypeError, match="cylinder address"):
        evaluate(parse_query("cantor: P({1/3})"))
    with pytest.raises(QueryTypeError, match="translate"):
        evaluate(parse_query("cantor: P(translate({0},1/3))"))
    with pytest.raises(QueryTypeError, match="union of coin events"):
        evaluate(parse_query("coinflip: P(allheads u pin(1:H))"))
    with pytest.raises(QueryTypeError, match="ticket"):
        evaluate(parse_query("lottery: P([0,1/2))"))
    with pytest.raises(QueryTypeError, match="coin events"):
        evaluate(parse_query("grid: P(allheads)"))
    # the first bad operand of a chain names the error; a union anywhere in
    # a coin chain comes before any operand is read
    with pytest.raises(QueryTypeError, match="cylinder"):
        evaluate(parse_query("grid: P({1/3} n {02} u [1/2,1/4])"))
    with pytest.raises(QueryTypeError, match="not a cylinder address"):
        evaluate(parse_query("cantor: P({0} u {1/3} n translate({0},1/2))"))
    for text in ("coinflip: P({0} n allheads u allheads)",
                 "coinflip: P(allheads u {0} n allheads)"):
        with pytest.raises(QueryTypeError, match="union of coin events"):
            evaluate(parse_query(text))


def test_eval_domain_errors():
    with pytest.raises(DomainError, match="null event"):
        evaluate(parse_query("minimal: P([0,1/2) | {1/3})"))
    with pytest.raises(DomainError, match="empty"):
        evaluate(parse_query("grid: P(full | {})"))
    with pytest.raises(DomainError, match="empty event"):
        evaluate(parse_query("cantor: P(full | {})"))
    with pytest.raises(DomainError, match="inconsistent coin event"):
        evaluate(parse_query("coinflip: P(allheads | allheads&pin(1:T))"))
    with pytest.raises(DomainError, match="out of order"):
        evaluate(parse_query("grid: P({1/3} u [1/2,1/4] u {02})"))


def test_query_conditionals_equal_the_kernel_conditionals():
    def outcome(fn, *args):
        try:
            return fn(*args)
        except DomainError as exc:
            return str(exc)

    rng = random.Random(14)
    for model, operand, build, kernel in (
            ("grid", _rand_interval_operand,
             lambda node: _to_interval_set(node, "grid"),
             partial(intervals.conditional, spinner.grid_probability,
                     null_message=intervals.EMPTY_CONDITION)),
            ("cantor", _rand_cantor_operand, _to_cantor_event,
             partial(intervals.conditional, cantor.cantor_probability,
                     null_message=intervals.EMPTY_CONDITION))):
        for _ in range(200):
            a, b = (" u ".join(operand(rng)
                               for _ in range(rng.randint(1, 3)))
                    for _ in range(2))
            events = [build(parse_query(f"{model}: P({t})").expr.event)
                      for t in (a, b)]
            q = parse_query(f"{model}: P({a} | {b})")
            assert outcome(evaluate_value, q) == outcome(kernel, *events), q
        with pytest.raises(DomainError,
                           match="^conditioning on the empty event$"):
            evaluate_value(parse_query(f"{model}: P(full | compl(full))"))
        full = build(FullLit())
        with pytest.raises(DomainError,
                           match="^conditioning on the empty event$"):
            kernel(full, full.complement())


def _str_without_digit_limit(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_renders_values_past_the_int_digit_limit():
    r = evaluate(parse_query("coinflip: P(allheads>20000)"))
    assert r.value_text == _str_without_digit_limit(2 ** 20000) + "*h"
    r = evaluate(parse_query("coinflip: compare(P(allheads), "
                             "P(allheads>20000))"))
    assert r.value_text == \
        f"Less (ratio 1/{_str_without_digit_limit(2 ** 20000)})"
    # two 4300-digit denominators: the length has about twice as many
    a, b = 10 ** 4299 + 1, 10 ** 4299 + 3
    r = evaluate(parse_query(f"minimal: P([0,1/{a}) u [1/2,{(b + 1) // 2}/{b}))"))
    length = F(1, a) + F((b + 1) // 2, b) - F(1, 2)
    assert r.value_text == (f"{_str_without_digit_limit(length.numerator)}/"
                            f"{_str_without_digit_limit(length.denominator)}")


def test_over_long_numerals_and_drop_counts_are_user_errors():
    long_numeral = "1" + "0" * 4300
    with pytest.raises(ParseError, match="more than 4300 digits") as exc:
        parse_query(f"grid: P([0,1/{long_numeral}))")
    assert exc.value.position == 13
    with pytest.raises(ParseError, match="more than 4300 digits"):
        parse_query(f"lottery: P(tickets({long_numeral}))")
    parse_query(f"grid: P([0,1/{long_numeral[:-1]}))")
    evaluate(parse_query("coinflip: P(allheads>100000)"))
    with pytest.raises(DomainError, match="at most 100000"):
        evaluate(parse_query("coinflip: P(allheads>100001)"))


def test_complement_of_deep_addresses_takes_linear_time():
    rng = random.Random(13)
    addresses = ["".join(rng.choices("02", k=4300)) for _ in range(24)]
    text = "cantor: P(compl({" + ", ".join(addresses) + "}))"
    start = time.perf_counter()
    r = evaluate(parse_query(text))
    elapsed = time.perf_counter() - start
    # 24 distinct cylinders of depth 4300
    assert r.value_text == str(1 - F(24, 2 ** 4300))
    assert elapsed < 1.0, elapsed


def test_eval_point_outside_range():
    with pytest.raises(QueryTypeError):
        evaluate(parse_query("grid: P({22})"))
    with pytest.raises(DomainError):
        evaluate(parse_query("grid: P({5/4})"))


def test_evaluate_value_for_compare_surface():
    v = evaluate_value(parse_query("grid: P({1/3})"))
    assert str(v) == "eps"
    with pytest.raises(QueryTypeError):
        evaluate_value(parse_query("grid: classify(P({0}))"))


def test_eval_is_deterministic():
    queries = ["grid: P([0,1/4) u {1/3})", "cantor: P({00} | {0})",
               "coinflip: compare(P(allheads), P(allheads>1))",
               "minimal: P(compl([1/4,3/4)))"]
    for text in queries:
        first = evaluate(parse_query(text))
        for _ in range(3):
            assert evaluate(parse_query(text)) == first
