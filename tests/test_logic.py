"""Formula parsing, printing, finite-trace evaluation, and normal forms."""

import copy
import pickle
import sys
import time

import pytest
from hypothesis import given, strategies as st

from plansynth.compiler import ObligationNfa
from plansynth.errors import ParseError, VocabularyMismatch
from plansynth.logic import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    VarTable,
    WeakNext,
    atom_names,
    conjoin,
    format_formula,
    is_nnf,
    is_propositional,
    node_count,
    parse_formula,
    prime_to_next,
    to_nnf,
    truth_table_mask,
)

from helpers import XY, all_traces, corpus_formulas, eval_finite, random_formula

import random


# --- variable tables ---------------------------------------------------------


def test_vartable_bit_order_env_first():
    vt = VarTable(("a", "b"), ("c",))
    assert vt.bit("a") == 0 and vt.bit("b") == 1 and vt.bit("c") == 2
    assert vt.symbol(["a", "c"]) == 0b101
    assert vt.names(0b101) == frozenset({"a", "c"})


def test_vartable_joint_split_round_trip():
    vt = VarTable(("a", "b"), ("c", "d"))
    for e in range(vt.n_env_states):
        for act in range(vt.n_actions):
            sym = vt.joint(e, act)
            assert vt.env_part(sym) == e
            assert vt.agent_part(sym) == act


@given(st.integers(min_value=0, max_value=255))
def test_vartable_bits_round_trip(value):
    vt = VarTable(("a",), ())
    text = vt.format_bits(value, 8)
    assert len(text) == 8
    assert vt.parse_bits(text, 8) == value


def test_vartable_bits_round_trip_every_value_of_small_widths():
    vt = VarTable(("a",), ())
    for width in range(7):
        for value in range(1 << width):
            text = vt.format_bits(value, width)
            # variable 0 is the leftmost character
            expected = "".join("1" if value >> i & 1 else "0" for i in range(width)) or "-"
            assert text == expected
            assert vt.parse_bits(text, width) == value


@pytest.mark.parametrize("text", ["0_1", "+1", " 1", "1 ", "-1", "٠١", "0b1"])
def test_vartable_parse_bits_rejects_what_int_accepts(text):
    vt = VarTable(("a",), ())
    with pytest.raises(ParseError, match=f"expected {len(text)} bits"):
        vt.parse_bits(text, len(text))


def test_vartable_zero_width_block():
    vt = VarTable(("a",), ())
    assert vt.format_bits(0, 0) == "-"
    assert vt.parse_bits("-", 0) == 0
    with pytest.raises(ParseError):
        vt.parse_bits("0", 0)


def test_vartable_rejects_duplicates_and_reserved():
    with pytest.raises(ValueError):
        VarTable(("a",), ("a",))
    with pytest.raises(ValueError):
        VarTable(("U",), ())
    with pytest.raises(ValueError):
        VarTable(("2bad",), ())


def test_vartable_unknown_variable():
    with pytest.raises(VocabularyMismatch):
        XY.bit("z")


# --- parsing and printing ----------------------------------------------------


def test_precedence_and_associativity():
    y, x = Atom("y"), Atom("x")
    assert parse_formula("y -> x -> y") == Implies(y, Implies(x, y))
    assert parse_formula("!y & x | y") == Or(And(Not(y), x), y)
    assert parse_formula("y U x U y") == Until(y, Until(x, y))
    assert parse_formula("G y -> x") == Implies(Always(y), x)
    assert parse_formula("y & x U y") == And(y, Until(x, y))
    assert parse_formula("X y U x") == Until(Next(y), x)


def test_parse_constants_and_weak_next():
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE
    assert parse_formula("WX y") == WeakNext(Atom("y"))
    assert parse_formula("F y R x") == Release(Eventually(Atom("y")), Atom("x"))


def test_parse_format_round_trip_corpus():
    for f in corpus_formulas():
        assert parse_formula(format_formula(f), XY) == f


def test_parse_format_round_trip_random():
    rng = random.Random(11)
    for _ in range(300):
        f = random_formula(rng, XY, 4)
        assert parse_formula(format_formula(f), XY) == f


PARSE_ERRORS = [
    ("y -> ->", "unexpected token '->' (at position 5)"),
    ("z", "undeclared atom 'z' (at position 0)"),
    ("(y", "expected ')' (at position -1)"),
    ("", "unexpected end of input"),
    ("y @ x", "unexpected character '@' (at position 2)"),
    ("(y x)", "expected ')' (at position 3)"),
    ("y )", "trailing input ')' (at position 2)"),
    ("y x", "trailing input 'x' (at position 2)"),
    ("X", "unexpected end of input"),
    ("U y", "unexpected token 'U' (at position 0)"),
    ("(y & !)", "unexpected token ')' (at position 6)"),
    ("((y) | x", "expected ')' (at position -1)"),
    ("G (y R x) U", "unexpected end of input"),
    ("y & x'", "primed atom \"x'\" not allowed here (at position 4)"),
    ("true'", "unexpected token \"true'\" (at position 0)"),
]


def test_parse_errors_carry_positions():
    for text, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_formula(text, XY)
        assert str(err.value) == message, text


def test_primed_atoms_gated():
    vt = VarTable(("r",), ("go",))
    f = parse_formula("go -> r'", vt, allow_primed=True)
    assert f == Implies(Atom("go"), Atom("r'"))
    with pytest.raises(ParseError):
        parse_formula("r'", vt)
    with pytest.raises(ParseError):
        parse_formula("go'", vt, allow_primed=True)


# --- finite-trace semantics ---------------------------------------------------


def test_eval_strong_vs_weak_next_at_last_position():
    y = Atom("y")
    assert not eval_finite(XY, Next(y), [1], 0)
    assert eval_finite(XY, WeakNext(y), [1], 0)
    assert eval_finite(XY, Next(y), [0, 1], 0)
    assert not eval_finite(XY, WeakNext(y), [0, 0], 0)


def test_eval_until_and_release():
    y, x = Atom("y"), Atom("x")
    # x is bit 1, y is bit 0
    assert eval_finite(XY, Until(y, x), [1, 1, 2], 0)
    assert not eval_finite(XY, Until(y, x), [1, 1, 1], 0)
    assert not eval_finite(XY, Until(y, x), [1, 0, 2], 0)
    # release: right side holds up to and including a left-side release point
    assert eval_finite(XY, Release(y, x), [2, 2], 0)
    assert eval_finite(XY, Release(y, x), [3, 0], 0)
    assert not eval_finite(XY, Release(y, x), [2, 0], 0)


def test_eval_always_eventually():
    y = Atom("y")
    assert eval_finite(XY, Always(y), [1, 1, 3], 0)
    assert not eval_finite(XY, Always(y), [1, 2], 0)
    assert eval_finite(XY, Eventually(y), [0, 0, 1], 0)
    assert not eval_finite(XY, Eventually(y), [0, 2], 0)


def test_eval_implication_first_position():
    f = parse_formula("y -> x", XY)
    assert not eval_finite(XY, f, [1], 0)  # y without x
    assert eval_finite(XY, f, [3], 0)
    assert eval_finite(XY, f, [0], 0)
    assert eval_finite(XY, f, [2], 0)


# --- negation normal form ------------------------------------------------------


def test_nnf_shape_and_equivalence():
    rng = random.Random(23)
    formulas = corpus_formulas() + [random_formula(rng, XY, 3) for _ in range(150)]
    traces = list(all_traces(XY, 3))
    for f in formulas:
        g = to_nnf(f)
        assert is_nnf(g)
        for t in traces:
            assert eval_finite(XY, f, t, 0) == eval_finite(XY, g, t, 0), (f, g, t)


def test_nnf_removes_implication_and_pushed_negation():
    f = parse_formula("!(y -> X x)", XY)
    g = to_nnf(f)
    assert is_nnf(g)
    assert "->" not in format_formula(g)


# --- propositional helpers ------------------------------------------------------


def test_truth_table_mask_orders():
    f = parse_formula("y & !x", XY)
    mask = truth_table_mask(f, ("y", "x"))
    # assignments indexed by bits: 0:{}, 1:{y}, 2:{x}, 3:{y,x}
    assert mask == 0b0010
    assert truth_table_mask(TRUE, ("y",)) == 0b11
    assert truth_table_mask(FALSE, ()) == 0


def test_truth_tables_of_variables():
    for n in range(7):
        order = tuple(f"v{j}" for j in range(n))
        for j, name in enumerate(order):
            table = sum(1 << i for i in range(1 << n) if i >> j & 1)
            assert truth_table_mask(Atom(name), order) == table


def test_is_propositional():
    assert is_propositional(parse_formula("y & (x | !y)", XY))
    assert not is_propositional(parse_formula("G y", XY))


def test_node_count():
    assert node_count(Atom("y")) == 1
    assert node_count(parse_formula("y & !x", XY)) == 4


# --- primed-variable substitution ------------------------------------------------


def test_prime_to_next_polarity():
    vt = VarTable(("r",), ("go",))
    f = parse_formula("go -> r'", vt, allow_primed=True)
    g = prime_to_next(f)
    assert g == Implies(Atom("go"), WeakNext(Atom("r")))
    h = prime_to_next(parse_formula("!r'", vt, allow_primed=True))
    assert h == Not(Next(Atom("r")))


def test_prime_to_next_nested_negation():
    vt = VarTable(("r",), ("go",))
    f = parse_formula("!(go & r')", vt, allow_primed=True)
    g = prime_to_next(f)
    # r' sits under one negation: strong next keeps the last position honest
    assert g == Not(And(Atom("go"), Next(Atom("r"))))
    f2 = parse_formula("!(go & !r')", vt, allow_primed=True)
    assert prime_to_next(f2) == Not(And(Atom("go"), Not(WeakNext(Atom("r")))))


# --- hash-consed nodes ------------------------------------------------------


def test_equal_formulas_are_one_object():
    assert parse_formula("x & y") is And(Atom("x"), Atom("y"))
    text = "G (r -> F g) & (a U !b) | X WX c"
    f, g = parse_formula(text), parse_formula(text)
    assert f is g and hash(f) == hash(g)
    assert to_nnf(f) is to_nnf(g)
    assert TRUE is parse_formula("true") and And(TRUE, FALSE) is not Or(TRUE, FALSE)


def test_formula_hash_is_structural():
    # the value a frozen dataclass gives: the hash of the field tuple
    x = Atom("x")
    assert hash(x) == hash(("x",))
    assert hash(Next(x)) == hash((x,))
    assert hash(Until(x, TRUE)) == hash((x, TRUE)) == hash(Release(x, TRUE))
    assert repr(And(x, Not(x))) == "And(left=Atom(name='x'), right=Not(operand=Atom(name='x')))"


def test_formulas_are_immutable_and_copy_to_themselves():
    f = parse_formula("x U !y")
    with pytest.raises(AttributeError):
        f.left = TRUE
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_deep_formula_builds_hashes_and_compares_without_recursion():
    def chain():
        f = Atom("x")
        for _ in range(5000):
            f = Next(f)
        return f

    f, g = chain(), chain()
    assert f is g and f == g and hash(f) == hash(g)
    assert {f: 1}[g] == 1
    assert f != Next(f) and f.operand is not f


def test_deep_formula_reprs_and_pickles_without_recursion():
    limit = sys.getrecursionlimit()
    f = Atom("x")
    for _ in range(5000):
        f = Next(f)
    assert repr(f) == "Next(operand=" * 5000 + "Atom(name='x')" + ")" * 5000
    assert pickle.loads(pickle.dumps(f)) is f
    # a shared subformula is encoded once and comes back shared
    g = Until(f, And(f, Atom("y")))
    back = pickle.loads(pickle.dumps(g))
    assert back is g and back.left is back.right.left
    assert sys.getrecursionlimit() == limit


# --- depth ---------------------------------------------------------------------

DEPTH = 5000

# each nests DEPTH levels; | and & nest to the left, the others to the right
DEEP_TEXTS = {
    "X": "X " * DEPTH + "y",
    "!": "!" * DEPTH + "y",
    "F": "F " * DEPTH + "y",
    "U": "y U " * DEPTH + "x",
    "->": "y -> " * DEPTH + "x",
    "|": "y" + " | x" * DEPTH,
    "&": "y" + " & x" * DEPTH,
    "()": "y & (" * DEPTH + "x" + ")" * DEPTH,
}


def test_errors_on_deep_temporal_formulas_are_reported_without_recursion():
    with pytest.raises(ValueError, match="^not propositional: contains Next$"):
        truth_table_mask(parse_formula(DEEP_TEXTS["X"], XY), ("y", "x"))
    primed = VarTable(("y",), ("x",))
    deep = parse_formula("X (" + "x & " * 3000 + "y')", primed, allow_primed=True)
    with pytest.raises(ValueError, match="^transition formulas are propositional, not Next$"):
        prime_to_next(deep)


@pytest.mark.parametrize("name", sorted(DEEP_TEXTS))
def test_deep_chains_are_walked_without_recursion(name):
    limit = sys.getrecursionlimit()
    f = parse_formula(DEEP_TEXTS[name], XY)
    assert parse_formula(format_formula(f), XY) is f
    g = to_nnf(f)
    assert is_nnf(g) and is_nnf(f) == (name not in ("!", "->"))
    assert atom_names(f) == atom_names(g) == ({"y"} if name in "X!F" else {"x", "y"})
    assert node_count(f) == (DEPTH + 1 if name in "X!F" else 2 * DEPTH + 1)
    assert ObligationNfa(XY, f).nnf is g
    assert sys.getrecursionlimit() == limit


def test_printing_is_linear_in_the_output():
    f = conjoin([Always(Eventually(Atom(f"p{i}"))) for i in range(40_000)])
    start = time.perf_counter()
    text = format_formula(f)
    assert time.perf_counter() - start < 1.0
    # conjoin nests to the right and & associates to the left
    assert text.startswith("G F p0 & (G F p1 & (G F p2 & ")
    assert text.endswith("G F p39999" + ")" * 39_998) and text.count(" & ") == 39_999
