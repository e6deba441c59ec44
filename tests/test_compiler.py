"""Formula-to-DFA compilation, checked exhaustively against trace semantics."""

import random

import pytest

from plansynth import dfa
from plansynth.compiler import (
    ObligationNfa,
    compile_formula,
    conjuncts,
    determinize,
)
from plansynth.dfa import accepts, combine, dfa_true, language_equal, minimize
from plansynth.errors import LimitExceeded, VocabularyMismatch
from plansynth.logic import (
    TRUE,
    And,
    Atom,
    Implies,
    Or,
    conjoin,
    parse_formula,
)

from helpers import XY, all_traces, corpus_formulas, eval_finite, random_formula


def assert_matches_semantics(f, traces):
    m = compile_formula(XY, f)
    for t in traces:
        assert accepts(m, t) == eval_finite(XY, f, t), (f, t)


def test_corpus_exhaustive():
    traces = list(all_traces(XY, 4))
    for f in corpus_formulas():
        assert_matches_semantics(f, traces)


def test_random_formulas():
    rng = random.Random(31)
    traces = list(all_traces(XY, 3))
    for _ in range(300):
        assert_matches_semantics(random_formula(rng, XY, 3), traces)


def test_constant_formulas():
    assert compile_formula(XY, TRUE) == dfa_true(XY)
    assert compile_formula(XY, parse_formula("false")).n_states == 1
    assert not compile_formula(XY, parse_formula("false")).finals


def test_eventually_compiles_to_two_states():
    m = compile_formula(XY, parse_formula("F x", XY))
    assert m.n_states == 2


def test_propositional_formula_reads_first_symbol():
    m = compile_formula(XY, parse_formula("y -> x", XY))
    # y is bit 0, x is bit 1: only symbol 1 (y alone) breaks the implication
    for first in range(4):
        ok = first != 1
        assert accepts(m, [first]) == ok
        assert accepts(m, [first, 1, 1]) == ok


def test_compilation_commutes_with_connectives():
    rng = random.Random(32)
    for _ in range(40):
        f = random_formula(rng, XY, 2)
        g = random_formula(rng, XY, 2)
        for node, name in ((And, "and"), (Or, "or"), (Implies, "implies")):
            direct = compile_formula(XY, node(f, g))
            composed = combine(compile_formula(XY, f), compile_formula(XY, g), name)
            assert language_equal(direct, composed), (f, g, name)


def test_minimization_preserves_compiled_language():
    rng = random.Random(33)
    for _ in range(40):
        f = random_formula(rng, XY, 3)
        raw = determinize(ObligationNfa(XY, f))
        assert language_equal(raw, compile_formula(XY, f))
        assert minimize(raw) == compile_formula(XY, f)


def monolithic(f):
    return minimize(determinize(ObligationNfa(XY, f)))


def test_conjunctions_compile_as_the_monolithic_construction():
    rng = random.Random(34)
    corpus = corpus_formulas()
    drawn = [conjoin(rng.sample(corpus, rng.randint(2, 4))) for _ in range(150)]
    drawn += [
        conjoin([random_formula(rng, XY, 3) for _ in range(rng.randint(2, 4))])
        for _ in range(60)
    ]
    for f in drawn:
        m, reference = compile_formula(XY, f), monolithic(f)
        assert language_equal(m, reference), f
        assert m == reference, f


def test_conjuncts_flatten_both_nestings_and_drop_repeats():
    f = parse_formula("(x & F y) & (G x & x)", XY)
    assert conjuncts(f) == [Atom("x"), parse_formula("F y"), parse_formula("G x")]
    assert conjuncts(parse_formula("x | y")) == [parse_formula("x | y")]


def test_conjunction_products_pass_the_state_guard(monkeypatch):
    # the conjuncts' automata have 6 and 7 states, their product 10
    f, g = parse_formula("X X X x", XY), parse_formula("X X X X y", XY)
    monkeypatch.setattr(dfa, "STATE_LIMIT", 8)
    compile_formula(XY, f)
    compile_formula(XY, g)
    with pytest.raises(LimitExceeded):
        compile_formula(XY, And(f, g))
    monkeypatch.setattr(dfa, "STATE_LIMIT", 10)
    assert compile_formula(XY, And(f, g)) == monolithic(And(f, g))


def test_undeclared_atom_rejected():
    with pytest.raises(VocabularyMismatch):
        compile_formula(XY, Atom("z"))


def test_empty_suffix_convention():
    cases = {
        "true": True,
        "false": False,
        "y": False,
        "!y": False,
        "X y": False,
        "WX y": True,
        "F y": False,
        "G y": True,
        "y U x": False,
        "y R x": True,
        "G y & WX x": True,
        "G y & F x": False,
        "F y | G x": True,
    }
    for text, expected in cases.items():
        assert ObligationNfa(XY, parse_formula(text, XY)).empty_ok == expected, text


def test_weak_next_at_trace_end():
    m = compile_formula(XY, parse_formula("WX x", XY))
    assert accepts(m, [0])
    assert accepts(m, [0, 2])
    assert not accepts(m, [0, 1])
    strong = compile_formula(XY, parse_formula("X x", XY))
    assert not accepts(strong, [0])
    assert accepts(strong, [0, 2])
