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
from plansynth.dfa import Dfa, accepts, combine, dfa_true, language_equal, minimize
from plansynth.domain import executability_formula
from plansynth.errors import LimitExceeded, VocabularyMismatch
from plansynth.logic import (
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Implies,
    Next,
    Or,
    VarTable,
    conjoin,
    parse_formula,
    postorder,
    truth_table_mask,
)

from helpers import XY, all_traces, corpus_formulas, eval_finite, random_domain, random_formula

VT3 = VarTable(("e0", "e1", "e2"), ("a0", "a1", "a2"))


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
    with pytest.raises(VocabularyMismatch, match=r"undeclared atoms: \['z'\]"):
        compile_formula(XY, And(parse_formula("F x", XY), Eventually(Atom("z"))))


def full_alphabet(vt, f):
    """f compiled in one subset construction over every symbol of vt."""
    return minimize(determinize(ObligationNfa(vt, f)))


def test_conjuncts_compiled_over_what_they_read_equal_the_full_alphabet_compile():
    rng = random.Random(35)
    for _ in range(100):
        parts = []
        for _ in range(rng.randint(1, 3)):
            reads = VarTable(tuple(rng.sample(VT3.all_vars, rng.randint(0, 3))), ())
            parts.append(random_formula(rng, reads, 3))
        f = conjoin(parts)
        assert compile_formula(VT3, f) == full_alphabet(VT3, f), f


@pytest.mark.parametrize("text", ["X true", "WX false", "G true & F true"])
def test_atom_free_conjuncts_compile_over_the_one_symbol_alphabet(text):
    f = parse_formula(text)
    assert compile_formula(VT3, f) == full_alphabet(VT3, f)


@pytest.mark.parametrize("text", ["(e0 & X a0) | (e2 & X a2)", "(a2 & X e0) | (e1 & X !e0)"])
def test_a_lifted_conjunct_keeps_the_canonical_numbering(text):
    # from the initial state the two disjuncts lead to different states, so
    # the numbering follows the order in which the restricted symbols occur
    f = parse_formula(text, VT3)
    assert compile_formula(VT3, f) == full_alphabet(VT3, f)


def test_planning_goal_equals_the_full_alphabet_compile():
    d = random_domain(random.Random(7), 6, 2)[0]
    f = executability_formula(d)
    assert compile_formula(d.vt, f) == full_alphabet(d.vt, f)


def test_propositional_nodes_are_read_off_their_truth_tables():
    d = random_domain(random.Random(8), 3, 2)[0]
    p, vt = d.pre, d.vt
    assert len(postorder(p)) > 50
    nfa = ObligationNfa(vt, Always(p))
    for sym in range(vt.n_symbols):
        assert set(nfa._moves_at(sym)) == {nfa.nnf, nfa.nnf.operand}
    # G p: every symbol that satisfies p keeps the accepting initial state
    # (G holds on the empty word), any other falls into the rejecting sink
    mask = truth_table_mask(p, vt.all_vars)
    row = [0 if mask >> s & 1 else 1 for s in range(vt.n_symbols)]
    expected = minimize(Dfa(vt, [row, [1] * vt.n_symbols], 0, {0}))
    assert compile_formula(vt, Always(p)) == expected == full_alphabet(vt, Always(p))

    # a node below both a propositional and a temporal parent is walked
    shared = p.left
    nfa = ObligationNfa(vt, And(Always(p), Next(shared)))
    assert shared in nfa._moves_at(0)
    traces = list(all_traces(vt, 2))
    m = compile_formula(vt, And(Always(p), Next(shared)))
    for t in traces:
        assert accepts(m, t) == eval_finite(vt, And(Always(p), Next(shared)), t)


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
