"""Explicit-alphabet DFA operations, checked against word enumeration."""

import random

import pytest

from plansynth import dfa
from plansynth.compiler import ObligationNfa, determinize
from plansynth.dfa import (
    EXPLICIT_VAR_LIMIT,
    Dfa,
    accepts,
    combine,
    complement,
    dfa_false,
    dfa_true,
    language_equal,
    minimize,
    run_dfa,
)
from plansynth.errors import LimitExceeded, VocabularyMismatch
from plansynth.logic import VarTable, parse_formula
from plansynth.parity import dpw_combine, pair_product

from helpers import XY, all_traces, oracle_minimize, random_dfa, random_dpw


def permute_states(m: Dfa, perm: list[int]) -> Dfa:
    """Isomorphic copy with state q renamed to perm[q]."""
    rows = [None] * m.n_states
    for q, row in enumerate(m.transitions):
        rows[perm[q]] = tuple(perm[t] for t in row)
    return Dfa(m.vt, tuple(rows), perm[m.initial], frozenset(perm[q] for q in m.finals))


def test_empty_word_never_accepted():
    m = dfa_true(XY)
    assert not accepts(m, [])
    assert accepts(m, [0])
    assert not accepts(dfa_false(XY), [0])


def test_run_dfa_walks_transitions():
    # two states flipping on symbol 3, staying otherwise
    m = Dfa(XY, ((0, 0, 0, 1), (1, 1, 1, 0)), 0, frozenset({1}))
    assert run_dfa(m, []) == 0
    assert run_dfa(m, [3]) == 1
    assert run_dfa(m, [3, 1, 3]) == 0
    assert accepts(m, [3, 1])
    with pytest.raises(VocabularyMismatch):
        run_dfa(m, [4])


def test_combine_is_pointwise():
    rng = random.Random(5)
    ops = {"and": lambda a, b: a and b, "or": lambda a, b: a or b,
           "implies": lambda a, b: not a or b}
    words = list(all_traces(XY, 3))
    for _ in range(25):
        m1 = random_dfa(rng, XY, 4)
        m2 = random_dfa(rng, XY, 4)
        for name, op in ops.items():
            m = combine(m1, m2, name)
            for w in words:
                assert accepts(m, w) == op(accepts(m1, w), accepts(m2, w)), (name, w)


def test_combine_rejects_mixed_vocabularies():
    other = VarTable(("y",), ("z",))
    with pytest.raises(VocabularyMismatch):
        combine(dfa_true(XY), dfa_true(other), "and")


def test_combine_with_true_is_identity():
    rng = random.Random(6)
    for _ in range(10):
        m = random_dfa(rng, XY, 5)
        assert language_equal(combine(m, dfa_true(XY), "and"), m)
        assert language_equal(combine(m, dfa_false(XY), "or"), m)


def test_self_implication_is_tautology():
    rng = random.Random(7)
    for _ in range(10):
        m = random_dfa(rng, XY, 5)
        assert language_equal(combine(m, m, "implies"), dfa_true(XY))
        assert language_equal(combine(m, complement(m), "or"), dfa_true(XY))
        assert language_equal(combine(m, complement(m), "and"), dfa_false(XY))


def test_complement_involution_and_pointwise():
    rng = random.Random(8)
    words = list(all_traces(XY, 3))
    for _ in range(20):
        m = random_dfa(rng, XY, 5)
        mc = complement(m)
        assert complement(mc) == m
        for w in words:
            assert accepts(mc, w) != accepts(m, w)


def test_minimize_preserves_language_and_never_grows():
    rng = random.Random(9)
    for _ in range(50):
        m = random_dfa(rng, XY, 6)
        mm = minimize(m)
        assert language_equal(mm, m)
        assert mm.n_states <= m.n_states
        assert minimize(mm) == mm


def test_minimize_is_canonical_under_renaming():
    rng = random.Random(10)
    for _ in range(30):
        m = random_dfa(rng, XY, 6)
        perm = list(range(m.n_states))
        rng.shuffle(perm)
        assert minimize(permute_states(m, perm)) == minimize(m)


def test_minimize_collapses_trivial_languages():
    assert minimize(dfa_true(XY)).n_states == 1
    assert minimize(dfa_false(XY)).n_states == 1
    # a bloated automaton for "everything": every state accepting
    m = Dfa(XY, ((1, 1, 2, 2), (2, 0, 1, 0), (0, 2, 1, 1)), 0, frozenset({0, 1, 2}))
    assert minimize(m) == dfa_true(XY)


def vocabulary(n_vars: int) -> VarTable:
    n_env = n_vars // 2
    return VarTable(
        tuple(f"e{i}" for i in range(n_env)), tuple(f"a{i}" for i in range(n_vars - n_env))
    )


def blown_up_dfa(rng, vt: VarTable, n_classes: int, copies: int, n_columns: int | None = None):
    """Random automaton of n_classes * copies states, whose copies of one
    class are equivalent; with n_columns, every symbol's column is one of
    that many, so most columns repeat."""
    nsym = vt.n_symbols
    if n_columns is None:
        base = [[rng.randrange(n_classes) for _ in range(nsym)] for _ in range(n_classes)]
    else:
        shapes = [[rng.randrange(n_classes) for _ in range(n_classes)] for _ in range(n_columns)]
        picks = [rng.randrange(n_columns) for _ in range(nsym)]
        base = [[shapes[k][c] for k in picks] for c in range(n_classes)]
    accepting = {c for c in range(n_classes) if rng.random() < 0.5}
    name = list(range(n_classes * copies))
    rng.shuffle(name)
    rows = [None] * len(name)
    for c in range(n_classes):
        for j in range(copies):
            rows[name[c * copies + j]] = [
                name[t * copies + rng.randrange(copies)] for t in base[c]
            ]
    finals = {name[c * copies + j] for c in accepting for j in range(copies)}
    return Dfa(vt, rows, rng.randrange(len(name)), finals)


def test_minimize_matches_moore_refinement():
    rng = random.Random(12)
    for n_vars in range(1, 9):
        vt = vocabulary(n_vars)
        for _ in range(6):
            m = random_dfa(rng, vt, 8)
            assert minimize(m) == oracle_minimize(m)
            m = blown_up_dfa(rng, vt, rng.randint(1, 8), rng.randint(1, 4))
            assert minimize(m) == oracle_minimize(m)
            m = blown_up_dfa(rng, vt, rng.randint(1, 8), rng.randint(1, 4), rng.randint(1, 3))
            assert minimize(m) == oracle_minimize(m)


def test_minimize_matches_moore_refinement_on_long_chains():
    # Moore's refinement needs one round per state on these
    rng = random.Random(13)
    vt = VarTable((), ("x",))
    n = 2000
    # the agent advances by answering a keyed bit; only the end accepts
    key = [rng.randrange(2) for _ in range(n)]
    chain = Dfa(vt, [[min(q + 1, n - 1) if x == key[q] else q for x in (0, 1)] for q in range(n)],
                0, {n - 1})
    assert minimize(chain) == oracle_minimize(chain)
    assert minimize(chain).n_states == n
    # a forced march through two interleaved copies of every position, where
    # only the last position rejects: the copies merge
    rows = [[min(q // 2 * 2 + 2 + x, n - 1) for x in (0, 1)] for q in range(n)]
    march = Dfa(vt, rows, 0, set(range(n - 2)))
    assert minimize(march) == oracle_minimize(march)
    assert minimize(march).n_states == n // 2


def test_minimize_drops_unreachable_states():
    m = Dfa(XY, ((0, 0, 0, 0), (1, 1, 1, 1)), 0, frozenset({0, 1}))
    assert minimize(m).n_states == 1


def test_minimize_with_unreachable_class_representatives():
    # state 0 is unreachable from the initial state 1 but equivalent to the
    # reachable state 2, so the lowest member of that class is unreachable;
    # 1 and 3 are equivalent too: the language is the words of odd length
    m = Dfa(XY, ((3,) * 4, (2,) * 4, (3,) * 4, (2,) * 4), 1, frozenset({0, 2}))
    assert minimize(m) == oracle_minimize(m)
    assert minimize(m) == Dfa(XY, ((1,) * 4, (0,) * 4), 0, frozenset({1}))


def test_minimize_matches_moore_refinement_with_unreachable_states():
    rng = random.Random(14)
    for n_vars in range(1, 5):
        vt = vocabulary(n_vars)
        for _ in range(25):
            core = random_dfa(rng, vt, 6)
            # extra states lead anywhere, and nothing leads to them
            n = core.n_states + rng.randint(1, 4)
            rows = core.transitions + tuple(
                tuple(rng.randrange(n) for _ in range(vt.n_symbols))
                for _ in range(n - core.n_states)
            )
            finals = core.finals | {q for q in range(core.n_states, n) if rng.random() < 0.5}
            perm = list(range(n))
            rng.shuffle(perm)
            m = permute_states(Dfa(vt, rows, core.initial, finals), perm)
            assert minimize(m) == oracle_minimize(m)
            assert language_equal(minimize(m), m)


def test_language_equal_against_enumeration():
    # 2-symbol alphabet so that full enumeration up to the product-state
    # bound is feasible: any disagreement between two 3-state automata is
    # witnessed by a word no longer than 9 symbols.
    vt = VarTable(("b",), ())
    rng = random.Random(12)
    words = list(all_traces(vt, 9))
    verdicts = set()
    for i in range(100):
        m1 = random_dfa(rng, vt, 3)
        if i % 10 == 0:
            perm = list(range(m1.n_states))
            rng.shuffle(perm)
            m2 = permute_states(m1, perm)
        else:
            m2 = random_dfa(rng, vt, 3)
        same = all(accepts(m1, w) == accepts(m2, w) for w in words)
        assert language_equal(m1, m2) == same
        verdicts.add(same)
    assert verdicts == {True, False}


def test_language_equal_reflexive_and_rename_invariant():
    rng = random.Random(13)
    for _ in range(20):
        m = random_dfa(rng, XY, 6)
        assert language_equal(m, m)
        perm = list(range(m.n_states))
        rng.shuffle(perm)
        assert language_equal(m, permute_states(m, perm))
    assert not language_equal(dfa_true(XY), dfa_false(XY))


def test_initial_state_finality_is_immaterial():
    # empty word excluded: marking the initial state final changes nothing
    m = Dfa(XY, ((1, 1, 1, 1), (1, 1, 1, 1)), 0, frozenset({1}))
    m_marked = Dfa(XY, m.transitions, 0, frozenset({0, 1}))
    assert language_equal(m, m_marked)


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(XY, (), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(XY, ((0, 0),), 0, frozenset())  # row too short
    with pytest.raises(ValueError):
        Dfa(XY, ((0, 0, 0, 9),), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(XY, ((0, 0, 0, 0),), 3, frozenset())
    with pytest.raises(ValueError):
        Dfa(XY, ((0, 0, 0, 0),), 0, frozenset({5}))


def test_variable_limit():
    big = VarTable(tuple(f"e{i}" for i in range(9)), tuple(f"a{i}" for i in range(8)))
    with pytest.raises(LimitExceeded):
        dfa_true(big)
    exactly = VarTable(tuple(f"e{i}" for i in range(EXPLICIT_VAR_LIMIT)), ())
    assert dfa_true(exactly).n_states == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: determinize(ObligationNfa(XY, parse_formula("X X X x & F y", XY))),
        lambda: combine(random_dfa(random.Random(7), XY), random_dfa(random.Random(8), XY), "and"),
        lambda: dpw_combine(random_dpw(random.Random(7), XY), random_dpw(random.Random(8), XY),
                            "or"),
        lambda: pair_product(random_dpw(random.Random(7), XY), random_dpw(random.Random(8), XY))[0],
    ],
    ids=["determinize", "combine", "dpw_combine", "pair_product"],
)
def test_every_construction_stops_at_the_one_state_guard(build, monkeypatch):
    m = build()
    n = m.n_states
    assert n > 2
    monkeypatch.setattr(dfa, "STATE_LIMIT", n - 1)
    with pytest.raises(LimitExceeded, match=f"^{n} states; explicit constructions stop at {n - 1}$"):
        build()
    monkeypatch.setattr(dfa, "STATE_LIMIT", n)
    assert build() == m
