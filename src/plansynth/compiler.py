"""Translation of finite-trace formulas into deterministic automata.

The pipeline is: negation normal form, a nondeterministic automaton whose
states are sets of outstanding obligations (formulas that still have to hold
from the current position on), then subset construction and minimization.
A top-level conjunction is compiled conjunct by conjunct: each conjunct goes
through that pipeline on its own, and the minimal automata are folded by
products, each minimized in turn.  The subset construction of a conjunction
can grow with the product of its conjuncts' state counts; the compositional
route only ever builds products of minimal automata.  Both the subset
constructions and the products number their states through `dfa.explore`,
so they stop at its one state guard, `dfa.STATE_LIMIT`.

Formula nodes are hash-consed (see `logic.Formula`), so the memo tables
keyed by obligations hash each node in constant time and compare by
identity, and repeated conjuncts drop out of the chain for free.

An obligation set steps through a symbol by unfolding each obligation one
position: literals are checked against the symbol, X and WX defer their
operand, and U/R/F/G unfold into their now-or-next expansions.  A set can
close at a symbol when every obligation is satisfied by the one-position
trace made of that symbol alone, which is exactly the strong/weak distinction
at the end of a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dfa import Dfa, check_explicit, combine, explore, minimize
from .errors import VocabularyMismatch
from .logic import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    FalseConst,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
    VarTable,
    WeakNext,
    atom_names,
    eval_finite,
    is_nnf,
    to_nnf,
)


def _obligation(g: Formula) -> frozenset[Formula] | None:
    """Singleton obligation set, with the constants normalized away."""
    if isinstance(g, TrueConst):
        return frozenset()
    if isinstance(g, FalseConst):
        return None
    return frozenset({g})


def _antichain(sets) -> tuple[frozenset[Formula], ...]:
    """Keep only inclusion-minimal obligation sets.

    A smaller set demands less of the remaining word, so supersets are
    redundant among nondeterministic choices.
    """
    unique = sorted(set(sets), key=len)
    kept: list[frozenset[Formula]] = []
    for s in unique:
        if not any(k <= s for k in kept):
            kept.append(s)
    return tuple(kept)


@dataclass
class ObligationNfa:
    """Nondeterministic obligation-set automaton for a formula."""

    vt: VarTable
    formula: Formula
    nnf: Formula = field(init=False)
    initial: frozenset[Formula] | None = field(init=False)

    def __post_init__(self):
        undeclared = atom_names(self.formula) - set(self.vt.all_vars)
        if undeclared:
            raise VocabularyMismatch(f"undeclared atoms: {sorted(undeclared)}")
        self.nnf = to_nnf(self.formula)
        assert is_nnf(self.nnf)
        self.initial = _obligation(self.nnf)
        self._moves_memo: dict[tuple[Formula, int], tuple[frozenset[Formula], ...]] = {}
        self._end_memo: dict[tuple[Formula, int], bool] = {}

    def _moves(self, g: Formula, sym: int) -> tuple[frozenset[Formula], ...]:
        """Choices of next-position obligations, assuming the word continues."""
        key = (g, sym)
        cached = self._moves_memo.get(key)
        if cached is not None:
            return cached
        if isinstance(g, TrueConst):
            out: tuple[frozenset[Formula], ...] = (frozenset(),)
        elif isinstance(g, FalseConst):
            out = ()
        elif isinstance(g, Atom):
            out = (frozenset(),) if sym >> self.vt.bit(g.name) & 1 else ()
        elif isinstance(g, Not):
            assert isinstance(g.operand, Atom)
            out = () if sym >> self.vt.bit(g.operand.name) & 1 else (frozenset(),)
        elif isinstance(g, (Next, WeakNext)):
            ob = _obligation(g.operand)
            out = () if ob is None else (ob,)
        elif isinstance(g, And):
            out = _antichain(
                a | b for a in self._moves(g.left, sym) for b in self._moves(g.right, sym)
            )
        elif isinstance(g, Or):
            out = _antichain(self._moves(g.left, sym) + self._moves(g.right, sym))
        elif isinstance(g, Until):
            now = self._moves(g.right, sym)
            keep = tuple(c | {g} for c in self._moves(g.left, sym))
            out = _antichain(now + keep)
        elif isinstance(g, Release):
            hold = self._moves(g.right, sym)
            done = self._moves(g.left, sym) + (frozenset({g}),)
            out = _antichain(a | b for a in hold for b in done)
        elif isinstance(g, Eventually):
            out = _antichain(self._moves(g.operand, sym) + (frozenset({g}),))
        elif isinstance(g, Always):
            out = _antichain(c | {g} for c in self._moves(g.operand, sym))
        else:
            raise TypeError(f"not a normal-form formula: {g!r}")
        self._moves_memo[key] = out
        return out

    def successors(self, state: frozenset[Formula], sym: int) -> tuple[frozenset[Formula], ...]:
        choices: tuple[frozenset[Formula], ...] = (frozenset(),)
        for g in state:
            opts = self._moves(g, sym)
            if not opts:
                return ()
            choices = _antichain(c | o for c in choices for o in opts)
        return choices

    def _end_ok(self, g: Formula, sym: int) -> bool:
        key = (g, sym)
        cached = self._end_memo.get(key)
        if cached is None:
            cached = eval_finite(self.vt, g, [sym])
            self._end_memo[key] = cached
        return cached

    def can_end(self, state: frozenset[Formula], sym: int) -> bool:
        """True when sym may be the final symbol under these obligations."""
        return all(self._end_ok(g, sym) for g in state)


def empty_suffix_ok(f: Formula) -> bool:
    """Vacuous-truth convention for a formula with no positions left.

    Literals and the strong operators X, U, F fail; WX, R, G hold.  Used only
    to pick the acceptance flag of the initial subset state, which no
    non-empty word ever observes.
    """
    g = to_nnf(f)

    def go(h: Formula) -> bool:
        if isinstance(h, TrueConst):
            return True
        if isinstance(h, (FalseConst, Atom, Not, Next, Until, Eventually)):
            return False
        if isinstance(h, (WeakNext, Release, Always)):
            return True
        if isinstance(h, And):
            return go(h.left) and go(h.right)
        if isinstance(h, Or):
            return go(h.left) or go(h.right)
        raise TypeError(f"not a normal-form formula: {h!r}")

    return go(g)


def determinize(nfa: ObligationNfa) -> Dfa:
    """Subset construction; a subset accepts iff some member could close."""
    nsym = nfa.vt.n_symbols

    def row_of(state):
        sets, _ = state
        for sym in range(nsym):
            nexts = set()
            done = False
            for s in sets:
                nexts.update(nfa.successors(s, sym))
                done = done or nfa.can_end(s, sym)
            yield frozenset(_antichain(nexts)), done

    initial_sets = frozenset() if nfa.initial is None else frozenset({nfa.initial})
    states, rows = explore((initial_sets, empty_suffix_ok(nfa.nnf)), row_of)
    finals = frozenset(i for i, (_, done) in enumerate(states) if done)
    return Dfa(nfa.vt, rows, 0, finals)


def conjuncts(f: Formula) -> list[Formula]:
    """The leaves of the top-level And chain of f, left to right, each once."""
    out: dict[Formula, None] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += (g.right, g.left)
        else:
            out[g] = None
    return list(out)


def compile_formula(vt: VarTable, f: Formula) -> Dfa:
    """Minimal DFA accepting exactly the non-empty finite traces of f.

    Conjuncts are compiled separately and joined by products; the subset
    constructions and the products all stop at the one state guard,
    `dfa.STATE_LIMIT`.  Vocabularies too wide for an explicit alphabet are
    refused before any symbol is enumerated.
    """
    check_explicit(vt)
    first, *rest = conjuncts(f)
    m = minimize(determinize(ObligationNfa(vt, first)))
    for g in rest:
        part = minimize(determinize(ObligationNfa(vt, g)))
        m = minimize(combine(m, part, "and"))
    return m
