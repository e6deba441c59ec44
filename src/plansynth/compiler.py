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
close at a symbol when every obligation holds on the one-position trace made
of that symbol alone, which is exactly the strong/weak distinction at the end
of a trace.

Every obligation is a node of the formula's normal form.  Loops over those
nodes, children first, fill each table: their truth tables at the last
position of a trace, their truth with no positions left, and per symbol
their next-position choices.  Nothing here recurses on the formula.
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
    is_nnf,
    last_position_tables,
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
    empty_ok: bool = field(init=False)

    def __post_init__(self):
        undeclared = atom_names(self.formula) - set(self.vt.all_vars)
        if undeclared:
            raise VocabularyMismatch(f"undeclared atoms: {sorted(undeclared)}")
        self.nnf = to_nnf(self.formula)
        assert is_nnf(self.nnf)
        self.initial = _obligation(self.nnf)
        # each node, children first -> the symbols at which it can end a trace
        self._end = last_position_tables(self.nnf, self.vt.all_vars)
        # truth with no positions left, by convention: literals and the strong
        # X, U, F fail, WX, R, G hold.  It only sets the acceptance flag of the
        # initial subset state, which no non-empty word observes.
        ok: dict[Formula, bool] = {}
        for g in self._end:
            if isinstance(g, And):
                ok[g] = ok[g.left] and ok[g.right]
            elif isinstance(g, Or):
                ok[g] = ok[g.left] or ok[g.right]
            else:
                ok[g] = isinstance(g, (TrueConst, WeakNext, Release, Always))
        self.empty_ok = ok[self.nnf]
        self._moves: dict[int, dict[Formula, tuple[frozenset[Formula], ...]]] = {}

    def _moves_at(self, sym: int) -> dict[Formula, tuple[frozenset[Formula], ...]]:
        """Each node's choices of next-position obligations at sym, the word continuing."""
        if sym in self._moves:
            return self._moves[sym]
        moves: dict[Formula, tuple[frozenset[Formula], ...]] = {}
        for g in self._end:
            if isinstance(g, (TrueConst, FalseConst, Atom, Not)):
                out: tuple[frozenset[Formula], ...] = (
                    (frozenset(),) if self._end[g] >> sym & 1 else ()
                )
            elif isinstance(g, (Next, WeakNext)):
                ob = _obligation(g.operand)
                out = () if ob is None else (ob,)
            elif isinstance(g, And):
                out = _antichain(a | b for a in moves[g.left] for b in moves[g.right])
            elif isinstance(g, Or):
                out = _antichain(moves[g.left] + moves[g.right])
            elif isinstance(g, Until):
                keep = tuple(c | {g} for c in moves[g.left])
                out = _antichain(moves[g.right] + keep)
            elif isinstance(g, Release):
                done = moves[g.left] + (frozenset({g}),)
                out = _antichain(a | b for a in moves[g.right] for b in done)
            elif isinstance(g, Eventually):
                out = _antichain(moves[g.operand] + (frozenset({g}),))
            else:  # Always
                out = _antichain(c | {g} for c in moves[g.operand])
            moves[g] = out
        self._moves[sym] = moves
        return moves

    def successors(self, state: frozenset[Formula], sym: int) -> tuple[frozenset[Formula], ...]:
        choices: tuple[frozenset[Formula], ...] = (frozenset(),)
        for g in state:
            opts = self._moves_at(sym)[g]
            if not opts:
                return ()
            choices = _antichain(c | o for c in choices for o in opts)
        return choices

    def can_end(self, state: frozenset[Formula], sym: int) -> bool:
        """True when sym may be the final symbol under these obligations."""
        return all(self._end[g] >> sym & 1 for g in state)


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
    states, rows = explore((initial_sets, nfa.empty_ok), row_of)
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
