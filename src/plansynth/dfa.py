"""Deterministic finite automata over joint symbols.

The alphabet is always the full set of joint symbols of a VarTable, kept
explicit; vocabularies beyond 16 variables are rejected up front, and every
explicit construction stops at STATE_LIMIT states (see `check_states`).
Words are finite symbol sequences, and the empty word is uniformly not
accepted by `accepts`.  Language comparisons are therefore made over
non-empty words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LimitExceeded, VocabularyMismatch
from .logic import VarTable

EXPLICIT_VAR_LIMIT = 16
STATE_LIMIT = 200_000

CONNECTIVES = {
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "implies": lambda a, b: not a or b,
}


def check_explicit(vt: VarTable, transitions=None, initial: int = 0) -> int:
    """Guard an explicit construction over the joint alphabet of vt.

    Vocabularies beyond EXPLICIT_VAR_LIMIT variables raise LimitExceeded,
    so a caller that checks first never enumerates their symbols.  Given a
    transition table, also checks that it is total over states and symbols
    and that the initial state is in range, and returns its state count.
    """
    if vt.n_vars > EXPLICIT_VAR_LIMIT:
        raise LimitExceeded(
            f"{vt.n_vars} variables; explicit alphabets stop at {EXPLICIT_VAR_LIMIT}"
        )
    if transitions is None:
        return 0
    n = len(transitions)
    if n == 0:
        raise ValueError("automata need at least one state")
    nsym = vt.n_symbols
    for row in transitions:
        if len(row) != nsym or any(not 0 <= t < n for t in row):
            raise ValueError("transition table must be total over states and symbols")
    if not 0 <= initial < n:
        raise ValueError("initial state out of range")
    return n


def check_states(count: int) -> None:
    """The one state guard: past STATE_LIMIT states, LimitExceeded is raised."""
    if count > STATE_LIMIT:
        raise LimitExceeded(f"{count} states; explicit constructions stop at {STATE_LIMIT}")


def explore(start, row_of) -> tuple[list, list[tuple[int, ...]]]:
    """Number the states reachable from start breadth first.

    ``row_of(state)`` gives the successors of a state in symbol order.
    Returns (states, rows): start is numbered 0, ``states[i]`` is the state
    numbered i and ``rows[i]`` the numbers of its successors.  Every explicit
    construction numbers its states here, so the one guard (`check_states`)
    bounds them all.
    """
    index = {start: 0}
    states = [start]
    rows = []
    for state in states:  # grows while it is walked: a FIFO queue
        row = []
        for target in row_of(state):
            i = index.get(target)
            if i is None:
                i = index[target] = len(states)
                if i >= STATE_LIMIT:  # compared here first: the loop is hot
                    check_states(i + 1)
                states.append(target)
            row.append(i)
        rows.append(tuple(row))
    return states, rows


@dataclass(frozen=True)
class Dfa:
    """Total DFA; transitions[q][sym] is the successor of q on sym."""

    vt: VarTable
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(tuple(row) for row in self.transitions))
        object.__setattr__(self, "finals", frozenset(self.finals))
        n = check_explicit(self.vt, self.transitions, self.initial)
        if any(not 0 <= q < n for q in self.finals):
            raise ValueError("final state out of range")

    @property
    def n_states(self) -> int:
        return len(self.transitions)


def dfa_true(vt: VarTable) -> Dfa:
    """One accepting state; accepts every word."""
    return Dfa(vt, ((0,) * vt.n_symbols,), 0, frozenset({0}))


def dfa_false(vt: VarTable) -> Dfa:
    """One rejecting state; accepts nothing."""
    return Dfa(vt, ((0,) * vt.n_symbols,), 0, frozenset())


def run_dfa(m: Dfa, word) -> int:
    """State reached after reading word from the initial state."""
    state = m.initial
    nsym = m.vt.n_symbols
    for sym in word:
        if not 0 <= sym < nsym:
            raise VocabularyMismatch(f"symbol {sym} outside alphabet of size {nsym}")
        state = m.transitions[state][sym]
    return state


def accepts(m: Dfa, word) -> bool:
    """Word membership; the empty word is never a member."""
    if len(word) == 0:
        return False
    return run_dfa(m, word) in m.finals


def _check_same_vt(m1: Dfa, m2) -> None:
    if m1.vt != m2.vt:
        raise VocabularyMismatch("automata built over different variable tables")


def combine(m1: Dfa, m2: Dfa, connective: str) -> Dfa:
    """Reachable product with finals induced by the boolean connective."""
    _check_same_vt(m1, m2)
    op = CONNECTIVES[connective]
    t1, t2 = m1.transitions, m2.transitions
    states, rows = explore((m1.initial, m2.initial), lambda q: zip(t1[q[0]], t2[q[1]]))
    finals = frozenset(
        i for i, (q1, q2) in enumerate(states) if op(q1 in m1.finals, q2 in m2.finals)
    )
    return Dfa(m1.vt, rows, 0, finals)


def complement(m: Dfa) -> Dfa:
    return Dfa(m.vt, m.transitions, m.initial, frozenset(range(m.n_states)) - m.finals)


def _coarsest_partition(trans: list[list[int]], finals: list[bool]) -> list[int]:
    """Block of every state in the coarsest partition that separates accepting
    from rejecting states and is stable under every symbol (Hopcroft 1971).

    Symbols whose columns are equal everywhere split alike, so one
    representative of each distinct column is refined over; an alphabet of
    hundreds of symbols on a few states then costs a handful of columns.  A
    splitter is a whole block, checked against every column through sparse
    preimages, and of the two halves of a block that is not waiting to split
    others only the smaller one is queued, which bounds the time by
    O(n * columns * log n).
    """
    n = len(trans)
    accepting = {q for q in range(n) if finals[q]}
    if not accepting or len(accepting) == n:
        return [0] * n
    blocks = [accepting, set(range(n)) - accepting]
    block = [0 if finals[q] else 1 for q in range(n)]
    preimages = []
    for column in dict.fromkeys(zip(*trans)):
        sources: dict[int, list[int]] = {}
        for q, t in enumerate(column):
            if t in sources:
                sources[t].append(q)
            else:
                sources[t] = [q]
        preimages.append(sources)
    waiting = {0 if len(blocks[0]) <= len(blocks[1]) else 1}
    while waiting and len(blocks) < n:
        splitter = list(blocks[waiting.pop()])
        for sources in preimages:
            hit: dict[int, list[int]] = {}
            for t in splitter:
                for q in sources.get(t, ()):
                    b = block[q]
                    if b in hit:
                        hit[b].append(q)
                    else:
                        hit[b] = [q]
            for b, members in hit.items():
                old = blocks[b]
                if len(members) == len(old):
                    continue
                new = len(blocks)
                old.difference_update(members)
                blocks.append(set(members))
                for q in members:
                    block[q] = new
                if b in waiting or len(members) <= len(old):
                    waiting.add(new)
                else:
                    waiting.add(b)
    return block


def minimize(m: Dfa) -> Dfa:
    """Minimal DFA for the same language, in a canonical state numbering.

    Merges equivalent states of the whole table (Hopcroft's partition
    refinement), then numbers the classes reachable from the initial one in
    breadth-first symbol order, so isomorphic inputs produce identical
    outputs.  Unreachable states need no trim: an equivalent state has the
    same successor classes and finality whether it is reachable or not.
    """
    trans = m.transitions
    finals = [q in m.finals for q in range(m.n_states)]
    block = _coarsest_partition(trans, finals)
    rep = {}
    for q, b in enumerate(block):
        rep.setdefault(b, q)
    # the numbering depends on the classes alone, not on the order above
    classes, table = explore(block[m.initial], lambda b: map(block.__getitem__, trans[rep[b]]))
    new_finals = frozenset(i for i, b in enumerate(classes) if finals[rep[b]])
    return Dfa(m.vt, table, 0, new_finals)


def language_equal(m1: Dfa, m2: Dfa) -> bool:
    """Exact equality of the accepted languages of non-empty words."""
    _check_same_vt(m1, m2)
    t1, t2 = m1.transitions, m2.transitions

    def row_of(pair):
        q1, q2 = (m1.initial, m2.initial) if pair is None else pair
        return zip(t1[q1], t2[q2])

    # None stands for the empty word, so every later pair is reached by a
    # non-empty word and must agree
    pairs, _ = explore(None, row_of)
    return all((q1 in m1.finals) == (q2 in m2.finals) for q1, q2 in pairs[1:])
