"""Deterministic parity automata on infinite words, and the games they induce.

Acceptance is max-parity: a run is accepting when the highest state color
visited infinitely often is even.  Boolean combinations of two parity
automata go through a latest-appearance record over the joint color alphabet,
which turns the product's Muller condition back into a parity condition;
it serves the planning conjunction of domain behaviour and assumption, and
the exported game automaton.

The induced games use the same round protocol as the finite case — the
environment reveals an environment state, the agent answers with an action —
but the play never stops, and winning means the infinite joint trace is
accepted.  Every game is played on `games.round_arena`, with the agent as
player 0, who wins when the top recurring color is even: the environment
forces an automaton's language by winning, as player 1, the game on its
complement.  "Assumption implies goal" is solved without the record: on
the plain pair product of the two automata (`dfa.product`), whose game
carries both colorings, and one Zielonka recursion decides the disjunction
"the assumption fails or the goal holds".  Each side's positional strategy
is read off Zielonka's moves: the agent's through the same
`games.arena_answer` as in the finite game.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .dfa import CONNECTIVES, _check_same_vt, check_explicit, explore, product
from .errors import VocabularyMismatch
from .games import (
    AgentStrategy,
    EnvStrategy,
    arena_answer,
    attract,
    env_strategy,
    predecessors,
    round_arena,
    strategy_table,
)
from .logic import VarTable


@dataclass(frozen=True)
class Dpw:
    """Total deterministic parity automaton; colors[q] is the color of q."""

    vt: VarTable
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(tuple(row) for row in self.transitions))
        object.__setattr__(self, "colors", tuple(self.colors))
        n = check_explicit(self.vt, self.transitions, self.initial)
        if len(self.colors) != n or any(c < 0 for c in self.colors):
            raise ValueError("need one nonnegative color per state")

    @property
    def n_states(self) -> int:
        return len(self.transitions)


def accepts_lasso(m: Dpw, prefix, loop) -> bool:
    """Does m accept the infinite word prefix · loop^ω?"""
    loop = list(loop)
    if not loop:
        raise ValueError("lasso loop must be non-empty")
    nsym = m.vt.n_symbols
    for sym in list(prefix) + loop:
        if not 0 <= sym < nsym:
            raise VocabularyMismatch(f"symbol {sym} outside the joint alphabet")
    q = m.initial
    for sym in prefix:
        q = m.transitions[q][sym]
    seen: dict[tuple[int, int], int] = {}
    visited: list[int] = []
    idx = 0
    while (q, idx) not in seen:
        seen[(q, idx)] = len(visited)
        visited.append(q)
        q = m.transitions[q][loop[idx]]
        idx = (idx + 1) % len(loop)
    start = seen[(q, idx)]
    return max(m.colors[s] for s in visited[start:]) % 2 == 0


def _compact(values) -> list[int]:
    """The smallest values with the same order and parities: each run of
    consecutive same-parity values, in sorted order, becomes one value."""
    used = sorted(set(values))
    mapping: dict[int, int] = {}
    current = used[0] % 2 if used else 0
    for c in used:
        if c % 2 != current % 2:
            current += 1
        mapping[c] = current
    return [mapping[c] for c in values]


def normalize_colors(m: Dpw) -> Dpw:
    """Smallest equivalent coloring: collapse consecutive same-parity colors.

    Returns m itself when its coloring is already the smallest.
    """
    colors = tuple(_compact(m.colors))
    return m if colors == m.colors else Dpw(m.vt, m.transitions, m.initial, colors)


def dpw_complement(m: Dpw) -> Dpw:
    """Accept exactly the words m rejects: shift every color's parity."""
    return normalize_colors(Dpw(m.vt, m.transitions, m.initial, tuple(c + 1 for c in m.colors)))


def dpw_combine(m1: Dpw, m2: Dpw, connective: str) -> Dpw:
    """Boolean combination of two parity automata, as a parity automaton.

    The product emits, on every step, the colors of the two successor states,
    tagged by side.  A latest-appearance record over these tagged colors is
    carried in the state: the emitted pair moves to the front, and the hit
    position h (the larger of the two old positions) plus whether the first h
    record entries form a good set for the connective determine the state
    color as 2h or 2h+1.  The tagged colors seen infinitely often then sit at
    the front of the record at the maximal recurring h, so the biggest
    recurring color is even exactly when the combination accepts.
    """
    _check_same_vt(m1, m2)
    test = CONNECTIVES[connective]
    m1 = normalize_colors(m1)
    m2 = normalize_colors(m2)
    alphabet = sorted({("L", c) for c in m1.colors} | {("R", c) for c in m2.colors})

    def good(window) -> bool:
        c1 = max(c for tag, c in window if tag == "L")
        c2 = max(c for tag, c in window if tag == "R")
        return test(c1 % 2 == 0, c2 % 2 == 0)

    def row_of(state):
        q1, q2, record, _ = state
        for t1, t2 in zip(m1.transitions[q1], m2.transitions[q2]):
            left = ("L", m1.colors[t1])
            right = ("R", m2.colors[t2])
            h = max(record.index(left), record.index(right)) + 1
            moved = (left, right) + tuple(x for x in record if x != left and x != right)
            yield t1, t2, moved, h

    states, rows = explore((m1.initial, m2.initial, tuple(alphabet), len(alphabet)), row_of)
    colors = tuple(2 * h if good(record[:h]) else 2 * h + 1 for _, _, record, h in states)
    return normalize_colors(Dpw(m1.vt, rows, 0, colors))


def pair_product(assumption: Dpw, goal: Dpw) -> tuple[Dpw, list[int]]:
    """The reachable product of two parity automata, keeping both colorings.

    Returns the `dfa.product` as a parity automaton, which carries the
    goal's colors, and the assumption's color of each product state: the
    two priority lists of the game on "assumption implies goal".  The
    colors are passed on as given; `solve_game` compacts them.
    """
    pairs, rows = product(assumption, goal)
    m = Dpw(goal.vt, rows, 0, tuple(goal.colors[qg] for _, qg in pairs))
    return m, [assumption.colors[qa] for qa, _ in pairs]


# --- parity game solving ---------------------------------------------------


def _zielonka(alive, succ, pred, owner, priority, assumption):
    """Zielonka's algorithm on the subgame alive, as a generator.

    Player 0 wins a play when the top recurring assumption priority is odd
    or the top recurring (goal) priority is even; with every assumption
    priority 0, or with ``assumption`` None, this is plain max-parity on
    the priorities.  At a level where one of the two top priorities favours
    player 0, its attractor to the nodes carrying such a top is removed, as
    in Zielonka's algorithm.
    Otherwise player 1 needs both tops infinitely often (Chatterjee,
    Henzinger & Piterman, "Generalized Parity Games", 2007): the level tries
    removing player 1's attractor to the assumption top, then to the goal
    top, and a child where player 0 wins something hands that region on as
    usual.  An assumption top that covers the whole subgame is no
    constraint, and its child is skipped.

    It yields each subgame it needs solved, receives that subgame's
    solution, and returns its own, so a driver loop can run the recursion
    with its own stack instead of the interpreter's.  A solution is
    (regions, moves), each a list indexed by player.  Subgames are carved
    out of the one ``alive`` set in place and restored before the generator
    goes on, so the suspended levels share it rather than each holding a
    copy.
    """
    if not alive:
        return [set(), set()], [{}, {}]
    pg = max(priority[v] for v in alive)
    top_g = {v for v in alive if priority[v] == pg}
    if assumption is None:
        pa, top_a = 0, alive  # as if every assumption priority were 0
    else:
        pa = max(assumption[v] for v in alive)
        top_a = {v for v in alive if assumption[v] == pa}
    if pa % 2 or pg % 2 == 0:
        # one child: player 0's attractor to the tops of its parity
        i, tops = 0, [(top_a if pa % 2 else set()) | (top_g if pg % 2 == 0 else set())]
    else:
        # player 1 needs both tops infinitely often: a child for each
        i, tops = 1, [top_a, top_g] if len(top_a) < len(alive) else [top_g]
    for top in tops:
        region_a, moves_a = attract(alive, succ, pred, owner, i, top)
        alive.difference_update(region_a)
        regions, moves = yield alive
        alive.update(region_a)
        if regions[1 - i]:
            break
    else:
        # the opponent's moves lie in its region, so they are empty too
        regions[i] = set(alive)
        moves[i].update(moves_a)
        for v in sorted(top):
            if owner[v] == i and v not in moves[i]:
                moves[i][v] = min(w for w in succ[v] if w in alive)
        return regions, moves
    region_b, moves_b = attract(alive, succ, pred, owner, 1 - i, regions[1 - i])
    alive.difference_update(region_b)
    sub_regions, sub_moves = yield alive
    alive.update(region_b)
    sub_regions[1 - i].update(region_b)
    sub_moves[1 - i].update(moves_b)
    sub_moves[1 - i].update(moves[1 - i])
    return sub_regions, sub_moves


def solve_game(succ, owner, priority, assumption=None):
    """Zielonka's algorithm with positional strategies for both players.

    Player 0 wins per max-parity: the highest priority visited infinitely
    often along the play must be even.  Given a second priority list
    ``assumption``, player 0 also wins every play whose highest recurring
    assumption priority is odd (see `_zielonka`).  Each list is compacted
    first (runs of same-parity priorities merged), which changes no winner
    and saves the recursion a level per merged value.  Returns (win0, win1,
    moves0, moves1), where moves are per-node choices covering each
    player's own nodes inside their winning region.  Player 0's moves win;
    so do player 1's without an assumption list, while against the
    disjunction player 1 may need memory, and its moves only stay inside
    its region.  Assumes a total game graph (no dead ends), which
    attractor removal preserves.  The recursion, up to one level per node,
    runs on an explicit stack of suspended subgames.
    """
    pred = predecessors(succ)
    priority = _compact(priority)
    assumption = None if assumption is None else _compact(assumption)
    stack = [_zielonka(set(range(len(succ))), succ, pred, owner, priority, assumption)]
    solved = None
    while stack:
        try:
            sub = stack[-1].send(solved)
        except StopIteration as done:
            stack.pop()
            solved = done.value
        else:
            stack.append(_zielonka(sub, succ, pred, owner, priority, assumption))
            solved = None
    (win0, win1), (moves0, moves1) = solved
    return win0, win1, moves0, moves1


def _arena(m: Dpw):
    """The round arena of m (`games.round_arena`) with m's colors as priorities.

    Choice nodes carry priority 0, which never changes a cycle's maximum.
    Returns (successors, owners, priorities, choices).
    """
    succ, owner, choices = round_arena(m)
    return succ, owner, list(m.colors) + [0] * (len(succ) - m.n_states), choices


@dataclass
class ParityRegions:
    """Determinacy partition of the automaton states, with the agent's answer.

    From agent_states the agent forces acceptance, and ``answer(q, e)`` (a
    `games.arena_answer`) gives its winning (action, next state) to every
    environment choice e there; env_states is the rest.
    """

    agent_states: frozenset[int]
    env_states: frozenset[int]
    answer: Callable[[int, int], tuple[int, int] | None]


def solve_parity_game(m: Dpw, assumption=None) -> ParityRegions:
    """Solve the round game on the automaton with the agent as parity player.

    Given ``assumption``, a second color for each state of m, the agent
    also wins every play whose top recurring assumption color is odd.
    """
    n = m.n_states
    succ, owner, priority, choices = _arena(m)
    if assumption is not None:
        assumption = list(assumption) + [0] * (len(succ) - n)
    win0, win1, moves0, _ = solve_game(succ, owner, priority, assumption)
    agent_states = frozenset(q for q in range(n) if q in win0)
    env_states = frozenset(q for q in range(n) if q in win1)
    return ParityRegions(agent_states, env_states, arena_answer(m, choices, moves0))


def dpw_agent_realizable(m: Dpw, assumption: Dpw | None = None) -> tuple[bool, AgentStrategy | None]:
    """Can the agent force the infinite trace into the accepted language?

    Given an assumption automaton, the question is whether the agent can
    force the trace out of the assumption's language or into m's, and it is
    solved on their `pair_product`.  The returned strategy is positional
    over automaton states (product states, given an assumption): memory is
    the current state, and the table never stops the play.  Against the
    disjunction of two parity conditions, a Rabin condition, positional
    strategies suffice (Emerson & Jutla 1988).
    """
    colors = None
    if assumption is not None:
        m, colors = pair_product(assumption, m)
    regions = solve_parity_game(m, colors)
    if m.initial not in regions.agent_states:
        return False, None
    table = strategy_table(m.initial, m.vt.n_env_states, regions.answer)
    return True, AgentStrategy(m.vt, m.n_states, m.initial, table)


def dpw_env_realizable(m: Dpw) -> tuple[bool, EnvStrategy | None]:
    """Can the environment force the infinite trace into the accepted language?

    Solved on the arena of `dpw_complement(m)`, where the agent, player 0,
    seeks the complement's acceptance, and read off as player 1: its winning
    region, and its moves, which win positionally against one priority list.
    """
    succ, owner, priority, choices = _arena(dpw_complement(m))
    _, win1, _, moves1 = solve_game(succ, owner, priority)
    if m.initial not in win1:
        return False, None
    n_env = m.vt.n_env_states

    def chosen(q: int) -> int:
        # the smallest environment state whose choice node is the winning move
        return choices.index(moves1[q], q * n_env, (q + 1) * n_env) - q * n_env

    return True, env_strategy(m, chosen)
