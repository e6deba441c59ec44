"""Turn-based games on DFAs for the finite-trace setting.

Protocol: in every round the environment reveals an environment state first,
then the agent either answers with an action (appending one joint symbol to
the trace) or stops the play.  The environment never stops.

The agent's objective is that the play stops with the accumulated trace
accepted; stopping before the first round completes produces the empty trace,
which is never accepted.  The environment's objective is dual in spirit but
not in form: it must keep every nonempty prefix of the play accepted, because
the agent may stop after any completed round.

Both games are played on the bipartite round arena of the automaton
(`round_arena`), where the environment moves at state nodes and the agent at
choice nodes, and both are solved by one attractor (`attract`), which the
parity games share.  The agent's winning region is its attractor to the
accepting states; the environment's safe set is the complement of the
agent's attractor to the choice nodes with an answer that leaves the
accepted language.  Each costs time linear in the arena's edges.  The
agent's game reports its region as a plain dict of ranks, in entry order,
and the environment's as a frozenset.  Strategies are read off the solved
arena: the agent plays the move its attractor recorded at each choice node
(`arena_answer`, shared with the parity games), the environment the choice
nodes the agent's attractor left out.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .dfa import Dfa, explore
from .logic import VarTable

# owners of the round arena's nodes in the finite games
_AGENT, _ENV = 0, 1


@dataclass
class AgentStrategy:
    """Finite-memory agent strategy.

    ``table`` maps (memory, env_state) to (action, next_memory).  A missing
    row stops without answering the pending environment state, as does a
    file's ``halt`` row, read as action None.  Strategies built here
    (`strategy_table`) list only the moves they play.
    """

    vt: VarTable
    n_memory: int
    initial: int
    table: dict[tuple[int, int], tuple[int | None, int]]

    def step(self, memory: int, env_state: int) -> tuple[int | None, int]:
        return self.table.get((memory, env_state), (None, memory))


@dataclass
class EnvStrategy:
    """Finite-memory environment strategy.

    The environment opens the play with ``first_output``; afterwards
    ``table`` maps (memory, action) to (next output, next memory).
    """

    vt: VarTable
    n_memory: int
    initial: int
    first_output: int
    table: dict[tuple[int, int], tuple[int, int]]

    def step(self, memory: int, action: int) -> tuple[int, int]:
        return self.table[(memory, action)]


def round_arena(m) -> tuple[list[list[int]], list[int]]:
    """The bipartite round arena of an automaton: (successor lists, choices).

    Node q < n is automaton state q, where the environment picks an
    environment state e; ``choices[q * n_env + e]`` is the node of the
    agent's choice that follows, whose successors are the distinct states
    its answers lead to.  Environment states whose answers at one state lead
    to the same states share a choice node, since such choices are won and
    lost together.  Choice nodes are numbered after the states, by state and
    then by the first environment state that leads to them.
    """
    n, n_env = m.n_states, m.vt.n_env_states
    succ: list[list[int]] = [[] for _ in range(n)]
    choices = []
    for q, row in enumerate(m.transitions):
        shared: dict[frozenset[int], int] = {}
        for e in range(n_env):
            # joint symbols keep the environment bits low: the answers to e
            # are the symbols e, e + n_env, e + 2 * n_env, ...
            targets = frozenset(row[e::n_env])
            node = shared.get(targets)
            if node is None:
                node = shared[targets] = len(succ)
                succ[q].append(node)
                succ.append(list(targets))
            choices.append(node)
    return succ, choices


def predecessors(succ: list[list[int]]) -> list[list[int]]:
    """Predecessor lists of a graph, each in increasing order."""
    pred: list[list[int]] = [[] for _ in succ]
    for v, targets in enumerate(succ):
        for w in targets:
            pred[w].append(v)
    return pred


def attract(alive, succ, pred, owner, player, base) -> tuple[dict[int, int], dict[int, int]]:
    """Player's attractor to base within alive, with the attraction moves.

    Returns (layers, moves).  ``layers`` maps each attracted node to its
    layer and iterates in the order the nodes entered: base in increasing
    order at layer 0, then every other node one layer above the node that
    completed its entry.  Nodes are processed in entry order, so layers never
    decrease along it.  A node of the player joins as soon as one successor
    is attracted, and ``moves`` records that successor, the earliest entered
    of them; an opposing node joins once every alive successor is.  Time is
    linear in the edges among alive nodes.
    """
    order = sorted(base)
    layers = dict.fromkeys(order, 0)
    moves: dict[int, int] = {}
    pending: dict[int, int] = {}
    for u in order:  # grows while it is walked: a FIFO queue
        up = layers[u] + 1
        for v in pred[u]:
            if v in layers or v not in alive:
                continue
            if owner[v] == player:
                moves[v] = u
            else:
                left = pending.get(v)
                if left is None:
                    left = sum(1 for w in succ[v] if w in alive)
                pending[v] = left = left - 1
                if left:
                    continue
            layers[v] = up
            order.append(v)
    return layers, moves


def _agent_attractor(m: Dfa, succ: list[list[int]], base) -> tuple[dict, dict]:
    """The agent's attractor to base on the round arena succ of m: (layers, moves)."""
    n = m.n_states
    owner = [_ENV] * n + [_AGENT] * (len(succ) - n)
    return attract(range(len(succ)), succ, predecessors(succ), owner, _AGENT, base)


def arena_answer(m, choices: list[int], moves: dict[int, int]) -> Callable:
    """The agent's answer reader on the round arena of m.

    ``answer(q, e)`` is (action, target) for the arena move ``moves`` names
    at e's choice node from q: the smallest action into that target.  It is
    None where the choice node has no move, outside the agent's region.
    """
    n_env = m.vt.n_env_states

    def answer(q: int, e: int) -> tuple[int, int] | None:
        target = moves.get(choices[q * n_env + e])
        if target is None:
            return None
        # the answers to e are the symbols e, e + n_env, ...: by action
        return m.transitions[q][e::n_env].index(target), target

    return answer


def agent_ranks(m: Dfa) -> tuple[dict[int, int], int, Callable]:
    """The agent's winning region: its attractor to the accepting states.

    A state of rank i lets the agent force, within i rounds, a stop in an
    accepting state; rank 0 is the accepting states.  Returns (rank by
    state, in the order the states entered the attractor; number of rank
    layers; the `arena_answer` of the attractor's moves).  Each move is the
    successor that entered the attractor earliest, which is also one of the
    smallest rank.  From a state of the region that is not accepting, the
    answer therefore strictly descends both the rank and the entry order, so
    a play cannot cycle.
    """
    n = m.n_states
    succ, choices = round_arena(m)
    layers, moves = _agent_attractor(m, succ, m.finals)
    # a round passes a choice node and a state node: states sit on even layers
    ranks = {q: k // 2 for q, k in layers.items() if q < n}
    return ranks, len(set(ranks.values())), arena_answer(m, choices, moves)


def strategy_table(start, n_inputs: int, step: Callable) -> dict:
    """Table step(mem, i) = (output, next memory) for every input i < n_inputs.

    The rows cover the memories reachable from start (`dfa.explore`, breadth
    first); a step of None stops and writes no row.
    """
    table = {}

    def row_of(mem):
        for i in range(n_inputs):
            move = step(mem, i)
            if move is not None:
                table[(mem, i)] = move
                yield move[1]

    explore(start, row_of)
    return table


def agent_realizable(m: Dfa) -> tuple[bool, dict[int, int], AgentStrategy | None]:
    """Can the agent guarantee stopping inside the accepted language?

    Returns (answer, rank of every winning state, strategy).  The ranks are
    those of `agent_ranks`, in the order the states entered the attractor.
    The agent must complete at least one round, so an accepting initial state
    is not enough by itself.  The returned strategy uses the automaton state
    as memory plus one fresh-start token (index ``n_states``) that forbids
    stopping before the first answer; afterwards it stops (has no row)
    exactly at accepting states and otherwise plays `agent_ranks`' answer.
    """
    ranks, _, answer = agent_ranks(m)
    fresh = m.n_states
    first = [answer(m.initial, e) for e in range(m.vt.n_env_states)]
    if None in first:
        return False, ranks, None

    def step(q, e):
        if q == fresh:
            return first[e]
        return None if q in m.finals else answer(q, e)

    table = strategy_table(fresh, m.vt.n_env_states, step)
    return True, ranks, AgentStrategy(m.vt, m.n_states + 1, fresh, table)


def env_safe(m: Dfa) -> tuple[frozenset[int], int, Callable]:
    """States from which the environment keeps every prefix accepted forever.

    A state is safe when some environment state forces, for every action, a
    successor that is both accepting and safe.  The unsafe states are the
    agent's attractor to the choice nodes with an answer into a rejecting
    state.  Returns (safe set, number of layers of unsafe states, reader).
    ``safe_moves(q)`` iterates, in increasing order, the environment states
    at q whose choice node the attractor left out: those whose every answer
    leads into an accepting safe state.
    """
    n, n_env = m.n_states, m.vt.n_env_states
    finals = m.finals
    succ, choices = round_arena(m)
    leaks = [v for v in range(n, len(succ)) if not finals.issuperset(succ[v])]
    layers, _ = _agent_attractor(m, succ, leaks)
    safe = frozenset(q for q in range(n) if q not in layers)

    def safe_moves(q: int):
        row = choices[q * n_env:(q + 1) * n_env]
        return (e for e, node in enumerate(row) if node not in layers)

    return safe, len({k for q, k in layers.items() if q < n}), safe_moves


def env_strategy(m, choose) -> EnvStrategy:
    """The environment strategy that plays choose(q) at every automaton state q.

    Memory is the automaton state after each completed round, and choose is
    called once per state reachable from the initial one (`strategy_table`).
    """
    moves = {m.initial: choose(m.initial)}  # every memory stepped is a key

    def step(q: int, a: int) -> tuple[int, int]:
        t = m.transitions[q][m.vt.joint(moves[q], a)]
        if t not in moves:
            moves[t] = choose(t)
        return moves[t], t

    table = strategy_table(m.initial, m.vt.n_actions, step)
    return EnvStrategy(m.vt, m.n_states, m.initial, moves[m.initial], table)


def env_realizable(m: Dfa) -> tuple[bool, frozenset[int], EnvStrategy | None]:
    """Can the environment keep every nonempty prefix accepted?

    Returns (answer, safe set of `env_safe`, strategy).  The strategy always
    plays the smallest of `env_safe`'s safe moves.
    """
    safe, _, safe_moves = env_safe(m)
    if m.initial not in safe:
        return False, safe, None
    return True, safe, env_strategy(m, lambda q: next(safe_moves(q)))


def play(agent: AgentStrategy, env, max_rounds: int = 10_000) -> tuple[list[int], bool]:
    """Run a play; returns (joint trace, whether the agent stopped).

    ``env`` may be any object with ``initial``, ``first_output`` and
    ``step(memory, action)``.
    """
    vt = agent.vt
    m_ag = agent.initial
    m_env = env.initial
    out = env.first_output
    trace: list[int] = []
    for _ in range(max_rounds):
        action, m_ag = agent.step(m_ag, out)
        if action is None:
            return trace, True
        trace.append(vt.joint(out, action))
        out, m_env = env.step(m_env, action)
    return trace, False
