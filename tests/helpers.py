"""Shared test fixtures: corpora, random generators, and independent oracles.

Everything here that double-checks the library is written from scratch
against the round protocol itself (safety fixpoints, value iteration,
positional enumeration, AND-OR search), not by calling the code under test.
Library calls appear only to build inputs (compiling formulas, validating
domains) whose own correctness is established by separate exhaustive tests.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from plansynth.compiler import compile_formula
from plansynth.dfa import Dfa
from plansynth.domain import Domain
from plansynth.games import AgentStrategy
from plansynth.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Always,
    Eventually,
    FalseConst,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
    VarTable,
    WeakNext,
    conjoin,
    disjoin,
)
from plansynth.parity import Dpw

XY = VarTable(("y",), ("x",))


# --- formula corpus ----------------------------------------------------------


def corpus_formulas(vt: VarTable = XY) -> list[Formula]:
    """Every normal-form formula of nesting depth at most two over the
    variables: literals and constants, one temporal/boolean operator over
    them.  174 formulas for a 1+1 vocabulary."""
    base = [TRUE, FALSE]
    for name in vt.all_vars:
        base += [Atom(name), Not(Atom(name))]
    out = list(base)
    for f in base:
        out += [Next(f), WeakNext(f), Eventually(f), Always(f)]
    for f, g in product(base, repeat=2):
        out += [And(f, g), Or(f, g), Until(f, g), Release(f, g)]
    return out


def distinct_languages(vt: VarTable, formulas) -> list[tuple[Formula, Dfa]]:
    """One (formula, automaton) pair per distinct language, first wins.

    Compilation ends in canonical minimization, so language equality is
    literal equality of the automaton tables.
    """
    seen = {}
    for f in formulas:
        m = compile_formula(vt, f)
        key = (m.transitions, m.initial, m.finals)
        if key not in seen:
            seen[key] = (f, m)
    return list(seen.values())


# --- independent safety / under-assumption oracles ---------------------------


def oracle_safe_set(m: Dfa) -> frozenset[int]:
    """Greatest set S where the environment owns a move keeping every agent
    reply inside S and accepting — recomputed here from the round protocol."""
    vt = m.vt
    safe = set(range(m.n_states))
    while True:
        keep = set()
        for q in safe:
            for e in range(vt.n_env_states):
                succ = [m.transitions[q][vt.joint(e, a)] for a in range(vt.n_actions)]
                if all(t in safe and t in m.finals for t in succ):
                    keep.add(q)
                    break
        if keep == safe:
            return frozenset(safe)
        safe = keep


def oracle_env_realizable(m: Dfa) -> bool:
    return m.initial in oracle_safe_set(m)


def _oracle_safe_moves(m: Dfa, safe: frozenset[int], q: int) -> list[int]:
    vt = m.vt
    moves = []
    for e in range(vt.n_env_states):
        succ = [m.transitions[q][vt.joint(e, a)] for a in range(vt.n_actions)]
        if all(t in safe and t in m.finals for t in succ):
            moves.append(e)
    return moves


def oracle_under_assumption(mw: Dfa, mg: Dfa) -> bool:
    """Can the agent force a halt on a goal-accepted trace against every
    environment that keeps the assumption alive?  Bounded value iteration
    over assumption x goal states, with a stabilization cross-check."""
    vt = mw.vt
    safe = oracle_safe_set(mw)
    if mw.initial not in safe:
        raise ValueError("assumption side is not environment realizable")
    moves = {q: _oracle_safe_moves(mw, safe, q) for q in safe}
    win: set[tuple[int, int]] = set()
    horizon = len(safe) * mg.n_states + 1
    for _ in range(horizon + 1):
        new = set(win)
        for qw, qg in product(safe, range(mg.n_states)):
            if (qw, qg) in new:
                continue
            good = True
            for e in moves[qw]:
                answered = False
                for a in range(vt.n_actions):
                    sym = vt.joint(e, a)
                    qg2 = mg.transitions[qg][sym]
                    if qg2 in mg.finals or (mw.transitions[qw][sym], qg2) in win:
                        answered = True
                        break
                if not answered:
                    good = False
                    break
            if good:
                new.add((qw, qg))
        if new == win:
            break
        win = new
    else:  # pragma: no cover - monotone iteration must stabilize in range
        raise AssertionError("value iteration failed to stabilize")
    return (mw.initial, mg.initial) in win


# --- minimization and finite-game oracles: Moore refinement, sweeps ----------


def oracle_minimize(m: Dfa) -> Dfa:
    """Minimal DFA in the canonical numbering, by Moore's refinement.

    Trims unreachable states, then splits blocks by (block, block of every
    successor) signatures, one round over all states at a time, until a
    round changes nothing; classes are renumbered in breadth-first symbol
    order from the initial class.  Each round maps every symbol's column
    through the current blocks in one pass, so chains of thousands of states
    (one round per state) stay cheap enough for a test.
    """
    reach = [m.initial]
    seen = {m.initial}
    for q in reach:
        for t in m.transitions[q]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    remap = {q: i for i, q in enumerate(reach)}
    trans = [[remap[t] for t in m.transitions[q]] for q in reach]
    finals = [q in m.finals for q in reach]
    columns = list(zip(*trans))
    block = [1 if f else 0 for f in finals]
    while True:
        signature: dict = {}
        nxt = [
            signature.setdefault(sig, len(signature))
            for sig in zip(block, *(map(block.__getitem__, col) for col in columns))
        ]
        if nxt == block:
            break
        block = nxt
    rep: dict[int, int] = {}
    for q, b in enumerate(block):
        rep.setdefault(b, q)
    order = [block[0]]
    listed = {block[0]}
    for b in order:
        for t in trans[rep[b]]:
            if block[t] not in listed:
                listed.add(block[t])
                order.append(block[t])
    index = {b: i for i, b in enumerate(order)}
    table = [[index[block[t]] for t in trans[rep[b]]] for b in order]
    return Dfa(m.vt, table, 0, frozenset(index[b] for b in order if finals[rep[b]]))


def oracle_agent_region(m: Dfa) -> frozenset[int]:
    """Least fixpoint of the states from which the agent forces an accepting
    stop: sweep all states, adding those where every environment state has
    an answer into the set, until a sweep adds nothing."""
    vt = m.vt
    win = set(m.finals)
    changed = True
    while changed:
        changed = False
        for q in range(m.n_states):
            if q in win:
                continue
            row = m.transitions[q]
            if all(
                any(row[vt.joint(e, a)] in win for a in range(vt.n_actions))
                for e in range(vt.n_env_states)
            ):
                win.add(q)
                changed = True
    return frozenset(win)


def oracle_agent_layers(m: Dfa) -> dict[int, int]:
    """Round of each agent-winning state: the least i such that the agent
    forces an accepting stop within i rounds, computed one round at a time
    from the states of the rounds before it."""
    vt = m.vt
    layer = {q: 0 for q in m.finals}
    i = 0
    while True:
        i += 1
        new = [
            q
            for q in range(m.n_states)
            if q not in layer
            and all(
                any(m.transitions[q][vt.joint(e, a)] in layer for a in range(vt.n_actions))
                for e in range(vt.n_env_states)
            )
        ]
        if not new:
            return layer
        layer.update((q, i) for q in new)


def reference_agent_table(m: Dfa, order) -> dict | None:
    """The table the agent's strategy should have, or None if the agent
    cannot complete a first round into its region.

    ``order`` lists the region's states in the order they entered the
    attractor.  The answer from q to e is the first action into the
    successor that comes earliest in ``order``.  Memory is the automaton
    state, plus a fresh token ``n_states`` at the start, which answers from
    the initial state even when it accepts; every later accepting state
    stops and has no row.  Rows cover the memories reachable from the
    token, breadth first."""
    vt = m.vt
    pos = {q: i for i, q in enumerate(order)}
    fresh = m.n_states
    table: dict = {}
    queue, seen = [fresh], {fresh}
    for mem in queue:
        q = m.initial if mem == fresh else mem
        for e in range(vt.n_env_states):
            if mem != fresh and q in m.finals:
                break
            best = None
            for a in range(vt.n_actions):
                t = m.transitions[q][vt.joint(e, a)]
                if t in pos and (best is None or pos[t] < pos[best[1]]):
                    best = (a, t)
            if best is None:
                return None
            table[(mem, e)] = best
            if best[1] not in seen:
                seen.add(best[1])
                queue.append(best[1])
    return table


def oracle_env_safe(m: Dfa) -> frozenset[int]:
    """Greatest fixpoint of the environment's safe states: sweep the
    candidates in increasing order, dropping each state that has no
    environment state whose every answer stays accepting and in the set,
    until a sweep drops nothing."""
    vt = m.vt
    safe = set(range(m.n_states))
    changed = True
    while changed:
        changed = False
        for q in sorted(safe):
            row = m.transitions[q]
            if not any(
                all(
                    row[vt.joint(e, a)] in m.finals and row[vt.joint(e, a)] in safe
                    for a in range(vt.n_actions)
                )
                for e in range(vt.n_env_states)
            ):
                safe.discard(q)
                changed = True
    return frozenset(safe)


# --- random structures --------------------------------------------------------


def random_dfa(rng, vt: VarTable, max_states: int = 6) -> Dfa:
    n = rng.randint(1, max_states)
    transitions = tuple(
        tuple(rng.randrange(n) for _ in range(vt.n_symbols)) for _ in range(n)
    )
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(vt, transitions, rng.randrange(n), finals)


def random_dpw(rng, vt: VarTable, max_states: int = 6, n_colors: int = 3) -> Dpw:
    n = rng.randint(1, max_states)
    transitions = tuple(
        tuple(rng.randrange(n) for _ in range(vt.n_symbols)) for _ in range(n)
    )
    colors = tuple(rng.randrange(n_colors) for _ in range(n))
    return Dpw(vt, transitions, rng.randrange(n), colors)


def random_lasso(rng, vt: VarTable, max_prefix: int = 3, max_loop: int = 4):
    prefix = [rng.randrange(vt.n_symbols) for _ in range(rng.randint(0, max_prefix))]
    loop = [rng.randrange(vt.n_symbols) for _ in range(rng.randint(1, max_loop))]
    return prefix, loop


def random_formula(rng, vt: VarTable, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.2:
        leaves = [TRUE, FALSE] + [Atom(v) for v in vt.all_vars]
        f = rng.choice(leaves)
        return Not(f) if rng.random() < 0.4 else f
    shape = rng.randrange(10)
    if shape < 5:
        ctor = (Next, WeakNext, Eventually, Always, Not)[shape]
        return ctor(random_formula(rng, vt, depth - 1))
    ctor = (And, Or, Until, Release, Until)[shape - 5]
    return ctor(random_formula(rng, vt, depth - 1), random_formula(rng, vt, depth - 1))


# --- finite-trace semantics ---------------------------------------------------


def eval_finite(vt: VarTable, f: Formula, trace: Sequence[int], pos: int = 0) -> bool:
    """Satisfaction of f on a non-empty finite trace at a position."""
    if len(trace) == 0:
        raise ValueError("traces are non-empty")
    if not 0 <= pos < len(trace):
        raise ValueError(f"position {pos} outside trace of length {len(trace)}")
    last = len(trace) - 1

    def ev(g: Formula, n: int) -> bool:
        if isinstance(g, TrueConst):
            return True
        if isinstance(g, FalseConst):
            return False
        if isinstance(g, Atom):
            return bool(trace[n] >> vt.bit(g.name) & 1)
        if isinstance(g, Not):
            return not ev(g.operand, n)
        if isinstance(g, And):
            return ev(g.left, n) and ev(g.right, n)
        if isinstance(g, Or):
            return ev(g.left, n) or ev(g.right, n)
        if isinstance(g, Implies):
            return not ev(g.left, n) or ev(g.right, n)
        if isinstance(g, Next):
            return n < last and ev(g.operand, n + 1)
        if isinstance(g, WeakNext):
            return n == last or ev(g.operand, n + 1)
        if isinstance(g, Until):
            for i in range(n, last + 1):
                if ev(g.right, i):
                    return True
                if not ev(g.left, i):
                    return False
            return False
        if isinstance(g, Release):
            for i in range(n, last + 1):
                if not ev(g.right, i):
                    return False
                if ev(g.left, i):
                    return True
            return True
        if isinstance(g, Eventually):
            return any(ev(g.operand, i) for i in range(n, last + 1))
        if isinstance(g, Always):
            return all(ev(g.operand, i) for i in range(n, last + 1))
        raise TypeError(f"not a formula: {g!r}")

    return ev(f, pos)


# --- random domains and their direct semantics --------------------------------


def env_minterm(vt: VarTable, state: int, primed: bool = False) -> Formula:
    literals = []
    for i, name in enumerate(vt.env_vars):
        atom = Atom(VarTable.primed(name)) if primed else Atom(name)
        literals.append(atom if state >> i & 1 else Not(atom))
    return conjoin(literals)


def pair_minterm(vt: VarTable, state: int, action: int) -> Formula:
    literals = [env_minterm(vt, state)]
    for i, name in enumerate(vt.agent_vars):
        atom = Atom(name)
        literals.append(atom if action >> i & 1 else Not(atom))
    return conjoin(literals)


def random_domain(rng, n_env: int, n_agent: int, max_effects: int = 3):
    """A random valid compact domain plus the explicit sets it encodes.

    Returns (domain, init_states, pre_pairs, delta) where the last three are
    the generator's own record, usable as an oracle for anything the library
    derives from the domain.
    """
    vt = VarTable(
        tuple(f"p{i}" for i in range(n_env)),
        tuple(f"m{i}" for i in range(n_agent)),
    )
    n_states, n_actions = vt.n_env_states, vt.n_actions
    init_states = frozenset(rng.sample(range(n_states), rng.randint(1, n_states)))
    delta: dict[tuple[int, int], tuple[int, ...]] = {}
    for s in range(n_states):
        n_avail = 1 + (rng.randrange(n_actions) if rng.random() < 0.5 else 0)
        for a in rng.sample(range(n_actions), min(n_avail, n_actions)):
            width = rng.randint(1, min(max_effects, n_states))
            delta[(s, a)] = tuple(sorted(rng.sample(range(n_states), width)))
    pre_pairs = frozenset(delta)
    init = disjoin([env_minterm(vt, s) for s in sorted(init_states)])
    pre = disjoin([pair_minterm(vt, s, a) for s, a in sorted(pre_pairs)])
    step = disjoin([
        And(pair_minterm(vt, s, a),
            disjoin([env_minterm(vt, t, primed=True) for t in effects]))
        for (s, a), effects in sorted(delta.items())
    ])
    return Domain(vt, init, pre, step), init_states, pre_pairs, delta


def domain_consistent(vt: VarTable, init_states, pre_pairs, delta, trace) -> bool:
    """Direct reading of 'the environment behaved like the domain': starts in
    an initial state and follows the transitions, except that one unavailable
    agent action releases it from all further constraints."""
    if not trace:
        return False
    if vt.env_part(trace[0]) not in init_states:
        return False
    for i, sym in enumerate(trace):
        s, a = vt.env_part(sym), vt.agent_part(sym)
        if (s, a) not in pre_pairs:
            return True
        if i + 1 == len(trace):
            return True
        if vt.env_part(trace[i + 1]) not in delta[(s, a)]:
            return False
    return True


def all_traces(vt: VarTable, max_len: int):
    for length in range(1, max_len + 1):
        yield from product(range(vt.n_symbols), repeat=length)


# --- parity oracle: positional enumeration ------------------------------------


def parity_regions_oracle(m: Dpw) -> tuple[frozenset[int], frozenset[int]]:
    """Winning automaton states for the agent (seeking an even top color)
    and the environment, by brute force over every positional agent map.

    The round arena is rebuilt here: a state node per automaton state
    (environment picks a move), a choice node per (state, move) pair (agent
    picks an action), colors carried by state nodes.  A state is
    agent-winning iff some positional map leaves no odd-dominated cycle
    reachable from it.
    """
    vt = m.vt
    n, n_env, n_act = m.n_states, vt.n_env_states, vt.n_actions
    total = n + n * n_env
    prio = list(m.colors) + [0] * (n * n_env)
    state_succ = [0] * n
    for q in range(n):
        for e in range(n_env):
            state_succ[q] |= 1 << (n + q * n_env + e)
    choice_target_masks = [
        [1 << m.transitions[q][vt.joint(e, a)] for a in range(n_act)]
        for q in range(n) for e in range(n_env)
    ]
    odd_colors = sorted({c for c in m.colors if c % 2 == 1})
    allowed_mask = {
        p: sum(1 << v for v in range(total) if prio[v] <= p) for p in odd_colors
    }
    top_nodes = {
        p: [v for v in range(total) if prio[v] == p] for p in odd_colors
    }

    agent_win: set[int] = set()
    for assign in product(range(n_act), repeat=n * n_env):
        succ = state_succ + [choice_target_masks[c][a] for c, a in enumerate(assign)]
        bad = 0
        for p in odd_colors:
            allowed = allowed_mask[p]
            for v in top_nodes[p]:
                reach = 0
                frontier = succ[v] & allowed
                while frontier & ~reach:
                    fresh = frontier & ~reach
                    reach |= fresh
                    frontier = 0
                    while fresh:
                        bit = fresh & -fresh
                        frontier |= succ[bit.bit_length() - 1]
                        fresh ^= bit
                    frontier &= allowed
                if reach >> v & 1:
                    bad |= 1 << v
        lose = bad
        changed = True
        while changed:
            changed = False
            for v in range(total):
                if not lose >> v & 1 and succ[v] & lose:
                    lose |= 1 << v
                    changed = True
        agent_win.update(q for q in range(n) if not lose >> q & 1)
        if len(agent_win) == n:
            break
    return frozenset(agent_win), frozenset(range(n)) - frozenset(agent_win)


def parity_cycle_against(s: AgentStrategy, assumption: Dpw, goal: Dpw):
    """Tops (assumption color, goal color) of a play the agent strategy lets
    through with the assumption accepted and the goal rejected, or None.

    Every play of s against some environment is a path from the start in
    the graph of (memory, assumption state, goal state) nodes, and its
    recurring part is a cycle.  For each even assumption color ta and odd
    goal color tg, the graph is cut to the nodes of no larger colors, and a
    node of assumption color ta that lies on one cycle with a node of goal
    color tg (possibly itself) gives such a play.  A missing row fails as an
    AssertionError: a strategy on infinite traces never stops.
    """
    vt = s.vt
    start = (s.initial, assumption.initial, goal.initial)
    succ: dict = {}
    todo = [start]
    while todo:
        node = todo.pop()
        if node in succ:
            continue
        mem, qa, qg = node
        succ[node] = []
        for e in range(vt.n_env_states):
            assert (mem, e) in s.table, f"no move for memory {mem} on {e}"
            action, mem2 = s.table[(mem, e)]
            sym = vt.joint(e, action)
            nxt = (mem2, assumption.transitions[qa][sym], goal.transitions[qg][sym])
            succ[node].append(nxt)
            todo.append(nxt)

    def reach(u, keep):
        """Nodes of keep reached from u by a nonempty path inside keep."""
        seen: set = set()
        todo = list(succ[u])
        while todo:
            w = todo.pop()
            if w in keep and w not in seen:
                seen.add(w)
                todo += succ[w]
        return seen

    a_colors = sorted({assumption.colors[qa] for _, qa, _ in succ})
    g_colors = sorted({goal.colors[qg] for _, _, qg in succ})
    for ta in (c for c in a_colors if c % 2 == 0):
        for tg in (c for c in g_colors if c % 2 == 1):
            keep = {n for n in succ if assumption.colors[n[1]] <= ta and goal.colors[n[2]] <= tg}
            for u in keep:
                if assumption.colors[u[1]] != ta:
                    continue
                if any(goal.colors[w[2]] == tg and u in reach(w, keep) for w in reach(u, keep)):
                    return ta, tg
    return None


# --- strong plans: AND-OR search ----------------------------------------------


def strong_plan_exists(init_states, pre_pairs, delta, goal_states) -> bool:
    """AND-OR reachability search with a path set for cycle detection; only
    wins are memoized (they are path-independent), failures are not."""
    available: dict[int, list[int]] = {}
    for s, a in sorted(pre_pairs):
        available.setdefault(s, []).append(a)
    wins: set[int] = set()

    def search(s: int, path: frozenset[int]) -> bool:
        if s in wins:
            return True
        if s in goal_states:
            wins.add(s)
            return True
        if s in path:
            return False
        deeper = path | {s}
        for a in available.get(s, ()):
            if all(search(t, deeper) for t in delta[(s, a)]):
                wins.add(s)
                return True
        return False

    return all(search(s, frozenset()) for s in sorted(init_states))


# --- round-robin lassos ---------------------------------------------------------


def drive_to_lasso(env, agent_map: dict[int, int]):
    """Run a positional agent map against a deterministic environment until
    the joint configuration repeats; returns (prefix, loop) of joint symbols."""
    vt = env.vt
    seen: dict = {}
    trace: list[int] = []
    memory = env.initial
    while memory not in seen:
        seen[memory] = len(trace)
        pending = memory[0]
        action = agent_map[pending]
        trace.append(vt.joint(pending, action))
        _, memory = env.step(memory, action)
    start = seen[memory]
    return trace[:start], trace[start:]


def fair_loop_ok(vt: VarTable, delta, loop) -> bool:
    """Does the loop schedule every effect of every available pair it
    contains?  (Each occurrence set of a pair must be followed, within the
    loop, by each of that pair's possible successor states.)"""
    k = len(loop)
    for sym in set(loop):
        s, a = vt.env_part(sym), vt.agent_part(sym)
        effects = delta.get((s, a))
        if not effects:
            continue
        followers = {
            vt.env_part(loop[(j + 1) % k]) for j in range(k) if loop[j] == sym
        }
        if not set(effects) <= followers:
            return False
    return True


# --- finite strategy families ---------------------------------------------------


def memoryless_agent_strategies(vt: VarTable):
    """Every one-memory agent strategy: each environment move is answered by
    a fixed action or by halting."""
    options = [None] + list(range(vt.n_actions))
    for picks in product(options, repeat=vt.n_env_states):
        table = {(0, e): (picks[e], 0) for e in range(vt.n_env_states)}
        yield AgentStrategy(vt, 1, 0, table)
