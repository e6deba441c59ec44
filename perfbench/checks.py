"""Output checks worked out apart from the program under test.

Nothing here calls ``plansynth.engine`` or ``plansynth.games``, and the
strategy files are read by a parser of this file's own.  Finite-trace
answers are judged on plain automaton tables: the environment's safe region
of the assumption, an attractor over assumption x goal for the verdict, and
an exhaustive exploration of a returned strategy.  Planning answers are
judged on the generator's explicit record of the domain by AND-OR search.
Infinite-trace certificates are judged by looking for a reachable cycle of
the right parity in the product of strategy and automata.

Everything is iterative, so large chains cannot exhaust the stack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product


@dataclass
class Table:
    """A complete automaton over joint symbols ``env | agent << n_env``.

    ``finals`` is set for word automata, ``colors`` for parity automata.
    """

    n_env: int
    n_agent: int
    rows: list
    initial: int
    finals: frozenset = frozenset()
    colors: tuple = ()

    def sym(self, env: int, action: int) -> int:
        return env | action << self.n_env


def table_of(m) -> Table:
    """Plain table of a ``plansynth`` Dfa or Dpw."""
    finals = getattr(m, "finals", frozenset())
    colors = getattr(m, "colors", ())
    return Table(m.vt.n_env, m.vt.n_agent, [list(r) for r in m.transitions], m.initial,
                 frozenset(finals), tuple(colors))


# --- strategy files ----------------------------------------------------------


@dataclass
class Strategy:
    kind: str
    n_env: int
    n_agent: int
    initial: int
    first_output: int
    table: dict


def _bits(text: str) -> int:
    return 0 if text == "-" else sum(1 << i for i, c in enumerate(text) if c == "1")


def read_strategy(path: str) -> Strategy:
    """Parse a strategy file; a missing agent row means halt."""
    headers = {}
    table = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition(":")
            if sep and " " not in key:
                headers[key] = value.strip()
                continue
            mem, given, arrow, out, mem2 = line.split()
            if arrow != "->":
                raise ValueError(f"{path}: bad row {line!r}")
            table[(int(mem), _bits(given))] = (None if out == "halt" else _bits(out), int(mem2))
    env, agent = headers["vars"].split("|")
    initial = headers["initial"].split()
    first = _bits(initial[2]) if len(initial) == 3 else 0
    return Strategy(headers["type"], len(env.split()), len(agent.split()), int(initial[0]),
                    first, table)


def strategy_rows(path: str) -> int:
    """Number of transducer rows in a strategy file."""
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if "->" in line)


# --- finite traces -----------------------------------------------------------


def env_safe_set(a: Table) -> set:
    """States from which the environment keeps every prefix accepted.

    A move e of state q is good while every agent answer leads to an
    accepting safe state; a state with no good move left drops out.  Uses
    one counter per state, so the cost is linear in the transitions.
    """
    n_env, n_act = 1 << a.n_env, 1 << a.n_agent
    n = len(a.rows)
    users = [[] for _ in range(n)]  # (q, e) whose answers can reach t
    good_moves = [0] * n
    good = {}
    for q in range(n):
        row = a.rows[q]
        for e in range(n_env):
            targets = {row[a.sym(e, x)] for x in range(n_act)}
            ok = all(t in a.finals for t in targets)
            good[(q, e)] = ok
            if ok:
                good_moves[q] += 1
                for t in targets:
                    users[t].append((q, e))
    unsafe = deque(q for q in range(n) if good_moves[q] == 0)
    dropped = set(unsafe)
    while unsafe:
        t = unsafe.popleft()
        for q, e in users[t]:
            if good[(q, e)]:
                good[(q, e)] = False
                good_moves[q] -= 1
                if good_moves[q] == 0 and q not in dropped:
                    dropped.add(q)
                    unsafe.append(q)
    return set(range(n)) - dropped


def safe_moves(a: Table, safe: set) -> dict:
    """For each safe state, the environment moves that stay safe."""
    n_env, n_act = 1 << a.n_env, 1 << a.n_agent
    out = {}
    for q in safe:
        row = a.rows[q]
        out[q] = [
            e for e in range(n_env)
            if all(row[a.sym(e, x)] in safe and row[a.sym(e, x)] in a.finals
                   for x in range(n_act))
        ]
    return out


def decide_finite(a: Table, g: Table) -> str:
    """Verdict from the definition: the agent must halt, after a first
    round, with the goal accepted, against environments restricted to moves
    that keep the assumption realizable."""
    safe = env_safe_set(a)
    if a.initial not in safe:
        return "invalid-assumption"
    moves = safe_moves(a, safe)
    n_act = 1 << a.n_agent
    # Reachable product; node = (assumption state, goal state, before first round).
    start = (a.initial, g.initial, True)
    index = {start: 0}
    nodes = [start]
    succ = []  # per node: list over moves of the answers' target nodes
    i = 0
    while i < len(nodes):
        qa, qg, _ = nodes[i]
        per_move = []
        for e in moves[qa]:
            targets = []
            for x in range(n_act):
                s = a.sym(e, x)
                t = (a.rows[qa][s], g.rows[qg][s], False)
                if t not in index:
                    index[t] = len(nodes)
                    nodes.append(t)
                targets.append(index[t])
            per_move.append(targets)
        succ.append(per_move)
        i += 1
    # Attractor to "may halt here": the goal accepts and a round is done.
    n = len(nodes)
    pending = [len(per_move) for per_move in succ]
    covered = [[False] * len(per_move) for per_move in succ]
    users = [[] for _ in range(n)]
    for v, per_move in enumerate(succ):
        for k, targets in enumerate(per_move):
            for t in targets:
                users[t].append((v, k))
    win = [False] * n
    queue = deque()
    for v, (_, qg, first) in enumerate(nodes):
        if not first and qg in g.finals:
            win[v] = True
            queue.append(v)
    while queue:
        t = queue.popleft()
        for v, k in users[t]:
            if win[v] or covered[v][k]:
                continue
            covered[v][k] = True
            pending[v] -= 1
            if pending[v] == 0:
                win[v] = True
                queue.append(v)
    return "realizable" if win[0] else "unrealizable"


def _find_cycle_or_error(starts, expand):
    """Depth-first search over a finite graph given by ``expand(node)``.

    ``expand`` returns (children, error); the first error, or a reachable
    cycle, is reported as a message.  Returns None when every path ends.
    """
    done = set()
    for start in starts:
        if start in done:
            continue
        on_path = {start}
        children, error = expand(start)
        if error:
            return error
        stack = [(start, iter(children))]
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                stack.pop()
                on_path.discard(node)
                done.add(node)
                continue
            if child in on_path:
                return "the strategy can be kept playing forever"
            if child in done:
                continue
            grand, error = expand(child)
            if error:
                return error
            on_path.add(child)
            stack.append((child, iter(grand)))
    return None


def check_finite_strategy(a: Table, g: Table, s: Strategy) -> str | None:
    """Play the agent strategy against every assumption-consistent
    environment move; it must halt after a first round, only where the
    goal accepts, on every branch."""
    if s.kind != "agent":
        return "not an agent strategy"
    safe = env_safe_set(a)
    if a.initial not in safe:
        return "the assumption is not environment realizable"
    moves = safe_moves(a, safe)

    def expand(node):
        mem, qa, qg, first = node
        children = []
        for e in moves[qa]:
            action, mem2 = s.table.get((mem, e), (None, mem))
            if action is None:
                if first:
                    return None, "halts before completing a round"
                if qg not in g.finals:
                    return None, "halts with the goal unsatisfied"
                continue
            sym = a.sym(e, action)
            children.append((mem2, a.rows[qa][sym], g.rows[qg][sym], False))
        return children, None

    return _find_cycle_or_error([(s.initial, a.initial, g.initial, True)], expand)


# --- planning ----------------------------------------------------------------


@dataclass
class DomainRecord:
    """The generator's explicit view of a domain and a planning problem.

    States are fluent bit vectors and actions action-variable bit vectors.
    ``allowed`` are the states the trajectory assumption G(psi) admits.
    """

    init: frozenset
    avail: dict  # state -> frozenset of actions
    succ: dict  # (state, action) -> frozenset of states
    goal: frozenset
    allowed: frozenset

    def assumption_region(self) -> set:
        """States from which the environment can follow the domain while
        keeping psi, whatever available action the agent plays."""
        region = set(self.allowed)
        changed = True
        while changed:
            changed = False
            for s in sorted(region):
                if any(not (self.succ[(s, x)] & region) for x in self.avail[s]):
                    region.discard(s)
                    changed = True
        return region


def decide_plan(rec: DomainRecord) -> str:
    """Strong (acyclic) plan existence by AND-OR search over the record."""
    region = rec.assumption_region()
    starts = rec.init & region
    if not starts:
        return "invalid-assumption"
    win = set()
    changed = True
    while changed:
        changed = False
        for s in sorted(region - win):
            if s in rec.goal or any(rec.succ[(s, x)] & region <= win for x in rec.avail[s]):
                win.add(s)
                changed = True
    return "realizable" if starts <= win else "unrealizable"


def check_plan_strategy(rec: DomainRecord, s: Strategy) -> str | None:
    """Execute the plan against every admitted outcome: it plays available
    actions only, and halts on every branch after the goal held."""
    if s.kind != "agent":
        return "not an agent strategy"
    region = rec.assumption_region()

    def expand(node):
        mem, state, reached, first = node
        action, mem2 = s.table.get((mem, state), (None, mem))
        if action is None:
            if first:
                return None, "halts before completing a round"
            if not reached:
                return None, "halts before reaching the goal"
            return [], None
        if action not in rec.avail[state]:
            return None, "plays an unavailable action"
        reached = reached or state in rec.goal
        return [(mem2, t, reached, False) for t in sorted(rec.succ[(state, action)] & region)], None

    starts = [(s.initial, q, False, True) for q in sorted(rec.init & region)]
    return _find_cycle_or_error(starts, expand)


# --- infinite traces ---------------------------------------------------------


def _sccs(n, adj, keep):
    """Strongly connected components of the subgraph on ``keep`` (Tarjan,
    iterative); yields each component with a cycle as a list of nodes."""
    index = {}
    low = {}
    stack = []
    on_stack = set()
    counter = 0
    for root in range(n):
        if not keep[root] or root in index:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, i = work[-1]
            succ = adj[v]
            while i < len(succ) and not keep[succ[i]]:
                i += 1
            if i < len(succ):
                work[-1] = (v, i + 1)
                w = succ[i]
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, 0))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in adj[v]:
                    yield comp


def find_parity_cycle(start, expand, n_sides, bad):
    """Is there a reachable cycle whose top colors satisfy ``bad``?

    ``expand(node)`` returns (children, colors) with one color per side, or
    raises ValueError for a strategy with no row.  For every tuple of top
    colors accepted by ``bad``, the graph is cut to nodes with no larger
    color, and a cycle exists exactly when one strongly connected component
    holds a node with each top color.
    """
    index = {start: 0}
    nodes = [start]
    adj = []
    colors = []
    i = 0
    while i < len(nodes):
        children, cols = expand(nodes[i])
        colors.append(cols)
        row = []
        for c in children:
            if c not in index:
                index[c] = len(nodes)
                nodes.append(c)
            row.append(index[c])
        adj.append(row)
        i += 1
    n = len(nodes)
    palettes = [sorted({cols[k] for cols in colors}) for k in range(n_sides)]
    for tops in product(*palettes):
        if not bad(tops):
            continue
        keep = [all(cols[k] <= tops[k] for k in range(n_sides)) for cols in colors]
        for comp in _sccs(n, adj, keep):
            if all(any(colors[v][k] == tops[k] for v in comp) for k in range(n_sides)):
                return tops
    return None


def check_agent_parity(s: Strategy, sides: list[Table], bad) -> str | None:
    """The agent strategy against every environment: no reachable cycle of
    the product may have top colors for which ``bad`` holds."""
    n_env = 1 << sides[0].n_env

    def expand(node):
        mem, states = node
        children = []
        for e in range(n_env):
            action, mem2 = s.table.get((mem, e), (None, mem))
            if action is None:
                raise ValueError(f"no move for memory {mem} on {e}")
            sym = sides[0].sym(e, action)
            children.append((mem2, tuple(m.rows[q][sym] for m, q in zip(sides, states))))
        return children, tuple(m.colors[q] for m, q in zip(sides, states))

    try:
        tops = find_parity_cycle((s.initial, tuple(m.initial for m in sides)), expand,
                                 len(sides), bad)
    except ValueError as exc:
        return str(exc)
    return None if tops is None else f"a play loops with top colors {tops}"


def check_env_parity(s: Strategy, sides: list[Table], bad) -> str | None:
    """The environment strategy against every agent, as above."""
    n_act = 1 << sides[0].n_agent

    def expand(node):
        mem, out, states = node
        children = []
        for x in range(n_act):
            sym = sides[0].sym(out, x)
            out2, mem2 = s.table[(mem, x)]
            children.append((mem2, out2, tuple(m.rows[q][sym] for m, q in zip(sides, states))))
        return children, tuple(m.colors[q] for m, q in zip(sides, states))

    start = (s.initial, s.first_output, tuple(m.initial for m in sides))
    tops = find_parity_cycle(start, expand, len(sides), bad)
    return None if tops is None else f"a play loops with top colors {tops}"
