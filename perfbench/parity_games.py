"""parity-games: infinite-trace synthesis on seeded random parity automata.

Over one environment bit y and one agent bit x.  Every symbol permutes
the states of an automaton (a random permutation each), and a fixed color
multiset is shuffled over the states.  Permutations keep the automata
strongly connected and the latest-appearance-record product close to its
full size: about 1700 states on average.

Random automata of the same size still differ by a factor of two and more
in the work their product takes, and a pass of 45 such problems drawn
afresh for each seed varied by 30 % in total time from seed to seed.  So
the automata are drawn once, from SHAPES_SEED, and ``--seed`` renames the
states of each of them by a random permutation: every seed gives different
files with the same work.

Each problem's verdict is fixed by construction, in turn:

- ``realizable``: the assumption is valid (below), and in the goal both
  symbols with x = 1 follow one permutation whose cycle through the
  initial state avoids the color-3 state and holds the color-2 state, so
  the agent wins the goal alone by always playing x = 1.
- ``unrealizable``: the assumption is valid, and in the goal both symbols
  with y = 1 follow a cycle through every state, color 3 included; by
  always playing y = 1 the environment keeps the assumption (top color 2)
  and breaks the goal (top color 3).
- ``invalid-assumption``: in the assumption both symbols with x = 1 go to
  a sink of color 1, so the agent forces an odd top color.

A valid assumption has both symbols with y = 1 follow a cycle through
every state, the color-2 state included, so the environment realizes it by
always playing y = 1.

The checks take certificates in each direction: the returned agent
strategy for realizable, an environment strategy for A & !G for
unrealizable, an agent strategy for !A for invalid-assumption, and judge
each by a cycle search on its product with the original automata.
"""

from __future__ import annotations

import os
import random

from checks import Strategy, Table, check_agent_parity, check_env_parity, read_strategy
from common import VERIFY_UNSUPPORTED, Case, automaton_text, problem_text, write

ENV, AGENT = ["y"], ["x"]
ASSUME_STATES, ASSUME_COLORS = 5, (0, 0, 1, 2)
GOAL_STATES, GOAL_COLORS = 6, (0, 1, 2, 3)
PROBLEMS = 45
SHAPES_SEED = 1
FAST_PROBLEMS = 3
VERDICTS = ("realizable", "unrealizable", "invalid-assumption")
FAST_GOAL_STATES = 4


def _permutation(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _cycle(order: list[int], n: int) -> list[int]:
    """Permutation of n states with one cycle through ``order``; the other
    states are fixed points."""
    p = list(range(n))
    for i, q in enumerate(order):
        p[q] = order[(i + 1) % len(order)]
    return p


def random_automaton(rng: random.Random, n: int, palette) -> Table:
    """One random permutation of the states per symbol; colors shuffled,
    with the initial state never the top color."""
    perms = [_permutation(rng, n) for _ in range(4)]
    colors = [palette[i % len(palette)] for i in range(n)]
    rng.shuffle(colors)
    top = colors.index(max(palette))
    if top == 0:
        colors[0], colors[1] = colors[1], colors[0]
    return Table(1, 1, [[p[q] for p in perms] for q in range(n)], 0, colors=tuple(colors))


def renamed(t: Table, rng: random.Random) -> Table:
    """The same automaton with its states renamed by a random permutation."""
    new = _permutation(rng, len(t.rows))
    rows = [[]] * len(t.rows)
    colors = [0] * len(t.rows)
    for q, row in enumerate(t.rows):
        rows[new[q]] = [new[r] for r in row]
        colors[new[q]] = t.colors[q]
    return Table(t.n_env, t.n_agent, rows, new[t.initial], colors=tuple(colors))


def _follow(t: Table, symbols, perm) -> None:
    for q, row in enumerate(t.rows):
        for sym in symbols:
            row[sym] = perm[q]


def assumption(rng: random.Random, valid: bool) -> Table:
    t = random_automaton(rng, ASSUME_STATES, ASSUME_COLORS)
    if valid:
        order = _permutation(rng, ASSUME_STATES)
        _follow(t, (1, 3), _cycle(order, ASSUME_STATES))  # y = 1
        return t
    sink = len(t.rows)
    _follow(t, (2, 3), [sink] * sink)  # x = 1
    t.rows.append([sink] * 4)
    t.colors = t.colors + (1,)
    return t


def goal(rng: random.Random, n: int, verdict: str) -> Table:
    t = random_automaton(rng, n, GOAL_COLORS)
    if verdict == "realizable":
        top = t.colors.index(max(GOAL_COLORS))
        even = t.colors.index(max(GOAL_COLORS) - 1)
        rest = [q for q in range(n) if q not in (0, top, even)]
        order = sorted({0, even}) + rng.sample(rest, rng.randrange(len(rest) + 1))
        rng.shuffle(order)
        _follow(t, (2, 3), _cycle(order, n))  # x = 1
    elif verdict == "unrealizable":
        _follow(t, (1, 3), _cycle(_permutation(rng, n), n))  # y = 1
    return t


def _dpw(t: Table):
    from plansynth.logic import VarTable
    from plansynth.parity import Dpw

    return Dpw(VarTable(tuple(ENV), tuple(AGENT)), t.rows, t.initial, t.colors)


def _strategy(s, kind: str) -> Strategy:
    first = getattr(s, "first_output", 0)
    return Strategy(kind, 1, 1, s.initial, first, dict(s.table))


def _even(c: int) -> bool:
    return c % 2 == 0


def check_case(status: str, strategy_path, a: Table, g: Table) -> str | None:
    # Certificates for the losing side come from the program's parity
    # solver; the cycle search that judges them is this benchmark's own.
    from plansynth.parity import dpw_agent_realizable, dpw_combine, dpw_complement, dpw_env_realizable

    if status == "realizable":
        s = read_strategy(strategy_path)
        return check_agent_parity(s, [a, g], lambda t: _even(t[0]) and not _even(t[1]))
    if status == "unrealizable":
        ok, s = dpw_env_realizable(dpw_combine(_dpw(a), dpw_complement(_dpw(g)), "and"))
        if not ok:
            return "no environment strategy forces the assumption against the goal"
        return check_env_parity(_strategy(s, "env"), [a, g],
                                lambda t: not _even(t[0]) or _even(t[1]))
    if status == "invalid-assumption":
        ok, s = dpw_agent_realizable(dpw_complement(_dpw(a)))
        if not ok:
            return "no agent strategy defeats the assumption"
        return check_agent_parity(_strategy(s, "agent"), [a], lambda t: _even(t[0]))
    return f"unknown verdict {status}"


def generate(seed: int, outdir: str, fast: bool = False) -> list[Case]:
    shapes = random.Random(SHAPES_SEED)
    rng = random.Random(seed)
    goal_states = FAST_GOAL_STATES if fast else GOAL_STATES
    cases = []
    for n in range(FAST_PROBLEMS if fast else PROBLEMS):
        expected = VERDICTS[n % len(VERDICTS)]
        a = renamed(assumption(shapes, expected != "invalid-assumption"), rng)
        g = renamed(goal(shapes, goal_states, expected), rng)
        name = f"parity{n}"
        for side, t in (("assume", a), ("goal", g)):
            write(os.path.join(outdir, f"{name}.{side}.aut"),
                  automaton_text(ENV, AGENT, t.rows, t.initial, colors=t.colors))
        path = os.path.join(outdir, f"{name}.problem")
        write(path, problem_text("infinite", f"@{name}.assume.aut", f"@{name}.goal.aut",
                                 ENV, AGENT))

        def check(status, strategy_path, a=a, g=g, expected=expected):
            if status != expected:
                return f"verdict {status}, expected {expected}"
            return check_case(status, strategy_path, a, g)

        cases.append(Case(name, "synthesize", path, check, VERIFY_UNSUPPORTED))
    return cases
