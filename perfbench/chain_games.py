"""chain-games: explicit chain automata read from automaton files.

Over one environment bit y and one agent bit x.  A goal chain advances
from state i when the agent answers the environment's y with the key
``key[i][y]`` and stays put otherwise; its last state accepts.  Chains are
long on purpose: minimization needs one refinement round per state and the
finite games one sweep per state, so the cost is quadratic in the length.

Families, with their verdicts by construction:

- ``reach``: seeded chains, assumption true.  Realizable.
- ``blocked``: a seeded chain with a gate: at its middle state the
  environment bit value b sends the play to a rejecting sink.
  Unrealizable.
- ``guarded``: the blocked chain under the assumption "y never equals b"
  (a two-state automaton).  The environment realizes it, and under it the
  gate is harmless: realizable.
- ``forced``: the assumption is a forced march as long as the goal chain:
  every symbol advances one or two states and only the end rejects, so no
  environment keeps every prefix accepted: invalid-assumption.
  ``games.env_safe`` peels one state per sweep.

One more operation is not a synthesis but ``plansynth verify`` of a
controller written by the generator: ``march`` plays MARCH_ROUNDS rounds of
the agent bit, alternating, and then halts, for the goal ``F x`` over the
agent bit alone.  The controller is correct, and its play is as long as
its memory, which is the input on which ``engine.verify_strategy``
exhausts the recursion limit.  It does not depend on the seed, and its
automata are tiny, so the operation times verify's exploration alone.
"""

from __future__ import annotations

import os
import random

from checks import Table, check_finite_strategy, read_strategy
from common import VERIFY_ACCEPT, VERIFY_RAISES, Case, automaton_text, problem_text, write

ENV, AGENT = ["y"], ["x"]
MARCH_ROUNDS = 1000
FAST_MARCH_ROUNDS = 100
PER_FAMILY = 10
LENGTHS = (30, 150)
FAST_PER_FAMILY = 2
FAST_LENGTHS = (20, 40)


def _table(rows, finals, n_env=1) -> Table:
    return Table(n_env, 1, rows, 0, frozenset(finals))


def goal_chain(n: int, keys, gate=None) -> Table:
    """Chain of n states plus, with a gate (j, b), a rejecting sink."""
    dead = n
    rows = []
    for i in range(n):
        row = []
        for sym in range(4):
            y, x = sym & 1, sym >> 1
            if gate is not None and i == gate[0] and y == gate[1]:
                row.append(dead)
            elif i == n - 1:
                row.append(i)
            else:
                row.append(i + 1 if x == keys[i][y] else i)
        rows.append(row)
    if gate is not None:
        rows.append([dead] * 4)
    return _table(rows, {n - 1})


def march_strategy(rounds: int) -> str:
    """Agent controller over x alone: x = i mod 2 in round i, halt after."""
    lines = ["vars: | x", "type: agent", f"memory: {rounds + 1}", "initial: 0"]
    lines += [f"{i} - -> {i % 2} {i + 1}" for i in range(rounds)]
    lines.append(f"{rounds} - -> halt {rounds}")
    return "\n".join(lines) + "\n"


def never(b: int) -> Table:
    """Two states: accept until the environment plays y == b."""
    return _table([[1 if (sym & 1) == b else 0 for sym in range(4)], [1] * 4], {0})


def forced_march(n: int, rng: random.Random) -> Table:
    """Each state advances two on one seeded symbol and one on the others."""
    rows = []
    for i in range(n - 1):
        steps = [1, 1, 1, 2]
        rng.shuffle(steps)
        rows.append([min(i + step, n - 1) for step in steps])
    rows.append([n - 1] * 4)
    return _table(rows, set(range(n - 1)))


def _aut_text(t: Table) -> str:
    return automaton_text(ENV[:t.n_env], AGENT, t.rows, t.initial, finals=t.finals)


def generate(seed: int, outdir: str, fast: bool = False) -> list[Case]:
    rng = random.Random(seed)
    per_family = FAST_PER_FAMILY if fast else PER_FAMILY
    low, high = FAST_LENGTHS if fast else LENGTHS
    cases = []

    def add(name, assumption: Table | None, goal: Table, expected, verify=VERIFY_ACCEPT):
        goal_file = f"{name}.goal.aut"
        write(os.path.join(outdir, goal_file), _aut_text(goal))
        side = "true"
        if assumption is not None:
            side = f"@{name}.assume.aut"
            write(os.path.join(outdir, side[1:]), _aut_text(assumption))
        path = os.path.join(outdir, f"{name}.problem")
        write(path, problem_text("finite", side, f"@{goal_file}", ENV[:goal.n_env], AGENT))
        a = assumption or _table([[0] * len(goal.rows[0])], {0}, goal.n_env)

        def check(status, strategy_path):
            if status != expected:
                return f"verdict {status}, expected {expected}"
            if status == "realizable":
                return check_finite_strategy(a, goal, read_strategy(strategy_path))
            return None

        cases.append(Case(name, "synthesize", path, check, verify))

    def keys(n):
        return [(rng.randrange(2), rng.randrange(2)) for _ in range(n)]

    def lengths():
        # The same lengths for every seed, in seeded order: the seed changes
        # keys, gate values and which symbol skips in a forced march, none
        # of which changes how much work a problem takes, so every seed
        # gives the same spread of problem costs.
        out = [low + (high - low) * k // (per_family - 1) for k in range(per_family)]
        rng.shuffle(out)
        return out

    for k, n in enumerate(lengths()):
        add(f"reach{k}", None, goal_chain(n, keys(n)), "realizable")
    for k, n in enumerate(lengths()):
        gate = (n // 2, rng.randrange(2))
        add(f"blocked{k}", None, goal_chain(n, keys(n), gate), "unrealizable")
    for k, n in enumerate(lengths()):
        gate = (n // 2, rng.randrange(2))
        add(f"guarded{k}", never(gate[1]), goal_chain(n, keys(n), gate), "realizable")
    for k, n in enumerate(lengths()):
        add(f"forced{k}", forced_march(n, rng), goal_chain(n, keys(n)),
            "invalid-assumption")

    # F x over the agent bit: 0 --x--> 1, and 1 accepts for ever.
    eventually_x = _table([[0, 1], [1, 1]], {1}, n_env=0)
    path = os.path.join(outdir, "march.problem")
    write(path, problem_text("finite", "true", "F x", [], AGENT))
    strategy = os.path.join(outdir, "march.strategy")
    write(strategy, march_strategy(FAST_MARCH_ROUNDS if fast else MARCH_ROUNDS))

    def check_march(status, strategy_path):
        true = _table([[0, 0]], {0}, n_env=0)
        return check_finite_strategy(true, eventually_x, read_strategy(strategy_path))

    cases.append(Case("march", "verify", path, check_march,
                      VERIFY_ACCEPT if fast else VERIFY_RAISES, strategy))
    return cases
