"""ltlf-synth: synthesis problems whose sides are LTLf formulas.

Families with verdicts known by construction, over requests r_i
(environment) and grants g_i (agent), i < k, k = 1..4:

- ``resp``: goal the conjunction of G(r_i -> F g_i), assumption true.
  Realizable: grant everything and halt after one round.
- ``next``: goal the conjunction of G(r_i -> X g_i), assumption true.
  Unrealizable: a request at the last position leaves X unmet, and the
  environment can request in every round.
- ``guard``: the ``next`` goal under the assumption G(r_i -> X !r_i).
  Every prefix ending in a request violates the assumption, so the
  environment realizes it only by never requesting: realizable.
- ``inv``: the ``resp`` goal under the ``resp`` formula conjoined with F g_0.
  The agent alone decides g_0, so no environment keeps every prefix
  accepted: invalid-assumption.

k stops at 4: at k = 5 one problem takes about 4 s to solve and verify,
which leaves room for only three passes in a run, too few for steady
per-problem medians.

Beside them, ``pattern`` problems conjoin seeded instances of common
specification patterns over environment variables a, b, c and agent
variables u, v, w.  The seed draws the literals; the pattern kinds follow
the problem's place, and its class gives its verdict by construction:

- ``sat``: three goal patterns, one per agent variable: G(p -> F u),
  G(p -> WX v), and F w or G(p | w), with p environment and u, v, w agent
  literals; the assumption is none, G(a -> F a') or that and F b, which
  the environment keeps on its own.  Playing every agent literal and
  halting after one round wins: realizable.
- ``unsat``: the same, plus G(c' -> X q) for literals c' of c and q of an
  agent variable; the assumption never speaks of c, so the environment can
  raise c' in every round: unrealizable.
- ``bad``: the ``sat`` problem under an assumption that also asks for
  F q or G(q -> X p), which the agent defeats by playing !q:
  invalid-assumption.

Every verdict is also recomputed by the independent solver in ``checks``.
The seed also shuffles the variable declaration order and the conjunct
order of the families.
"""

from __future__ import annotations

import os
import random

from checks import check_finite_strategy, decide_finite, read_strategy, table_of
from common import Case, problem_text, write

FAMILIES = {  # family -> the k it runs at, and its verdict
    "resp": ((1, 2, 3, 4), "realizable"),
    "next": ((1, 2, 3, 4), "unrealizable"),
    "guard": ((1, 2, 3, 4), "realizable"),
    "inv": ((1, 2, 3, 4), "invalid-assumption"),
}
FAST_K = (1, 2)
PATTERN_CLASSES = {"sat": "realizable", "unsat": "unrealizable", "bad": "invalid-assumption"}
PATTERNS_PER_CLASS = 11
FAST_PATTERNS_PER_CLASS = 1
PATTERN_ENV = ["a", "b", "c"]
PATTERN_AGENT = ["u", "v", "w"]


def _conj(parts: list[str]) -> str:
    return " & ".join(f"({p})" for p in parts) if parts else "true"


def family_sides(family: str, k: int, order: list[int]) -> tuple[str, str]:
    resp = [f"G(r{i} -> F g{i})" for i in order]
    if family == "resp":
        return "true", _conj(resp)
    nxt = [f"G(r{i} -> X g{i})" for i in order]
    if family == "next":
        return "true", _conj(nxt)
    if family == "guard":
        return _conj([f"G(r{i} -> X !r{i})" for i in order]), _conj(nxt)
    return _conj(resp + ["F g0"]), _conj(resp)


def _literal(rng: random.Random, name: str) -> str:
    return name if rng.random() < 0.5 else f"!{name}"


def pattern_sides(rng: random.Random, cls: str, n: int) -> tuple[str, str]:
    """Sides of the n-th pattern problem of a class.  The pattern kinds
    follow n, the literals the seed, so every seed gives the same mix."""

    def env():
        return _literal(rng, rng.choice(PATTERN_ENV))

    u, v, w = (_literal(rng, x) for x in PATTERN_AGENT)
    goal = [f"G({env()} -> F {u})", f"G({env()} -> WX {v})",
            f"F {w}" if n % 2 else f"G({env()} | {w})"]
    # one variable per assumption pattern, so the environment keeps them all
    a, a2, b = _literal(rng, "a"), _literal(rng, "a"), _literal(rng, "b")
    assumption = [f"G({a} -> F {a2})", f"F {b}"][:n % 3]
    q = _literal(rng, PATTERN_AGENT[n % 3])
    if cls == "unsat":
        goal.append(f"G({_literal(rng, 'c')} -> X {q})")
    elif cls == "bad":
        assumption.append(f"F {q}" if n % 2 else f"G({q} -> X {env()})")
    rng.shuffle(goal)
    rng.shuffle(assumption)
    return _conj(assumption), _conj(goal)


def generate(seed: int, outdir: str, fast: bool = False) -> list[Case]:
    rng = random.Random(seed)
    cases = []

    def add(name, env, agent, assumption, goal, expected):
        path = os.path.join(outdir, f"{name}.problem")
        write(path, problem_text("finite", assumption, goal, env, agent))

        def check(status, strategy_path):
            # The compiled automata are the program's; the game is not.
            from plansynth.compiler import compile_formula
            from plansynth.logic import VarTable, parse_formula

            vt = VarTable(tuple(env), tuple(agent))
            a = table_of(compile_formula(vt, parse_formula(assumption, vt)))
            g = table_of(compile_formula(vt, parse_formula(goal, vt)))
            known = decide_finite(a, g)
            if known != expected:
                return f"the independent solver finds {known}, the construction {expected}"
            if status != known:
                return f"verdict {status}, expected {known}"
            if status == "realizable":
                return check_finite_strategy(a, g, read_strategy(strategy_path))
            return None

        cases.append(Case(name, "synthesize", path, check))

    for family, (ks, expected) in FAMILIES.items():
        for k in ks:
            if fast and k not in FAST_K:
                continue
            env = [f"r{i}" for i in range(k)]
            agent = [f"g{i}" for i in range(k)]
            rng.shuffle(env)
            rng.shuffle(agent)
            order = list(range(k))
            rng.shuffle(order)
            assumption, goal = family_sides(family, k, order)
            add(f"{family}{k}", env, agent, assumption, goal, expected)
    per_class = FAST_PATTERNS_PER_CLASS if fast else PATTERNS_PER_CLASS
    for n in range(per_class):
        for cls, expected in PATTERN_CLASSES.items():
            assumption, goal = pattern_sides(rng, cls, n)
            add(f"{cls}{n}", PATTERN_ENV, PATTERN_AGENT, assumption, goal, expected)
    return cases
