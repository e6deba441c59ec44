"""fond-plan: reachability planning on seeded random compact domains.

A domain has 3-5 fluents p_i (environment) and 1-2 action variables a_j
(agent).  The generator draws it as rules and writes them as the domain
file's formulas, and it enumerates the same rules itself into an explicit
record (initial states, available actions, successor sets) that the
AND-OR check in ``checks`` searches.  Rules:

- pre: each action variable may require a clause over the fluents;
  the all-false action is always available.
- trans: each fluent is controlled by one action variable under an
  optional condition literal, with an effect set, clear, free, may-set or
  may-clear; an untriggered fluent keeps its value.  trans also repeats pre, so no transition leaves an
  unavailable pair.
- init: a cube fixing all fluents but one, so two initial states.

The goal is written as a user of the command line writes FOND planning:
G(pre) & F(cube).  The problems cycle through five classes: no assumption
with and without a strong plan, a random invariant G(clause) with and
without one, and G(!l) for a literal l that init fixes, which contradicts
the domain (invalid-assumption).  The generator draws domains until its
own AND-OR search over the record gives the class's verdict, so every seed
gives the same verdict mix; the program never sees the record.
"""

from __future__ import annotations

import os
import random

from checks import DomainRecord, check_plan_strategy, decide_plan, read_strategy
from common import Case, problem_text, write

SHAPES = ((4, 2), (5, 1), (5, 2))  # (fluents, action variables): 2^6 to 2^7 symbols
CLASSES = (  # (assumption kind, verdict), in turn
    ("none", "realizable"),
    ("none", "unrealizable"),
    ("invariant", "realizable"),
    ("invariant", "unrealizable"),
    ("contradiction", "invalid-assumption"),
)
PROBLEMS = 45
FAST_PROBLEMS = 5
MAX_DRAWS = 1000
EFFECTS = ("set", "clear", "free", "mayset", "maycle")
EFFECT_WEIGHTS = (3, 3, 1, 1, 1)


def _lit(name: str, value: int) -> str:
    return name if value else f"!{name}"


def _holds(state: int, literal) -> bool:
    index, value = literal
    return (state >> index & 1) == value


class RandomDomain:
    def __init__(self, rng: random.Random, n_fl: int, n_act: int):
        self.n_fl, self.n_act = n_fl, n_act
        fluents = range(n_fl)
        # pre: a_j -> clause_j, a clause being a list of (fluent, value) literals
        self.pre = {}
        for j in range(n_act):
            if rng.random() < 0.7:
                size = rng.randint(1, 2)
                self.pre[j] = [(i, rng.randrange(2)) for i in rng.sample(fluents, size)]
        # trans: fluent -> (action var, condition, effect)
        self.rules = {}
        for i in fluents:
            others = [f for f in fluents if f != i]
            cond = (rng.choice(others), rng.randrange(2)) if rng.random() < 0.3 else None
            effect = rng.choices(EFFECTS, EFFECT_WEIGHTS)[0]
            self.rules[i] = (rng.randrange(n_act), cond, effect)
        fixed = rng.sample(fluents, n_fl - 1)
        self.init = {i: rng.randrange(2) for i in fixed}

    def reachable_value(self, i: int, rng: random.Random) -> int:
        """A goal value for fluent i, mostly one its rule can force."""
        effect = self.rules[i][2]
        if effect in ("set", "clear") and rng.random() < 0.8:
            return 1 if effect == "set" else 0
        return rng.randrange(2)

    # --- the written form ---------------------------------------------------

    def pre_text(self) -> str:
        parts = []
        for j, clause in sorted(self.pre.items()):
            lits = " | ".join(_lit(f"p{i}", v) for i, v in clause)
            parts.append(f"(a{j} -> ({lits}))")
        return " & ".join(parts) if parts else "true"

    def trans_text(self) -> str:
        parts = [f"({self.pre_text()})"]
        for i, (j, cond, effect) in sorted(self.rules.items()):
            trig = f"a{j}" if cond is None else f"(a{j} & {_lit(f'p{cond[0]}', cond[1])})"
            p, q = f"p{i}", f"p{i}'"
            keep = f"(({q} -> {p}) & ({p} -> {q}))"
            change = {"set": q, "clear": f"!{q}", "free": "true",
                      "mayset": f"({p} -> {q})", "maycle": f"({q} -> {p})"}[effect]
            parts.append(f"({trig} -> {change}) & (!{trig} -> {keep})")
        return " & ".join(parts)

    def text(self) -> str:
        init = " & ".join(_lit(f"p{i}", v) for i, v in sorted(self.init.items()))
        return "\n".join([
            "env: " + " ".join(f"p{i}" for i in range(self.n_fl)),
            "agent: " + " ".join(f"a{j}" for j in range(self.n_act)),
            f"init: {init}",
            f"pre: {self.pre_text()}",
            f"trans: {self.trans_text()}",
        ]) + "\n"

    # --- the explicit record --------------------------------------------------

    def available(self, s: int) -> frozenset:
        return frozenset(
            x for x in range(1 << self.n_act)
            if all(not x >> j & 1 or any(_holds(s, lit) for lit in clause)
                   for j, clause in self.pre.items())
        )

    def successors(self, s: int, x: int) -> frozenset:
        states = [0]
        for i in range(self.n_fl):
            old = s >> i & 1
            j, cond, effect = self.rules[i]
            if x >> j & 1 and (cond is None or _holds(s, cond)):
                values = {"set": {1}, "clear": {0}, "free": {0, 1},
                          "mayset": {1, old}, "maycle": {0, old}}[effect]
            else:
                values = {old}
            states = [t | v << i for t in states for v in values]
        return frozenset(states)

    def record(self, goal: dict, allowed) -> DomainRecord:
        n = 1 << self.n_fl
        avail = {s: self.available(s) for s in range(n)}
        return DomainRecord(
            init=frozenset(s for s in range(n) if all(_holds(s, l) for l in self.init.items())),
            avail=avail,
            succ={(s, x): self.successors(s, x) for s in range(n) for x in avail[s]},
            goal=frozenset(s for s in range(n) if all(_holds(s, l) for l in goal.items())),
            allowed=frozenset(s for s in range(n) if allowed(s)),
        )


def draw(rng: random.Random, n_fl: int, n_act: int, kind: str):
    """One random domain, goal cube and assumption, with the record."""
    d = RandomDomain(rng, n_fl, n_act)
    goal = {i: d.reachable_value(i, rng) for i in rng.sample(range(n_fl), rng.randint(1, 2))}
    if kind == "none":
        assumption, allowed = "true", lambda s: True
    elif kind == "invariant":
        clause = [(i, rng.randrange(2)) for i in rng.sample(range(n_fl), 2)]
        assumption = "G(" + " | ".join(_lit(f"p{i}", v) for i, v in clause) + ")"
        allowed = lambda s: any(_holds(s, lit) for lit in clause)
    else:
        i, v = rng.choice(sorted(d.init.items()))
        assumption = f"G({_lit(f'p{i}', 1 - v)})"
        allowed = lambda s: (s >> i & 1) != v
    return d, assumption, goal, d.record(goal, allowed)


def generate(seed: int, outdir: str, fast: bool = False) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for n in range(FAST_PROBLEMS if fast else PROBLEMS):
        kind, expected = CLASSES[n % len(CLASSES)]
        n_fl, n_act = SHAPES[n % len(SHAPES)]
        for _ in range(MAX_DRAWS):
            d, assumption, goal, rec = draw(rng, n_fl, n_act, kind)
            if decide_plan(rec) == expected:
                break
        else:
            raise RuntimeError(f"no {kind} domain with verdict {expected} in {MAX_DRAWS} draws")
        name = f"plan{n}"
        write(os.path.join(outdir, f"{name}.domain"), d.text())
        cube = " & ".join(_lit(f"p{i}", v) for i, v in sorted(goal.items()))
        path = os.path.join(outdir, f"{name}.problem")
        write(path, problem_text("finite", assumption, f"G({d.pre_text()}) & F({cube})",
                                 domain=f"{name}.domain"))

        def check(status, strategy_path, rec=rec, expected=expected):
            if status != expected:
                return f"verdict {status}, expected {expected}"
            if status == "realizable":
                return check_plan_strategy(rec, read_strategy(strategy_path))
            return None

        cases.append(Case(name, "plan", path, check))
    return cases
