"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; each test prints ``ACCEPTANCE <n>: PASS/FAIL — <detail>`` before
asserting, so a red run still reports every criterion it reached.  Checks
that sweep random structures use fixed seeds and also enforce a wall-clock
budget where one is stated.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import product
from math import factorial

from plansynth.compiler import compile_formula
from plansynth.dfa import complement, language_equal
from plansynth.domain import (
    env_behavior_dfa,
    env_behavior_ltlf,
    round_robin_env,
    universal_domain,
)
from plansynth.engine import (
    Compiled,
    Problem,
    Status,
    check_assumption,
    fond_problem,
    plan,
    synthesize,
    verify_strategy,
)
from plansynth.games import AgentStrategy, agent_realizable, env_realizable
from plansynth.logic import TRUE, Implies, disjoin, node_count, parse_formula
from plansynth.parity import (
    accepts_lasso,
    dpw_agent_realizable,
    dpw_combine,
    dpw_complement,
    dpw_env_realizable,
    normalize_colors,
    solve_parity_game,
)

from helpers import (
    XY,
    corpus_formulas,
    domain_consistent,
    drive_to_lasso,
    env_minterm,
    fair_loop_ok,
    memoryless_agent_strategies,
    oracle_env_realizable,
    oracle_under_assumption,
    parity_regions_oracle,
    random_dfa,
    random_domain,
    random_dpw,
    random_lasso,
    strong_plan_exists,
)


def report(number: int, failures: list[str], detail: str) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number}: {status} — {detail}")
    assert not failures, failures[:5]


def overtime(failures: list[str], elapsed: float, budget: float) -> None:
    if elapsed >= budget:
        failures.append(f"took {elapsed:.1f}s, budget {budget:.0f}s")


def synthesis(assumption, goal) -> Problem:
    return Problem("synthesis", "finite", XY, assumption, goal)


@lru_cache(maxsize=1)
def compiled_corpus():
    """Every depth-two normal-form formula over the 1+1 vocabulary, with its
    automaton; assumptions are the environment-realizable ones (decided by
    the independent safety oracle, not by the code under test)."""
    everything = [(f, compile_formula(XY, f)) for f in corpus_formulas(XY)]
    assumptions = [(f, m) for f, m in everything if oracle_env_realizable(m)]
    return everything, assumptions


@lru_cache(maxsize=1)
def behavior_corpus():
    rng = random.Random(404)
    return [
        random_domain(rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(50)
    ]


def test_criterion_01():
    """The worked two-variable instance: the assumption holds, the goal is
    realizable under it, and the output-then-halt strategy separates solving
    under the assumption from realizing the plain implication."""
    start = time.monotonic()
    failures: list[str] = []
    omega = parse_formula("y -> x", XY)
    gamma = parse_formula("y -> !x", XY)
    p = synthesis(omega, gamma)

    if not check_assumption(p):
        failures.append("assumption reported unrealizable")
    if synthesize(p).status != Status.REALIZABLE:
        failures.append("instance reported unrealizable")

    output_x_then_halt = AgentStrategy(
        XY, 2, 0, {(0, 0): (1, 1), (0, 1): (1, 1), (1, 0): (None, 1), (1, 1): (None, 1)}
    )
    if not verify_strategy(p, output_x_then_halt).accepted:
        failures.append("output-then-halt strategy rejected under the assumption")
    implication = synthesis(TRUE, Implies(omega, gamma))
    against_all = verify_strategy(implication, output_x_then_halt)
    if against_all.accepted:
        failures.append("output-then-halt strategy realizes the implication")

    first_moves = []
    for m in (compile_formula(XY, omega), Compiled(p).assumption):
        ok, _, strat = env_realizable(m)
        if not ok or strat is None:
            failures.append("no environment strategy extracted")
        else:
            first_moves.append(strat.first_output)
    if any(move != 0 for move in first_moves):
        failures.append(f"an extracted environment strategy opens with y: {first_moves}")

    elapsed = time.monotonic() - start
    overtime(failures, elapsed, 1.0)
    report(1, failures, f"two-variable instance, first moves {first_moves}, {elapsed:.2f}s")


def test_criterion_02():
    """Solving the implication decides exactly the instances where a strategy
    winning under the assumption exists, over the whole depth-two corpus."""
    start = time.monotonic()
    failures: list[str] = []
    everything, assumptions = compiled_corpus()
    cache: dict = {}
    n = 0
    for fw, mw in assumptions:
        for fg, mg in everything:
            n += 1
            key = (mw.transitions, mw.initial, mw.finals,
                   mg.transitions, mg.initial, mg.finals)
            if key not in cache:
                got = synthesize(synthesis(mw, mg)).status == Status.REALIZABLE
                cache[key] = (got, oracle_under_assumption(mw, mg))
            got, expected = cache[key]
            if got != expected:
                failures.append(f"assumption {fw}, goal {fg}: {got} vs oracle {expected}")
    elapsed = time.monotonic() - start
    overtime(failures, elapsed, 120.0)
    report(
        2,
        failures,
        f"{n} assumption/goal pairs ({len(assumptions)}x{len(everything)}, "
        f"{len(cache)} distinct), {elapsed:.1f}s",
    )


def test_criterion_03():
    """One side can keep every prefix accepted exactly when the other cannot
    force a halt in the complement — on random word and stream automata."""
    start = time.monotonic()
    failures: list[str] = []
    rng = random.Random(303)
    for i in range(200):
        m = random_dfa(rng, XY, 6)
        if env_realizable(m)[0] != (not agent_realizable(complement(m))[0]):
            failures.append(f"finite duality broken on sample {i}")
    for i in range(100):
        m = random_dpw(rng, XY, 6, 3)
        if dpw_env_realizable(m)[0] != (not dpw_agent_realizable(dpw_complement(m))[0]):
            failures.append(f"infinite duality broken on sample {i}")
    elapsed = time.monotonic() - start
    overtime(failures, elapsed, 60.0)
    report(3, failures, f"200 word + 100 stream automata, {elapsed:.1f}s")


def test_criterion_04():
    """The explicit behavior automaton of a domain and the compiled behavior
    formula describe the same language, and the table has exactly its stated
    shape: three bookkeeping states plus one per state/action pair."""
    start = time.monotonic()
    failures: list[str] = []
    for i, (d, *_rest) in enumerate(behavior_corpus()):
        table = env_behavior_dfa(d)
        expected = 3 + d.vt.n_env_states * d.vt.n_actions
        if table.n_states != expected:
            failures.append(f"domain {i}: {table.n_states} states, expected {expected}")
        if not language_equal(table, compile_formula(d.vt, env_behavior_ltlf(d))):
            failures.append(f"domain {i}: formula and table disagree")
    elapsed = time.monotonic() - start
    overtime(failures, elapsed, 60.0)
    report(4, failures, f"50 random domains up to 3+3 variables, {elapsed:.1f}s")


def test_criterion_05():
    """The behavior formula stays linear in the domain description."""
    failures: list[str] = []
    worst = 0.0
    for i, (d, *_rest) in enumerate(behavior_corpus()):
        nodes, bound = node_count(env_behavior_ltlf(d)), 5 * d.size
        worst = max(worst, nodes / d.size)
        if nodes > bound:
            failures.append(f"domain {i}: {nodes} nodes > 5*{d.size}")
    report(5, failures, f"50 domains, worst ratio {worst:.2f} of the 5x bound")


def test_criterion_06():
    """The recursive game solver agrees with brute force over every
    positional agent map, and its two regions partition the states."""
    start = time.monotonic()
    failures: list[str] = []
    rng = random.Random(606)
    for i in range(100):
        m = random_dpw(rng, XY, 6, 3)
        regions = solve_parity_game(m)
        agent, env = parity_regions_oracle(m)
        if regions.agent_states != agent or regions.env_states != env:
            failures.append(f"game {i}: regions disagree with enumeration")
        if regions.agent_states | regions.env_states != frozenset(range(m.n_states)):
            failures.append(f"game {i}: regions do not cover the states")
        if regions.agent_states & regions.env_states:
            failures.append(f"game {i}: regions overlap")
    elapsed = time.monotonic() - start
    overtime(failures, elapsed, 120.0)
    report(6, failures, f"100 random stream games vs positional enumeration, {elapsed:.1f}s")


def test_criterion_07():
    """Products of stream automata match the pointwise connective on random
    ultimately-periodic words, within the stated state bound."""
    failures: list[str] = []
    rng = random.Random(707)
    lassos = 0
    for i in range(30):
        m1 = random_dpw(rng, XY, 6, 3)
        m2 = random_dpw(rng, XY, 6, 3)
        d = len(set(normalize_colors(m1).colors)) + len(set(normalize_colors(m2).colors))
        bound = m1.n_states * m2.n_states * d * d * factorial(d)
        for connective in ("and", "or", "implies"):
            prod = dpw_combine(m1, m2, connective)
            if prod.n_states > bound:
                failures.append(f"pair {i} {connective}: {prod.n_states} states > {bound}")
            for _ in range(100):
                prefix, loop = random_lasso(rng, XY)
                a1 = accepts_lasso(m1, prefix, loop)
                a2 = accepts_lasso(m2, prefix, loop)
                expected = {"and": a1 and a2, "or": a1 or a2, "implies": (not a1) or a2}
                if accepts_lasso(prod, prefix, loop) != expected[connective]:
                    failures.append(f"pair {i} {connective}: wrong on {prefix}+{loop}")
                lassos += 1
    report(7, failures, f"30 automaton pairs x 3 connectives x 100 lassos ({lassos} checks)")


def test_criterion_08():
    """The round-robin environment is fair against every positional agent:
    the induced loop schedules each effect of every pair it repeats, and the
    play never leaves the accepted part of the behavior automaton."""
    start = time.monotonic()
    failures: list[str] = []
    rng = random.Random(808)
    plays = 0
    for i in range(20):
        ne, na = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        d, init_states, pre_pairs, delta = random_domain(rng, ne, na)
        env = round_robin_env(d)
        table = env_behavior_dfa(d)
        for picks in product(range(d.vt.n_actions), repeat=d.vt.n_env_states):
            prefix, loop = drive_to_lasso(env, dict(enumerate(picks)))
            plays += 1
            if not fair_loop_ok(d.vt, delta, loop):
                failures.append(f"domain {i} vs {picks}: unfair loop {loop}")
            state = table.initial
            for sym in prefix + 2 * loop:
                state = table.transitions[state][sym]
                if state not in table.finals:
                    failures.append(f"domain {i} vs {picks}: behavior automaton rejects")
                    break
            if not domain_consistent(d.vt, init_states, pre_pairs, delta, prefix + 2 * loop):
                failures.append(f"domain {i} vs {picks}: inconsistent play")
    elapsed = time.monotonic() - start
    overtime(failures, elapsed, 60.0)
    report(8, failures, f"20 domains, {plays} positional agents driven to loops, {elapsed:.1f}s")


def test_criterion_09():
    """Planning for reach-a-state goals agrees with an independent AND-OR
    strong-plan search on the generator's own record of the domain."""
    start = time.monotonic()
    failures: list[str] = []
    rng = random.Random(909)
    verdicts = {True: 0, False: 0}
    for i in range(20):
        ne, na = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        d, init_states, pre_pairs, delta = random_domain(rng, ne, na)
        n = d.vt.n_env_states
        goal_states = frozenset(rng.sample(range(n), rng.randint(1, n)))
        goal = disjoin([env_minterm(d.vt, s) for s in sorted(goal_states)])
        got = plan(fond_problem(d, goal)).status == Status.REALIZABLE
        expected = strong_plan_exists(init_states, pre_pairs, delta, goal_states)
        verdicts[expected] += 1
        if got != expected:
            failures.append(f"domain {i}: planner {got}, search {expected}")
    elapsed = time.monotonic() - start
    overtime(failures, elapsed, 60.0)
    report(
        9,
        failures,
        f"20 domains ({verdicts[True]} solvable, {verdicts[False]} not), {elapsed:.1f}s",
    )


def test_criterion_10():
    """Planning over the unconstrained domain is synthesis: same verdicts and
    the same accepted strategies, instance by instance over the full corpus."""
    start = time.monotonic()
    failures: list[str] = []
    everything, assumptions = compiled_corpus()
    uni = universal_domain(("y",), ("x",))
    probes = list(memoryless_agent_strategies(XY))
    cache: dict = {}
    n = 0
    for fw, mw in assumptions:
        for fg, mg in everything:
            n += 1
            key = (mw.transitions, mw.initial, mw.finals,
                   mg.transitions, mg.initial, mg.finals)
            if key in cache:
                agreed = cache[key]
            else:
                ps = synthesis(mw, mg)
                pp = Problem("planning", "finite", XY, mw, mg, domain=uni)
                vs, vp = synthesize(ps), plan(pp)
                agreed = vs.status == vp.status
                if agreed:
                    extracted = [v.strategy for v in (vs, vp) if v.strategy is not None]
                    for s in probes + extracted:
                        if verify_strategy(ps, s).accepted != verify_strategy(pp, s).accepted:
                            agreed = False
                            break
                cache[key] = agreed
            if not agreed:
                failures.append(f"assumption {fw}, goal {fg}: collapse fails")
    elapsed = time.monotonic() - start
    report(
        10,
        failures,
        f"{n} instances ({len(cache)} distinct) x {len(probes)}+ strategies, {elapsed:.1f}s",
    )
