"""Round-based games on DFAs: fixpoints, extracted strategies, duality."""

import random

from plansynth.dfa import Dfa, accepts, complement, dfa_false, dfa_true, minimize
from plansynth.compiler import compile_formula
from plansynth.games import (
    AgentStrategy,
    EnvStrategy,
    agent_ranks,
    agent_realizable,
    env_realizable,
    env_safe,
    play,
)
from plansynth.logic import VarTable, parse_formula

from helpers import (
    XY,
    _oracle_safe_moves,
    oracle_agent_layers,
    oracle_agent_region,
    oracle_env_safe,
    oracle_safe_set,
    random_dfa,
    reference_agent_table,
)

VOCABULARIES = [
    XY,
    VarTable((), ("x",)),
    VarTable(("y",), ()),
    VarTable(("y", "z"), ("x",)),
    VarTable(("y",), ("x", "w")),
    VarTable(("y", "z"), ("x", "w")),
]


def assert_agent_strategy_wins(m: Dfa, strat: AgentStrategy) -> None:
    """The strategy must stop, with an accepted trace, against EVERY environment."""
    bound = m.n_states + 2
    vt = m.vt

    def walk(mem: int, q: int, depth: int) -> None:
        assert depth <= bound, "agent strategy does not force a timely stop"
        for e in range(vt.n_env_states):
            action, mem2 = strat.step(mem, e)
            if action is None:
                assert depth > 0, "stopped on the empty trace"
                assert q in m.finals, "stopped outside the accepted language"
            else:
                walk(mem2, m.transitions[q][vt.joint(e, action)], depth + 1)

    walk(strat.initial, m.initial, 0)


def assert_env_strategy_wins(m: Dfa, strat) -> None:
    """Every prefix of every play against the strategy must be accepted."""
    vt = m.vt
    seen = set()

    def walk(mem, out: int, q: int) -> None:
        key = (mem, out, q)
        if key in seen:
            return
        seen.add(key)
        for a in range(vt.n_actions):
            t = m.transitions[q][vt.joint(out, a)]
            assert t in m.finals, "environment let a prefix fall out of the language"
            out2, mem2 = strat.step(mem, a)
            walk(mem2, out2, t)

    walk(strat.initial, strat.first_output, m.initial)


def random_env_strategy(rng, vt, n_memory: int = 3) -> EnvStrategy:
    table = {
        (mem, a): (rng.randrange(vt.n_env_states), rng.randrange(n_memory))
        for mem in range(n_memory)
        for a in range(vt.n_actions)
    }
    return EnvStrategy(vt, n_memory, 0, rng.randrange(vt.n_env_states), table)


def test_agent_fixpoint_ranks():
    m = compile_formula(XY, parse_formula("F x", XY))
    ranks, _, _ = agent_ranks(m)
    assert {q for q, r in ranks.items() if r == 0} == m.finals
    assert set(ranks) == set(range(m.n_states))  # agent can always reach x


def test_agent_extracted_strategies_win():
    rng = random.Random(41)
    realized = 0
    for _ in range(60):
        m = random_dfa(rng, XY, 6)
        ok, ranks, strat = agent_realizable(m)
        assert {q for q, r in ranks.items() if r == 0} == m.finals & ranks.keys()
        if ok:
            realized += 1
            assert_agent_strategy_wins(m, strat)
            # answers never climb in rank and strictly descend the order in
            # which states entered the fixpoint, so plays cannot cycle
            pos = {q: i for i, q in enumerate(ranks)}
            for (mem, _e), (action, nxt) in strat.table.items():
                if action is not None and mem != strat.initial:
                    assert ranks[nxt] <= ranks[mem]
                    assert pos[nxt] < pos[mem]
        else:
            assert strat is None
    assert realized > 5


def test_equal_rank_answers_cannot_cycle():
    # two states of the same sweep each hold a winning answer into the other;
    # an extraction choosing by rank alone would bounce between them forever
    m = Dfa(XY, (
        (0, 0, 0, 0),  # goal
        (0, 0, 4, 4),  # both answers from here win immediately
        (3, 0, 1, 4),  # tempts the agent toward its same-rank twin
        (2, 2, 4, 4),  # the twin, whose only winning answers point back
        (4, 4, 4, 4),  # dead
    ), 2, frozenset({0}))
    ok, _, strat = agent_realizable(m)
    assert ok
    assert_agent_strategy_wins(m, strat)


def test_env_extracted_strategies_win():
    rng = random.Random(42)
    realized = 0
    for _ in range(60):
        m = random_dfa(rng, XY, 6)
        ok, safe, strat = env_realizable(m)
        assert safe == oracle_env_safe(m)
        if ok:
            realized += 1
            assert m.initial in safe
            assert_env_strategy_wins(m, strat)
        else:
            assert strat is None
    assert realized > 5


def test_duality_on_random_automata():
    rng = random.Random(43)
    outcomes = set()
    for _ in range(60):
        m = random_dfa(rng, XY, 6)
        ok_env, _, _ = env_realizable(m)
        ok_agent, _, _ = agent_realizable(complement(m))
        assert ok_env == (not ok_agent)
        outcomes.add(ok_env)
    assert outcomes == {True, False}


def test_agent_needs_one_completed_round():
    # the initial state is accepting but every move is losing: the agent
    # cannot win by stopping immediately, because the empty trace never counts
    dead = Dfa(XY, ((1, 1, 1, 1), (1, 1, 1, 1)), 0, frozenset({0}))
    ok, _, strat = agent_realizable(dead)
    assert not ok and strat is None


def test_trivial_games():
    ok, _, _ = agent_realizable(dfa_true(XY))
    assert ok
    ok, _, _ = agent_realizable(dfa_false(XY))
    assert not ok
    ok, _, _ = env_realizable(dfa_true(XY))
    assert ok
    ok, _, _ = env_realizable(dfa_false(XY))
    assert not ok


def test_env_first_move_is_forced_by_implication():
    # under y -> x the only safe opening is to keep y false: play y and the
    # agent may answer with x false, breaking the first prefix
    m = compile_formula(XY, parse_formula("y -> x", XY))
    ok, safe, strat = env_realizable(m)
    assert ok
    assert strat.first_output == 0
    row = m.transitions[m.initial]
    safe_moves = [
        e
        for e in range(XY.n_env_states)
        if all(
            row[XY.joint(e, a)] in m.finals and row[XY.joint(e, a)] in safe
            for a in range(XY.n_actions)
        )
    ]
    assert safe_moves == [0]


def test_env_strategy_plays_the_smallest_safe_move():
    rng = random.Random(47)
    for vt in VOCABULARIES:
        for _ in range(30):
            m = random_dfa(rng, vt, 6)
            safe = oracle_safe_set(m)
            moves = {q: _oracle_safe_moves(m, safe, q) for q in range(m.n_states)}
            safe_moves = env_safe(m)[2]
            for q in range(m.n_states):
                assert list(safe_moves(q)) == moves[q]
            ok, _, strat = env_realizable(m)
            if not ok:
                continue
            assert strat.first_output == moves[m.initial][0]
            played = {q for q, _ in strat.table}
            assert m.initial in played
            for (q, a), (e, t) in strat.table.items():
                assert t == m.transitions[q][vt.joint(moves[q][0], a)]
                assert e == moves[t][0] and t in played
            assert len(strat.table) == len(played) * vt.n_actions


def test_conditional_goal_game_is_realizable():
    # assumption y -> x, goal y -> !x: the agent wins the implication game by
    # answering x, which breaks the assumption unless the environment kept y
    # false, in which case the goal is vacuous
    f = parse_formula("(y -> x) -> (y -> !x)", XY)
    ok, _, strat = agent_realizable(compile_formula(XY, f))
    assert ok
    assert_agent_strategy_wins(compile_formula(XY, f), strat)


def test_play_against_random_environments():
    rng = random.Random(44)
    checked = 0
    for _ in range(40):
        m = random_dfa(rng, XY, 5)
        ok, _, strat = agent_realizable(m)
        if not ok:
            continue
        checked += 1
        for _ in range(5):
            trace, halted = play(strat, random_env_strategy(rng, XY))
            assert halted
            assert accepts(m, trace)
    assert checked > 5


def test_play_extracted_env_against_extracted_agent():
    # when both sides can realize the same language the play never violates it
    rng = random.Random(45)
    both = 0
    for _ in range(60):
        m = random_dfa(rng, XY, 5)
        ok_a, _, agent = agent_realizable(m)
        ok_e, _, env = env_realizable(m)
        if not (ok_a and ok_e):
            continue
        both += 1
        trace, halted = play(agent, env)
        assert halted and accepts(m, trace)
    assert both > 3


def test_play_gives_up_after_max_rounds():
    # the agent answers x to everything and never stops
    agent = AgentStrategy(XY, 1, 0, {(0, e): (1, 0) for e in range(2)})
    env = EnvStrategy(XY, 1, 0, 1, {(0, a): (a, 0) for a in range(2)})
    trace, halted = play(agent, env, max_rounds=5)
    assert not halted
    assert trace == [XY.joint(1, 1)] * 5


def test_missing_row_reads_as_stop():
    strat = AgentStrategy(XY, 1, 0, {})
    assert strat.step(0, 1) == (None, 0)


def test_safe_set_is_a_fixpoint():
    rng = random.Random(46)
    for _ in range(30):
        m = random_dfa(rng, XY, 6)
        safe, _, _ = env_safe(m)
        for q in safe:
            row = m.transitions[q]
            assert any(
                all(
                    row[XY.joint(e, a)] in m.finals and row[XY.joint(e, a)] in safe
                    for a in range(XY.n_actions)
                )
                for e in range(XY.n_env_states)
            )


def test_agent_region_matches_the_sweep_fixpoint():
    rng = random.Random(47)
    for vt in VOCABULARIES:
        for _ in range(40):
            m = random_dfa(rng, vt, 10)
            ranks, layers, _ = agent_ranks(m)
            assert set(ranks) == oracle_agent_region(m)
            assert ranks == oracle_agent_layers(m)
            assert layers == len(set(ranks.values()))
            # ranks are held in entry order, which never decreases in rank
            assert list(ranks.values()) == sorted(ranks.values())


def test_env_safe_matches_the_sweep_fixpoint():
    rng = random.Random(48)
    for vt in VOCABULARIES:
        for _ in range(40):
            m = random_dfa(rng, vt, 10)
            safe, _, _ = env_safe(m)
            assert safe == oracle_env_safe(m)


def test_agent_strategies_descend_on_larger_automata():
    rng = random.Random(49)
    realized = 0
    for vt in VOCABULARIES:
        for _ in range(30):
            m = random_dfa(rng, vt, 12)
            ok, ranks, strat = agent_realizable(m)
            if not ok:
                continue
            realized += 1
            assert_agent_strategy_wins(m, strat)
            pos = {q: i for i, q in enumerate(ranks)}
            for (mem, _e), (action, nxt) in strat.table.items():
                if action is not None and mem != strat.initial:
                    assert ranks[nxt] < ranks[mem]
                    assert pos[nxt] < pos[mem]
    assert realized > 20


def test_agent_table_matches_the_reference_rule():
    # every start state of each automaton: accepting ones, which still owe a
    # first round, and ones outside the region, where the agent loses
    rng = random.Random(51)
    starts = {"accepting": 0, "outside": 0, "realized": 0}
    for vt in VOCABULARIES:
        for _ in range(25):
            m = random_dfa(rng, vt, 8)
            for q in range(m.n_states):
                mq = Dfa(vt, m.transitions, q, m.finals)
                ok, ranks, strat = agent_realizable(mq)
                expected = reference_agent_table(mq, list(ranks))
                assert ok == (expected is not None)
                if ok:
                    # the same rows, in the same (breadth-first) order
                    assert list(strat.table.items()) == list(expected.items())
                    assert strat.initial == strat.n_memory - 1 == m.n_states
                else:
                    assert strat is None
                starts["accepting"] += q in m.finals
                starts["outside"] += q not in ranks
                starts["realized"] += ok
    assert min(starts.values()) > 20


def test_games_on_a_long_chain():
    # the agent advances one state per round by answering the environment's
    # bit with a keyed bit; every other answer stays put, and only the end
    # accepts, so the region has one rank layer per state
    rng = random.Random(50)
    n = 10_000
    key = [[rng.randrange(2) for _ in range(2)] for _ in range(n)]
    rows = [
        [min(q + 1, n - 1) if sym >> 1 == key[q][sym & 1] else q for sym in range(4)]
        for q in range(n)
    ]
    chain = Dfa(XY, rows, 0, {n - 1})
    assert minimize(chain) == chain
    ranks, layers, _ = agent_ranks(chain)
    assert layers == n and ranks == {q: n - 1 - q for q in reversed(range(n))}
    ok, _, strat = agent_realizable(chain)
    assert ok and len(strat.table) == 2 * (n - 1)
    # every state accepts but the end: the environment cannot keep away from
    # it, and loses the states one round at a time
    march = Dfa(XY, [[min(q + 1 + sym % 2, n - 1) for sym in range(4)] for q in range(n)],
                0, set(range(n - 1)))
    assert env_safe(march)[:2] == (frozenset(), n - 1)
