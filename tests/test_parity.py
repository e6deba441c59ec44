"""Parity automata on infinite words and the round games they induce."""

import itertools
import math
import random
import sys
import time

import pytest

from plansynth import dfa
from plansynth.errors import LimitExceeded, VocabularyMismatch
from plansynth.logic import VarTable
from plansynth.parity import (
    Dpw,
    accepts_lasso,
    dpw_agent_realizable,
    dpw_combine,
    dpw_complement,
    dpw_env_realizable,
    normalize_colors,
    pair_product,
    solve_game,
    solve_parity_game,
)

from helpers import XY, parity_cycle_against, parity_regions_oracle, random_dpw, random_lasso


def spread(m):
    """m recolored 3c + 2: the same acceptance, from colors above 1 that skip values."""
    return Dpw(m.vt, m.transitions, m.initial, tuple(3 * c + 2 for c in m.colors))


# --- acceptance of ultimately periodic words ---------------------------------


def test_accepts_lasso_single_state():
    always = Dpw(XY, ((0, 0, 0, 0),), 0, (0,))
    never = Dpw(XY, ((0, 0, 0, 0),), 0, (1,))
    assert accepts_lasso(always, [], [0])
    assert accepts_lasso(always, [1, 2, 3], [0, 1])
    assert not accepts_lasso(never, [], [0])


def test_accepts_lasso_depends_on_recurring_colors_only():
    # state 1 (odd color) is visited once on the way to an even self-loop
    m = Dpw(XY, ((1, 1, 1, 1), (2, 2, 2, 2), (2, 2, 2, 2)), 0, (0, 3, 2))
    assert accepts_lasso(m, [0, 0], [0])
    assert accepts_lasso(m, [], [0])  # the loop body still reaches the sink


def test_accepts_lasso_flip_flop():
    # alternating between colors 1 and 2: the maximum recurring color is even
    m = Dpw(XY, ((1, 1, 1, 1), (0, 0, 0, 0)), 0, (1, 2))
    assert accepts_lasso(m, [], [0])
    # staying on the odd state alone is impossible here; force it via loop of 2
    odd = Dpw(XY, ((0, 0, 0, 0),), 0, (3,))
    assert not accepts_lasso(odd, [2], [3, 1])


def test_accepts_lasso_validation():
    m = Dpw(XY, ((0, 0, 0, 0),), 0, (0,))
    with pytest.raises(ValueError):
        accepts_lasso(m, [0], [])
    with pytest.raises(VocabularyMismatch):
        accepts_lasso(m, [4], [0])


def test_lasso_unrolling_invariance():
    rng = random.Random(51)
    for _ in range(40):
        m = random_dpw(rng, XY, 5)
        prefix, loop = random_lasso(rng, XY)
        base = accepts_lasso(m, prefix, loop)
        assert accepts_lasso(m, prefix + loop, loop) == base
        assert accepts_lasso(m, prefix, loop + loop) == base


# --- recoloring and complement ------------------------------------------------


def test_normalize_colors_compacts_and_preserves():
    m = Dpw(XY, ((1, 1, 0, 0), (0, 1, 0, 1)), 0, (3, 5))
    nm = normalize_colors(m)
    assert nm.colors == (1, 1)
    rng = random.Random(52)
    for _ in range(40):
        m = random_dpw(rng, XY, 5, n_colors=5)
        nm = normalize_colors(m)
        assert normalize_colors(nm) == nm
        assert max(nm.colors) <= max(m.colors)
        for _ in range(5):
            prefix, loop = random_lasso(rng, XY)
            assert accepts_lasso(nm, prefix, loop) == accepts_lasso(m, prefix, loop)


def test_complement_negates_pointwise():
    rng = random.Random(53)
    for _ in range(40):
        m = random_dpw(rng, XY, 5)
        mc = dpw_complement(m)
        assert dpw_complement(mc) == normalize_colors(m)
        for _ in range(5):
            prefix, loop = random_lasso(rng, XY)
            assert accepts_lasso(mc, prefix, loop) != accepts_lasso(m, prefix, loop)


# --- boolean combinations -------------------------------------------------------


def test_combine_is_pointwise_on_lassos():
    rng = random.Random(54)
    ops = {"and": lambda a, b: a and b, "or": lambda a, b: a or b,
           "implies": lambda a, b: not a or b}
    for _ in range(15):
        m1 = random_dpw(rng, XY, 4)
        m2 = random_dpw(rng, XY, 4)
        products = {name: dpw_combine(m1, m2, name) for name in ops}
        for _ in range(25):
            prefix, loop = random_lasso(rng, XY)
            a = accepts_lasso(m1, prefix, loop)
            b = accepts_lasso(m2, prefix, loop)
            for name, op in ops.items():
                assert accepts_lasso(products[name], prefix, loop) == op(a, b), name


def test_combine_state_bound():
    rng = random.Random(55)
    for _ in range(15):
        m1 = normalize_colors(random_dpw(rng, XY, 4))
        m2 = normalize_colors(random_dpw(rng, XY, 4))
        d = len({("L", c) for c in m1.colors} | {("R", c) for c in m2.colors})
        product = dpw_combine(m1, m2, "and")
        assert product.n_states <= m1.n_states * m2.n_states * d * math.factorial(d)


def test_combine_guards(monkeypatch):
    other = VarTable(("y",), ("z",))
    with pytest.raises(VocabularyMismatch):
        dpw_combine(random_dpw(random.Random(0), XY, 3),
                    random_dpw(random.Random(0), other, 3), "and")
    # five distinct alternating colors on each side: ten tagged colors, which
    # take no guard of their own as long as the product fits under the states'
    row = (0, 1, 2, 3)
    wide = Dpw(XY, (row, (1, 2, 3, 4), (2, 3, 4, 0), (3, 4, 0, 1), (4, 0, 1, 2)),
               0, (0, 1, 2, 3, 4))
    twin = Dpw(XY, wide.transitions, 0, (4, 3, 2, 1, 0))
    ops = {"and": lambda a, b: a and b, "or": lambda a, b: a or b,
           "implies": lambda a, b: not a or b}
    products = {name: dpw_combine(wide, twin, name) for name in ops}
    rng = random.Random(56)
    for _ in range(60):
        prefix, loop = random_lasso(rng, XY, 4, 6)
        a = accepts_lasso(wide, prefix, loop)
        b = accepts_lasso(twin, prefix, loop)
        for name, op in ops.items():
            assert accepts_lasso(products[name], prefix, loop) == op(a, b), name
    monkeypatch.setattr(dfa, "STATE_LIMIT", products["or"].n_states - 1)
    with pytest.raises(LimitExceeded):
        dpw_combine(wide, twin, "or")


# --- game solving ----------------------------------------------------------------


def test_solve_game_tiny():
    # one node, self loop: the parity of its priority decides the winner
    win0, win1, _, _ = solve_game([[0]], [0], [0])
    assert win0 == {0} and not win1
    win0, win1, _, _ = solve_game([[0]], [0], [1])
    assert win1 == {0} and not win0
    # player 0 chooses between an odd trap and an even loop
    succ = [[1, 2], [1], [2]]
    win0, win1, moves0, _ = solve_game(succ, [0, 0, 0], [0, 1, 2])
    assert win0 == {0, 2} and win1 == {1}
    assert moves0[0] == 2


def test_solve_game_deeper_than_the_interpreter_stack():
    # a chain v -> v - 1 with self-loops, all player 0's, where node v has
    # priority v: the priorities alternate in parity, so compacting keeps
    # them apart, and Zielonka peels one node per level: 3000 levels, past
    # the default recursion limit; player 0 wins by walking down to node 0
    n = 3000
    limit = sys.getrecursionlimit()
    succ = [[v, v - 1] if v else [v] for v in range(n)]
    win0, win1, moves0, moves1 = solve_game(succ, [0] * n, list(range(n)))
    assert sys.getrecursionlimit() == limit
    assert win0 == set(range(n)) and not win1
    assert moves0 == {v: max(v - 1, 0) for v in range(n)} and not moves1


def test_solve_game_with_two_priority_lists_deeper_than_the_interpreter_stack():
    # a chain v -> v - 1 with self-loops, where node v carries priority v
    # in both lists: an odd top favours player 0 through the assumption, an
    # even one through the goal, so every level peels off its top node
    # alone, 3000 levels in all
    n = 3000
    limit = sys.getrecursionlimit()
    succ = [[v, v - 1] if v else [v] for v in range(n)]
    owner = [v % 2 for v in range(n)]
    win0, win1, moves0, _ = solve_game(succ, owner, list(range(n)), list(range(n)))
    assert sys.getrecursionlimit() == limit
    assert win0 == set(range(n)) and not win1
    assert set(moves0) == set(range(0, n, 2))


def test_solve_game_merges_same_parity_runs_of_priorities():
    # self-loops with the odd goal priorities 2v + 1 and the even assumption
    # priorities 2v: each list is one run of one parity, which compacting
    # turns into one priority, and player 1 wins everywhere in one level.
    # Taken as given, every level of player 1 solves two children that are
    # each the whole rest of the game, doubling the time per node.
    n = 3000
    limit = sys.getrecursionlimit()
    start = time.perf_counter()
    win0, win1, moves0, moves1 = solve_game([[v] for v in range(n)], [v % 2 for v in range(n)],
                                            [2 * v + 1 for v in range(n)],
                                            [2 * v for v in range(n)])
    assert time.perf_counter() - start < 1.0
    assert sys.getrecursionlimit() == limit
    assert win1 == set(range(n)) and not win0
    assert moves1 == {v: v for v in range(1, n, 2)} and not moves0


def test_player_1_wins_only_by_alternating_between_the_two_tops():
    # From state 0 the environment's y picks state 1 (y = 0) or state 2
    # (y = 1), and both lead back to 0.  State 1 carries the assumption's top
    # color 2 (even), state 2 the goal's top color 3 (odd).  Staying on
    # either cycle hands the agent the win (goal top 0 even, or assumption
    # top 1 odd), so the environment must alternate, which takes memory:
    # the solver has to try both of player 1's children.
    hub = (1, 2, 1, 2)
    back = (0, 0, 0, 0)
    a = Dpw(XY, (hub, back, back), 0, (0, 2, 1))
    g = Dpw(XY, (hub, back, back), 0, (0, 0, 3))
    assert dpw_agent_realizable(g, a) == (False, None)
    assert not dpw_agent_realizable(dpw_combine(a, g, "implies"))[0]
    for stay in ((1, 1, 1, 1), (2, 2, 2, 2)):
        a1 = Dpw(XY, (stay, back, back), 0, a.colors)
        g1 = Dpw(XY, (stay, back, back), 0, g.colors)
        ok, strat = dpw_agent_realizable(g1, a1)
        assert ok and parity_cycle_against(strat, a1, g1) is None
    # the same on a bare graph: hub 0 of player 1 between the two cycles
    succ, owner = [[1, 2], [0], [0]], [1, 0, 0]
    goal, assumption = [0, 0, 3], [0, 2, 1]
    win0, win1, _, _ = solve_game(succ, owner, goal, assumption)
    assert win1 == {0, 1, 2} and not win0
    for stay in ([1], [2]):
        win0, win1, _, _ = solve_game([stay, [0], [0]], owner, goal, assumption)
        assert win0 == {0, 1, 2} and not win1


def test_pair_product_matches_the_record_product():
    # "assumption implies goal" solved on the plain pair product gives the
    # verdict of the latest-appearance-record automaton of the implication,
    # and every strategy it returns lets no play keep the assumption and
    # break the goal
    rng = random.Random(62)
    outcomes = {True: 0, False: 0}
    for _ in range(500):
        a = random_dpw(rng, XY, 4, 4)
        g = random_dpw(rng, XY, 4, 4)
        ok = dpw_agent_realizable(dpw_combine(a, g, "implies"))[0]
        for aa, gg in ((a, g), (spread(a), spread(g))):
            realized, strat = dpw_agent_realizable(gg, aa)
            assert realized == ok
            if ok:
                assert strat.n_memory == pair_product(a, g)[0].n_states
                assert parity_cycle_against(strat, a, g) is None
            else:
                assert strat is None
        outcomes[ok] += 1
    assert min(outcomes.values()) > 100


def test_solve_game_moves_stay_inside_their_regions_and_win():
    # a player's region and moves win when the opponent cannot leave the
    # region, and every cycle the moves leave open peaks at that player's
    # parity; both players winning on a partition pins the regions down too
    rng = random.Random(60)
    for _ in range(300):
        n = rng.randint(1, 9)
        succ = [rng.sample(range(n), rng.randint(1, min(3, n))) for _ in range(n)]
        owner = [rng.randrange(2) for _ in range(n)]
        priority = [rng.randrange(5) for _ in range(n)]
        win0, win1, moves0, moves1 = solve_game(succ, owner, priority)
        assert win0 | win1 == set(range(n)) and not win0 & win1
        for player, region, moves in ((0, win0, moves0), (1, win1, moves1)):
            assert set(moves) == {v for v in region if owner[v] == player}
            graph = {}
            for v in region:
                graph[v] = [moves[v]] if owner[v] == player else succ[v]
                assert moves.get(v, succ[v][0]) in succ[v]
                assert set(graph[v]) <= region
            for v in region:
                if priority[v] % 2 == player:
                    continue
                # no cycle through v whose other nodes have priority <= v's
                low = {w for w in region if priority[w] <= priority[v]}
                todo, reached = list(graph[v]), set()
                while todo:
                    w = todo.pop()
                    assert w != v, "a cycle peaks at the opponent's parity"
                    if w in low and w not in reached:
                        reached.add(w)
                        todo += graph[w]


def test_solver_matches_exhaustive_oracle():
    rng = random.Random(56)
    for _ in range(40):
        m = random_dpw(rng, XY, 5)
        agent_win, env_win = parity_regions_oracle(m)
        for coloring in (m, spread(m)):
            regions = solve_parity_game(coloring)
            assert regions.agent_states == agent_win
            assert regions.env_states == env_win
            # determinacy: the two regions partition the states
            assert regions.agent_states | regions.env_states == frozenset(range(m.n_states))
            assert not (regions.agent_states & regions.env_states)


def drive_agent_strategy(m, strat, env_map):
    """Play the positional agent strategy against a positional environment."""
    vt = m.vt
    q = m.initial
    trace, seen = [], {}
    while q not in seen:
        seen[q] = len(trace)
        e = env_map[q]
        action, q2 = strat.step(q, e)
        assert action is not None
        trace.append(vt.joint(e, action))
        assert m.transitions[q][trace[-1]] == q2
        q = q2
    start = seen[q]
    return trace[:start], trace[start:]


def drive_env_strategy(m, strat, agent_map):
    """Play the positional environment strategy against a positional agent."""
    vt = m.vt
    q = m.initial
    out = strat.first_output
    trace, seen = [], {}
    while q not in seen:
        seen[q] = len(trace)
        action = agent_map[(q, out)]
        trace.append(vt.joint(out, action))
        out, q = strat.step(q, action)
    start = seen[q]
    return trace[:start], trace[start:]


def test_agent_strategy_beats_every_positional_environment():
    # against a fixed positional agent strategy the environment faces a
    # one-player game, so positional environment maps are exhaustive
    rng = random.Random(57)
    realized = 0
    for _ in range(25):
        m = random_dpw(rng, XY, 4)
        ok, strat = dpw_agent_realizable(m)
        if not ok:
            assert strat is None
            continue
        realized += 1
        reachable = sorted({q for q, _ in strat.table})
        for choices in itertools.product(range(XY.n_env_states), repeat=len(reachable)):
            env_map = dict(zip(reachable, choices))
            prefix, loop = drive_agent_strategy(m, strat, env_map)
            assert accepts_lasso(m, prefix, loop)
    assert realized > 3


def test_env_strategy_beats_every_positional_agent():
    rng = random.Random(58)
    realized = 0
    for _ in range(25):
        m = random_dpw(rng, XY, 4)
        for coloring in (m, spread(m)):
            ok, strat = dpw_env_realizable(coloring)
            if not ok:
                assert strat is None
                continue
            realized += 1
            # the agent observes the automaton state and the revealed env state
            states = sorted({q for (q, _a) in strat.table})
            domain = [(q, e) for q in states for e in range(XY.n_env_states)]
            for choices in itertools.product(range(XY.n_actions), repeat=len(domain)):
                agent_map = dict(zip(domain, choices))
                prefix, loop = drive_env_strategy(m, strat, agent_map)
                assert accepts_lasso(m, prefix, loop)
    assert realized > 6


def test_realizability_duality():
    rng = random.Random(59)
    outcomes = set()
    for _ in range(40):
        m = random_dpw(rng, XY, 5)
        ok_agent, _ = dpw_agent_realizable(m)
        ok_env_complement, _ = dpw_env_realizable(dpw_complement(m))
        assert ok_agent == (not ok_env_complement)
        outcomes.add(ok_agent)
    assert outcomes == {True, False}
