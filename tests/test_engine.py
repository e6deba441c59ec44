"""End-to-end solving: assumption checks, synthesis, planning, verification."""

import random
import time

import pytest

from plansynth import dfa
from plansynth.compiler import compile_formula
from plansynth.dfa import Dfa, language_equal, minimize
from plansynth.domain import (
    Domain,
    env_behavior_dfa,
    executability_formula,
    fairness_formula,
    universal_domain,
)
from plansynth.engine import (
    Compiled,
    Problem,
    Status,
    check_assumption,
    fond_problem,
    plan,
    solve,
    synthesize,
    verify_strategy,
)
from plansynth.errors import (
    InvalidAssumptionError,
    LimitExceeded,
    UnsupportedFairSolve,
    UnsupportedFeature,
)
from plansynth.games import AgentStrategy
from plansynth.logic import (
    And,
    Always,
    Atom,
    Eventually,
    VarTable,
    parse_formula,
)
from plansynth.parity import Dpw

from helpers import XY

PM = VarTable(("p",), ("m",))


def synthesis(assumption: str, goal: str) -> Problem:
    return Problem(
        "synthesis",
        "finite",
        XY,
        parse_formula(assumption, XY),
        parse_formula(goal, XY),
    )


def dpw_const(accepting: bool, vt=XY) -> Dpw:
    return Dpw(vt, ((0,) * vt.n_symbols,), 0, (0 if accepting else 1,))


# --- problem construction -------------------------------------------------------


def test_problem_validation():
    f = parse_formula("true")
    with pytest.raises(ValueError):
        Problem("optimization", "finite", XY, f, f)
    with pytest.raises(ValueError):
        Problem("synthesis", "eventual", XY, f, f)
    with pytest.raises(ValueError):
        Problem("planning", "finite", XY, f, f)  # no domain
    with pytest.raises(ValueError):
        Problem("synthesis", "finite", XY, f, f, domain=universal_domain(("y",), ("x",)))
    with pytest.raises(ValueError):
        Problem("synthesis", "finite", XY, f, f, fair=True)
    with pytest.raises(ValueError):
        Problem("planning", "finite", XY, f, f, domain=universal_domain(("q",), ("x",)))


def test_solver_kind_dispatch():
    p = synthesis("true", "true")
    with pytest.raises(ValueError):
        plan(p)
    d = universal_domain(("y",), ("x",))
    q = Problem("planning", "finite", d.vt, parse_formula("true"), parse_formula("true"), domain=d)
    with pytest.raises(ValueError):
        synthesize(q)
    assert solve(p).status == Status.REALIZABLE
    assert solve(q).status == Status.REALIZABLE


# --- assumption checking -----------------------------------------------------------


def test_check_assumption():
    assert check_assumption(synthesis("y -> x", "true"))
    assert check_assumption(synthesis("true", "true"))
    # the environment cannot promise anything about the agent's variable
    assert not check_assumption(synthesis("F x", "true"))
    assert not check_assumption(synthesis("false", "true"))


# --- synthesis ----------------------------------------------------------------------


def test_synthesize_conditional_goal():
    verdict = synthesize(synthesis("y -> x", "y -> !x"))
    assert verdict.status == Status.REALIZABLE
    assert verdict.strategy is not None
    assert list(verdict.diagnostics) == [
        "kind",
        "semantics",
        "assumption_states",
        "goal_states",
        "game_states",
        "game_iterations",
    ]
    assert verdict.diagnostics["kind"] == "synthesis"
    assert verdict.diagnostics["semantics"] == "finite"


def test_synthesize_unrealizable():
    verdict = synthesize(synthesis("true", "G !y"))
    assert verdict.status == Status.UNREALIZABLE
    assert verdict.strategy is None
    assert "game_states" in verdict.diagnostics


def test_synthesize_invalid_assumption():
    verdict = synthesize(synthesis("F x", "true"))
    assert verdict.status == Status.INVALID_ASSUMPTION
    assert verdict.strategy is None
    assert "game_states" not in verdict.diagnostics


def test_synthesized_strategies_verify():
    for assumption, goal in (
        ("y -> x", "y -> !x"),
        ("true", "F x"),
        ("G (y -> x)", "G (x -> y) | F !y"),
    ):
        p = synthesis(assumption, goal)
        verdict = synthesize(p)
        assert verdict.status == Status.REALIZABLE
        assert verify_strategy(p, verdict.strategy).accepted, (assumption, goal)


def test_precompiled_automata_inputs():
    f = parse_formula("y -> x", XY)
    g = parse_formula("y -> !x", XY)
    p = Problem("synthesis", "finite", XY, compile_formula(XY, f), compile_formula(XY, g))
    assert synthesize(p).status == Status.REALIZABLE
    other = VarTable(("z",), ("x",))
    with pytest.raises(ValueError):
        synthesize(Problem("synthesis", "finite", XY, compile_formula(other, Atom("z")), g))


def test_finite_semantics_rejects_parity_inputs():
    p = Problem("synthesis", "finite", XY, parse_formula("true"), dpw_const(True))
    with pytest.raises(UnsupportedFeature):
        synthesize(p)


# --- verification --------------------------------------------------------------------


def halting_strategy(action: int) -> AgentStrategy:
    # one round: answer the fixed action, then stop
    table = {(0, e): (action, 1) for e in range(XY.n_env_states)}
    return AgentStrategy(XY, 2, 0, table)


def test_verify_distinguishes_assumption_from_implication():
    # under the assumption the environment may never reveal y, so answering x
    # and stopping satisfies the conditional goal; against an unconstrained
    # environment the same strategy is caught by the revealed y
    x_first = halting_strategy(1)
    under = synthesis("y -> x", "y -> !x")
    assert verify_strategy(under, x_first).accepted
    plain = synthesis("true", "(y -> x) -> (y -> !x)")
    result = verify_strategy(plain, x_first)
    assert not result.accepted
    assert result.reason == "halts with the goal unsatisfied"
    assert result.trace == [3]
    assert not result.loops
    assert result.env_moves is not None and result.env_moves[0] == 1


def test_verify_rejects_immediate_stop():
    empty = AgentStrategy(XY, 1, 0, {})
    result = verify_strategy(synthesis("true", "true"), empty)
    assert not result.accepted
    assert result.reason == "stops before completing a round"
    assert result.trace == []


def test_verify_rejects_endless_play():
    spinner = AgentStrategy(XY, 1, 0, {(0, e): (0, 0) for e in range(2)})
    result = verify_strategy(synthesis("true", "true"), spinner)
    assert not result.accepted
    assert result.loops
    assert result.reason == "can be kept playing forever"


def rounds_strategy(n: int, action) -> AgentStrategy:
    """Plays action(round, env_state) for n rounds, then halts."""
    table = {(m, e): (action(m, e), m + 1) for m in range(n) for e in range(XY.n_env_states)}
    return AgentStrategy(XY, n + 1, 0, table)


def test_verify_accepts_a_thousand_round_controller():
    march = rounds_strategy(1000, lambda m, e: 1)
    assert verify_strategy(synthesis("true", "F x"), march).accepted
    idle = verify_strategy(synthesis("true", "F x"), rounds_strategy(1000, lambda m, e: 0))
    assert idle.reason == "halts with the goal unsatisfied"
    assert idle.env_moves == [0] * 1001 and idle.trace == [0] * 1000


def test_verify_stops_at_the_one_state_guard(monkeypatch):
    # the search over (memory, assumption, goal) nodes meets one per round
    march = rounds_strategy(1000, lambda m, e: 1)
    monkeypatch.setattr(dfa, "STATE_LIMIT", 100)
    with pytest.raises(LimitExceeded, match="^101 states; explicit constructions stop at 100$"):
        verify_strategy(synthesis("true", "F x"), march)


def test_synthesize_a_five_thousand_state_chain():
    # the goal advances one state per round when the agent answers y with a
    # keyed x and stays put otherwise; only the end accepts
    rng = random.Random(7)
    n = 5000
    key = [[rng.randrange(2) for _ in range(2)] for _ in range(n)]
    rows = [
        [min(q + 1, n - 1) if sym >> 1 == key[q][sym & 1] else q for sym in range(4)]
        for q in range(n)
    ]
    p = Problem("synthesis", "finite", XY, parse_formula("true", XY), Dfa(XY, rows, 0, {n - 1}))
    start = time.perf_counter()
    verdict = synthesize(p)
    elapsed = time.perf_counter() - start
    assert verdict.status == Status.REALIZABLE
    assert verdict.diagnostics["game_states"] == n
    assert verdict.diagnostics["game_iterations"] == n - 1
    assert verify_strategy(p, verdict.strategy).accepted
    assert elapsed < 2.0


def test_verify_witnesses_are_the_first_found_depth_first():
    cycle = AgentStrategy(XY, 3, 0, {
        (0, 0): (1, 1), (0, 1): (0, 2), (1, 0): (0, 2),
        (1, 1): (1, 0), (2, 0): (None, 2), (2, 1): (1, 1),
    })
    cases = [
        (synthesis("true", "F x"), rounds_strategy(3, lambda m, e: e),
         ([0, 0, 0, 0], [0, 0, 0], False, "halts with the goal unsatisfied")),
        (synthesis("G (y -> X y)", "F (x & y)"), rounds_strategy(4, lambda m, e: 1 - e),
         ([0, 0, 0, 0, 0], [2, 2, 2, 2], False, "halts with the goal unsatisfied")),
        (synthesis("true", "G (y -> x)"), rounds_strategy(3, lambda m, e: e if m < 2 else 0),
         ([0, 0, 1, 0], [0, 0, 1], False, "halts with the goal unsatisfied")),
        (synthesis("true", "true"), cycle,
         ([0, 0, 1], [2, 0], True, "can be kept playing forever")),
    ]
    for p, strategy, expected in cases:
        r = verify_strategy(p, strategy)
        assert not r.accepted
        assert (r.env_moves, r.trace, r.loops, r.reason) == expected


def test_verify_requires_valid_assumption():
    with pytest.raises(InvalidAssumptionError):
        verify_strategy(synthesis("F x", "true"), halting_strategy(0))


def test_verify_input_checks():
    other = VarTable(("z",), ("w",))
    stray = AgentStrategy(other, 1, 0, {})
    with pytest.raises(ValueError):
        verify_strategy(synthesis("true", "true"), stray)
    p = Problem("synthesis", "infinite", XY, dpw_const(True), dpw_const(True))
    with pytest.raises(UnsupportedFeature):
        verify_strategy(p, halting_strategy(0))


# --- planning -----------------------------------------------------------------------


def reach_domain() -> Domain:
    # playing the action drives the fluent up; idling keeps it
    return Domain(
        PM,
        parse_formula("!p", PM),
        parse_formula("true", PM),
        parse_formula("(m -> p') & (!m -> (p' -> p) & (p -> p'))", PM, allow_primed=True),
    )


def test_fond_problem_wraps_goals():
    d = reach_domain()
    p = fond_problem(d, Atom("p"))
    assert p.kind == "planning" and p.domain is d
    assert p.goal == And(executability_formula(d), Eventually(Atom("p")))
    temporal = fond_problem(d, Always(Atom("p")))
    assert temporal.goal == And(executability_formula(d), Always(Atom("p")))


def test_plan_reaches_goal():
    p = fond_problem(reach_domain(), Atom("p"))
    verdict = plan(p)
    assert verdict.status == Status.REALIZABLE
    assert verify_strategy(p, verdict.strategy).accepted
    assert verdict.diagnostics["kind"] == "planning"


def test_plan_unreachable_goal():
    d = Domain(
        PM,
        parse_formula("!p", PM),
        parse_formula("true", PM),
        parse_formula("!p'", PM, allow_primed=True),
    )
    verdict = plan(fond_problem(d, Atom("p")))
    assert verdict.status == Status.UNREALIZABLE


def test_fair_solving_is_export_only():
    d = reach_domain()
    with pytest.raises(UnsupportedFairSolve) as err:
        fond_problem(d, Atom("p"), fair=True)
    assert err.value.fairness == fairness_formula(d)
    p = Problem(
        "planning", "finite", PM, parse_formula("true"), Atom("p"), domain=d, fair=True
    )
    for op in (plan, check_assumption):
        with pytest.raises(UnsupportedFairSolve):
            op(p)
    with pytest.raises(UnsupportedFairSolve):
        verify_strategy(p, AgentStrategy(PM, 1, 0, {}))


def test_universal_domain_collapses_to_synthesis():
    d = universal_domain(("y",), ("x",))
    pairs = [
        ("y -> x", "y -> !x"),
        ("true", "F x"),
        ("G y", "G x"),
        ("!y", "x U y"),
        ("WX y", "F x & F !x"),
    ]
    for assumption, goal in pairs:
        ps = synthesis(assumption, goal)
        pp = Problem(
            "planning",
            "finite",
            XY,
            parse_formula(assumption, XY),
            parse_formula(goal, XY),
            domain=d,
        )
        vs, vp = synthesize(ps), plan(pp)
        assert vs.status == vp.status, (assumption, goal)
        if vs.status == Status.REALIZABLE:
            assert verify_strategy(pp, vs.strategy).accepted
            assert verify_strategy(ps, vp.strategy).accepted


# --- infinite semantics ---------------------------------------------------------------


def test_infinite_synthesis_smoke():
    p = Problem("synthesis", "infinite", XY, dpw_const(True), dpw_const(True))
    verdict = synthesize(p)
    assert verdict.status == Status.REALIZABLE
    assert verdict.strategy is not None
    assert list(verdict.diagnostics) == [
        "kind",
        "semantics",
        "assumption_states",
        "goal_states",
        "game_states",
        "game_colors",
    ]


def test_infinite_synthesis_unrealizable_and_invalid():
    p = Problem("synthesis", "infinite", XY, dpw_const(True), dpw_const(False))
    assert synthesize(p).status == Status.UNREALIZABLE

    # accepts only plays whose first symbol carries the agent's variable:
    # no environment can promise that
    first_x = Dpw(XY, ((1, 1, 2, 2), (1, 1, 1, 1), (2, 2, 2, 2)), 0, (1, 1, 0))
    q = Problem("synthesis", "infinite", XY, first_x, dpw_const(True))
    assert synthesize(q).status == Status.INVALID_ASSUMPTION


def test_infinite_solve_runs_on_the_pair_product():
    # the goal asks for x infinitely often (color 2 after x, 1 after !x);
    # the implication's own automaton is left for export
    x_often = Dpw(XY, ((0, 0, 1, 1), (0, 0, 1, 1)), 0, (1, 2))
    verdict = synthesize(Problem("synthesis", "infinite", XY, dpw_const(True), x_often))
    assert verdict.status == Status.REALIZABLE
    assert verdict.diagnostics["game_states"] == 2
    assert verdict.diagnostics["game_colors"] == 3
    assert verdict.strategy.n_memory == 2
    assert all(action == 1 for action, _ in verdict.strategy.table.values())
    c = verdict.automata
    assert "game" not in vars(c)
    assert c.game.n_states >= 2


def test_infinite_rejects_finite_trace_inputs():
    with pytest.raises(UnsupportedFeature):
        synthesize(Problem("synthesis", "infinite", XY, parse_formula("true"), dpw_const(True)))
    with pytest.raises(UnsupportedFeature):
        synthesize(
            Problem(
                "synthesis",
                "infinite",
                XY,
                dpw_const(True),
                compile_formula(XY, parse_formula("true")),
            )
        )


def test_infinite_planning_smoke():
    d = universal_domain(("y",), ("x",))
    p = Problem(
        "planning", "infinite", XY, dpw_const(True, XY), dpw_const(True, XY), domain=d
    )
    assert check_assumption(p)
    assert plan(p).status == Status.REALIZABLE


# --- automata exports -------------------------------------------------------------------


def test_problem_automata_roles():
    p = synthesis("y -> x", "y -> !x")
    parts = Compiled(p)
    assert parts.assumption == Compiled(p).assumption
    assert parts.goal == compile_formula(XY, parse_formula("y -> !x", XY))
    direct = compile_formula(XY, parse_formula("(y -> x) -> (y -> !x)", XY))
    assert language_equal(parts.game, direct)


def test_planning_assumption_includes_domain():
    d = reach_domain()
    p = Problem(
        "planning", "finite", PM, parse_formula("true"), Atom("p"), domain=d
    )
    assert language_equal(Compiled(p).assumption, minimize(env_behavior_dfa(d)))


def test_verdict_keeps_the_compiled_automata():
    p = synthesis("y -> x", "y -> !x")
    verdict = synthesize(p)
    c = verdict.automata
    assert isinstance(c, Compiled) and c.problem is p
    assert c.valid
    assert verdict.diagnostics["game_states"] == c.game.n_states


def test_game_is_not_built_for_an_invalid_assumption():
    verdict = synthesize(synthesis("F x", "true"))
    assert verdict.status == Status.INVALID_ASSUMPTION
    c = verdict.automata
    assert not c.valid
    # cached properties live in the instance dict once built
    assert {"assumption", "goal", "valid"} <= set(vars(c))
    assert "game" not in vars(c)


def test_compiled_refuses_fair_problems_first():
    d = reach_domain()
    p = Problem("planning", "finite", PM, parse_formula("true"), Atom("p"), domain=d, fair=True)
    with pytest.raises(UnsupportedFairSolve):
        Compiled(p)
