"""Problem-level API: assumption checking, synthesis, planning, verification.

A problem pairs an assumption about the environment with a goal for the
agent, over finite or infinite traces.  Solving always goes through the same
reduction: check that the assumption is environment realizable (otherwise it
excludes nothing and the question is ill-posed), build the implication
"assumption side implies goal" as one automaton, and solve the induced game
for the agent.  For planning problems the assumption side additionally
conjoins the domain's environment-behavior automaton.

The verifier answers the definitional question directly instead: does a given
agent strategy reach an accepted stop against every environment that plays
only moves extendable to a full assumption-realizing behavior?  Those are
exactly the moves that keep the assumption automaton inside the environment's
safety-winning region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .compiler import compile_formula
from .dfa import Dfa, combine, minimize
from .domain import (
    Domain,
    env_behavior_dfa,
    env_behavior_dpw,
    executability_formula,
    fairness_formula,
)
from .errors import InvalidAssumptionError, UnsupportedFairSolve, UnsupportedFeature
from .games import AgentStrategy, agent_realizable, env_realizable, env_safe
from .logic import TRUE, And, Eventually, Formula, VarTable, is_propositional
from .parity import Dpw, dpw_agent_realizable, dpw_combine, dpw_env_realizable


class Status(Enum):
    REALIZABLE = "realizable"
    UNREALIZABLE = "unrealizable"
    INVALID_ASSUMPTION = "invalid-assumption"


@dataclass
class Verdict:
    status: Status
    strategy: AgentStrategy | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class VerifyResult:
    """Outcome of checking one agent strategy against a problem.

    On rejection, env_moves is the offending environment move sequence,
    trace the joint symbols actually played along it, and loops tells a
    never-halting play apart from a halt in a bad state.
    """

    accepted: bool
    env_moves: list[int] | None = None
    trace: list[int] | None = None
    loops: bool = False
    reason: str | None = None


@dataclass
class Problem:
    kind: str
    semantics: str
    vt: VarTable
    assumption: object
    goal: object
    domain: Domain | None = None
    fair: bool = False

    def __post_init__(self):
        if self.kind not in ("synthesis", "planning"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.semantics not in ("finite", "infinite"):
            raise ValueError(f"unknown semantics {self.semantics!r}")
        if self.kind == "planning":
            if self.domain is None:
                raise ValueError("planning problems need a domain")
            if self.domain.vt != self.vt:
                raise ValueError("domain and problem use different variable tables")
        elif self.domain is not None:
            raise ValueError("synthesis problems take no domain")
        if self.fair and self.kind != "planning":
            raise ValueError("fairness applies to planning problems only")


def _as_dfa(vt: VarTable, obj) -> Dfa:
    """The minimal DFA of a finite-trace property.

    Compiled formulas are minimal already; given automata are minimized here.
    """
    if isinstance(obj, Formula):
        return compile_formula(vt, obj)
    if isinstance(obj, Dfa):
        if obj.vt != vt:
            raise ValueError("automaton built over a different variable table")
        return minimize(obj)
    if isinstance(obj, Dpw):
        raise UnsupportedFeature("parity automata require infinite semantics")
    raise TypeError(f"cannot interpret {type(obj).__name__} as a finite-trace property")


def _as_dpw(vt: VarTable, obj) -> Dpw:
    if isinstance(obj, Dpw):
        if obj.vt != vt:
            raise ValueError("automaton built over a different variable table")
        return obj
    raise UnsupportedFeature(
        "infinite semantics takes parity automata only; formula compilation "
        "for infinite traces is not provided"
    )


def _assumption_dfa(p: Problem) -> Dfa:
    m = _as_dfa(p.vt, p.assumption)
    if p.kind == "planning":
        m = minimize(combine(env_behavior_dfa(p.domain), m, "and"))
    return m


def _assumption_dpw(p: Problem) -> Dpw:
    m = _as_dpw(p.vt, p.assumption)
    if p.kind == "planning":
        m = dpw_combine(env_behavior_dpw(p.domain), m, "and")
    return m


def assumption_automaton(p: Problem) -> Dfa | Dpw:
    """The combined assumption-side automaton (with the domain, for planning)."""
    if p.semantics == "finite":
        return _assumption_dfa(p)
    return _assumption_dpw(p)


def problem_automata(p: Problem) -> dict[str, Dfa | Dpw]:
    """The three automata a solve run is played on, keyed by role.

    ``assumption`` and ``goal`` are the two sides, ``game`` is the
    implication product the agent must win.
    """
    if p.semantics == "finite":
        assumption = _assumption_dfa(p)
        goal = _as_dfa(p.vt, p.goal)
        game = minimize(combine(assumption, goal, "implies"))
    else:
        assumption = _assumption_dpw(p)
        goal = _as_dpw(p.vt, p.goal)
        game = dpw_combine(assumption, goal, "implies")
    return {"assumption": assumption, "goal": goal, "game": game}


def _refuse_fair(p: Problem) -> None:
    if p.fair:
        raise UnsupportedFairSolve(
            "fair planning is export-only; no finite-trace fair solver is provided",
            fairness_formula(p.domain),
        )


def check_assumption(p: Problem) -> bool:
    """Is the assumption side (with the domain, for planning) env realizable?"""
    _refuse_fair(p)
    m = assumption_automaton(p)
    if p.semantics == "finite":
        ok, _, _ = env_realizable(m)
    else:
        ok, _ = dpw_env_realizable(m)
    return ok


def _solve(p: Problem) -> Verdict:
    diagnostics: dict = {"kind": p.kind, "semantics": p.semantics}
    if p.semantics == "finite":
        assumption = _assumption_dfa(p)
        goal = _as_dfa(p.vt, p.goal)
        diagnostics["assumption_states"] = assumption.n_states
        diagnostics["goal_states"] = goal.n_states
        ok, _, _ = env_realizable(assumption)
        if not ok:
            return Verdict(Status.INVALID_ASSUMPTION, None, diagnostics)
        game = minimize(combine(assumption, goal, "implies"))
        diagnostics["game_states"] = game.n_states
        realizable, region, strategy = agent_realizable(game)
        diagnostics["game_iterations"] = max(region.ranks.values(), default=0)
        if not realizable:
            return Verdict(Status.UNREALIZABLE, None, diagnostics)
        return Verdict(Status.REALIZABLE, strategy, diagnostics)
    assumption = _assumption_dpw(p)
    goal = _as_dpw(p.vt, p.goal)
    diagnostics["assumption_states"] = assumption.n_states
    diagnostics["goal_states"] = goal.n_states
    ok, _ = dpw_env_realizable(assumption)
    if not ok:
        return Verdict(Status.INVALID_ASSUMPTION, None, diagnostics)
    game = dpw_combine(assumption, goal, "implies")
    diagnostics["game_states"] = game.n_states
    diagnostics["game_colors"] = len(set(game.colors))
    realizable, strategy = dpw_agent_realizable(game)
    if not realizable:
        return Verdict(Status.UNREALIZABLE, None, diagnostics)
    return Verdict(Status.REALIZABLE, strategy, diagnostics)


def synthesize(p: Problem) -> Verdict:
    """Find an agent strategy realizing the goal under the assumption."""
    if p.kind != "synthesis":
        raise ValueError("synthesize expects a synthesis problem")
    return _solve(p)


def plan(p: Problem) -> Verdict:
    """Find an agent strategy for a planning problem under assumptions."""
    if p.kind != "planning":
        raise ValueError("plan expects a planning problem")
    _refuse_fair(p)
    return _solve(p)


def solve(p: Problem) -> Verdict:
    return plan(p) if p.kind == "planning" else synthesize(p)


def fond_problem(d: Domain, goal: Formula, fair: bool = False) -> Problem:
    """Planning problem for a bare domain and goal.

    A propositional goal is read as reachability; a temporal goal is taken
    as-is.  Either way the agent additionally owes executability (it only
    ever plays available actions).  The environment is unconstrained beyond
    the domain itself.
    """
    if fair:
        raise UnsupportedFairSolve(
            "fair planning is export-only; no finite-trace fair solver is provided",
            fairness_formula(d),
        )
    wrapped = Eventually(goal) if is_propositional(goal) else goal
    return Problem(
        "planning",
        "finite",
        d.vt,
        TRUE,
        And(executability_formula(d), wrapped),
        domain=d,
    )


def verify_strategy(p: Problem, s: AgentStrategy) -> VerifyResult:
    """Check one agent strategy against every assumption-consistent environment.

    The environment is restricted to safe moves of the assumption automaton:
    moves whose successor stays accepting and safety-winning no matter the
    agent's answer.  A move sequence consists of such moves exactly when some
    full assumption-realizing environment strategy plays it, so accepting
    means the strategy halts with the goal satisfied against all of them.
    """
    if p.semantics != "finite":
        raise UnsupportedFeature("verification is provided for finite semantics only")
    _refuse_fair(p)
    if s.vt != p.vt:
        raise ValueError("strategy built over a different variable table")
    vt = p.vt
    assumption = _assumption_dfa(p)
    goal = _as_dfa(p.vt, p.goal)
    safe, _ = env_safe(assumption)
    good = assumption.finals & safe

    def safe_moves(qa: int) -> list[int]:
        row = assumption.transitions[qa]
        return [
            e
            for e in range(vt.n_env_states)
            if all(row[vt.joint(e, a)] in good for a in range(vt.n_actions))
        ]

    if not safe_moves(assumption.initial):
        raise InvalidAssumptionError("the assumption is not environment realizable")

    def reject(move, looping, reason):
        return VerifyResult(
            accepted=False,
            env_moves=[e for e, _ in path] + [move],
            trace=[sym for _, sym in path],
            loops=looping,
            reason=reason,
        )

    # Depth-first search over (memory, assumption state, goal state, at root)
    # with an explicit stack: one frame per node on the current path, holding
    # the node and an iterator over its remaining moves; `path` holds the
    # (move, symbol) steps that led to the top frame.  A node is settled once
    # every play from it is known to end well.
    start = (s.initial, assumption.initial, goal.initial, True)
    stack = [(start, iter(safe_moves(start[1])))]
    path: list[tuple[int, int]] = []
    on_path = {start}
    settled: set = set()
    while stack:
        node, moves = stack[-1]
        mem, qa, qg, root = node
        for e in moves:
            action, mem2 = s.step(mem, e)
            if action is None:
                if root:
                    return reject(e, False, "stops before completing a round")
                if qg not in goal.finals:
                    return reject(e, False, "halts with the goal unsatisfied")
                continue
            sym = vt.joint(e, action)
            nxt = (mem2, assumption.transitions[qa][sym], goal.transitions[qg][sym], False)
            if nxt in on_path:
                return reject(e, True, "can be kept playing forever")
            if nxt in settled:
                continue
            on_path.add(nxt)
            path.append((e, sym))
            stack.append((nxt, iter(safe_moves(nxt[1]))))
            break
        else:
            stack.pop()
            on_path.discard(node)
            settled.add(node)
            if path:
                path.pop()
    return VerifyResult(accepted=True)
