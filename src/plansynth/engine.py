"""Problem-level API: assumption checking, synthesis, planning, verification.

A problem pairs an assumption about the environment with a goal for the
agent, over finite or infinite traces.  Every question goes through the same
reduction, and `Compiled` is the one place that builds its automata: the
assumption side (for planning problems conjoined with the domain's
environment-behavior automaton), the goal, and the implication "assumption
side implies goal".  `solve` checks that the assumption side is environment
realizable (otherwise it excludes nothing and the question is ill-posed) and
then solves the implication's game for the agent; the verdict keeps the
automata it was decided on.  On infinite traces that game is played on the
pair product of the assumption side and the goal, and the implication's
own automaton is built only when it is asked for.

The verifier answers the definitional question directly instead: does a given
agent strategy reach an accepted stop against every environment that plays
only moves extendable to a full assumption-realizing behavior?  Those are
exactly the moves that keep the assumption automaton inside the environment's
safety-winning region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .compiler import compile_formula
from .dfa import Dfa, check_states, combine, minimize
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
from .parity import Dpw, dpw_agent_realizable, dpw_combine, dpw_env_realizable, normalize_colors


class Status(Enum):
    REALIZABLE = "realizable"
    UNREALIZABLE = "unrealizable"
    INVALID_ASSUMPTION = "invalid-assumption"


@dataclass
class Verdict:
    """A solve's answer; ``automata`` is the `Compiled` record it was decided on."""

    status: Status
    strategy: AgentStrategy | None = None
    diagnostics: dict = field(default_factory=dict)
    automata: Compiled | None = None


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


def _refuse_fair(p: Problem) -> None:
    if p.fair:
        raise UnsupportedFairSolve(
            "fair planning is export-only; no finite-trace fair solver is provided",
            fairness_formula(p.domain),
        )


class Compiled:
    """The automata of one problem, each built on first use and then kept.

    ``assumption`` is the assumption side (conjoined with the domain's
    environment behaviour, for planning), ``goal`` the goal, ``valid``
    whether the environment can realize the assumption side, and ``game``
    the implication the agent must win, as one automaton: on finite traces
    the game is solved on it, on infinite traces it is only exported (the
    solve runs on the pair of assumption and goal).  Fair planning problems
    are refused when the record is made, before anything is built.
    """

    def __init__(self, p: Problem):
        _refuse_fair(p)
        self.problem = p
        self.finite = p.semantics == "finite"

    @cached_property
    def assumption(self) -> Dfa | Dpw:
        p = self.problem
        if self.finite:
            m = _as_dfa(p.vt, p.assumption)
            if p.kind == "planning":
                m = minimize(combine(env_behavior_dfa(p.domain), m, "and"))
        else:
            m = _as_dpw(p.vt, p.assumption)
            if p.kind == "planning":
                m = dpw_combine(env_behavior_dpw(p.domain), m, "and")
        return m

    @cached_property
    def goal(self) -> Dfa | Dpw:
        p = self.problem
        return _as_dfa(p.vt, p.goal) if self.finite else _as_dpw(p.vt, p.goal)

    @cached_property
    def valid(self) -> bool:
        if self.finite:
            return env_realizable(self.assumption)[0]
        return dpw_env_realizable(self.assumption)[0]

    @cached_property
    def game(self) -> Dfa | Dpw:
        if self.finite:
            return minimize(combine(self.assumption, self.goal, "implies"))
        return dpw_combine(self.assumption, self.goal, "implies")


def check_assumption(p: Problem) -> bool:
    """Is the assumption side (with the domain, for planning) env realizable?"""
    return Compiled(p).valid


def solve(p: Problem) -> Verdict:
    """Check the assumption side, then solve the agent's game on the implication."""
    c = Compiled(p)
    diagnostics: dict = {
        "kind": p.kind,
        "semantics": p.semantics,
        "assumption_states": c.assumption.n_states,
        "goal_states": c.goal.n_states,
    }
    if not c.valid:
        return Verdict(Status.INVALID_ASSUMPTION, None, diagnostics, c)
    if c.finite:
        diagnostics["game_states"] = c.game.n_states
        realizable, ranks, strategy = agent_realizable(c.game)
        diagnostics["game_iterations"] = max(ranks.values(), default=0)
    else:
        # the assumption x goal pairs the game ranges over, and its two colorings
        diagnostics["game_states"] = c.assumption.n_states * c.goal.n_states
        diagnostics["game_colors"] = sum(
            len(set(normalize_colors(m).colors)) for m in (c.assumption, c.goal)
        )
        realizable, strategy = dpw_agent_realizable(c.goal, c.assumption)
    status = Status.REALIZABLE if realizable else Status.UNREALIZABLE
    return Verdict(status, strategy, diagnostics, c)


def synthesize(p: Problem) -> Verdict:
    """Find an agent strategy realizing the goal under the assumption."""
    if p.kind != "synthesis":
        raise ValueError("synthesize expects a synthesis problem")
    return solve(p)


def plan(p: Problem) -> Verdict:
    """Find an agent strategy for a planning problem under assumptions."""
    if p.kind != "planning":
        raise ValueError("plan expects a planning problem")
    return solve(p)


def fond_problem(d: Domain, goal: Formula, fair: bool = False) -> Problem:
    """Planning problem for a bare domain and goal.

    A propositional goal is read as reachability; a temporal goal is taken
    as-is.  Either way the agent additionally owes executability (it only
    ever plays available actions).  The environment is unconstrained beyond
    the domain itself.  Fair problems are refused, as they are by every solver.
    """
    wrapped = Eventually(goal) if is_propositional(goal) else goal
    p = Problem(
        "planning",
        "finite",
        d.vt,
        TRUE,
        And(executability_formula(d), wrapped),
        domain=d,
        fair=fair,
    )
    _refuse_fair(p)
    return p


def verify_strategy(p: Problem, s: AgentStrategy) -> VerifyResult:
    """Check one agent strategy against every assumption-consistent environment.

    The environment is restricted to `env_safe`'s safe moves of the
    assumption automaton: moves whose successor stays accepting and
    safety-winning no matter the agent's answer.  A move sequence consists of such moves exactly when some
    full assumption-realizing environment strategy plays it, so accepting
    means the strategy halts with the goal satisfied against all of them.
    """
    if p.semantics != "finite":
        raise UnsupportedFeature("verification is provided for finite semantics only")
    c = Compiled(p)
    if s.vt != p.vt:
        raise ValueError("strategy built over a different variable table")
    vt = p.vt
    assumption, goal = c.assumption, c.goal
    safe, _, safe_moves = env_safe(assumption)
    if assumption.initial not in safe:
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
    # every play from it is known to end well; the settled and on-path nodes
    # count against the one state guard.
    start = (s.initial, assumption.initial, goal.initial, True)
    stack = [(start, safe_moves(start[1]))]
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
            check_states(len(on_path) + len(settled))
            path.append((e, sym))
            stack.append((nxt, safe_moves(nxt[1])))
            break
        else:
            stack.pop()
            on_path.discard(node)
            settled.add(node)
            if path:
                path.pop()
    return VerifyResult(accepted=True)
