"""Nondeterministic planning domains in compact boolean coding.

A domain describes how the environment behaves when it plays the states of a
planning problem: fluents are environment variables, action variables are
agent variables, and three propositional formulas give the initial states
(init, over fluents), action availability (pre, over fluents and action
variables) and the transition relation (delta, over fluents, action variables
and primed fluents for the successor state).

Everything else here is derived artifacts: the environment-behavior property
of a domain as a formula, a DFA, or a parity automaton; the executability
obligation for the agent; the fairness formula; and the round-robin effect
scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dfa import Dfa, check_explicit
from .errors import (
    DanglingDeltaError,
    EmptyInitError,
    NoAvailableActionError,
    NonSerialPreError,
    VocabularyMismatch,
)
from .logic import (
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Until,
    VarTable,
    atom_names,
    conjoin,
    is_propositional,
    node_count,
    prime_to_next,
    truth_table_mask,
)
from .parity import Dpw


@dataclass(frozen=True)
class Domain:
    """Compact domain (init, pre, delta) over a variable table."""

    vt: VarTable
    init: Formula
    pre: Formula
    delta: Formula

    def __post_init__(self):
        if self.vt.n_env == 0 or self.vt.n_agent == 0:
            raise ValueError("domains need at least one fluent and one action variable")
        env = set(self.vt.env_vars)
        everything = set(self.vt.all_vars)
        primed = {VarTable.primed(v) for v in self.vt.env_vars}
        for name, formula, allowed in (
            ("init", self.init, env),
            ("pre", self.pre, everything),
            ("delta", self.delta, everything | primed),
        ):
            if not is_propositional(formula):
                raise ValueError(f"{name} must be propositional")
            stray = atom_names(formula) - allowed
            if stray:
                raise VocabularyMismatch(f"{name} uses {sorted(stray)}")

    @property
    def size(self) -> int:
        """Variable count plus the node counts of the three formulas."""
        return (
            self.vt.n_vars
            + node_count(self.init)
            + node_count(self.pre)
            + node_count(self.delta)
        )


@dataclass(frozen=True)
class ExplicitDomain:
    """Enumerated form: initial states, available pairs, successor sets."""

    vt: VarTable
    init_states: frozenset[int]
    pre_pairs: frozenset[tuple[int, int]]
    delta: dict[tuple[int, int], tuple[int, ...]] = field(compare=True)

    def available(self, state: int) -> tuple[int, ...]:
        return tuple(a for a in range(self.vt.n_actions) if (state, a) in self.pre_pairs)

    def successors(self, state: int, action: int) -> tuple[int, ...]:
        return self.delta.get((state, action), ())


def validate(d: Domain) -> ExplicitDomain:
    """Enumerate the relations and check the domain's well-formedness.

    Requirements, each with its own error: some initial state exists; every
    state has an available action; transitions only leave available pairs;
    and every available pair has at least one successor.
    """
    vt = d.vt
    check_explicit(vt)
    n_env, n_agent, n_states = vt.n_env, vt.n_agent, vt.n_env_states
    init_mask = truth_table_mask(d.init, vt.env_vars)
    pre_mask = truth_table_mask(d.pre, vt.all_vars)
    # primed fluents first: pair (s, a)'s successors are the |states| bits
    # of the table from (s | a << n_env)·|states| on
    delta_order = tuple(VarTable.primed(v) for v in vt.env_vars) + vt.all_vars
    delta_mask = truth_table_mask(d.delta, delta_order)

    init_states = frozenset(s for s in range(n_states) if init_mask >> s & 1)
    if not init_states:
        raise EmptyInitError("no state satisfies init")

    pre_pairs = set()
    for s in range(n_states):
        available = [a for a in range(vt.n_actions) if pre_mask >> vt.joint(s, a) & 1]
        if not available:
            raise NoAvailableActionError(
                f"state {vt.format_bits(s, n_env)} has no available action"
            )
        pre_pairs.update((s, a) for a in available)

    # the mask as text, bit i at index i, read one contiguous slice per pair
    bits = format(delta_mask, "b").zfill(n_states << (n_env + n_agent))[::-1]
    delta: dict[tuple[int, int], tuple[int, ...]] = {}
    for s in range(n_states):
        for a in range(vt.n_actions):
            start = vt.joint(s, a) * n_states
            succ = tuple(
                t for t, bit in enumerate(bits[start : start + n_states]) if bit == "1"
            )
            if not succ:
                continue
            if (s, a) not in pre_pairs:
                raise DanglingDeltaError(
                    f"transition from unavailable pair "
                    f"{vt.format_bits(s, n_env)}|{vt.format_bits(a, n_agent)} "
                    f"to {vt.format_bits(succ[0], n_env)}"
                )
            delta[(s, a)] = succ
    for s, a in sorted(pre_pairs):
        if (s, a) not in delta:
            raise NonSerialPreError(
                f"available pair {vt.format_bits(s, n_env)}|{vt.format_bits(a, n_agent)} "
                f"has no successor"
            )
    return ExplicitDomain(vt, init_states, frozenset(pre_pairs), delta)


# --- the environment-behavior property --------------------------------------


def env_behavior_ltlf(d: Domain) -> Formula:
    """The domain's environment contract as a finite-trace formula.

    init ∧ (G d'' ∨ d'' U ¬pre), where d'' replaces each primed fluent by a
    weak next-step obligation: the environment follows delta as long as the
    agent plays available actions, and owes nothing from the first violation
    on.  The node count stays within five times the domain size.
    """
    validate(d)
    stepped = prime_to_next(d.delta)
    return And(d.init, Or(Always(stepped), Until(stepped, Not(d.pre))))


def _behavior_table(d: Domain):
    """Shared three-plus-pairs state table for the automaton forms.

    State 0 reads the first symbol, state 1 is the released sink (an
    unavailable action was played), state 2 is the dead sink (init or delta
    was violated), and state 3 + s·|actions| + a remembers the last symbol.
    """
    x = validate(d)
    vt = d.vt
    n_actions = vt.n_actions
    # per symbol: its environment state, and the state it leads to when
    # that environment state is a permitted successor
    env_of = []
    to_pair = []
    for sym in range(vt.n_symbols):
        e, a = vt.env_part(sym), vt.agent_part(sym)
        env_of.append(e)
        to_pair.append(3 + e * n_actions + a if (e, a) in x.pre_pairs else 1)

    rows = [tuple(t if e in x.init_states else 2 for e, t in zip(env_of, to_pair))]
    rows.append((1,) * vt.n_symbols)
    rows.append((2,) * vt.n_symbols)
    for s in range(vt.n_env_states):
        for a in range(n_actions):
            succ = set(x.successors(s, a))
            rows.append(tuple(t if e in succ else 2 for e, t in zip(env_of, to_pair)))
    return tuple(rows)


def env_behavior_dfa(d: Domain) -> Dfa:
    """The environment contract as an unminimized DFA.

    Exactly 3 + |states|·|actions| automaton states; everything except the
    dead sink accepts.
    """
    rows = _behavior_table(d)
    return Dfa(d.vt, rows, 0, frozenset(q for q in range(len(rows)) if q != 2))


def env_behavior_dpw(d: Domain) -> Dpw:
    """The environment contract over infinite traces: avoid the dead sink."""
    rows = _behavior_table(d)
    return Dpw(d.vt, rows, 0, tuple(1 if q == 2 else 0 for q in range(len(rows))))


# --- goal-side and fairness artifacts ---------------------------------------


def executability_formula(d: Domain) -> Formula:
    """The agent-side obligation to only ever play available actions."""
    return Always(d.pre)


def _minterm(vt: VarTable, names, value: int) -> Formula:
    lits = []
    for i, name in enumerate(names):
        atom = Atom(name)
        lits.append(atom if value >> i & 1 else Not(atom))
    return conjoin(lits)


def fairness_formula(d: Domain) -> Formula:
    """Fair-environment property, for export only (infinite semantics).

    For every available state-action pair: if it recurs forever, each of its
    possible effects follows it infinitely often.  States and actions are
    written as full conjunctions of literals, so the formula is exponential
    in the domain size.
    """
    x = validate(d)
    vt = d.vt
    conjuncts = []
    for (s, a), succ in sorted(x.delta.items()):
        here = And(_minterm(vt, vt.env_vars, s), _minterm(vt, vt.agent_vars, a))
        trigger = Always(Eventually(here))
        followups = conjoin(
            [
                Always(Eventually(And(here, Next(_minterm(vt, vt.env_vars, t)))))
                for t in succ
            ]
        )
        conjuncts.append(Implies(trigger, followups))
    return conjoin(conjuncts)


class RoundRobinEnv:
    """Environment scheduler that cycles each pair's effects in order.

    Starts in the least initial state, answers each available action with the
    next effect of that (state, action) pair in bitvector order, and falls
    back to state 0 on unavailable actions.  Implements the environment
    strategy stepping interface (initial / first_output / step) with lazy
    memory of the form (pending state, counter snapshot).
    """

    def __init__(self, d: Domain):
        self._x = validate(d)
        self.vt = d.vt
        self.first_output = min(self._x.init_states)
        self.initial = (self.first_output, ())

    def step(self, memory, action: int):
        pending, counters = memory
        effects = self._x.successors(pending, action)
        if not effects:
            return 0, (0, counters)
        table = dict(counters)
        k = table.get((pending, action), 0)
        out = effects[k]
        table[(pending, action)] = (k + 1) % len(effects)
        return out, (out, tuple(sorted(table.items())))


def round_robin_env(d: Domain) -> RoundRobinEnv:
    """Deterministic fair environment; realizes the domain contract."""
    return RoundRobinEnv(d)


def universal_domain(env_names, agent_names) -> Domain:
    """The unconstrained domain: every state initial, everything allowed."""
    vt = VarTable(tuple(env_names), tuple(agent_names))
    return Domain(vt, TRUE, TRUE, TRUE)
