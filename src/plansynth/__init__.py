"""Synthesis and planning under environment assumptions.

The package decides, for a goal property and an assumption about how the
environment behaves, whether the agent has a strategy whose play satisfies
the goal against every environment strategy that realizes the assumption —
and extracts such a strategy when one exists.  Properties are given as
finite-trace temporal formulas or automata (deterministic parity automata
for the infinite-trace mode), and planning problems arrive as compactly
coded nondeterministic domains whose possible behaviors are themselves
turned into an assumption.
"""

from .dfa import Dfa, accepts, combine, complement, language_equal, minimize
from .compiler import compile_formula
from .domain import (
    Domain,
    ExplicitDomain,
    env_behavior_dfa,
    env_behavior_dpw,
    env_behavior_ltlf,
    executability_formula,
    fairness_formula,
    round_robin_env,
    universal_domain,
    validate,
)
from .engine import (
    Compiled,
    Problem,
    Status,
    Verdict,
    VerifyResult,
    check_assumption,
    fond_problem,
    plan,
    solve,
    synthesize,
    verify_strategy,
)
from .errors import (
    DanglingDeltaError,
    DomainValidationError,
    EmptyInitError,
    InvalidAssumptionError,
    LimitExceeded,
    NoAvailableActionError,
    NonSerialPreError,
    ParseError,
    UnsupportedFairSolve,
    UnsupportedFeature,
    VocabularyMismatch,
)
from .games import AgentStrategy, EnvStrategy, agent_realizable, env_realizable, play
from .formats import (
    format_automaton,
    format_domain,
    format_strategy,
    load_automaton,
    load_domain,
    load_problem,
    load_strategy,
    parse_automaton,
    parse_domain,
    parse_problem,
    parse_strategy,
)
from .logic import (
    VarTable,
    format_formula,
    parse_formula,
    to_nnf,
)
from .parity import (
    Dpw,
    accepts_lasso,
    dpw_agent_realizable,
    dpw_combine,
    dpw_complement,
    dpw_env_realizable,
    solve_parity_game,
)

__version__ = "0.1.0"
