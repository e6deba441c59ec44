"""Command-line front end.

Every command reads the textual interchange files and prints a short
machine-readable report of ``key: value`` lines.  Exit codes are uniform:
0 valid/realizable/accepted, 1 unrealizable or rejected, 2 invalid
assumption, 3 parse or validation failure, 4 requests the engine
recognizes but does not solve, 5 resource limit: an alphabet of more than
`dfa.EXPLICIT_VAR_LIMIT` variables or a construction past the state guard
`dfa.STATE_LIMIT`.  No code recurses on formulas, so depth is no limit.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .compiler import compile_formula
from .dfa import minimize
from .domain import (
    env_behavior_dfa,
    env_behavior_dpw,
    env_behavior_ltlf,
    executability_formula,
    fairness_formula,
    validate,
)
from .engine import Compiled, plan, synthesize, verify_strategy
from .errors import (
    InvalidAssumptionError,
    LimitExceeded,
    ParseError,
    UnsupportedFairSolve,
    UnsupportedFeature,
)
from .formats import (
    format_automaton,
    format_strategy,
    load_domain,
    load_problem,
    load_strategy,
)
from .games import AgentStrategy
from .logic import VarTable, format_formula, parse_formula
from .parity import Dpw

EXIT_OK = 0
EXIT_UNREALIZABLE = 1
EXIT_INVALID_ASSUMPTION = 2
EXIT_BAD_INPUT = 3
EXIT_UNSUPPORTED = 4
EXIT_RESOURCE_LIMIT = 5

_STATUS_EXIT = {
    "realizable": EXIT_OK,
    "unrealizable": EXIT_UNREALIZABLE,
    "invalid-assumption": EXIT_INVALID_ASSUMPTION,
}


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_check_assumption(args) -> int:
    p = load_problem(args.problem)
    c = Compiled(p)
    m, ok = c.assumption, c.valid
    print("VALID" if ok else "INVALID")
    print(f"semantics: {p.semantics}")
    print(f"assumption_states: {m.n_states}")
    if isinstance(m, Dpw):
        print(f"assumption_colors: {len(set(m.colors))}")
    return EXIT_OK if ok else EXIT_INVALID_ASSUMPTION


def _cmd_solve(args, expected_kind: str) -> int:
    p = load_problem(args.problem)
    if p.kind != expected_kind:
        wanted = "plan" if p.kind == "planning" else "synthesize"
        raise ParseError(f"{args.problem}: describes a {p.kind} problem; use '{wanted}'")
    verdict = synthesize(p) if expected_kind == "synthesis" else plan(p)
    if args.emit_automata:
        os.makedirs(args.emit_automata, exist_ok=True)
        for name in ("assumption", "goal", "game"):
            path = os.path.join(args.emit_automata, f"{name}.aut")
            _write_text(path, format_automaton(getattr(verdict.automata, name)))
    print(f"status: {verdict.status.value}")
    for key, value in verdict.diagnostics.items():
        print(f"{key}: {value}")
    if verdict.strategy is not None:
        print(f"strategy_memory: {verdict.strategy.n_memory}")
        if args.out:
            _write_text(args.out, format_strategy(verdict.strategy))
            print(f"strategy_file: {args.out}")
    return _STATUS_EXIT[verdict.status.value]


def _cmd_verify(args) -> int:
    p = load_problem(args.problem)
    s = load_strategy(args.strategy)
    if not isinstance(s, AgentStrategy):
        raise ParseError(f"{args.strategy}: verification takes an agent strategy")
    result = verify_strategy(p, s)
    if result.accepted:
        print("ACCEPT")
        return EXIT_OK
    print("REJECT")
    print(f"reason: {result.reason}")
    if result.trace is not None:
        bits = " ".join(p.vt.format_bits(sym, p.vt.n_vars) for sym in result.trace)
        print(f"trace: {bits}".rstrip())
    if result.loops:
        print("loops: true")
    return EXIT_UNREALIZABLE


def _cmd_compile_domain(args) -> int:
    d = load_domain(args.domain)
    validate(d)
    if args.to == "ltlf":
        text = format_formula(env_behavior_ltlf(d)) + "\n"
    elif args.to == "exec":
        text = format_formula(executability_formula(d)) + "\n"
    elif args.to == "fairness":
        text = format_formula(fairness_formula(d)) + "\n"
    elif args.to == "dfa":
        text = format_automaton(minimize(env_behavior_dfa(d)))
    else:
        text = format_automaton(env_behavior_dpw(d))
    _write_text(args.out, text)
    return EXIT_OK


def _cmd_compile_formula(args) -> int:
    vt = VarTable(tuple(args.env.split()), tuple(args.agent.split()))
    f = parse_formula(args.formula, vt)
    _write_text(args.out, format_automaton(compile_formula(vt, f)))
    return EXIT_OK


@functools.cache  # built on the first call, then reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plansynth",
        description="Synthesis and planning under environment assumptions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check-assumption",
        help="decide whether the problem's assumption is environment realizable",
    )
    p.add_argument("problem", help="problem file")
    p.set_defaults(func=_cmd_check_assumption)

    for name, kind in (("synthesize", "synthesis"), ("plan", "planning")):
        p = sub.add_parser(name, help=f"solve a {kind} problem")
        p.add_argument("problem", help="problem file")
        p.add_argument("--out", metavar="FILE", help="write the strategy here when realizable")
        p.add_argument(
            "--emit-automata",
            metavar="DIR",
            help="dump the assumption, goal, and game automata into DIR",
        )
        p.set_defaults(func=lambda args, kind=kind: _cmd_solve(args, kind))

    p = sub.add_parser("verify", help="check an agent strategy against a problem")
    p.add_argument("problem", help="problem file")
    p.add_argument("strategy", help="strategy file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compile-domain", help="export a domain in another representation")
    p.add_argument("domain", help="domain file")
    p.add_argument(
        "--to",
        required=True,
        choices=["ltlf", "dfa", "dpw", "fairness", "exec"],
        help="target representation",
    )
    p.add_argument("--out", metavar="FILE", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_compile_domain)

    p = sub.add_parser("compile-formula", help="compile a formula to an automaton file")
    p.add_argument("formula", help="finite-trace formula text")
    p.add_argument("--env", default="", help="environment variables, space separated")
    p.add_argument("--agent", default="", help="agent variables, space separated")
    p.add_argument("--out", metavar="FILE", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_compile_formula)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedFairSolve as exc:
        print(f"unsupported: {exc}")
        if exc.fairness is not None:
            print(f"fairness: {format_formula(exc.fairness)}")
        return EXIT_UNSUPPORTED
    except UnsupportedFeature as exc:
        print(f"unsupported: {exc}")
        return EXIT_UNSUPPORTED
    except InvalidAssumptionError as exc:
        print(f"invalid-assumption: {exc}")
        return EXIT_INVALID_ASSUMPTION
    except LimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except RecursionError:
        print("resource limit: formula nested too deeply", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entrypoint() -> None:
    sys.exit(main())
