"""End-to-end runs of the command-line front end.

Every test drives ``main(argv)`` in process and checks the printed report
together with the exit code: 0 valid/realizable/accepted, 1 unrealizable
or rejected, 2 invalid assumption, 3 bad input, 4 recognized-but-unsolved,
5 resource limit.
"""

from __future__ import annotations

from collections import Counter

import pytest

from plansynth import cli, compiler, dfa, domain, engine
from plansynth.cli import main
from plansynth.compiler import compile_formula
from plansynth.dfa import Dfa, combine, language_equal, minimize
from plansynth.domain import env_behavior_dfa, fairness_formula
from plansynth.engine import Problem, verify_strategy
from plansynth.formats import (
    format_automaton,
    format_strategy,
    load_domain,
    load_problem,
    load_strategy,
    parse_automaton,
)
from plansynth.games import AgentStrategy, EnvStrategy
from plansynth.logic import VarTable, format_formula, parse_formula
from plansynth.parity import Dpw

from helpers import XY

SYNTH_TEXT = """\
semantics: finite
env: y
agent: x
assumption: y -> x
goal: y -> !x
"""

DOMAIN_TEXT = """\
env: p
agent: m
init: !p
pre: true
trans: (m -> p') & (!m -> (p' -> p) & (p -> p'))
"""

PLAN_TEXT = """\
semantics: finite
domain: d.txt
assumption: true
goal: F p
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def halting_strategy(action):
    """Answer ``action`` in the first round, then halt."""
    rows = {(0, e): (action, 1) for e in (0, 1)}
    rows.update({(1, e): (None, 1) for e in (0, 1)})
    return AgentStrategy(XY, 2, 0, rows)


# --- check-assumption ---------------------------------------------------------


def test_check_assumption_valid(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT)
    code, out, _ = run(capsys, "check-assumption", problem)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "VALID"
    assert "semantics: finite" in lines
    assert any(line.startswith("assumption_states: ") for line in lines)


def test_check_assumption_invalid(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT.replace("assumption: y -> x", "assumption: F x"))
    code, out, _ = run(capsys, "check-assumption", problem)
    assert code == 2
    assert out.splitlines()[0] == "INVALID"


def test_check_assumption_reports_colors_for_infinite_problems(tmp_path, capsys):
    aut = format_automaton(Dpw(XY, ((0, 0, 0, 0),), 0, (0,)))
    write(tmp_path, "a.aut", aut)
    problem = write(
        tmp_path,
        "p.txt",
        "semantics: infinite\nenv: y\nagent: x\nassumption: @a.aut\ngoal: @a.aut\n",
    )
    code, out, _ = run(capsys, "check-assumption", problem)
    assert code == 0
    assert "assumption_colors: 1" in out.splitlines()


# --- synthesize ---------------------------------------------------------------


def test_synthesize_realizable_writes_a_working_strategy(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT)
    out_file = tmp_path / "strategy.txt"
    code, out, _ = run(capsys, "synthesize", problem, "--out", str(out_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status: realizable"
    assert "kind: synthesis" in lines
    assert "semantics: finite" in lines
    assert any(line.startswith("game_states: ") for line in lines)
    assert any(line.startswith("game_iterations: ") for line in lines)
    assert any(line.startswith("strategy_memory: ") for line in lines)
    assert f"strategy_file: {out_file}" in lines

    strategy = load_strategy(str(out_file))
    assert isinstance(strategy, AgentStrategy)
    assert verify_strategy(load_problem(problem), strategy).accepted


def test_synthesize_unrealizable(tmp_path, capsys):
    unreal = SYNTH_TEXT.replace("assumption: y -> x", "assumption: true").replace(
        "goal: y -> !x", "goal: G !y"
    )
    problem = write(tmp_path, "p.txt", unreal)
    code, out, _ = run(capsys, "synthesize", problem)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "status: unrealizable"
    assert not any(line.startswith("strategy_memory") for line in lines)


def test_synthesize_invalid_assumption(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT.replace("assumption: y -> x", "assumption: F x"))
    code, out, _ = run(capsys, "synthesize", problem)
    assert code == 2
    assert out.splitlines()[0] == "status: invalid-assumption"


def test_synthesize_emits_the_game_automata(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT)
    aut_dir = tmp_path / "aut"
    code, _, _ = run(capsys, "synthesize", problem, "--emit-automata", str(aut_dir))
    assert code == 0
    parsed = {
        name: parse_automaton((aut_dir / f"{name}.aut").read_text())
        for name in ("assumption", "goal", "game")
    }
    expected = minimize(
        combine(
            minimize(compile_formula(XY, parse_formula("y -> x", XY))),
            minimize(compile_formula(XY, parse_formula("y -> !x", XY))),
            "implies",
        )
    )
    assert language_equal(parsed["game"], expected)
    assert language_equal(
        combine(parsed["assumption"], parsed["goal"], "implies"), parsed["game"]
    )


def test_solver_commands_check_the_problem_kind(tmp_path, capsys):
    synth = write(tmp_path, "p.txt", SYNTH_TEXT)
    write(tmp_path, "d.txt", DOMAIN_TEXT)
    planning = write(tmp_path, "q.txt", PLAN_TEXT)
    code, _, err = run(capsys, "plan", synth)
    assert code == 3 and "use 'synthesize'" in err
    code, _, err = run(capsys, "synthesize", planning)
    assert code == 3 and "use 'plan'" in err


def test_infinite_synthesis(tmp_path, capsys):
    accept_all = format_automaton(Dpw(XY, ((0, 0, 0, 0),), 0, (0,)))
    write(tmp_path, "a.aut", accept_all)
    problem = write(
        tmp_path,
        "p.txt",
        "semantics: infinite\nenv: y\nagent: x\nassumption: @a.aut\ngoal: @a.aut\n",
    )
    code, out, _ = run(capsys, "synthesize", problem)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status: realizable"
    assert any(line.startswith("game_colors: ") for line in lines)


def test_infinite_problems_without_a_solver_path_are_unsupported(tmp_path, capsys):
    write(tmp_path, "a.aut", format_automaton(Dpw(XY, ((0, 0, 0, 0),), 0, (0,))))
    head = "semantics: infinite\nenv: y\nagent: x\nassumption: @a.aut\n"
    # a formula side has no infinite-trace compiler
    problem = write(tmp_path, "p.txt", head + "goal: F x\n")
    code, out, _ = run(capsys, "synthesize", problem)
    assert code == 4
    assert out.startswith("unsupported: infinite semantics takes parity automata only")
    # verify has no infinite-trace checker
    problem = write(tmp_path, "p.txt", head + "goal: @a.aut\n")
    strategy = write(tmp_path, "s.txt", format_strategy(halting_strategy(1)))
    code, out, _ = run(capsys, "verify", problem, strategy)
    assert code == 4
    assert out == "unsupported: verification is provided for finite semantics only\n"


# --- plan ---------------------------------------------------------------------


def test_plan_realizable_strategy_verifies(tmp_path, capsys):
    write(tmp_path, "d.txt", DOMAIN_TEXT)
    problem = write(tmp_path, "p.txt", PLAN_TEXT)
    out_file = tmp_path / "plan.txt"
    code, out, _ = run(capsys, "plan", problem, "--out", str(out_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status: realizable"
    assert "kind: planning" in lines
    strategy = load_strategy(str(out_file))
    assert verify_strategy(load_problem(problem), strategy).accepted


def test_fair_planning_is_export_only(tmp_path, capsys):
    domain = write(tmp_path, "d.txt", DOMAIN_TEXT)
    problem = write(tmp_path, "p.txt", PLAN_TEXT + "fair: true\n")
    code, out, _ = run(capsys, "plan", problem)
    assert code == 4
    lines = out.splitlines()
    assert lines[0].startswith("unsupported: ")
    fairness = format_formula(fairness_formula(load_domain(domain)))
    assert f"fairness: {fairness}" in lines

    code, out, _ = run(capsys, "check-assumption", problem)
    assert code == 4
    assert out.splitlines()[0].startswith("unsupported: ")


# --- verify -------------------------------------------------------------------


def test_verify_accepts_under_the_assumption(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT)
    strategy = write(tmp_path, "s.txt", format_strategy(halting_strategy(1)))
    code, out, _ = run(capsys, "verify", problem, strategy)
    assert code == 0
    assert out.splitlines() == ["ACCEPT"]


def test_verify_rejects_with_a_witness_trace(tmp_path, capsys):
    plain = SYNTH_TEXT.replace("assumption: y -> x", "assumption: true").replace(
        "goal: y -> !x", "goal: (y -> x) -> (y -> !x)"
    )
    problem = write(tmp_path, "p.txt", plain)
    strategy = write(tmp_path, "s.txt", format_strategy(halting_strategy(1)))
    code, out, _ = run(capsys, "verify", problem, strategy)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "REJECT"
    assert "reason: halts with the goal unsatisfied" in lines
    assert "trace: 11" in lines
    assert "loops: true" not in lines


def test_verify_rejects_endless_play(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT)
    never_halts = AgentStrategy(XY, 1, 0, {(0, e): (1, 0) for e in (0, 1)})
    strategy = write(tmp_path, "s.txt", format_strategy(never_halts))
    code, out, _ = run(capsys, "verify", problem, strategy)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "REJECT"
    assert "reason: can be kept playing forever" in lines
    assert "loops: true" in lines


def test_verify_rejects_an_immediate_stop(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT)
    stopper = AgentStrategy(XY, 1, 0, {(0, e): (None, 0) for e in (0, 1)})
    strategy = write(tmp_path, "s.txt", format_strategy(stopper))
    code, out, _ = run(capsys, "verify", problem, strategy)
    assert code == 1
    assert "reason: stops before completing a round" in out.splitlines()


def test_verify_wants_an_agent_strategy(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT)
    env = EnvStrategy(XY, 1, 0, 0, {(0, 0): (0, 0), (0, 1): (0, 0)})
    strategy = write(tmp_path, "s.txt", format_strategy(env))
    code, _, err = run(capsys, "verify", problem, strategy)
    assert code == 3
    assert "verification takes an agent strategy" in err


def test_verify_reports_an_invalid_assumption(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT.replace("assumption: y -> x", "assumption: F x"))
    strategy = write(tmp_path, "s.txt", format_strategy(halting_strategy(1)))
    code, out, _ = run(capsys, "verify", problem, strategy)
    assert code == 2
    assert out.startswith("invalid-assumption: ")


# --- compile-domain -----------------------------------------------------------


def test_compile_domain_targets_parse_back(tmp_path, capsys):
    domain_file = write(tmp_path, "d.txt", DOMAIN_TEXT)
    d = load_domain(domain_file)

    for target in ("ltlf", "exec", "fairness"):
        out_file = tmp_path / f"{target}.txt"
        code, _, _ = run(capsys, "compile-domain", domain_file, "--to", target, "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert format_formula(parse_formula(text.strip(), d.vt)) == text.strip()

    code, _, _ = run(capsys, "compile-domain", domain_file, "--to", "dfa", "--out", str(tmp_path / "d.aut"))
    assert code == 0
    dfa = parse_automaton((tmp_path / "d.aut").read_text())
    assert dfa == minimize(env_behavior_dfa(d))

    code, _, _ = run(capsys, "compile-domain", domain_file, "--to", "dpw", "--out", str(tmp_path / "d.pwa"))
    assert code == 0
    assert isinstance(parse_automaton((tmp_path / "d.pwa").read_text()), Dpw)


def test_compile_domain_output_is_byte_stable(tmp_path, capsys):
    domain_file = write(tmp_path, "d.txt", DOMAIN_TEXT)
    for target in ("ltlf", "dfa", "dpw", "fairness", "exec"):
        first, second = tmp_path / "one.txt", tmp_path / "two.txt"
        run(capsys, "compile-domain", domain_file, "--to", target, "--out", str(first))
        run(capsys, "compile-domain", domain_file, "--to", target, "--out", str(second))
        assert first.read_bytes() == second.read_bytes()


def test_compile_domain_validates_first(tmp_path, capsys):
    domain_file = write(tmp_path, "d.txt", DOMAIN_TEXT.replace("init: !p", "init: p & !p"))
    code, _, err = run(capsys, "compile-domain", domain_file, "--to", "dfa")
    assert code == 3
    assert err.startswith("error: ")


# --- compile-formula ----------------------------------------------------------


def test_compile_formula_round_trips(tmp_path, capsys):
    out_file = tmp_path / "f.aut"
    code, _, _ = run(
        capsys, "compile-formula", "G (y -> F x)", "--env", "y", "--agent", "x",
        "--out", str(out_file),
    )
    assert code == 0
    parsed = parse_automaton(out_file.read_text())
    assert language_equal(parsed, compile_formula(XY, parse_formula("G (y -> F x)", XY)))


def test_compile_formula_prints_to_stdout(capsys):
    code, out, _ = run(capsys, "compile-formula", "F x", "--agent", "x")
    assert code == 0
    assert parse_automaton(out).n_states == 2


# --- error handling -----------------------------------------------------------


def test_malformed_problem_names_file_and_line(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", "semantics: maybe\nenv: y\nagent: x\n")
    code, _, err = run(capsys, "synthesize", problem)
    assert code == 3
    assert err.startswith("error: ")
    assert "p.txt:1:" in err and "finite" in err


@pytest.mark.parametrize("agent, fragment", [("X", "reserved: 'X'"), ("p", "duplicate")])
def test_bad_variable_names_are_line_numbered_bad_input(tmp_path, capsys, agent, fragment):
    # in a problem's own blocks, in a domain's and in an automaton's; the
    # error names the line of the environment block
    sides = "assumption: true\ngoal: true\n"
    problem = write(tmp_path, "p.txt", f"semantics: finite\nenv: p\nagent: {agent}\n" + sides)
    code, _, err = run(capsys, "synthesize", problem)
    assert code == 3 and err.startswith("error: ") and "p.txt:2: " in err and fragment in err

    write(tmp_path, "d.txt", DOMAIN_TEXT.replace("agent: m", f"agent: {agent}"))
    code, _, err = run(capsys, "plan", write(tmp_path, "p.txt", PLAN_TEXT))
    assert code == 3 and "d.txt:1: " in err and fragment in err

    aut = format_automaton(Dfa(VarTable(("p",), ("m",)), [[0] * 4], 0, {0}))
    write(tmp_path, "a.aut", aut.replace("vars: p | m", f"vars: p | {agent}"))
    text = "semantics: finite\nenv: p\nagent: m\nassumption: @a.aut\ngoal: true\n"
    code, _, err = run(capsys, "synthesize", write(tmp_path, "p.txt", text))
    assert code == 3 and "a.aut:1: " in err and fragment in err


def test_empty_domain_path_is_bad_input(tmp_path, capsys):
    problem = write(tmp_path, "p.txt", PLAN_TEXT.replace("domain: d.txt", "domain:"))
    code, _, err = run(capsys, "plan", problem)
    assert code == 3
    assert "p.txt:2: domain path is empty" in err


def test_missing_file_is_bad_input(tmp_path, capsys):
    code, _, err = run(capsys, "synthesize", str(tmp_path / "nope.txt"))
    assert code == 3
    assert err.startswith("error: ")


def test_resource_limit_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    # the goal's conjuncts have 6 and 7 states and their product 10, past
    # the guard; the same problem under a guard of 13 is solved
    problem = write(tmp_path, "p.txt", SYNTH_TEXT.replace("goal: y -> !x", "goal: X X X x & X X X X y"))
    monkeypatch.setattr(dfa, "STATE_LIMIT", 8)
    code, out, err = run(capsys, "synthesize", problem)
    assert code == 5
    assert out == "" and err.startswith("resource limit: ")
    monkeypatch.setattr(dfa, "STATE_LIMIT", 13)
    code, _, _ = run(capsys, "synthesize", problem)
    assert code in (0, 1)


def test_the_game_product_is_guarded(tmp_path, capsys, monkeypatch):
    # under a guard of 12 the goal compiles, its largest product having 10
    # states, but the product of the assumption with the goal needs 13
    problem = write(tmp_path, "p.txt", SYNTH_TEXT.replace("goal: y -> !x", "goal: X X X x & X X X X y"))
    monkeypatch.setattr(dfa, "STATE_LIMIT", 12)
    p = load_problem(problem)
    compile_formula(p.vt, p.goal)
    code, out, err = run(capsys, "synthesize", problem)
    assert code == 5
    assert out == "" and err == "resource limit: 13 states; explicit constructions stop at 12\n"


def test_verify_is_guarded(tmp_path, capsys, monkeypatch):
    # a 1000-round march: the verifier's search meets one node per round
    problem = write(tmp_path, "p.txt", SYNTH_TEXT.replace("assumption: y -> x", "assumption: true")
                    .replace("goal: y -> !x", "goal: F x"))
    march = AgentStrategy(XY, 1001, 0, {(m, e): (1, m + 1) for m in range(1000) for e in (0, 1)})
    strategy = write(tmp_path, "s.txt", format_strategy(march))
    assert run(capsys, "verify", problem, strategy)[:2] == (0, "ACCEPT\n")
    monkeypatch.setattr(dfa, "STATE_LIMIT", 100)
    code, out, err = run(capsys, "verify", problem, strategy)
    assert code == 5
    assert out == "" and err == "resource limit: 101 states; explicit constructions stop at 100\n"


def test_too_wide_vocabularies_are_refused_before_the_subset_construction(
    tmp_path, capsys, monkeypatch
):
    env = " ".join(f"e{i}" for i in range(9))
    agent = " ".join(f"a{i}" for i in range(8))
    problem = write(
        tmp_path,
        "p.txt",
        f"semantics: finite\nenv: {env}\nagent: {agent}\nassumption: true\ngoal: F a0\n",
    )

    def refuse(nfa):
        raise AssertionError("determinize called on a 17-variable vocabulary")

    monkeypatch.setattr(compiler, "determinize", refuse)
    code, out, err = run(capsys, "synthesize", problem)
    assert code == 5
    assert out == "" and err == "resource limit: 17 variables; explicit alphabets stop at 16\n"


def test_deep_nesting_gets_a_verdict(tmp_path, capsys):
    goal = "X " * 1500 + "x"
    problem = write(tmp_path, "p.txt", SYNTH_TEXT.replace("goal: y -> !x", f"goal: {goal}"))
    code, out, err = run(capsys, "synthesize", problem)
    assert code == 0 and err == ""
    assert out.startswith("status: realizable\n")


def test_wide_goals_and_domains_get_a_verdict(tmp_path, capsys):
    goal = " | ".join(["y & x", "!y & !x"] * 2500)
    problem = write(tmp_path, "p.txt", SYNTH_TEXT.replace("goal: y -> !x", f"goal: {goal}"))
    code, out, err = run(capsys, "synthesize", problem)
    assert code == 0 and err == ""
    assert out.startswith("status: realizable\n")

    # every clause holds when both fluents become true
    clauses = ["(a0 & p0 -> p1')", "(p1 -> p0' | p1')", "(!a0 -> !p0' | p1')", "(p0 & !p1 -> p1')"]
    trans = " & ".join(clauses * 500)
    text = f"env: p0 p1\nagent: a0\ninit: true\npre: true\ntrans: {trans}\n"
    domain = write(tmp_path, "d.txt", text)
    code, out, err = run(capsys, "compile-domain", domain, "--to", "dfa")
    assert code == 0 and err == ""
    assert out.startswith("vars: p0 p1 | a0\n")


# --- one compile per command --------------------------------------------------


def count_calls(monkeypatch, counts, module, name):
    """Count the calls made to ``module.name`` into ``counts[name]``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.fixture
def pipeline_calls(monkeypatch):
    counts = Counter()
    for name in ("compile_formula", "env_behavior_dfa"):
        count_calls(monkeypatch, counts, engine, name)
    count_calls(monkeypatch, counts, domain, "validate")
    return counts


def test_check_assumption_compiles_once(tmp_path, capsys, pipeline_calls):
    problem = write(tmp_path, "p.txt", SYNTH_TEXT)
    assert run(capsys, "check-assumption", problem)[0] == 0
    assert pipeline_calls == {"compile_formula": 1}

    pipeline_calls.clear()
    write(tmp_path, "d.txt", DOMAIN_TEXT)
    planning = write(tmp_path, "q.txt", PLAN_TEXT)
    assert run(capsys, "check-assumption", planning)[0] == 0
    assert pipeline_calls == {"compile_formula": 1, "env_behavior_dfa": 1, "validate": 1}


@pytest.mark.parametrize("command", ["synthesize", "plan"])
def test_emitted_automata_are_the_solved_ones(
    tmp_path, capsys, monkeypatch, command, pipeline_calls
):
    write(tmp_path, "d.txt", DOMAIN_TEXT)
    problem = write(tmp_path, "p.txt", SYNTH_TEXT if command == "synthesize" else PLAN_TEXT)
    verdicts = []
    solver = getattr(cli, command)

    def keep(p):
        verdicts.append(solver(p))
        return verdicts[-1]

    monkeypatch.setattr(cli, command, keep)
    aut_dir = tmp_path / "aut"
    code, _, _ = run(capsys, command, problem, "--emit-automata", str(aut_dir))
    assert code == 0
    if command == "synthesize":
        assert pipeline_calls == {"compile_formula": 2}
    else:
        assert pipeline_calls == {"compile_formula": 2, "env_behavior_dfa": 1, "validate": 1}
    [verdict] = verdicts
    for name in ("assumption", "goal", "game"):
        text = (aut_dir / f"{name}.aut").read_text()
        assert text == format_automaton(getattr(verdict.automata, name))


def test_fair_planning_emits_no_automata(tmp_path, capsys):
    write(tmp_path, "d.txt", DOMAIN_TEXT)
    problem = write(tmp_path, "p.txt", PLAN_TEXT + "fair: true\n")
    aut_dir = tmp_path / "aut"
    code, out, _ = run(capsys, "plan", problem, "--emit-automata", str(aut_dir))
    assert code == 4
    assert out.startswith("unsupported: ")
    assert not aut_dir.exists()
