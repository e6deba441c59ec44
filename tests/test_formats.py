"""The four interchange file shapes: round trips and rejection messages."""

import random
import tracemalloc

import pytest

from plansynth import dfa
from plansynth.compiler import compile_formula
from plansynth.dfa import Dfa
from plansynth.engine import Status, synthesize
from plansynth.errors import LimitExceeded, ParseError
from plansynth.formats import (
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
from plansynth.games import AgentStrategy, EnvStrategy, env_realizable
from plansynth.logic import VarTable, parse_formula
from plansynth.parity import Dpw

from helpers import XY, random_dfa, random_dpw


def rejects(parser, text, fragment, source="in.txt"):
    with pytest.raises(ParseError) as err:
        parser(text, source)
    assert fragment in str(err.value), str(err.value)
    assert source in str(err.value)


# --- automata ------------------------------------------------------------------


def test_automaton_round_trip():
    rng = random.Random(81)
    for _ in range(30):
        m = random_dfa(rng, XY, 5)
        assert parse_automaton(format_automaton(m)) == m
        w = random_dpw(rng, XY, 5)
        assert parse_automaton(format_automaton(w)) == w


def test_automaton_byte_stability():
    rng = random.Random(82)
    m = random_dfa(rng, XY, 5)
    text = format_automaton(m)
    assert format_automaton(parse_automaton(text)) == text


def test_automaton_text_shape():
    m = compile_formula(XY, parse_formula("F x", XY))
    text = format_automaton(m)
    lines = text.splitlines()
    assert lines[0] == "vars: y | x"
    assert lines[1] == "states: 2"
    assert lines[2] == "initial: 0"
    assert lines[3].startswith("finals:")
    # one record per state and symbol, bit order environment first
    assert len(lines) == 4 + m.n_states * XY.n_symbols
    assert lines[4].split()[1] == "00"


def test_automaton_comments_and_blanks_ignored():
    m = random_dfa(random.Random(83), XY, 3)
    text = format_automaton(m)
    noisy = "# header comment\n\n" + text.replace("\n", "  # trailing\n", 3)
    assert parse_automaton(noisy) == m


GOOD_AUT = """\
vars: y | x
states: 3
initial: 0
finals: 1 2
0 00 1
0 10 2
0 01 0
0 11 1
1 00 1
1 10 1
1 01 2
1 11 0
2 00 2
2 10 2
2 01 2
2 11 2
"""


def test_automaton_rejections():
    good = GOOD_AUT
    assert parse_automaton(good).n_states == 3
    rejects(parse_automaton, good.replace("vars:", "vars"), "missing header 'vars'")
    rejects(parse_automaton, "vars: y x\n" + good.split("\n", 1)[1], "separated by '|'")
    rejects(parse_automaton, good + "vars: y | x\n", "duplicate header 'vars'")
    rejects(parse_automaton, good + "shape: round\n", "unknown header 'shape'")
    rejects(parse_automaton, good.replace("states: 3", "states: zero"), "must be an integer")
    rejects(parse_automaton, good.replace("states: 3", "states: 0"), "at least one state")
    rejects(parse_automaton, good.replace("initial: 0", "initial: 7"), "out of range")
    rejects(parse_automaton, good.replace("finals: 1 2", "finals: 1 5"), "out of range")
    rejects(parse_automaton, good + "0 00\n", "'src <bits> dst'")
    rejects(parse_automaton, good.replace(" 00 ", " 0x "), "bits")
    rejects(parse_automaton, good + "0 00 1\n", "duplicate transition")
    dropped = "\n".join(good.splitlines()[:-1]) + "\n"
    rejects(parse_automaton, dropped, "missing transition")


def test_automaton_too_wide_for_an_explicit_alphabet_is_refused_first():
    wide = " ".join(f"e{i}" for i in range(20)) + " | " + " ".join(f"a{i}" for i in range(20))
    with pytest.raises(LimitExceeded, match="^40 variables; explicit alphabets stop at 16$"):
        parse_automaton(f"vars: {wide}\nstates: 1\ninitial: 0\nfinals:\n")


def test_automaton_declaring_more_transitions_than_it_writes_costs_its_length():
    # 3000 states over 16 variables declare 3000 * 2^16 transitions, none given
    wide = " ".join(f"e{i}" for i in range(8)) + " | " + " ".join(f"a{i}" for i in range(8))
    text = f"vars: {wide}\nstates: 3000\ninitial: 0\nfinals:\n"
    tracemalloc.start()
    try:
        rejects(parse_automaton, text, "missing transition from 0 on " + "0" * 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the first missing transition is found past the ones written
    rows = "".join(f"0 {format(sym, '016b')[::-1]} 0\n" for sym in range(5))
    rejects(parse_automaton, text + rows, "missing transition from 0 on 1010000000000000")


def test_automaton_acceptance_headers_are_exclusive():
    both = GOOD_AUT.replace("initial: 0", "initial: 0\ncolors: 0 0 0")
    rejects(parse_automaton, both, "exactly one of")
    neither = "\n".join(
        line for line in GOOD_AUT.splitlines() if not line.startswith("finals:")
    ) + "\n"
    rejects(parse_automaton, neither, "exactly one of")


def test_parity_automaton_color_count():
    w = random_dpw(random.Random(86), XY, 3)
    text = format_automaton(w)
    colors_line = next(line for line in text.splitlines() if line.startswith("colors:"))
    rejects(parse_automaton, text.replace(colors_line, colors_line + " 1"), "colors")


# --- strategies ----------------------------------------------------------------


def test_agent_strategy_round_trip():
    table = {(0, 0): (1, 1), (0, 1): (None, 0), (1, 0): (0, 1)}
    s = AgentStrategy(XY, 2, 0, table)
    text = format_strategy(s)
    back = parse_strategy(text)
    assert back == s
    assert format_strategy(back) == text
    assert "halt" in text


def test_env_strategy_round_trip():
    m = compile_formula(XY, parse_formula("y -> x", XY))
    ok, _, s = env_realizable(m)
    assert ok
    text = format_strategy(s)
    back = parse_strategy(text)
    assert back == s
    assert format_strategy(back) == text
    assert "output" in text.splitlines()[3]


def test_strategy_zero_width_input_block():
    solo = VarTable((), ("x",))
    s = AgentStrategy(solo, 1, 0, {(0, 0): (1, 0)})
    text = format_strategy(s)
    assert "0 - -> 1 0" in text
    assert parse_strategy(text) == s


def test_strategy_rejections():
    good = format_strategy(AgentStrategy(XY, 2, 0, {(0, 0): (1, 1), (0, 1): (None, 0)}))
    rejects(parse_strategy, good.replace("type: agent", "type: mixed"), "'agent' or 'env'")
    rejects(parse_strategy, good.replace("memory: 2", "memory: 0"), "at least one memory")
    rejects(parse_strategy, good.replace("initial: 0", "initial: 5"), "out of range")
    rejects(parse_strategy, good.replace("initial: 0", "initial: 0 output 1"),
            "'initial: m'")
    rejects(parse_strategy, good + "0 0 -> 1\n", "rows are written")
    rejects(parse_strategy, good + "0 0 -> 1 1\n", "duplicate row")
    rejects(parse_strategy, good.replace("0 1 -> halt 0", "0 1 -> stop 0"), "bits")
    rejects(parse_strategy, good.replace("0 1 -> halt 0", "3 1 -> halt 0"), "out of range")


def test_env_strategy_rejections():
    table = {(0, 0): (0, 0), (0, 1): (1, 0)}
    good = format_strategy(EnvStrategy(XY, 1, 0, 0, table))
    rejects(parse_strategy, good.replace("initial: 0 output 0", "initial: 0"),
            "'initial: m output <bits>'")
    rejects(parse_strategy, good.replace("0 1 -> 1 0", "0 1 -> halt 0"), "cannot halt")
    rejects(parse_strategy, good.replace("0 1 -> 1 0\n", ""), "lacks a row for memory 0")


def test_env_strategy_totality_is_over_reachable_memories_only():
    # memory 2 is never entered, so its missing rows are not an error
    text = "\n".join([
        "vars: y | x",
        "type: env",
        "memory: 3",
        "initial: 0 output 0",
        "0 0 -> 0 1",
        "0 1 -> 1 1",
        "1 0 -> 0 0",
        "1 1 -> 0 0",
    ]) + "\n"
    s = parse_strategy(text)
    assert isinstance(s, EnvStrategy)
    assert (2, 0) not in s.table

    unreachable_gap = text.replace("0 1 -> 1 1", "0 1 -> 1 2")
    rejects(parse_strategy, unreachable_gap, "lacks a row for memory 2")


def test_env_strategy_memories_stop_at_the_one_state_guard(monkeypatch):
    # every action advances the memory around a cycle of n values
    n = 12
    table = {(m, a): (0, (m + 1) % n) for m in range(n) for a in range(XY.n_actions)}
    text = format_strategy(EnvStrategy(XY, n, 0, 0, table))
    monkeypatch.setattr(dfa, "STATE_LIMIT", n - 1)
    with pytest.raises(LimitExceeded, match=f"^{n} states; explicit constructions stop at {n - 1}$"):
        parse_strategy(text)
    monkeypatch.setattr(dfa, "STATE_LIMIT", n)
    assert parse_strategy(text).table == table


# --- domains -------------------------------------------------------------------


DOMAIN_TEXT = """\
env: p
agent: m
init: !p
pre: true
trans: (m -> p') & (!m -> (p' -> p) & (p -> p'))
"""


def test_domain_round_trip():
    d = parse_domain(DOMAIN_TEXT)
    assert d.vt == VarTable(("p",), ("m",))
    assert format_domain(d) == DOMAIN_TEXT.replace("(m -> p')", "(m -> p')")
    assert parse_domain(format_domain(d)) == d


def test_domain_rejections():
    rejects(parse_domain, DOMAIN_TEXT + "0 0 1\n", "only 'key: value'")
    rejects(parse_domain, DOMAIN_TEXT.replace("env: p\n", ""), "missing header 'env'")
    rejects(parse_domain, DOMAIN_TEXT.replace("init: !p", "init: !p &"),
            "unexpected end of input")
    rejects(parse_domain, DOMAIN_TEXT.replace("init: !p", "init: m"), "init uses")
    rejects(parse_domain, DOMAIN_TEXT.replace("pre: true", "pre: p'"), "primed")
    no_agent = "env: p\nagent:\ninit: !p\npre: true\ntrans: p'\n"
    rejects(parse_domain, no_agent, "at least one fluent and one action")
    rejects(parse_domain, DOMAIN_TEXT + "unknown: 3\n", "unknown header")


# --- problems ------------------------------------------------------------------


PROBLEM_TEXT = """\
semantics: finite
env: y
agent: x
assumption: y -> x
goal: y -> !x
"""


def test_problem_parsing():
    p = parse_problem(PROBLEM_TEXT)
    assert p.kind == "synthesis"
    assert p.semantics == "finite"
    assert p.vt == XY
    assert p.assumption == parse_formula("y -> x", XY)
    assert not p.fair


def test_problem_with_automaton_sides(tmp_path):
    m = compile_formula(XY, parse_formula("y -> x", XY))
    (tmp_path / "assumption.aut").write_text(format_automaton(m), encoding="utf-8")
    (tmp_path / "job.problem").write_text(
        PROBLEM_TEXT.replace("assumption: y -> x", "assumption: @assumption.aut"),
        encoding="utf-8",
    )
    p = load_problem(str(tmp_path / "job.problem"))
    assert isinstance(p.assumption, Dfa)
    assert synthesize(p).status == Status.REALIZABLE


def test_problem_with_domain(tmp_path):
    (tmp_path / "world.dom").write_text(DOMAIN_TEXT, encoding="utf-8")
    (tmp_path / "job.problem").write_text(
        "semantics: finite\ndomain: world.dom\nassumption: true\ngoal: F p\n",
        encoding="utf-8",
    )
    p = load_problem(str(tmp_path / "job.problem"))
    assert p.kind == "planning"
    assert p.domain is not None
    assert p.vt == VarTable(("p",), ("m",))


def test_problem_domain_variable_agreement(tmp_path):
    (tmp_path / "world.dom").write_text(DOMAIN_TEXT, encoding="utf-8")
    consistent = (
        "semantics: finite\ndomain: world.dom\nenv: p\nagent: m\n"
        "assumption: true\ngoal: F p\n"
    )
    (tmp_path / "ok.problem").write_text(consistent, encoding="utf-8")
    assert load_problem(str(tmp_path / "ok.problem")).kind == "planning"

    (tmp_path / "bad.problem").write_text(
        consistent.replace("env: p", "env: q"), encoding="utf-8"
    )
    with pytest.raises(ParseError) as err:
        load_problem(str(tmp_path / "bad.problem"))
    assert "disagree with the domain" in str(err.value)


def test_problem_rejections(tmp_path):
    rejects(parse_problem, PROBLEM_TEXT.replace("finite", "bounded"),
            "'finite' or 'infinite'")
    rejects(parse_problem, PROBLEM_TEXT.replace("env: y\n", ""),
            "declare 'env:' and 'agent:'")
    rejects(parse_problem, PROBLEM_TEXT + "records are not allowed\n",
            "only 'key: value'")
    rejects(parse_problem, PROBLEM_TEXT + "fair: maybe\n", "'true' or 'false'")
    rejects(parse_problem, PROBLEM_TEXT + "budget: 3\n", "unknown header")
    rejects(parse_problem, PROBLEM_TEXT.replace("goal: y -> !x", "goal: z"),
            "undeclared atom")
    # fairness needs a domain
    rejects(parse_problem, PROBLEM_TEXT + "fair: true\n", "planning problems only")

    other = compile_formula(VarTable(("a",), ("b",)), parse_formula("a"))
    (tmp_path / "wrong.aut").write_text(format_automaton(other), encoding="utf-8")
    (tmp_path / "job.problem").write_text(
        PROBLEM_TEXT.replace("goal: y -> !x", "goal: @wrong.aut"), encoding="utf-8"
    )
    with pytest.raises(ParseError) as err:
        load_problem(str(tmp_path / "job.problem"))
    assert "different variables" in str(err.value)


def test_problem_fair_parses(tmp_path):
    (tmp_path / "world.dom").write_text(DOMAIN_TEXT, encoding="utf-8")
    (tmp_path / "job.problem").write_text(
        "semantics: finite\ndomain: world.dom\nassumption: true\ngoal: F p\nfair: true\n",
        encoding="utf-8",
    )
    assert load_problem(str(tmp_path / "job.problem")).fair


def test_file_loaders_name_the_file_in_errors(tmp_path):
    target = tmp_path / "broken.aut"
    target.write_text("vars: y | x\nstates: one\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_automaton(str(target))
    assert "broken.aut" in str(err.value)
    with pytest.raises(FileNotFoundError):
        load_strategy(str(tmp_path / "absent.strategy"))
