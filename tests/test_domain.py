"""Compact domains: validation, behavior artifacts, round-robin scheduling."""

import random

import pytest

from plansynth.compiler import compile_formula
from plansynth.dfa import accepts, dfa_true, language_equal, minimize
from plansynth.domain import (
    Domain,
    RoundRobinEnv,
    env_behavior_dfa,
    env_behavior_dpw,
    env_behavior_ltlf,
    executability_formula,
    fairness_formula,
    round_robin_env,
    universal_domain,
    validate,
)
from plansynth.errors import (
    DanglingDeltaError,
    EmptyInitError,
    NoAvailableActionError,
    NonSerialPreError,
    VocabularyMismatch,
)
from plansynth.logic import (
    Always,
    And,
    Atom,
    Implies,
    VarTable,
    atom_names,
    node_count,
    parse_formula,
)
from plansynth.parity import accepts_lasso

from helpers import all_traces, domain_consistent, eval_finite, random_domain, random_lasso

PM = VarTable(("p",), ("m",))


def make(init: str, pre: str, trans: str, vt: VarTable = PM) -> Domain:
    return Domain(
        vt,
        parse_formula(init, vt),
        parse_formula(pre, vt),
        parse_formula(trans, vt, allow_primed=True),
    )


# --- construction and validation ---------------------------------------------


def test_domain_requires_both_variable_blocks():
    with pytest.raises(ValueError):
        universal_domain((), ("m",))
    with pytest.raises(ValueError):
        universal_domain(("p",), ())


def test_domain_rejects_temporal_or_stray_parts():
    with pytest.raises(ValueError):
        make("G p", "true", "true")
    with pytest.raises(VocabularyMismatch):
        make("m", "true", "true")  # init is over fluents only
    with pytest.raises(VocabularyMismatch):
        # primed atoms belong to trans alone
        Domain(PM, parse_formula("p"), Atom("p'"), parse_formula("true"))
    with pytest.raises(VocabularyMismatch):
        Domain(PM, parse_formula("p"), parse_formula("q | true"), parse_formula("true"))


def test_validate_error_kinds():
    with pytest.raises(EmptyInitError):
        validate(make("false", "true", "true"))
    with pytest.raises(NoAvailableActionError) as err:
        validate(make("p", "p & m", "true"))
    assert "state 0" in str(err.value)
    with pytest.raises(DanglingDeltaError) as err:
        validate(make("p", "m", "p'"))
    assert "0|0" in str(err.value)
    with pytest.raises(NonSerialPreError) as err:
        validate(make("p", "true", "p' & !p'"))
    assert "0|0" in str(err.value)


def test_validate_empty_init_wins_over_other_defects():
    with pytest.raises(EmptyInitError):
        validate(make("false", "p & m", "false"))


def test_validate_enumerates_the_relations():
    d = make("!p", "m | !p", "(m | !p) & (m -> !p')")
    x = validate(d)
    assert x.init_states == frozenset({0})
    assert x.pre_pairs == frozenset({(0, 0), (0, 1), (1, 1)})
    assert x.delta == {(0, 0): (0, 1), (0, 1): (0,), (1, 1): (0,)}
    assert x.available(0) == (0, 1)
    assert x.available(1) == (1,)
    assert x.successors(1, 1) == (0,)
    assert x.successors(1, 0) == ()


def test_validate_round_trips_random_domains():
    rng = random.Random(61)
    for _ in range(40):
        d, init_states, pre_pairs, delta = random_domain(rng, 2, 2)
        x = validate(d)
        assert x.init_states == init_states
        assert x.pre_pairs == pre_pairs
        assert x.delta == delta


def test_domain_size():
    d = make("p", "true", "m -> p'")
    assert d.size == 2 + 1 + 1 + node_count(d.delta)


# --- the environment contract in three forms -----------------------------------


def test_behavior_dfa_shape():
    rng = random.Random(62)
    for n_env, n_agent in ((1, 1), (1, 2), (2, 1), (2, 2)):
        d, *_ = random_domain(rng, n_env, n_agent)
        m = env_behavior_dfa(d)
        assert m.n_states == 3 + (1 << n_env) * (1 << n_agent)
        assert m.finals == frozenset(range(m.n_states)) - {2}


def test_behavior_dfa_matches_reference_walk():
    rng = random.Random(63)
    traces = list(all_traces(PM, 4))
    for _ in range(25):
        d, init_states, pre_pairs, delta = random_domain(rng, 1, 1)
        m = env_behavior_dfa(d)
        for t in traces:
            assert accepts(m, t) == domain_consistent(PM, init_states, pre_pairs, delta, t)


def test_behavior_formula_matches_dfa():
    rng = random.Random(64)
    for n_env, n_agent in ((1, 1), (1, 1), (2, 1), (1, 2), (2, 2)):
        d, *_ = random_domain(rng, n_env, n_agent)
        direct = env_behavior_dfa(d)
        compiled = compile_formula(d.vt, env_behavior_ltlf(d))
        assert language_equal(direct, compiled)


def test_behavior_formula_stays_small():
    rng = random.Random(65)
    for _ in range(40):
        n_env = rng.randint(1, 3)
        n_agent = rng.randint(1, 3)
        d, *_ = random_domain(rng, n_env, n_agent)
        assert node_count(env_behavior_ltlf(d)) <= 5 * d.size


def test_behavior_dpw_accepts_ever_consistent_lassos():
    rng = random.Random(66)
    for _ in range(25):
        d, init_states, pre_pairs, delta = random_domain(rng, 1, 1)
        w = env_behavior_dpw(d)
        assert set(w.colors) <= {0, 1}
        assert w.colors[2] == 1
        for _ in range(8):
            prefix, loop = random_lasso(rng, PM)
            # two loop traversals exercise every adjacent symbol pair, and
            # consistency of a step depends on its two symbols alone
            expected = domain_consistent(
                PM, init_states, pre_pairs, delta, list(prefix) + 2 * list(loop)
            )
            assert accepts_lasso(w, prefix, loop) == expected


# --- goal-side artifacts ---------------------------------------------------------


def test_executability_is_invariant_pre():
    d = make("p", "m | p", "true")
    assert executability_formula(d) == Always(d.pre)


def conjuncts_of(f):
    parts = []
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, And):
            todo.extend((g.left, g.right))
        else:
            parts.append(g)
    return parts


def test_fairness_shape():
    d = make("!p", "true", "m -> !p'")
    x = validate(d)
    f = fairness_formula(d)
    tops = conjuncts_of(f)
    assert len(tops) == len(x.delta)
    assert all(isinstance(g, Implies) for g in tops)
    # one recurrence obligation per effect of each pair
    total_effects = sum(len(succ) for succ in x.delta.values())
    assert sum(len(conjuncts_of(g.right)) for g in tops) == total_effects


def test_fairness_mentions_only_unprimed_variables():
    rng = random.Random(67)
    d, *_ = random_domain(rng, 2, 1)
    assert atom_names(fairness_formula(d)) <= set(d.vt.all_vars)


# --- the round-robin scheduler ----------------------------------------------------


def test_round_robin_cycles_effects_in_order():
    # action 1 from state 0 has the two effects {0, 1}; action 0 keeps state
    d = make("!p", "true", "(m -> true) & (!m -> (p' -> p) & (p -> p'))")
    env = round_robin_env(d)
    assert env.first_output == 0
    out, mem = env.step(env.initial, 1)
    assert out == 0  # first effect in bitvector order
    out, mem = env.step(mem, 1)
    assert out == 1  # second effect
    out, mem = env.step(mem, 1)
    # a different pair is pending now, and its counter starts fresh
    assert out == 0


def test_round_robin_revisits_share_counters():
    d = make("!p", "true", "!m -> (p' -> p) & (p -> p')")
    env = RoundRobinEnv(d)
    mem = env.initial
    outs = []
    for _ in range(4):
        out, mem = env.step(mem, 1)
        outs.append(out)
    # the pair (state 0, action 1) answers at rounds 1, 2 and 4; its counter
    # carries across the visit to state 1 in between
    assert outs == [0, 1, 0, 0]


def test_round_robin_unavailable_action_resets():
    d = make("!p", "!m", "!m & !p'")
    env = RoundRobinEnv(d)
    out, mem = env.step(env.initial, 1)
    assert out == 0
    assert mem[0] == 0


def test_round_robin_traces_satisfy_the_contract():
    rng = random.Random(68)
    for _ in range(20):
        d, init_states, pre_pairs, delta = random_domain(rng, 2, 1)
        vt = d.vt
        m = env_behavior_dfa(d)
        env = round_robin_env(d)
        x = validate(d)
        mem = env.initial
        out = env.first_output
        trace = []
        for _ in range(12):
            action = rng.choice(x.available(out))
            trace.append(vt.joint(out, action))
            assert accepts(m, trace)
            assert domain_consistent(vt, init_states, pre_pairs, delta, trace)
            out, mem = env.step(mem, action)


def test_round_robin_is_fair_on_a_fixed_pair():
    # repeatedly playing the same available pair must rotate through all of
    # its effects
    d = make("!p", "true", "true")  # both effects possible everywhere
    env = RoundRobinEnv(d)
    mem = env.initial
    out = env.first_output
    seen = set()
    outs = []
    for _ in range(6):
        nxt, mem = env.step(mem, 0)
        outs.append((out, nxt))
        seen.add((out, nxt))
        out = nxt
    # from state 0 with action 0 both successors appear
    assert (0, 0) in seen and (0, 1) in seen


# --- the unconstrained domain -------------------------------------------------------


def test_universal_domain_contract_is_trivial():
    u = universal_domain(("p", "q"), ("m",))
    m = minimize(env_behavior_dfa(u))
    assert m == dfa_true(u.vt)
    assert eval_finite(u.vt, env_behavior_ltlf(u), [0, 5, 3])
