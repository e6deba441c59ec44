"""Reading and writing the textual interchange files.

Four file shapes — automata, strategies, domains, problems — share one line
discipline: ``#`` starts a comment, blank lines are skipped, headers are
``key: value``, and any remaining lines are whitespace-separated records.
Writers enumerate rows in fixed orders so that identical inputs always
produce byte-identical files.

Bitvectors follow the variable-table convention: one character per variable
in declaration order (environment block first), leftmost character first,
and a lone ``-`` for an empty block.
"""

from __future__ import annotations

import os

from .dfa import Dfa, check_explicit, explore
from .domain import Domain
from .engine import Problem
from .errors import ParseError
from .games import AgentStrategy, EnvStrategy
from .logic import VarTable, format_formula, parse_formula
from .parity import Dpw

# --- shared line machinery ---------------------------------------------------


def _fail(source: str, lineno: int | None, message: str):
    where = source if lineno is None else f"{source}:{lineno}"
    raise ParseError(f"{where}: {message}")


def _scan(text: str, source: str):
    """Split into header dict and record lines, keeping line numbers.

    A header line is one whose first token ends with a colon; everything
    after the colon (possibly empty) is the raw value.  Records are kept in
    file order.
    """
    headers: dict[str, tuple[int, str]] = {}
    records: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        first = line.split(None, 1)[0]
        if first.endswith(":") and len(first) > 1:
            key = first[:-1]
            if key in headers:
                _fail(source, lineno, f"duplicate header {key!r}")
            headers[key] = (lineno, line[len(first):].strip())
        else:
            records.append((lineno, line))
    return headers, records


def _take(headers: dict, source: str, key: str) -> tuple[int, str]:
    if key not in headers:
        _fail(source, None, f"missing header {key!r}")
    return headers.pop(key)


def _no_leftovers(headers: dict, source: str):
    for key, (lineno, _) in headers.items():
        _fail(source, lineno, f"unknown header {key!r}")


def _int(source: str, lineno: int, token: str, what: str, upper: int | None = None) -> int:
    try:
        value = int(token)
    except ValueError:
        _fail(source, lineno, f"{what} must be an integer, got {token!r}")
    if value < 0 or (upper is not None and value >= upper):
        _fail(source, lineno, f"{what} {value} out of range")
    return value


def _vartable(headers: dict, source: str) -> VarTable:
    lineno, value = _take(headers, source, "vars")
    tokens = value.split()
    if tokens.count("|") != 1:
        _fail(source, lineno, "vars must list environment and agent blocks separated by '|'")
    split = tokens.index("|")
    try:
        return VarTable(tuple(tokens[:split]), tuple(tokens[split + 1:]))
    except ValueError as exc:
        _fail(source, lineno, str(exc))


def _vars_text(vt: VarTable) -> str:
    return " ".join(vt.env_vars + ("|",) + vt.agent_vars)


def _bits(vt: VarTable, source: str, lineno: int, token: str, width: int) -> int:
    try:
        return vt.parse_bits(token, width)
    except ParseError as exc:
        _fail(source, lineno, str(exc))


# --- automata ----------------------------------------------------------------


def format_automaton(m: Dfa | Dpw) -> str:
    """Textual form of a finite-word or parity automaton.

    The two differ only in the acceptance header: ``finals:`` lists the
    accepting states, ``colors:`` gives one color per state.
    """
    vt = m.vt
    lines = [
        f"vars: {_vars_text(vt)}",
        f"states: {m.n_states}",
        f"initial: {m.initial}",
    ]
    if isinstance(m, Dfa):
        lines.append(("finals: " + " ".join(str(q) for q in sorted(m.finals))).rstrip())
    else:
        lines.append("colors: " + " ".join(str(c) for c in m.colors))
    for src, row in enumerate(m.transitions):
        for sym, dst in enumerate(row):
            lines.append(f"{src} {vt.format_bits(sym, vt.n_vars)} {dst}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str, source: str = "<automaton>") -> Dfa | Dpw:
    headers, records = _scan(text, source)
    vt = _vartable(headers, source)
    check_explicit(vt)
    lineno, value = _take(headers, source, "states")
    n = _int(source, lineno, value, "state count")
    if n == 0:
        _fail(source, lineno, "automata need at least one state")
    lineno, value = _take(headers, source, "initial")
    initial = _int(source, lineno, value, "initial state", n)

    finals: frozenset[int] | None = None
    colors: tuple[int, ...] | None = None
    if "finals" in headers:
        lineno, value = _take(headers, source, "finals")
        finals = frozenset(_int(source, lineno, t, "final state", n) for t in value.split())
    if "colors" in headers:
        lineno, value = _take(headers, source, "colors")
        colors = tuple(_int(source, lineno, t, "color") for t in value.split())
        if len(colors) != n:
            _fail(source, lineno, f"expected {n} colors, got {len(colors)}")
    if (finals is None) == (colors is None):
        _fail(source, None, "exactly one of 'finals:' and 'colors:' is required")
    _no_leftovers(headers, source)

    # the table is filled from the records alone, so a file that declares far
    # more transitions than it writes costs no more than its own length
    nsym = vt.n_symbols
    table: dict[int, int] = {}
    for lineno, line in records:
        tokens = line.split()
        if len(tokens) != 3:
            _fail(source, lineno, "transitions are written 'src <bits> dst'")
        src = _int(source, lineno, tokens[0], "source state", n)
        sym = _bits(vt, source, lineno, tokens[1], vt.n_vars)
        dst = _int(source, lineno, tokens[2], "target state", n)
        pos = src * nsym + sym
        if pos in table:
            _fail(source, lineno, f"duplicate transition from {src} on {tokens[1]}")
        table[pos] = dst
    if len(table) < n * nsym:
        # among the first len(table) + 1 positions one is missing
        src, sym = divmod(next(i for i in range(n * nsym) if i not in table), nsym)
        _fail(source, None, f"missing transition from {src} on {vt.format_bits(sym, vt.n_vars)}")
    flat = list(map(table.__getitem__, range(n * nsym)))
    transitions = tuple(tuple(flat[i:i + nsym]) for i in range(0, n * nsym, nsym))
    if finals is not None:
        return Dfa(vt, transitions, initial, finals)
    return Dpw(vt, transitions, initial, colors)


# --- strategies --------------------------------------------------------------

_HALT = "halt"


def format_strategy(s: AgentStrategy | EnvStrategy) -> str:
    """Textual form of a strategy transducer.

    Agent rows map (memory, environment move) to an action or ``halt``;
    environment rows map (memory, action) to the next environment move.  The
    table is emitted verbatim, sorted by memory then input; built strategies
    hold no ``halt`` rows, since a missing agent row already means halt.
    """
    vt = s.vt
    is_agent = isinstance(s, AgentStrategy)
    in_width = vt.n_env if is_agent else vt.n_agent
    out_width = vt.n_agent if is_agent else vt.n_env
    lines = [
        f"vars: {_vars_text(vt)}",
        f"type: {'agent' if is_agent else 'env'}",
        f"memory: {s.n_memory}",
    ]
    if is_agent:
        lines.append(f"initial: {s.initial}")
    else:
        lines.append(f"initial: {s.initial} output {vt.format_bits(s.first_output, out_width)}")
    for (mem, given), (out, mem2) in sorted(s.table.items()):
        out_text = _HALT if out is None else vt.format_bits(out, out_width)
        lines.append(f"{mem} {vt.format_bits(given, in_width)} -> {out_text} {mem2}")
    return "\n".join(lines) + "\n"


def parse_strategy(text: str, source: str = "<strategy>") -> AgentStrategy | EnvStrategy:
    headers, records = _scan(text, source)
    vt = _vartable(headers, source)
    lineno, value = _take(headers, source, "type")
    if value not in ("agent", "env"):
        _fail(source, lineno, f"type must be 'agent' or 'env', got {value!r}")
    is_agent = value == "agent"
    in_width = vt.n_env if is_agent else vt.n_agent
    out_width = vt.n_agent if is_agent else vt.n_env

    lineno, value = _take(headers, source, "memory")
    n_memory = _int(source, lineno, value, "memory size")
    if n_memory == 0:
        _fail(source, lineno, "strategies need at least one memory value")

    lineno, value = _take(headers, source, "initial")
    tokens = value.split()
    first_output = 0
    if is_agent:
        if len(tokens) != 1:
            _fail(source, lineno, "agent strategies are written 'initial: m'")
        initial = _int(source, lineno, tokens[0], "initial memory", n_memory)
    else:
        if len(tokens) != 3 or tokens[1] != "output":
            _fail(source, lineno, "env strategies are written 'initial: m output <bits>'")
        initial = _int(source, lineno, tokens[0], "initial memory", n_memory)
        first_output = _bits(vt, source, lineno, tokens[2], out_width)
    _no_leftovers(headers, source)

    table: dict = {}
    for lineno, line in records:
        tokens = line.split()
        if len(tokens) != 5 or tokens[2] != "->":
            _fail(source, lineno, "rows are written 'm <input> -> <output> m2'")
        mem = _int(source, lineno, tokens[0], "memory", n_memory)
        given = _bits(vt, source, lineno, tokens[1], in_width)
        if tokens[3] == _HALT:
            if not is_agent:
                _fail(source, lineno, "environment strategies cannot halt")
            out = None
        else:
            out = _bits(vt, source, lineno, tokens[3], out_width)
        mem2 = _int(source, lineno, tokens[4], "memory", n_memory)
        if (mem, given) in table:
            _fail(source, lineno, f"duplicate row for memory {mem} on {tokens[1]}")
        table[(mem, given)] = (out, mem2)

    if is_agent:
        return AgentStrategy(vt, n_memory, initial, table)
    # A missing agent row means halt, but the environment always moves, so
    # its table must cover every memory value the rows can reach.
    def row_of(mem):
        for action in range(vt.n_actions):
            if (mem, action) not in table:
                _fail(source, None,
                      f"environment strategy lacks a row for memory {mem} on "
                      f"{vt.format_bits(action, vt.n_agent)}")
            yield table[(mem, action)][1]

    explore(initial, row_of)
    return EnvStrategy(vt, n_memory, initial, first_output, table)


# --- domains -----------------------------------------------------------------


def parse_domain(text: str, source: str = "<domain>") -> Domain:
    """Domain file: ``env:``/``agent:`` variable lists, then ``init:``
    (over fluents), ``pre:`` (fluents + actions) and ``trans:`` (those plus
    primed fluents, written ``e'``)."""
    headers, records = _scan(text, source)
    if records:
        _fail(source, records[0][0], "domain files contain only 'key: value' lines")
    env_line, env_value = _take(headers, source, "env")
    _, agent_value = _take(headers, source, "agent")
    try:
        vt = VarTable(tuple(env_value.split()), tuple(agent_value.split()))
    except ValueError as exc:
        _fail(source, env_line, str(exc))

    def formula(key: str, allow_primed: bool):
        lineno, value = _take(headers, source, key)
        try:
            return lineno, parse_formula(value, vt, allow_primed=allow_primed)
        except ParseError as exc:
            _fail(source, lineno, str(exc))

    _, init = formula("init", False)
    _, pre = formula("pre", False)
    _, trans = formula("trans", True)
    _no_leftovers(headers, source)
    try:
        return Domain(vt, init, pre, trans)
    except ValueError as exc:
        _fail(source, None, str(exc))


def format_domain(d: Domain) -> str:
    return "\n".join([
        f"env: {' '.join(d.vt.env_vars)}",
        f"agent: {' '.join(d.vt.agent_vars)}",
        f"init: {format_formula(d.init)}",
        f"pre: {format_formula(d.pre)}",
        f"trans: {format_formula(d.delta)}",
    ]) + "\n"


# --- problems ----------------------------------------------------------------


def parse_problem(text: str, source: str = "<problem>", base_dir: str = "") -> Problem:
    """Problem file: ``semantics:``, variable blocks (or a ``domain:`` path),
    and an ``assumption:``/``goal:`` pair, each either a formula or
    ``@path`` naming an automaton file resolved relative to the problem
    file's directory.  ``fair: true`` requests fair planning."""
    headers, records = _scan(text, source)
    if records:
        _fail(source, records[0][0], "problem files contain only 'key: value' lines")
    sem_line, semantics = _take(headers, source, "semantics")
    if semantics not in ("finite", "infinite"):
        _fail(source, sem_line, f"semantics must be 'finite' or 'infinite', got {semantics!r}")

    domain = None
    if "domain" in headers:
        lineno, path = _take(headers, source, "domain")
        if not path:
            _fail(source, lineno, "domain path is empty")
        domain = load_domain(os.path.join(base_dir, path))

    env_value = headers.pop("env", None)
    agent_value = headers.pop("agent", None)
    if domain is not None:
        vt = domain.vt
        for given, block in ((env_value, vt.env_vars), (agent_value, vt.agent_vars)):
            if given is not None and tuple(given[1].split()) != block:
                _fail(source, given[0], "variable blocks disagree with the domain file")
    else:
        if env_value is None or agent_value is None:
            _fail(source, None, "problems without a domain declare 'env:' and 'agent:'")
        try:
            vt = VarTable(tuple(env_value[1].split()), tuple(agent_value[1].split()))
        except ValueError as exc:
            _fail(source, env_value[0], str(exc))

    def side(key: str):
        lineno, value = _take(headers, source, key)
        if value.startswith("@"):
            aut = load_automaton(os.path.join(base_dir, value[1:].strip()))
            if aut.vt != vt:
                _fail(source, lineno, f"{key} automaton is over different variables")
            return aut
        try:
            return parse_formula(value, vt)
        except ParseError as exc:
            _fail(source, lineno, str(exc))

    assumption = side("assumption")
    goal = side("goal")

    fair = False
    if "fair" in headers:
        lineno, value = _take(headers, source, "fair")
        if value not in ("true", "false"):
            _fail(source, lineno, f"fair must be 'true' or 'false', got {value!r}")
        fair = value == "true"
    _no_leftovers(headers, source)

    kind = "planning" if domain is not None else "synthesis"
    try:
        return Problem(kind, semantics, vt, assumption, goal, domain=domain, fair=fair)
    except ValueError as exc:
        _fail(source, None, str(exc))


# --- file wrappers -----------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def load_automaton(path: str) -> Dfa | Dpw:
    return parse_automaton(_read(path), source=path)


def load_strategy(path: str) -> AgentStrategy | EnvStrategy:
    return parse_strategy(_read(path), source=path)


def load_domain(path: str) -> Domain:
    return parse_domain(_read(path), source=path)


def load_problem(path: str) -> Problem:
    return parse_problem(_read(path), source=path, base_dir=os.path.dirname(path))
