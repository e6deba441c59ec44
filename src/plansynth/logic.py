"""Formulas over a split variable vocabulary, and their finite-trace semantics.

Variables are partitioned into an environment-controlled block and an
agent-controlled block.  One trace position assigns every variable and is
encoded as an integer bitmask in vocabulary order, environment variables
first.  Traces are non-empty sequences of such symbols.  The tests check
every automaton construction of this package against a direct evaluator of
these semantics (`eval_finite` in tests/helpers.py).

Temporal operators follow the finite-trace reading: `X` is strong (false at
the last position), `WX` is weak (true at the last position), `U` requires
its right argument to hold at some position at or after the current one, and
`R` is its dual.

No function here recurses on the formula: each loops over `postorder` or
keeps an explicit stack, so a formula's depth is bounded by memory, not by
the interpreter's recursion limit.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError, VocabularyMismatch

RESERVED_WORDS = frozenset({"true", "false", "X", "WX", "F", "G", "U", "R"})

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class VarTable:
    """Ordered, disjoint environment and agent variable blocks.

    Bit i of a joint symbol is the value of variable i in the order
    env_vars + agent_vars.
    """

    env_vars: tuple[str, ...]
    agent_vars: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "env_vars", tuple(self.env_vars))
        object.__setattr__(self, "agent_vars", tuple(self.agent_vars))
        names = self.env_vars + self.agent_vars
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad variable name: {name!r}")
            if name in RESERVED_WORDS:
                raise ValueError(f"variable name is reserved: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def all_vars(self) -> tuple[str, ...]:
        return self.env_vars + self.agent_vars

    @property
    def n_env(self) -> int:
        return len(self.env_vars)

    @property
    def n_agent(self) -> int:
        return len(self.agent_vars)

    @property
    def n_vars(self) -> int:
        return len(self.env_vars) + len(self.agent_vars)

    @property
    def n_symbols(self) -> int:
        return 1 << self.n_vars

    @property
    def n_env_states(self) -> int:
        return 1 << self.n_env

    @property
    def n_actions(self) -> int:
        return 1 << self.n_agent

    def bit(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise VocabularyMismatch(f"unknown variable: {name!r}") from None

    def symbol(self, names: Iterable[str] = ()) -> int:
        sym = 0
        for name in names:
            sym |= 1 << self.bit(name)
        return sym

    def names(self, symbol: int) -> frozenset[str]:
        return frozenset(n for i, n in enumerate(self.all_vars) if symbol >> i & 1)

    def env_part(self, symbol: int) -> int:
        return symbol & (self.n_env_states - 1)

    def agent_part(self, symbol: int) -> int:
        return symbol >> self.n_env

    def joint(self, env_state: int, action: int) -> int:
        return env_state | (action << self.n_env)

    def format_bits(self, value: int, width: int) -> str:
        """Bitvector text for a value; leftmost character is variable 0.

        A zero-width block is written as "-" so that degenerate vocabularies
        still serialize unambiguously.
        """
        if width == 0:
            return "-"
        return format(value, f"0{width}b")[::-1]

    def parse_bits(self, text: str, width: int) -> int:
        if width == 0:
            if text != "-":
                raise ParseError(f"expected '-' for empty variable block, got {text!r}")
            return 0
        # the strip keeps out what int() also takes: "_", signs, spaces, other digits
        if len(text) != width or text.strip("01"):
            raise ParseError(f"expected {width} bits, got {text!r}")
        return int(text[::-1], 2)

    @staticmethod
    def primed(name: str) -> str:
        return name + "'"


# --- formula nodes ---------------------------------------------------------


class Formula:
    """Base of the formula nodes, which are hash-consed.

    Building a node returns the one live instance with the same class and
    children, looked up in a weak intern table, so structurally equal
    formulas are the same object: equality is identity and never recurses.
    The hash is the structural value a frozen dataclass would give, the hash
    of the field tuple, computed once at construction from the children's
    cached hashes; set orders therefore follow the same hashes as with
    plain tuples of fields.  Nodes are immutable.  The intern table is not
    locked: build formulas from one thread at a time.
    """

    __slots__ = ("_hash", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _INTERNED.get(key)
        if node is None:
            if len(fields) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__match_args__)} fields")
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_hash", hash(fields))
            _INTERNED[key] = node
        return node

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # a flat encoding in post-order, which `_from_postorder` rebuilds in
        # a loop, so that deep formulas pickle: one (class, *fields) entry
        # per distinct node, with each child field the index of its entry
        nodes = postorder(self)
        index = {g: i for i, g in enumerate(nodes)}
        code = []
        for g in nodes:
            fields = (getattr(g, n) for n in g.__match_args__)
            code.append((type(g), *(index[v] if isinstance(v, Formula) else v for v in fields)))
        return _from_postorder, (tuple(code),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        # written from an explicit stack of nodes and literal text, so that
        # deep formulas print
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts = [f"{type(item).__name__}("]
            for k, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                piece = value if isinstance(value, Formula) else repr(value)
                parts += [", " * (k > 0) + f"{name}=", piece]
            stack += reversed(parts + [")"])
        return "".join(out)


# (class, *fields) -> the live node; an entry leaves when its node is freed
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _from_postorder(code) -> Formula:
    """The formula of `Formula.__reduce__`'s flat encoding: its last entry."""
    built: list[Formula] = []
    for cls, *fields in code:
        built.append(cls(*(built[v] if isinstance(v, int) else v for v in fields)))
    return built[-1]


class TrueConst(Formula):
    __slots__ = ()


class FalseConst(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)
    name: str


class _Unary(Formula):
    __slots__ = __match_args__ = ("operand",)
    operand: Formula


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Formula
    right: Formula


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class WeakNext(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Release(_Binary):
    __slots__ = ()


class Eventually(_Unary):
    __slots__ = ()


class Always(_Unary):
    __slots__ = ()


TRUE = TrueConst()
FALSE = FalseConst()

# operator -> (token, precedence, the operator a negation turns it into);
# unary operators bind tightest, & and | associate to the left, others right
_OPERATORS = {
    Implies: ("->", 1, None),
    Or: ("|", 2, And),
    And: ("&", 3, Or),
    Until: ("U", 4, Release),
    Release: ("R", 4, Until),
    Not: ("!", 5, None),
    Next: ("X", 5, WeakNext),
    WeakNext: ("WX", 5, Next),
    Eventually: ("F", 5, Always),
    Always: ("G", 5, Eventually),
}
_LEFT_ASSOCIATIVE = (And, Or)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, _Unary):
        return (f.operand,)
    if isinstance(f, _Binary):
        return (f.left, f.right)
    return ()


def postorder(f: Formula) -> list[Formula]:
    """Every distinct node of f once, each after its children, left first.

    Formulas are hash-consed DAGs: a shared subformula is listed once.
    """
    out: list[Formula] = []
    seen: set[Formula] = set()
    stack = [(f, False)]  # (node, whether its children are listed already)
    while stack:
        g, expanded = stack.pop()
        if g in seen:
            continue
        if expanded or not isinstance(g, (_Unary, _Binary)):
            seen.add(g)
            out.append(g)
            continue
        stack.append((g, True))
        stack += zip(reversed(children(g)), (False, False))
    return out


def node_count(f: Formula) -> int:
    """Size of f as a tree: a shared subformula counts at each occurrence."""
    size: dict[Formula, int] = {}
    for g in postorder(f):
        size[g] = 1 + sum(size[c] for c in children(g))
    return size[f]


def atom_names(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in postorder(f) if isinstance(g, Atom))


_TEMPORAL = (Next, WeakNext, Until, Release, Eventually, Always)


def is_propositional(f: Formula) -> bool:
    return not any(isinstance(g, _TEMPORAL) for g in postorder(f))


def _nest(op: type, empty: Formula, parts: Sequence[Formula]) -> Formula:
    out = parts[-1] if parts else empty
    for p in reversed(parts[:-1]):
        out = op(p, out)
    return out


def conjoin(parts: Sequence[Formula]) -> Formula:
    """Right-nested conjunction; the empty conjunction is true."""
    return _nest(And, TRUE, parts)


def disjoin(parts: Sequence[Formula]) -> Formula:
    """Right-nested disjunction; the empty disjunction is false."""
    return _nest(Or, FALSE, parts)


# --- parsing ---------------------------------------------------------------

# a token, or any other character where a token should start
_TOKEN_RE = re.compile(r"\s*(?:(->|[()&|!]|[A-Za-z_][A-Za-z0-9_]*'?)|(\S))")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.group(2):
            raise ParseError(f"unexpected character {m.group(2)!r}", m.start(2))
        tokens.append((m.group(1), m.start(1)))
    return tokens


def _operand(tok: str, pos: int, vt: VarTable | None, allow_primed: bool) -> Formula:
    """The constant or atom a token stands for, checked against vt."""
    if tok == "true":
        return TRUE
    if tok == "false":
        return FALSE
    base = tok[:-1] if tok.endswith("'") else tok
    if not _NAME_RE.fullmatch(base) or base in RESERVED_WORDS:
        raise ParseError(f"unexpected token {tok!r}", pos)
    if tok.endswith("'"):
        if not allow_primed:
            raise ParseError(f"primed atom {tok!r} not allowed here", pos)
        if vt is not None and base not in vt.env_vars:
            raise ParseError(f"primed atom over non-environment variable {tok!r}", pos)
    elif vt is not None and tok not in vt.all_vars:
        raise ParseError(f"undeclared atom {tok!r}", pos)
    return Atom(tok)


def parse_formula(text: str, vt: VarTable | None = None, allow_primed: bool = False) -> Formula:
    """Parse a formula; with a VarTable, atoms must be declared variables.

    Precedence, tightest first: ! X WX F G; U R; &; |; ->.  -> and U/R
    associate to the right, & and | to the left.  Primed atoms (a trailing
    apostrophe, environment variables only) are accepted only when
    allow_primed is set, as in domain transition formulas.

    An operator-precedence loop: operands and pending operators wait on two
    explicit stacks, so nesting depth is bounded by memory only.
    """
    by_token = {tok: cls for cls, (tok, _, _) in _OPERATORS.items()}
    operands: list[Formula] = []
    pending: list = []  # operator classes; None marks an open parenthesis
    depth = 0  # open parentheses

    def reduce(prec: int) -> None:
        """Apply the pending operators that bind before one of precedence prec."""
        while pending and pending[-1] is not None:
            cls = pending[-1]
            p = _OPERATORS[cls][1]
            if p < prec or (p == prec and cls not in _LEFT_ASSOCIATIVE):
                return
            pending.pop()
            if issubclass(cls, _Unary):
                operands.append(cls(operands.pop()))
            else:
                right = operands.pop()
                operands.append(cls(operands.pop(), right))

    want_operand = True
    for tok, pos in [*_tokenize(text), (None, -1)]:
        cls = by_token.get(tok)
        if want_operand:
            if tok is None:
                raise ParseError("unexpected end of input")
            if tok == "(":
                pending.append(None)
                depth += 1
            elif cls is not None and issubclass(cls, _Unary):
                pending.append(cls)
            else:
                operands.append(_operand(tok, pos, vt, allow_primed))
                want_operand = False
        elif tok == ")" and depth:
            reduce(0)
            pending.pop()
            depth -= 1
        elif cls is not None and not issubclass(cls, _Unary):
            reduce(_OPERATORS[cls][1])
            pending.append(cls)
            want_operand = True
        elif depth:
            raise ParseError("expected ')'", pos)
        elif tok is not None:
            raise ParseError(f"trailing input {tok!r}", pos)
    reduce(0)
    return operands[0]


# --- printing --------------------------------------------------------------


def format_formula(f: Formula) -> str:
    """Concrete syntax that parse_formula maps back to the same tree.

    Pieces are written from an explicit stack into one list and joined once.
    """
    out: list[str] = []
    # pieces of text, and (subformula, precedence of its context, whether an
    # equal precedence needs parentheses)
    stack: list = [(f, 0, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, level, strict = item
        if isinstance(g, (Atom, TrueConst, FalseConst)):
            out.append(g.name if isinstance(g, Atom) else "true" if g is TRUE else "false")
            continue
        cls = type(g)
        if cls not in _OPERATORS:
            raise TypeError(f"not a formula: {g!r}")
        tok, prec, _ = _OPERATORS[cls]
        if isinstance(g, _Unary):
            parts = [tok if cls is Not else tok + " ", (g.operand, prec, False)]
        else:
            right = cls not in _LEFT_ASSOCIATIVE
            parts = [(g.left, prec, right), f" {tok} ", (g.right, prec, not right)]
        if prec < level or (strict and prec == level):
            parts = ["(", *parts, ")"]
        stack += reversed(parts)
    return "".join(out)


# --- polarity-aware rewriting ----------------------------------------------


def _by_polarity(f: Formula, rebuild) -> Formula:
    """Rebuild f bottom-up, each node under the polarity it is reached with.

    f is reached positively; Not flips its operand's polarity, Implies its
    left side's.  ``rebuild(g, positive, parts)`` makes g's result from its
    children's.  Each reached (node, polarity) pair is rebuilt once.
    """
    # done[positive][id(node)]: ids are unique among the nodes f keeps alive
    done: tuple[dict, dict] = ({}, {})
    stack = [(f, True, None)]  # (node, polarity, its children once expanded)
    while stack:
        g, positive, kids = stack.pop()
        if id(g) in done[positive]:
            continue
        if kids is None:
            first = positive != isinstance(g, (Not, Implies))
            kids = tuple(zip(children(g), (first, positive)))
            if kids:
                stack.append((g, positive, kids))
                stack += [(c, p, None) for c, p in kids]
                continue
        done[positive][id(g)] = rebuild(g, positive, [done[p][id(c)] for c, p in kids])
    return done[True][id(f)]


def to_nnf(f: Formula) -> Formula:
    """Eliminate implications and push negations down to atoms.

    Negation dualizes the operators: &/|, X/WX, U/R and F/G swap.
    """

    def rebuild(g: Formula, positive: bool, parts: list[Formula]) -> Formula:
        cls = type(g)
        if cls is Not:
            return parts[0]
        if cls is Implies:
            return Or(*parts) if positive else And(*parts)
        if cls is Atom:
            return g if positive else Not(g)
        if cls is TrueConst or cls is FalseConst:
            return g if positive else (FALSE if cls is TrueConst else TRUE)
        if cls in _OPERATORS:
            return (cls if positive else _OPERATORS[cls][2])(*parts)
        raise TypeError(f"not a formula: {g!r}")

    return _by_polarity(f, rebuild)


def is_nnf(f: Formula) -> bool:
    return not any(
        isinstance(g, Implies) or (isinstance(g, Not) and not isinstance(g.operand, Atom))
        for g in postorder(f)
    )


# --- truth tables ----------------------------------------------------------


def last_position_tables(f: Formula, order: Sequence[str]) -> dict[Formula, int]:
    """Truth table of every node of f at the last position of a trace.

    Bit i of a node's table is its value on the one-position trace of symbol
    i, order[j] being bit j of i: X fails there, WX holds, U and R reduce to
    their right sides and F and G to their operands, so a propositional node
    gets its ordinary truth table.  The keys are in post-order.
    """
    total = 1 << len(order)
    full = (1 << total) - 1
    value: dict[Formula, int] = {}
    for g in postorder(f):
        if isinstance(g, Atom):
            if g.name not in order:
                raise VocabularyMismatch(f"unknown variable: {g.name!r}")
            # 2^j zeros then 2^j ones, repeated by doubling
            half = 1 << order.index(g.name)
            v, width = ((1 << half) - 1) << half, 2 * half
            while width < total:
                v |= v << width
                width *= 2
        elif isinstance(g, (TrueConst, WeakNext)):
            v = full
        elif isinstance(g, (FalseConst, Next)):
            v = 0
        elif isinstance(g, Not):
            v = full ^ value[g.operand]
        elif isinstance(g, And):
            v = value[g.left] & value[g.right]
        elif isinstance(g, Or):
            v = value[g.left] | value[g.right]
        elif isinstance(g, Implies):
            v = (full ^ value[g.left]) | value[g.right]
        elif isinstance(g, (Until, Release, Eventually, Always)):
            v = value[children(g)[-1]]
        else:
            raise TypeError(f"not a formula: {g!r}")
        value[g] = v
    return value


def truth_table_mask(f: Formula, order: Sequence[str]) -> int:
    """Big-integer truth table of a propositional formula.

    Bit i of the result is the value of f under the assignment where variable
    order[j] is true iff bit j of i is set.  Assignment indices therefore
    coincide with joint-symbol encodings when order is the VarTable order.
    """
    temporal = [type(g).__name__ for g in postorder(f) if isinstance(g, _TEMPORAL)]
    if temporal:
        raise ValueError(f"not propositional: contains {temporal[0]}")
    return last_position_tables(f, order)[f]


# --- primed-variable elimination -------------------------------------------


def prime_to_next(f: Formula) -> Formula:
    """Rewrite primed atoms into weak next-step obligations.

    A primed atom stands for the value of a variable at the following
    position.  Substitution is polarity aware so that every primed literal
    is vacuously true at the last position: positive occurrences turn into
    WX, negative ones into X under the enclosing negation.  Mid-trace both
    mean exactly "at the next position".  Callers check that only
    environment variables are primed (`domain.Domain` does).

    Adds one node per primed occurrence and leaves the rest of the tree
    untouched.
    """

    def rebuild(g: Formula, positive: bool, parts: list[Formula]) -> Formula:
        if isinstance(g, Atom):
            if not g.name.endswith("'"):
                return g
            return (WeakNext if positive else Next)(Atom(g.name[:-1]))
        if isinstance(g, (TrueConst, FalseConst)):
            return g
        if isinstance(g, (Not, And, Or, Implies)):
            return type(g)(*parts)
        raise ValueError(f"transition formulas are propositional, not {type(g).__name__}")

    return _by_polarity(f, rebuild)
