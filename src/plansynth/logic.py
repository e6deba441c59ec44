"""Formulas over a split variable vocabulary, and their finite-trace semantics.

Variables are partitioned into an environment-controlled block and an
agent-controlled block.  One trace position assigns every variable and is
encoded as an integer bitmask in vocabulary order, environment variables
first.  Traces are non-empty sequences of such symbols; `eval_finite` is the
semantic ground truth against which every automaton construction in this
package is checked.

Temporal operators follow the finite-trace reading: `X` is strong (false at
the last position), `WX` is weak (true at the last position), `U` requires
its right argument to hold at some position at or after the current one, and
`R` is its dual.
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
        return "".join("1" if value >> i & 1 else "0" for i in range(width))

    def parse_bits(self, text: str, width: int) -> int:
        if width == 0:
            if text != "-":
                raise ParseError(f"expected '-' for empty variable block, got {text!r}")
            return 0
        if len(text) != width or any(c not in "01" for c in text):
            raise ParseError(f"expected {width} bits, got {text!r}")
        return sum(1 << i for i, c in enumerate(text) if c == "1")

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
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"


# (class, *fields) -> the live node; an entry leaves when its node is freed
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


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

def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, _Unary):
        return (f.operand,)
    if isinstance(f, _Binary):
        return (f.left, f.right)
    return ()


def node_count(f: Formula) -> int:
    return 1 + sum(node_count(c) for c in children(f))


def atom_names(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.name})
    out: frozenset[str] = frozenset()
    for c in children(f):
        out |= atom_names(c)
    return out


def is_propositional(f: Formula) -> bool:
    if isinstance(f, (Next, WeakNext, Until, Release, Eventually, Always)):
        return False
    return all(is_propositional(c) for c in children(f))


def conjoin(parts: Sequence[Formula]) -> Formula:
    """Right-nested conjunction; the empty conjunction is true."""
    if not parts:
        return TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def disjoin(parts: Sequence[Formula]) -> Formula:
    """Right-nested disjunction; the empty disjunction is false."""
    if not parts:
        return FALSE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"->|[()&|!]|[A-Za-z_][A-Za-z0-9_]*'?")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent with precedence !,X,WX,F,G > U,R > & > | > ->.

    -> and U/R associate to the right, & and | to the left.
    """

    def __init__(self, text: str, vt: VarTable | None, allow_primed: bool):
        self.tokens = _tokenize(text)
        self.i = 0
        self.vt = vt
        self.allow_primed = allow_primed

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else -1

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.implies()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())
        return f

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until()
        while self.peek() == "&":
            self.take()
            f = And(f, self.until())
        return f

    def until(self) -> Formula:
        left = self.unary()
        tok = self.peek()
        if tok in ("U", "R"):
            self.take()
            right = self.until()
            return Until(left, right) if tok == "U" else Release(left, right)
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok == "X":
            self.take()
            return Next(self.unary())
        if tok == "WX":
            self.take()
            return WeakNext(self.unary())
        if tok == "F":
            self.take()
            return Eventually(self.unary())
        if tok == "G":
            self.take()
            return Always(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        pos = self.pos()
        tok = self.take()
        if tok == "(":
            f = self.implies()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos())
            self.take()
            return f
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        base = tok[:-1] if tok.endswith("'") else tok
        if not _NAME_RE.fullmatch(base) or base in RESERVED_WORDS:
            raise ParseError(f"unexpected token {tok!r}", pos)
        if tok.endswith("'"):
            if not self.allow_primed:
                raise ParseError(f"primed atom {tok!r} not allowed here", pos)
            base = tok[:-1]
            if self.vt is not None and base not in self.vt.env_vars:
                raise ParseError(f"primed atom over non-environment variable {tok!r}", pos)
            return Atom(tok)
        if self.vt is not None and tok not in self.vt.all_vars:
            raise ParseError(f"undeclared atom {tok!r}", pos)
        return Atom(tok)


def parse_formula(text: str, vt: VarTable | None = None, allow_primed: bool = False) -> Formula:
    """Parse a formula; with a VarTable, atoms must be declared variables.

    Primed atoms (a trailing apostrophe, environment variables only) are
    accepted only when allow_primed is set, as in domain transition formulas.
    """
    return _Parser(text, vt, allow_primed).parse()


# --- printing --------------------------------------------------------------

_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_UNTIL, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4, 5, 6


def _prec(f: Formula) -> int:
    if isinstance(f, Implies):
        return _PREC_IMPLIES
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, (Until, Release)):
        return _PREC_UNTIL
    if isinstance(f, _Unary):
        return _PREC_UNARY
    return _PREC_ATOM


def format_formula(f: Formula) -> str:
    """Concrete syntax that parse_formula maps back to the same tree."""

    def wrap(g: Formula, level: int, strict: bool) -> str:
        s = go(g)
        p = _prec(g)
        if p < level or (strict and p == level):
            return f"({s})"
        return s

    def go(g: Formula) -> str:
        if isinstance(g, TrueConst):
            return "true"
        if isinstance(g, FalseConst):
            return "false"
        if isinstance(g, Atom):
            return g.name
        if isinstance(g, Not):
            return "!" + wrap(g.operand, _PREC_UNARY, strict=False)
        if isinstance(g, Next):
            return "X " + wrap(g.operand, _PREC_UNARY, strict=False)
        if isinstance(g, WeakNext):
            return "WX " + wrap(g.operand, _PREC_UNARY, strict=False)
        if isinstance(g, Eventually):
            return "F " + wrap(g.operand, _PREC_UNARY, strict=False)
        if isinstance(g, Always):
            return "G " + wrap(g.operand, _PREC_UNARY, strict=False)
        if isinstance(g, Until):
            return wrap(g.left, _PREC_UNTIL, True) + " U " + wrap(g.right, _PREC_UNTIL, False)
        if isinstance(g, Release):
            return wrap(g.left, _PREC_UNTIL, True) + " R " + wrap(g.right, _PREC_UNTIL, False)
        if isinstance(g, And):
            return wrap(g.left, _PREC_AND, False) + " & " + wrap(g.right, _PREC_AND, True)
        if isinstance(g, Or):
            return wrap(g.left, _PREC_OR, False) + " | " + wrap(g.right, _PREC_OR, True)
        if isinstance(g, Implies):
            return wrap(g.left, _PREC_IMPLIES, True) + " -> " + wrap(g.right, _PREC_IMPLIES, False)
        raise TypeError(f"not a formula: {g!r}")

    return go(f)


# --- negation normal form --------------------------------------------------


def to_nnf(f: Formula) -> Formula:
    """Eliminate implications and push negations down to atoms.

    Negation dualizes the temporal operators: X/WX, U/R and F/G swap.
    """
    if isinstance(f, (TrueConst, FalseConst, Atom)):
        return f
    if isinstance(f, Not):
        return _neg(f.operand)
    if isinstance(f, And):
        return And(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Or):
        return Or(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Implies):
        return Or(_neg(f.left), to_nnf(f.right))
    if isinstance(f, Next):
        return Next(to_nnf(f.operand))
    if isinstance(f, WeakNext):
        return WeakNext(to_nnf(f.operand))
    if isinstance(f, Until):
        return Until(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Release):
        return Release(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Eventually):
        return Eventually(to_nnf(f.operand))
    if isinstance(f, Always):
        return Always(to_nnf(f.operand))
    raise TypeError(f"not a formula: {f!r}")


def _neg(f: Formula) -> Formula:
    if isinstance(f, TrueConst):
        return FALSE
    if isinstance(f, FalseConst):
        return TRUE
    if isinstance(f, Atom):
        return Not(f)
    if isinstance(f, Not):
        return to_nnf(f.operand)
    if isinstance(f, And):
        return Or(_neg(f.left), _neg(f.right))
    if isinstance(f, Or):
        return And(_neg(f.left), _neg(f.right))
    if isinstance(f, Implies):
        return And(to_nnf(f.left), _neg(f.right))
    if isinstance(f, Next):
        return WeakNext(_neg(f.operand))
    if isinstance(f, WeakNext):
        return Next(_neg(f.operand))
    if isinstance(f, Until):
        return Release(_neg(f.left), _neg(f.right))
    if isinstance(f, Release):
        return Until(_neg(f.left), _neg(f.right))
    if isinstance(f, Eventually):
        return Always(_neg(f.operand))
    if isinstance(f, Always):
        return Eventually(_neg(f.operand))
    raise TypeError(f"not a formula: {f!r}")


def is_nnf(f: Formula) -> bool:
    if isinstance(f, Not):
        return isinstance(f.operand, Atom)
    if isinstance(f, Implies):
        return False
    return all(is_nnf(c) for c in children(f))


# --- evaluation ------------------------------------------------------------


def eval_finite(vt: VarTable, f: Formula, trace: Sequence[int], pos: int = 0) -> bool:
    """Satisfaction of f on a non-empty finite trace at a position."""
    if len(trace) == 0:
        raise ValueError("traces are non-empty")
    if not 0 <= pos < len(trace):
        raise ValueError(f"position {pos} outside trace of length {len(trace)}")
    last = len(trace) - 1

    def ev(g: Formula, n: int) -> bool:
        if isinstance(g, TrueConst):
            return True
        if isinstance(g, FalseConst):
            return False
        if isinstance(g, Atom):
            return bool(trace[n] >> vt.bit(g.name) & 1)
        if isinstance(g, Not):
            return not ev(g.operand, n)
        if isinstance(g, And):
            return ev(g.left, n) and ev(g.right, n)
        if isinstance(g, Or):
            return ev(g.left, n) or ev(g.right, n)
        if isinstance(g, Implies):
            return not ev(g.left, n) or ev(g.right, n)
        if isinstance(g, Next):
            return n < last and ev(g.operand, n + 1)
        if isinstance(g, WeakNext):
            return n == last or ev(g.operand, n + 1)
        if isinstance(g, Until):
            for i in range(n, last + 1):
                if ev(g.right, i):
                    return True
                if not ev(g.left, i):
                    return False
            return False
        if isinstance(g, Release):
            for i in range(n, last + 1):
                if not ev(g.right, i):
                    return False
                if ev(g.left, i):
                    return True
            return True
        if isinstance(g, Eventually):
            return any(ev(g.operand, i) for i in range(n, last + 1))
        if isinstance(g, Always):
            return all(ev(g.operand, i) for i in range(n, last + 1))
        raise TypeError(f"not a formula: {g!r}")

    return ev(f, pos)


def truth_table_mask(f: Formula, order: Sequence[str]) -> int:
    """Big-integer truth table of a propositional formula.

    Bit i of the result is the value of f under the assignment where variable
    order[j] is true iff bit j of i is set.  Assignment indices therefore
    coincide with joint-symbol encodings when order is the VarTable order.
    """
    n = len(order)
    total = 1 << n
    full = (1 << total) - 1
    masks = {}
    for j, name in enumerate(order):
        half = 1 << j
        period = 2 * half
        unit = ((1 << half) - 1) << half
        m = 0
        for start in range(0, total, period):
            m |= unit << start
        masks[name] = m

    def go(g: Formula) -> int:
        if isinstance(g, TrueConst):
            return full
        if isinstance(g, FalseConst):
            return 0
        if isinstance(g, Atom):
            try:
                return masks[g.name]
            except KeyError:
                raise VocabularyMismatch(f"unknown variable: {g.name!r}") from None
        if isinstance(g, Not):
            return full ^ go(g.operand)
        if isinstance(g, And):
            return go(g.left) & go(g.right)
        if isinstance(g, Or):
            return go(g.left) | go(g.right)
        if isinstance(g, Implies):
            return (full ^ go(g.left)) | go(g.right)
        raise ValueError(f"not propositional: {g!r}")

    return go(f)


# --- primed-variable elimination -------------------------------------------


def prime_to_next(f: Formula, weak: bool, vt: VarTable | None = None) -> Formula:
    """Rewrite primed environment atoms into next-step obligations.

    A primed atom stands for the value of an environment variable at the
    following position.  Substitution is polarity aware so that end-of-trace
    behaviour is uniform across the formula: with weak=True every primed
    literal becomes vacuously true at the last position (positive occurrences
    turn into WX, negative ones into X under the enclosing negation); with
    weak=False every primed literal becomes false there.  Mid-trace both
    variants mean exactly "at the next position".

    Adds one node per primed occurrence and leaves the rest of the tree
    untouched.
    """

    def go(g: Formula, positive: bool) -> Formula:
        if isinstance(g, Atom):
            if not g.name.endswith("'"):
                return g
            base = g.name[:-1]
            if vt is not None and base not in vt.env_vars:
                raise VocabularyMismatch(f"primed non-environment variable {g.name!r}")
            op = WeakNext if positive == weak else Next
            return op(Atom(base))
        if isinstance(g, (TrueConst, FalseConst)):
            return g
        if isinstance(g, Not):
            return Not(go(g.operand, not positive))
        if isinstance(g, And):
            return And(go(g.left, positive), go(g.right, positive))
        if isinstance(g, Or):
            return Or(go(g.left, positive), go(g.right, positive))
        if isinstance(g, Implies):
            return Implies(go(g.left, not positive), go(g.right, positive))
        raise ValueError(f"transition formulas are propositional: {g!r}")

    return go(f, True)
