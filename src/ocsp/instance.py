"""Ordering CSP instances: constraints over a total order of variables.

A constraint fixes a tuple of distinct variables and a set of allowed
relative orders.  An order is written as a tuple of positions into the
variable tuple, listed smallest value first, so for ``vars = (v0, v1, v2)``
the tuple ``(2, 1, 0)`` allows exactly ``x_{v2} < x_{v1} < x_{v0}``.

The arity and the allowed set form a constraint's *shape*.  Equal shapes are
one interned ``Shape``, validated once, and everything that depends on a
constraint only through its shape (its allowed bit per order, its canonical
decomposition) is computed once per shape.  A constraint is its shape plus
its variables.

Variables are 0-based internally.  The text format (see ``parse_instance``)
is 1-based.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from .errors import ParseError

Ordering = tuple[int, ...]

MAX_ARITY = 6

MODELS = ("mas", "betweenness", "random-k")


@cache
def orders(arity: int) -> tuple[tuple[int, ...], ...]:
    """Every relative order of ``arity`` positions, lexicographically; an order's index is its place here."""
    return tuple(itertools.permutations(range(arity)))


@cache
def order_index(arity: int) -> dict[tuple[int, ...], int]:
    """The index of each order in ``orders(arity)``."""
    return {order: i for i, order in enumerate(orders(arity))}


@cache
def swaps(arity: int) -> tuple[tuple[int, ...], ...]:
    """``swaps(d)[j][i]``: the index of order i with the two positions of local pair j exchanged.

    Local pairs are numbered as ``itertools.combinations(range(d), 2)`` lists
    them.  When two variables of a constraint are adjacent in an ordering and
    swap, the constraint's order steps this way.
    """
    index = order_index(arity)
    table = []
    for a, b in itertools.combinations(range(arity), 2):
        column = []
        for order in orders(arity):
            swapped = list(order)
            swapped[order.index(a)], swapped[order.index(b)] = b, a
            column.append(index[tuple(swapped)])
        table.append(tuple(column))
    return tuple(table)


class Shape:
    """An arity and a validated set of allowed orders, one object per distinct pair.

    Build shapes with ``Shape.of``, which interns them, so that constraints
    with equal allowed sets share one shape and equal shapes are the same
    object.  ``bits`` (the allowed bit of each order index) is built on first
    use; ``canonical`` is the shape's decomposition, which ``efron_stein``
    sets up on first use.
    """

    __slots__ = ("arity", "allowed", "canonical", "_bits", "__weakref__")

    _interned: weakref.WeakValueDictionary[tuple[int, frozenset], Shape] = weakref.WeakValueDictionary()

    def __init__(self, arity: int, allowed: frozenset[tuple[int, ...]]):
        base = tuple(range(arity))
        for perm in allowed:
            if tuple(sorted(perm)) != base:
                raise ValueError(f"{perm} is not a permutation of 0..{arity - 1}")
        self.arity = arity
        self.allowed = allowed
        self.canonical = None
        self._bits: tuple[int, ...] | None = None

    @classmethod
    def of(cls, arity: int, allowed: frozenset[tuple[int, ...]]) -> Shape:
        """The shape of ``arity`` and ``allowed``, validated when first seen."""
        key = (arity, allowed)
        shape = cls._interned.get(key)
        if shape is None:
            shape = cls._interned[key] = cls(arity, allowed)
        return shape

    @property
    def bits(self) -> tuple[int, ...]:
        """1 for each allowed order index, 0 for the others."""
        if self._bits is None:
            self._bits = tuple(int(order in self.allowed) for order in orders(self.arity))
        return self._bits


class Constraint:
    """Allowed relative orders of a tuple of distinct variables: a shape on variables.

    ``Constraint(vars, allowed)`` checks that the variables are distinct and
    interns the shape.  The parser and ``generate``, which have already
    established both, build constraints with ``Constraint._on``.  A
    constraint is not changed after it is built.
    """

    __slots__ = ("vars", "shape")

    def __init__(self, vars: Sequence[int], allowed: frozenset[tuple[int, ...]]):
        vars = tuple(vars)
        if not vars:
            raise ValueError("a constraint needs at least one variable")
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable in constraint {vars}")
        self.vars = vars
        self.shape = Shape.of(len(vars), frozenset(allowed))

    @classmethod
    def _on(cls, shape: Shape, vars: tuple[int, ...]) -> Constraint:
        """The constraint of ``shape`` on ``vars``, which must be ``shape.arity`` distinct variables."""
        constraint = _new(cls)
        constraint.vars = vars
        constraint.shape = shape
        return constraint

    @property
    def allowed(self) -> frozenset[tuple[int, ...]]:
        return self.shape.allowed

    @property
    def arity(self) -> int:
        return len(self.vars)

    def order_at(self, position: Sequence[int] | Mapping[int, int]) -> tuple[int, ...]:
        """The relative order that variable positions induce on this constraint's variables.

        ``position[v]`` is the position of variable v: a list over all
        variables, or a dict holding at least this constraint's.
        """
        at = [position[v] for v in self.vars]
        return tuple(sorted(range(len(at)), key=at.__getitem__))

    def satisfied_by(self, position: Sequence[int]) -> bool:
        """Whether the relative order induced by variable positions is allowed."""
        return self.order_at(position) in self.shape.allowed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.vars == other.vars and self.allowed == other.allowed

    def __hash__(self) -> int:
        return hash((self.vars, self.allowed))

    def __repr__(self) -> str:
        return f"Constraint(vars={self.vars!r}, allowed={self.allowed!r})"


_new = object.__new__


@dataclass(frozen=True)
class Instance:
    """A multiset of ordering constraints over variables ``0..n-1``."""

    n: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        for c in self.constraints:
            if c.arity > MAX_ARITY:
                raise ValueError(f"constraint arity {c.arity} exceeds the maximum {MAX_ARITY}")
            for v in c.vars:
                if not 0 <= v < self.n:
                    raise ValueError(f"variable {v} out of range for n={self.n}")

    @classmethod
    def _unchecked(cls, n: int, constraints: tuple[Constraint, ...]) -> Instance:
        """The instance of constraints already known to lie in ``0..n-1`` with arity at most ``MAX_ARITY``."""
        inst = _new(cls)
        object.__setattr__(inst, "n", n)
        object.__setattr__(inst, "constraints", constraints)
        return inst

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def arity(self) -> int:
        """Largest constraint arity (0 when there are no constraints)."""
        return max((c.arity for c in self.constraints), default=0)

    def evaluate(self, ordering: Ordering) -> int:
        """Number of satisfied constraints under ``ordering`` (rank -> variable)."""
        if len(ordering) != self.n or set(ordering) != set(range(self.n)):
            raise ValueError("ordering must be a permutation of all variables")
        position = [0] * self.n
        for rank, v in enumerate(ordering):
            position[v] = rank
        return sum(1 for c in self.constraints if c.satisfied_by(position))

    def average_value(self) -> Fraction:
        """Expected value under a uniformly random ordering, summed over one denominator."""
        denominator = math.factorial(self.arity)
        counts = Counter(c.shape for c in self.constraints)
        total = sum(
            len(shape.allowed) * (denominator // math.factorial(shape.arity)) * count
            for shape, count in counts.items()
        )
        return Fraction(total, denominator)


# -- text format -------------------------------------------------------------


_TOKEN = re.compile(r"\S+")


def _error(message: str, lineno: int, line: str, k: int) -> ParseError:
    """The error at the k-th token of ``line``; ``\\S+`` cuts the tokens ``str.split`` does."""
    token = next(itertools.islice(_TOKEN.finditer(line), k, None))
    return ParseError(message, lineno, token.start() + 1)


def _read_vars(toks: list[str], start: int, stop: int, n: int, lineno: int, line: str) -> tuple[int, ...]:
    """Tokens ``start..stop-1`` as distinct 0-based variables of ``0..n-1``."""
    seen: set[int] = set()
    out: list[int] = []
    for k in range(start, stop):
        token = toks[k]
        # isdecimal accepts exactly the characters \d matches; isdigit would also take "²", which int rejects
        if not token.isdecimal():
            raise _error(f"expected a variable index, got {token!r}", lineno, line, k)
        v = int(token)
        if not 1 <= v <= n:
            raise _error(f"variable {v} out of range 1..{n}", lineno, line, k)
        if v - 1 in seen:
            raise _error(f"duplicate variable {v}", lineno, line, k)
        seen.add(v - 1)
        out.append(v - 1)
    return tuple(out)


def decode_text(data: bytes) -> str:
    """``data`` as UTF-8; a byte that does not decode is a ``ParseError`` at its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; a placeholder stands for it
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        message = f"cannot decode byte 0x{data[exc.start]:02x} as UTF-8: {exc.reason}"
        raise ParseError(message, len(lines), len(lines[-1])) from None


def _checked_constraint(toks: list[str], n: int, lineno: int, line: str) -> Constraint:
    """The constraint of a ``con`` or ``emptycon`` line, checked token by token.

    Raises the ``ParseError`` of the line's first fault.
    """
    if toks[0] == "emptycon":
        if len(toks) == 1:
            raise _error("emptycon needs at least one variable", lineno, line, 0)
        cuts = [0, len(toks)]
    else:
        # order i is the tokens strictly between cuts[i] and cuts[i + 1]
        cuts = [0, *(k for k, token in enumerate(toks) if token == "|"), len(toks)]
        if any(b - a == 1 for a, b in zip(cuts, cuts[1:])):
            raise _error("empty order in 'con' line", lineno, line, 0)
    first = _read_vars(toks, 1, cuts[1], n, lineno, line)
    if len(first) > MAX_ARITY:
        raise _error(f"arity {len(first)} exceeds the maximum {MAX_ARITY}", lineno, line, 0)
    index = {v: i for i, v in enumerate(first)}
    allowed: set[tuple[int, ...]] = {tuple(range(len(first)))} if toks[0] == "con" else set()
    for start, stop in zip(cuts[1:], cuts[2:]):
        seq = _read_vars(toks, start + 1, stop, n, lineno, line)
        if set(seq) != index.keys():
            raise _error("orders in one 'con' line must use the same variables", lineno, line, start + 1)
        perm = tuple(index[v] for v in seq)
        if perm in allowed:
            raise _error("duplicate order in 'con' line", lineno, line, start + 1)
        allowed.add(perm)
    return Constraint._on(Shape.of(len(first), frozenset(allowed)), first)


def _line_key(toks: list[str], n: int) -> tuple[int | tuple, tuple[int, ...]] | None:
    """A ``con`` or ``emptycon`` line's shape key and 0-based variables, or None to check it token by token.

    The first order must be distinct decimal variables of 1..n.  The key is
    the arity for a one-order ``con`` line, ``("emptycon", arity)`` for an
    ``emptycon`` line, and otherwise the index of every token from the first
    ``|`` on among the first order's tokens and that ``|``.  Lines with one
    key and such a first order have one shape, and are all valid or all
    malformed.  A later token spelled unlike every token of the first order,
    such as ``01`` after ``1``, gives no key.
    """
    end = toks.index("|") if "|" in toks else len(toks)
    first = toks[1:end]
    if toks[0] == "emptycon":
        if end < len(toks):
            return None
        key: int | tuple = ("emptycon", len(first))
    elif end == len(toks):
        key = len(first)
    else:
        try:
            key = tuple(map(toks[1 : end + 1].index, toks[end:]))
        except ValueError:
            return None
    # tokens are never empty, so this also rejects an empty first order
    if not "".join(first).isdecimal():
        return None
    try:
        ids = tuple(map(int, first))
    except ValueError:  # more digits than int() converts
        return None
    if min(ids) < 1 or max(ids) > n or len(set(ids)) != len(ids):
        return None
    return key, tuple([v - 1 for v in ids])


def parse_instance(text: str) -> Instance:
    """Parse the instance text format.

    ::

        ocsp 1
        nvars 3
        # max acyclic subgraph edge, then a betweenness triple
        con 1 2
        con 1 2 3 | 3 2 1
        emptycon 1 3

    Tokens are separated by whitespace.  Each ``con`` line lists one or
    more allowed orders, smallest variable first, separated by ``|``; all
    orders in a line must use the same variables.  ``emptycon`` declares a
    constraint no order satisfies.  Blank lines and ``#`` comments are
    ignored.

    A constraint line is split once and read by ``_line_key``.  The first
    line of each distinct key, and a line that gives no key, is read again
    by ``_checked_constraint``, token by token: it validates the key's
    shape, or words the error.
    """
    header_seen = False
    n: int | None = None
    constraints: list[Constraint] = []
    shapes: dict[int | tuple, Shape] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        key = toks[0]
        if not header_seen:
            if key != "ocsp" or len(toks) != 2 or toks[1] != "1":
                raise _error("expected header 'ocsp 1'", lineno, line, 0)
            header_seen = True
            continue
        if n is None:
            if key != "nvars" or len(toks) != 2:
                raise _error("expected 'nvars <count>'", lineno, line, 0)
            if not toks[1].isdecimal():
                raise _error(f"expected a variable count, got {toks[1]!r}", lineno, line, 1)
            n = int(toks[1])
            continue
        if key != "con" and key != "emptycon":
            raise _error(f"unknown directive {key!r}", lineno, line, 0)
        quick = _line_key(toks, n)
        shape = shapes.get(quick[0]) if quick else None
        if shape is None:
            constraint = _checked_constraint(toks, n, lineno, line)
            if quick:
                shapes[quick[0]] = constraint.shape
        else:
            constraint = Constraint._on(shape, quick[1])
        constraints.append(constraint)
    if not header_seen:
        raise ParseError("missing header 'ocsp 1'", 1, 1)
    if n is None:
        raise ParseError("missing 'nvars' line", 1, 1)
    return Instance._unchecked(n, tuple(constraints))


def render_instance(inst: Instance) -> str:
    """Inverse of ``parse_instance`` up to internal relabeling.

    Allowed orders are printed as sorted 1-based variable sequences, which
    makes the rendering canonical: render(parse(render(i))) == render(i).
    """
    lines = ["ocsp 1", f"nvars {inst.n}"]
    for c in inst.constraints:
        if not c.allowed:
            vs = " ".join(str(v + 1) for v in sorted(c.vars))
            lines.append(f"emptycon {vs}")
            continue
        seqs = sorted(tuple(c.vars[i] + 1 for i in perm) for perm in c.allowed)
        lines.append("con " + " | ".join(" ".join(map(str, seq)) for seq in seqs))
    return "\n".join(lines) + "\n"


# -- generators ---------------------------------------------------------------


def generate(
    model: str,
    n: int,
    m: int,
    k: int | None = None,
    allowed_fraction: Fraction = Fraction(1, 2),
    seed: int = 0,
) -> Instance:
    """Draw a random instance from one of three seeded models.

    ``mas``: directed edges, each asking one variable below another.
    ``betweenness``: triples whose middle element is pinned.
    ``random-k``: each of the k! orders of a random k-tuple is allowed
    independently with probability ``allowed_fraction``.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; pick one of {', '.join(MODELS)}")
    if model == "mas":
        k = 2
    elif model == "betweenness":
        k = 3
    elif k is None:
        raise ValueError("model 'random-k' needs k")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k > MAX_ARITY:
        raise ValueError(f"k={k} exceeds the maximum arity {MAX_ARITY}")
    if m < 0:
        raise ValueError("m must be non-negative")
    if not 0 <= allowed_fraction <= 1:
        raise ValueError("allowed_fraction must lie in [0, 1]")
    rng = random.Random(seed)
    if model == "mas":
        fixed: Shape | None = Shape.of(2, frozenset({(0, 1)}))
    elif model == "betweenness":
        fixed = Shape.of(3, frozenset({(0, 1, 2), (2, 1, 0)}))
    else:
        fixed = None
    constraints = []
    for _ in range(m):
        vars_ = tuple(rng.sample(range(n), k))
        shape = fixed or Shape.of(k, frozenset(p for p in orders(k) if rng.random() < allowed_fraction))
        constraints.append(Constraint._on(shape, vars_))
    return Instance._unchecked(n, tuple(constraints))
