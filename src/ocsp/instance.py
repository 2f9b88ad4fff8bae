"""Ordering CSP instances: constraints over a total order of variables.

A constraint fixes a tuple of distinct variables and a set of allowed
relative orders.  An order is written as a tuple of positions into the
variable tuple, listed smallest value first, so for ``vars = (v0, v1, v2)``
the tuple ``(2, 1, 0)`` allows exactly ``x_{v2} < x_{v1} < x_{v0}``.

Variables are 0-based internally.  The text format (see ``parse_instance``)
is 1-based.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ParseError

Ordering = tuple[int, ...]

MAX_ARITY = 6

MODELS = ("mas", "betweenness", "random-k")


@dataclass(frozen=True)
class Constraint:
    """Allowed relative orders of a tuple of distinct variables."""

    vars: tuple[int, ...]
    allowed: frozenset[tuple[int, ...]]

    def __post_init__(self):
        d = len(self.vars)
        if d == 0:
            raise ValueError("a constraint needs at least one variable")
        if len(set(self.vars)) != d:
            raise ValueError(f"repeated variable in constraint {self.vars}")
        base = tuple(range(d))
        for perm in self.allowed:
            if tuple(sorted(perm)) != base:
                raise ValueError(f"{perm} is not a permutation of 0..{d - 1}")

    @property
    def arity(self) -> int:
        return len(self.vars)

    def satisfied_by(self, position: Sequence[int] | Mapping[int, int]) -> bool:
        """Whether the relative order induced by variable positions is allowed."""
        induced = tuple(sorted(range(len(self.vars)), key=lambda i: position[self.vars[i]]))
        return induced in self.allowed


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
        total = sum(len(c.allowed) * (denominator // math.factorial(c.arity)) for c in self.constraints)
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
    """
    header_seen = False
    n: int | None = None
    constraints: list[Constraint] = []
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
        if key == "emptycon":
            if len(toks) == 1:
                raise _error("emptycon needs at least one variable", lineno, line, 0)
            cuts = [0, len(toks)]
        elif key == "con":
            # order i is the tokens strictly between cuts[i] and cuts[i + 1]
            cuts = [0, *(k for k, token in enumerate(toks) if token == "|"), len(toks)]
            if any(b - a == 1 for a, b in zip(cuts, cuts[1:])):
                raise _error("empty order in 'con' line", lineno, line, 0)
        else:
            raise _error(f"unknown directive {key!r}", lineno, line, 0)
        first = _read_vars(toks, 1, cuts[1], n, lineno, line)
        if len(first) > MAX_ARITY:
            raise _error(f"arity {len(first)} exceeds the maximum {MAX_ARITY}", lineno, line, 0)
        index = {v: i for i, v in enumerate(first)}
        allowed: set[tuple[int, ...]] = {tuple(range(len(first)))} if key == "con" else set()
        for start, stop in zip(cuts[1:], cuts[2:]):
            seq = _read_vars(toks, start + 1, stop, n, lineno, line)
            if set(seq) != index.keys():
                raise _error("orders in one 'con' line must use the same variables", lineno, line, start + 1)
            perm = tuple(index[v] for v in seq)
            if perm in allowed:
                raise _error("duplicate order in 'con' line", lineno, line, start + 1)
            allowed.add(perm)
        constraints.append(Constraint(first, frozenset(allowed)))
    if not header_seen:
        raise ParseError("missing header 'ocsp 1'", 1, 1)
    if n is None:
        raise ParseError("missing 'nvars' line", 1, 1)
    return Instance(n, tuple(constraints))


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
    full = list(itertools.permutations(range(k)))
    constraints = []
    for _ in range(m):
        vars_ = tuple(rng.sample(range(n), k))
        if model == "mas":
            allowed: frozenset[tuple[int, ...]] = frozenset({(0, 1)})
        elif model == "betweenness":
            allowed = frozenset({(0, 1, 2), (2, 1, 0)})
        else:
            allowed = frozenset(p for p in full if rng.random() < allowed_fraction)
        constraints.append(Constraint(vars_, allowed))
    return Instance(n, tuple(constraints))
