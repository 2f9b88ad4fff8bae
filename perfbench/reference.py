"""Reference values for the benchmark's checks, computed without ``ocsp``.

Everything here is integer counting over orderings and ``Fraction``.  The
instance text is read by this module's own parser.  Constraints on the same
variable set are merged into one table ``g_T``: for each order of T (a tuple
of variables, smallest first) the number of the set's constraints it
satisfies.  The objective is the sum of these tables, so

- AVG is the sum of the table means;
- sigma^2 is the sum of Cov(g_T, g_U) over ordered pairs of tables whose
  variable sets meet (disjoint tables are independent), each covariance
  counted over the orderings of T | U;
- for n <= 8 the central moments also come from enumerating all n! orders;
- the certificate constant C is the largest m4 / m2^2 over the nonzero
  Efron-Stein parts, each part integrated exactly (see ``part_moments``).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

FULL_ENUMERATION_MAX_N = 8
KERNEL_ENUMERATION_MAX = 9
SEARCH_TRIES = 1_000

Table = dict[tuple[int, ...], int]


def parse_text(text: str) -> tuple[int, dict[tuple[int, ...], Table], int]:
    """(n, tables keyed by sorted 0-based variable tuple, largest arity)."""
    n = 0
    tables: dict[tuple[int, ...], Table] = {}
    arity = 0
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "nvars":
            n = int(rest)
        elif head == "con":
            seqs = [tuple(int(tok) - 1 for tok in alt.split()) for alt in rest.split("|")]
            key = tuple(sorted(seqs[0]))
            arity = max(arity, len(key))
            table = tables.setdefault(key, {})
            for seq in seqs:
                table[seq] = table.get(seq, 0) + 1
        elif head not in ("ocsp", "#", ""):
            raise ValueError(f"unexpected line {line!r}")
    return n, tables, arity


def input_counts(text: str) -> tuple[int, int, int]:
    """(constraints, distinct (arity, allowed set) shapes, subsets shared by two or more constraints).

    A shape is read as the program keys its cache: allowed orders as
    permutations of the first order listed on the ``con`` line.
    """
    constraints = 0
    shapes = set()
    subsets: Counter = Counter()
    for line in text.splitlines():
        if not line.startswith("con "):
            continue
        seqs = [tuple(alt.split()) for alt in line[4:].split("|")]
        first = seqs[0]
        shapes.add((len(first), frozenset(tuple(first.index(v) for v in seq) for seq in seqs)))
        key = sorted(first)
        for r in range(1, len(key) + 1):
            subsets.update(itertools.combinations(key, r))
        constraints += 1
    return constraints, len(shapes), sum(1 for c in subsets.values() if c >= 2)


def restrict(rank: dict[int, int], key: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(key, key=rank.__getitem__))


def is_constant(key: tuple[int, ...], table: Table) -> bool:
    values = {table.get(seq, 0) for seq in itertools.permutations(key)}
    return len(values) == 1


def table_mean(key: tuple[int, ...], table: Table) -> Fraction:
    return Fraction(sum(table.values()), math.factorial(len(key)))


def objective(tables: dict[tuple[int, ...], Table], ordering) -> int:
    """Satisfied constraints under ``ordering`` (0-based variables, smallest first)."""
    rank = {v: i for i, v in enumerate(ordering)}
    return sum(table.get(restrict(rank, key), 0) for key, table in tables.items())


class _Covariances:
    """Cov(g_T, g_U) by enumerating orders of T | U, cached up to relabelling."""

    def __init__(self):
        self._cache: dict[tuple, Fraction] = {}

    def __call__(self, t_key, t_table, u_key, u_table) -> Fraction:
        labels = {v: i for i, v in enumerate(t_key + tuple(v for v in u_key if v not in t_key))}

        def relabel(table: Table):
            return tuple(sorted((tuple(labels[v] for v in seq), c) for seq, c in table.items()))

        pattern = (tuple(labels[v] for v in u_key), relabel(t_table), relabel(u_table))
        value = self._cache.get(pattern)
        if value is None:
            value = self._cache[pattern] = self._count(len(t_key), pattern)
        return value

    @staticmethod
    def _count(t_size: int, pattern) -> Fraction:
        u_key, t_items, u_items = pattern
        t_key = tuple(range(t_size))
        t_table, u_table = dict(t_items), dict(u_items)
        width = max(t_size, *(i + 1 for i in u_key))
        joint = 0
        for perm in itertools.permutations(range(width)):
            rank = {v: i for i, v in enumerate(perm)}
            joint += t_table.get(restrict(rank, t_key), 0) * u_table.get(restrict(rank, u_key), 0)
        product = sum(t_table.values()) * sum(u_table.values())
        return Fraction(joint, math.factorial(width)) - Fraction(
            product, math.factorial(t_size) * math.factorial(len(u_key))
        )


def pairwise_variance(tables: dict[tuple[int, ...], Table]) -> Fraction:
    """sigma^2 as the sum of covariances of tables that share a variable."""
    live = {k: t for k, t in tables.items() if not is_constant(k, t)}
    by_var: dict[int, list[tuple[int, ...]]] = {}
    for key in live:
        for v in key:
            by_var.setdefault(v, []).append(key)
    cov = _Covariances()
    total = Fraction(0)
    for key, table in live.items():
        total += cov(key, table, key, table)
        for other in {u for v in key for u in by_var[v] if u > key}:
            total += 2 * cov(key, table, other, live[other])
    return total


def enumerated_moments(n: int, tables) -> tuple[Fraction, Fraction, Fraction]:
    """(AVG, E[(phi-AVG)^2], E[(phi-AVG)^4]) over all n! orders."""
    hist = Counter(objective(tables, perm) for perm in itertools.permutations(range(n)))
    count = math.factorial(n)
    avg = Fraction(sum(v * c for v, c in hist.items()), count)
    m2 = sum(c * (v - avg) ** 2 for v, c in hist.items()) / count
    m4 = sum(c * (v - avg) ** 4 for v, c in hist.items()) / count
    return avg, m2, m4


# -- Efron-Stein parts and the certificate constant C ---------------------------
#
# Coordinates are independent and uniform on [0, 1].  The program reads them
# on [-1, 1]; the increasing affine map between the two changes no part's
# distribution, so m2 and m4 agree.  A part on a subset S of a table's
# variables is written in local terms: variable i is the i-th smallest of S,
# a cell is a tuple of local variables in increasing order of value, and each
# cell holds a polynomial {exponents in local order: coefficient}.  Written
# so, a part does not depend on which variables S names, and the parts that
# tables put on the same subset add up entry by entry.

Poly = dict[tuple[int, ...], Fraction]
Part = dict[tuple[int, ...], Poly]


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _gap_power(width: int, low: int | None, high: int | None, j: int) -> Poly:
    """(x_high - x_low)^j / j!, where a missing ``low`` is 0 and a missing ``high`` is 1."""

    def unit(var):
        return tuple(int(i == var) for i in range(width))

    base: Poly = {unit(high): Fraction(1)}  # unit(None) is the constant 1
    if low is not None:
        base[unit(low)] = Fraction(-1)
    out: Poly = {unit(None): Fraction(1, math.factorial(j))}
    for _ in range(j):
        out = _poly_mul(out, base)
    return out


def _conditional(width: int, items, fixed: tuple[int, ...]) -> Poly:
    """E[table | the variables of ``fixed``], on the cell where they rise in the order ``fixed``.

    A listed order is satisfied when its fixed variables come in the cell's
    order and each run of free variables between two fixed ones (or an end
    of [0, 1]) falls sorted into that gap: probability gap^j / j! for a run
    of j.
    """
    total: Poly = {}
    fixed_set = set(fixed)
    for seq, count in items:
        if tuple(v for v in seq if v in fixed_set) != fixed:
            continue
        term: Poly = {(0,) * width: Fraction(count)}
        low, run = None, 0
        for v in seq + (None,):
            if v is None or v in fixed_set:
                term = _poly_mul(term, _gap_power(width, low, v, run))
                low, run = v, 0
            else:
                run += 1
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return total


@functools.lru_cache(maxsize=None)
def canonical_parts(width: int, items: frozenset) -> dict[tuple[int, ...], Part]:
    """The nonzero parts of one table on variables 0..width-1, keyed by subset, in local terms.

    The part on S is sum over T within S of (-1)^|S - T| E[table | x_T]
    (inclusion-exclusion), cell by cell.
    """
    parts: dict[tuple[int, ...], Part] = {}
    for size in range(1, width + 1):
        for subset in itertools.combinations(range(width), size):
            local = {v: i for i, v in enumerate(subset)}
            part: Part = {}
            for cell in itertools.permutations(subset):
                poly: Poly = {}
                for r in range(size + 1):
                    for sub in itertools.combinations(subset, r):
                        sign = -1 if (size - r) % 2 else 1
                        order = tuple(v for v in cell if v in sub)
                        for e, c in _conditional(width, items, order).items():
                            key = tuple(e[v] for v in subset)
                            poly[key] = poly.get(key, 0) + sign * c
                poly = {e: c for e, c in poly.items() if c}
                if poly:
                    part[tuple(local[v] for v in cell)] = poly
            if part:
                parts[subset] = part
    return parts


def _integrate(cell: tuple[int, ...], poly: dict) -> Fraction:
    """Integral over the cell of [0, 1]^S: a monomial gives prod over i of 1 / (a_1 + ... + a_i + i)."""
    total = Fraction(0)
    for e, c in poly.items():
        denominator, acc = 1, 0
        for i, v in enumerate(cell, 1):
            acc += e[v]
            denominator *= acc + i
        total += Fraction(c, denominator) if isinstance(c, int) else c / denominator
    return total


def part_moments(part: Part) -> tuple[Fraction, Fraction]:
    """(E[part^2], E[part^4]), with integer coefficients inside each cell."""
    m2 = m4 = Fraction(0)
    for cell, poly in part.items():
        scale = math.lcm(*(c.denominator for c in poly.values()))
        ints = {e: int(c * scale) for e, c in poly.items()}
        square = _poly_mul(ints, ints)
        m2 += _integrate(cell, square) / scale**2
        m4 += _integrate(cell, _poly_mul(square, square)) / scale**4
    return m2, m4


@functools.lru_cache(maxsize=None)
def _canonical_moments(width: int, items: frozenset) -> dict:
    return {s: part_moments(p) for s, p in canonical_parts(width, items).items()}


def certificate_constant(tables: dict[tuple[int, ...], Table]) -> tuple[Fraction, Fraction]:
    """(C, sum of m2 over the parts): C = max(1, max m4 / m2^2 over the nonzero parts of the objective).

    Each table is decomposed once per pattern (its table relabelled to
    0..d-1 in key order).  A subset that one table alone reaches takes its
    moments from the pattern; the parts on a subset that several tables
    reach are added, and dropped if they cancel.
    """
    buckets: dict[tuple[int, ...], list] = {}
    for key, table in tables.items():
        local = {v: i for i, v in enumerate(key)}
        items = frozenset((tuple(local[v] for v in seq), c) for seq, c in table.items())
        for subset in canonical_parts(len(key), items):
            buckets.setdefault(tuple(key[i] for i in subset), []).append((len(key), items, subset))
    big_c, total_m2 = Fraction(1), Fraction(0)
    for entries in buckets.values():
        if len(entries) == 1:
            width, items, subset = entries[0]
            m2, m4 = _canonical_moments(width, items)[subset]
        else:
            summed: Part = {}
            for width, items, subset in entries:
                for cell, poly in canonical_parts(width, items)[subset].items():
                    target = summed.setdefault(cell, {})
                    for e, c in poly.items():
                        target[e] = target.get(e, 0) + c
            summed = {cell: {e: c for e, c in p.items() if c} for cell, p in summed.items()}
            summed = {cell: p for cell, p in summed.items() if p}
            if not summed:
                continue
            m2, m4 = part_moments(summed)
        total_m2 += m2
        big_c = max(big_c, m4 / m2**2)
    return big_c, total_m2


@dataclass
class KernelFacts:
    """What enumeration over the variables of the non-constant tables shows."""

    kernel: tuple[int, ...]
    values: dict[tuple[int, ...], int]  # objective of the live tables per order
    avg: Fraction  # mean of ``values``
    gap: Fraction  # OPT - AVG
    m2: Fraction
    m4: Fraction


def kernel_facts(tables) -> KernelFacts | None:
    """Kernel, OPT - AVG and central moments by enumerating the live variables.

    Constant tables never change the objective, so the objective is a
    function of the variables of the other tables; among those, the kernel
    is each variable whose move can change the value.  None when there are
    more than ``KERNEL_ENUMERATION_MAX`` such variables.
    """
    live = {k: t for k, t in tables.items() if not is_constant(k, t)}
    vars_ = sorted({v for k in live for v in k})
    if len(vars_) > KERNEL_ENUMERATION_MAX:
        return None
    values = {perm: objective(live, perm) for perm in itertools.permutations(vars_)}
    kernel = []
    for v in vars_:
        seen: dict[tuple[int, ...], int] = {}
        for perm, value in values.items():
            rest = tuple(u for u in perm if u != v)
            if seen.setdefault(rest, value) != value:
                kernel.append(v)
                break
    count = len(values)
    avg = Fraction(sum(values.values()), count)
    m2 = sum((x - avg) ** 2 for x in values.values()) / count
    m4 = sum((x - avg) ** 4 for x in values.values()) / count
    return KernelFacts(tuple(kernel), values, avg, max(values.values()) - avg, m2, m4)


def search_above(n: int, tables, target: Fraction, seed: int) -> tuple[int, ...] | None:
    """Seeded random orders until one reaches ``target``; proves OPT >= target."""
    rng = random.Random(seed)
    live = {k: t for k, t in tables.items() if not is_constant(k, t)}
    base = sum(table_mean(k, t) for k, t in tables.items() if k not in live)
    order = list(range(n))
    for _ in range(SEARCH_TRIES):
        rng.shuffle(order)
        if base + objective(live, order) >= target:
            return tuple(order)
    return None


@dataclass
class Reference:
    """Checked values for one decision."""

    n: int
    arity: int
    tables: dict
    avg: Fraction
    sigma2: Fraction
    big_c: Fraction  # the certificate constant C
    m4: Fraction | None  # E[(phi-AVG)^4], when small enough to enumerate
    kernel: KernelFacts | None
    proof: tuple[int, ...] | None  # an order reaching AVG + t, for certified decisions


def reference(text: str, t: Fraction, kernel: bool, seed: int = 0) -> Reference:
    """Checked values for one decision; ``kernel`` for a kernel-enumeration instance."""
    n, tables, arity = parse_text(text)
    avg = sum((table_mean(k, tab) for k, tab in tables.items()), Fraction(0))
    sigma2 = pairwise_variance(tables)
    big_c, parts_m2 = certificate_constant(tables)
    if parts_m2 != sigma2:
        raise AssertionError(f"pairwise sigma^2 {sigma2} != sum of part m2 {parts_m2}")
    m4 = None
    facts = kernel_facts(tables) if kernel else None
    if facts is not None:
        if facts.m2 != sigma2:
            raise AssertionError(f"pairwise sigma^2 {sigma2} != kernel enumeration {facts.m2}")
        m4 = facts.m4
    if n <= FULL_ENUMERATION_MAX_N:
        full_avg, full_m2, full_m4 = enumerated_moments(n, tables)
        if (full_avg, full_m2) != (avg, sigma2):
            raise AssertionError(f"pairwise (AVG, sigma^2) {(avg, sigma2)} != enumeration {(full_avg, full_m2)}")
        m4 = full_m4
    proof = None if kernel else search_above(n, tables, avg + t, seed)
    return Reference(n, arity, tables, avg, sigma2, big_c, m4, facts, proof)
