"""Independent ground truth via linear-extension counting and enumeration.

Everything here avoids the chain-function machinery on purpose: expectations
of products of order indicators reduce to counting linear extensions of the
union poset, so moments of the objective come out exactly by a completely
different route.  Sizes are desk-scale (posets up to ~24 elements, full
enumeration up to 8 variables); the point is trust, not speed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceededError, CapExceededError, CyclicPosetError
from .instance import Instance

Predicate = tuple[int, ...]  # variables listed smallest first

DEFAULT_MOMENT_BUDGET = 2_000_000
DEFAULT_OPT_CAP = 8


@dataclass(frozen=True)
class Poset:
    """A strict partial order stored as its transitive closure."""

    elements: tuple[int, ...]
    relation: frozenset[tuple[int, int]]

    @classmethod
    def from_pairs(cls, elements, pairs) -> "Poset":
        elems = tuple(sorted(set(elements)))
        index = {e: i for i, e in enumerate(elems)}
        n = len(elems)
        succ = [0] * n
        for a, b in pairs:
            succ[index[a]] |= 1 << index[b]
        # transitive closure by propagation to a fixed point
        changed = True
        while changed:
            changed = False
            for i in range(n):
                reach = succ[i]
                extra = 0
                rest = reach
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    extra |= succ[j]
                if extra & ~reach:
                    succ[i] = reach | extra
                    changed = True
        closure = frozenset(
            (elems[i], elems[j]) for i in range(n) for j in range(n) if succ[i] >> j & 1
        )
        return cls(elems, closure)

    @property
    def acyclic(self) -> bool:
        return all((e, e) not in self.relation for e in self.elements)


def count_linear_extensions(poset: Poset) -> int:
    """Number of total orders extending the poset, by down-set recursion."""
    if not poset.acyclic:
        raise CyclicPosetError("a cyclic relation has no linear extensions")
    elems = poset.elements
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    pred = [0] * n
    for a, b in poset.relation:
        pred[index[b]] |= 1 << index[a]
    full = (1 << n) - 1
    memo: dict[int, int] = {full: 1}

    def rec(placed: int) -> int:
        known = memo.get(placed)
        if known is not None:
            return known
        total = 0
        for i in range(n):
            bit = 1 << i
            if not placed & bit and pred[i] & placed == pred[i]:
                total += rec(placed | bit)
        memo[placed] = total
        return total

    return rec(0)


def _predicate_pairs(predicates) -> list[tuple[int, int]]:
    return [(p[i], p[i + 1]) for p in predicates for i in range(len(p) - 1)]


@lru_cache(maxsize=1 << 16)
def _product_expectation_canonical(predicates: tuple[Predicate, ...]) -> Fraction:
    union = sorted({v for p in predicates for v in p})
    poset = Poset.from_pairs(union, _predicate_pairs(predicates))
    if not poset.acyclic:
        return Fraction(0)
    return Fraction(count_linear_extensions(poset), math.factorial(len(union)))


def product_expectation(predicates) -> Fraction:
    """P(every predicate holds) under a uniform random total order.

    A predicate is a tuple of variables required to appear in that relative
    order.  The probability is (#linear extensions of the union poset) / |U|!,
    and 0 when the union is cyclic.
    """
    preds = tuple(tuple(p) for p in predicates)
    union = sorted({v for p in preds for v in p})
    relabel = {v: i for i, v in enumerate(union)}
    key = tuple(sorted(tuple(relabel[v] for v in p) for p in preds))
    return _product_expectation_canonical(key)


def _basic_predicates(inst: Instance) -> list[Predicate]:
    preds = []
    for c in inst.constraints:
        for perm in sorted(c.allowed):
            preds.append(tuple(c.vars[i] for i in perm))
    return preds


def _raw_moment(predicates: list[Predicate], j: int) -> Fraction:
    """E[Phi^j] where Phi is the sum of the predicate indicators."""
    if j == 0:
        return Fraction(1)
    counted = sorted(
        # collapse duplicate predicates; `reps` of an identical predicate
        # multiply the count of ordered tuples hitting it
        ((pred, predicates.count(pred)) for pred in set(predicates)),
    )
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(counted, j):
        mult = math.factorial(j)
        weight = 1
        for (pred, reps), group in itertools.groupby(combo):
            size = len(list(group))
            mult //= math.factorial(size)
            weight *= reps**size
        total += mult * weight * product_expectation([pred for pred, _ in combo])
    return total


def exact_central_moment(
    inst: Instance, r: int, budget: int = DEFAULT_MOMENT_BUDGET
) -> Fraction:
    """E[(Phi - avg)^r] exactly, by expanding over predicate tuples.

    Meant for r in {2, 4}.  The deduplicated tuple count must stay within
    ``budget``.
    """
    if r < 1:
        raise ValueError("moment order must be at least 1")
    preds = _basic_predicates(inst)
    distinct = len(set(preds))
    work = math.comb(distinct + r - 1, r)
    if work > budget:
        raise BudgetExceededError(
            f"{work} predicate tuples exceed the budget of {budget}"
        )
    avg = inst.average_value()
    total = Fraction(0)
    for j in range(r + 1):
        total += math.comb(r, j) * _raw_moment(preds, j) * (-avg) ** (r - j)
    return total


def brute_force_opt(inst: Instance, cap: int = DEFAULT_OPT_CAP) -> tuple[int, Fraction]:
    """(max value, exact mean value) over all n! orderings."""
    if inst.n > cap:
        raise CapExceededError(f"n={inst.n} exceeds the enumeration cap {cap}")
    best = 0
    total = 0
    count = 0
    for perm in itertools.permutations(range(inst.n)):
        value = inst.evaluate(perm)
        if value > best:
            best = value
        total += value
        count += 1
    return best, Fraction(total, count)
