"""Exact Efron-Stein decomposition of the ordering objective.

The objective of an instance, read on independent uniform coordinates in
[-1, 1]^n, splits into a sum of chain functions indexed by variable subsets:
the part on S depends only on the coordinates in S and has mean zero
conditioned on any proper subset.  Parts of distinct subsets are orthogonal,
the empty part is the average value, and the sum of all parts reconstructs
the objective at every tie-free point.

Decomposition is per constraint.  Constraints sharing an arity and an
allowed-order set differ only by a variable renaming, so their decompositions
are computed once on canonical variables ``0..d-1`` and cached; instance
aggregation then stores, per subset, either a cheap (canonical part, renaming,
multiplicity) recipe or, when several constraints hit the same subset, the
materialized sum (dropped if it cancels to zero).  This keeps instance
decomposition linear in the number of constraints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .chainfn import ChainFunction
from .instance import Constraint, Instance

Subset = tuple[int, ...]

# recipe entry: (canonical decomposition, canonical subset, renamed variables)
_Entry = tuple["_Canonical", Subset, tuple[int, ...]]


class _Canonical:
    """Decomposition of one constraint shape on variables ``0..d-1``."""

    __slots__ = ("mean", "parts", "_m2", "_m4")

    def __init__(self, mean: Fraction, parts: dict[Subset, ChainFunction]):
        self.mean = mean
        self.parts = parts
        self._m2: dict[Subset, Fraction] = {}
        self._m4: dict[Subset, Fraction] = {}

    def m2(self, s: Subset) -> Fraction:
        value = self._m2.get(s)
        if value is None:
            value = self._m2[s] = self.parts[s].moment(2)
        return value

    def m4(self, s: Subset) -> Fraction:
        value = self._m4.get(s)
        if value is None:
            value = self._m4[s] = self.parts[s].moment(4)
        return value


def _subsets(items: Subset) -> list[Subset]:
    out: list[Subset] = []
    for r in range(len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


@lru_cache(maxsize=256)
def _canonical(d: int, allowed: frozenset[tuple[int, ...]]) -> _Canonical:
    indicator = ChainFunction.from_constraint(Constraint(tuple(range(d)), allowed))
    positions = tuple(range(d))
    conditional = {s: indicator.conditional_expectation(s) for s in _subsets(positions)}
    mean = conditional[()].expectation()
    parts: dict[Subset, ChainFunction] = {}
    for s in _subsets(positions):
        if not s:
            continue
        total = ChainFunction._raw(frozenset(s), {})
        for t in _subsets(s):
            sign = -1 if (len(s) - len(t)) % 2 else 1
            total = total + conditional[t].refine(s).scale(sign)
        if not total.is_zero():
            parts[s] = total
    return _Canonical(mean, parts)


def decompose_constraint(constraint: Constraint) -> dict[Subset, ChainFunction]:
    """Map each variable subset to its nonzero part; key ``()`` is the mean."""
    canon = _canonical(constraint.arity, constraint.allowed)
    out: dict[Subset, ChainFunction] = {}
    if canon.mean:
        out[()] = ChainFunction.constant(canon.mean)
    for s, part in canon.parts.items():
        mapping = {i: constraint.vars[i] for i in s}
        out[tuple(sorted(mapping.values()))] = part.rename(mapping)
    return out


def _materialize(entry: _Entry, multiplicity: int) -> ChainFunction:
    canon, s, renamed = entry
    cf = canon.parts[s].rename(dict(zip(s, renamed)))
    if multiplicity != 1:
        cf = cf.scale(multiplicity)
    return cf


class ESDecomposition:
    """All nonzero parts of an instance objective, with cached moments.

    Subsets are sorted tuples of 0-based variable ids.  Parts coming from a
    single constraint stay as renaming recipes until accessed; their moments
    come from the canonical cache without any integration.  ``_cfs`` holds
    the materialized sums of shared subsets, ``_materialized`` the recipes
    accessed through ``part``.
    """

    __slots__ = ("mean", "arity", "_lazy", "_cfs", "_materialized", "_m2", "_m4", "_subsets", "_variance")

    def __init__(
        self,
        mean: Fraction,
        arity: int,
        lazy: dict[Subset, tuple[_Entry, int]],
        cfs: dict[Subset, ChainFunction],
    ):
        self.mean = mean
        self.arity = arity
        self._lazy = lazy
        self._cfs = cfs
        self._materialized: dict[Subset, ChainFunction] = {}
        self._m2: dict[Subset, Fraction] = {}
        self._m4: dict[Subset, Fraction] = {}
        self._subsets = sorted(itertools.chain(lazy, cfs), key=lambda s: (len(s), s))
        self._variance: Fraction | None = None

    def subsets(self) -> list[Subset]:
        """Stored nonempty subsets, sorted by size then lexicographically."""
        return self._subsets

    @property
    def degree(self) -> int:
        return len(self._subsets[-1]) if self._subsets else 0

    def part(self, subset) -> ChainFunction:
        s = tuple(sorted(subset))
        if s in self._cfs:
            return self._cfs[s]
        cf = self._materialized.get(s)
        if cf is None:
            entry, mult = self._lazy[s]
            cf = self._materialized[s] = _materialize(entry, mult)
        return cf

    def m2(self, subset) -> Fraction:
        s = tuple(sorted(subset))
        value = self._m2.get(s)
        if value is None:
            pair = self._lazy.get(s)
            if pair is not None:
                entry, mult = pair
                value = entry[0].m2(entry[1]) * mult * mult
            else:
                value = self._cfs[s].moment(2)
            self._m2[s] = value
        return value

    def m4(self, subset) -> Fraction:
        s = tuple(sorted(subset))
        value = self._m4.get(s)
        if value is None:
            pair = self._lazy.get(s)
            if pair is not None:
                entry, mult = pair
                value = entry[0].m4(entry[1]) * mult**4
            else:
                value = self._cfs[s].moment(4)
            self._m4[s] = value
        return value

    def variance(self) -> Fraction:
        """Var of the objective: the sum of second moments of all parts.

        Recipes are summed per canonical entry, as its m2 times the sum of
        the squared multiplicities.
        """
        if self._variance is None:
            weights: dict[tuple[_Canonical, Subset], int] = {}
            for (canon, s, _), mult in self._lazy.values():
                weights[canon, s] = weights.get((canon, s), 0) + mult * mult
            total = Fraction(0)
            for (canon, s), weight in weights.items():
                total += canon.m2(s) * weight
            for s in self._cfs:
                total += self.m2(s)
            self._variance = total
        return self._variance

    def dependency_set(self) -> frozenset[int]:
        """Variables appearing in some nonzero part; the rest never matter."""
        return frozenset(v for s in self._subsets for v in s)

    def local_fourth_moment_ratio(self) -> Fraction:
        """max E[part^4] / E[part^2]^2 over stored parts; 1 when there are none.

        The multiplicity of a recipe cancels from its ratio, so recipes count
        once per canonical entry.
        """
        entries = {(canon, s) for (canon, s, _), _ in self._lazy.values()}
        ratios = [canon.m4(s) / canon.m2(s) ** 2 for canon, s in entries]
        ratios += [self.m4(s) / self.m2(s) ** 2 for s in self._cfs]
        return max(ratios, default=Fraction(1))

    def min_m2(self) -> Fraction | None:
        """Smallest part second moment; None when no parts are stored."""
        values = [self.m2(s) for s in self._subsets]
        return min(values) if values else None

    def evaluate_centered(self, point) -> Fraction:
        """Sum of all nonempty parts at a tie-free point (objective minus mean)."""
        total = Fraction(0)
        for s in self._subsets:
            total += self.part(s).evaluate(point)
        return total


def decompose_instance(inst: Instance) -> ESDecomposition:
    """Decompose the full objective; linear in the number of constraints."""
    mean = Fraction(0)
    buckets: dict[Subset, dict[_Entry, int]] = {}
    for constraint in inst.constraints:
        canon = _canonical(constraint.arity, constraint.allowed)
        mean += canon.mean
        cvars = constraint.vars
        for s in canon.parts:
            renamed = tuple(cvars[i] for i in s)
            key = tuple(sorted(renamed))
            entry = (canon, s, renamed)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {entry: 1}
            else:
                bucket[entry] = bucket.get(entry, 0) + 1
    lazy: dict[Subset, tuple[_Entry, int]] = {}
    cfs: dict[Subset, ChainFunction] = {}
    for key, bucket in buckets.items():
        if len(bucket) == 1:
            ((entry, mult),) = bucket.items()
            lazy[key] = (entry, mult)
            continue
        total = None
        for entry, mult in bucket.items():
            cf = _materialize(entry, mult)
            total = cf if total is None else total + cf
        if not total.is_zero():
            cfs[key] = total
    return ESDecomposition(mean, inst.arity, lazy, cfs)
