"""Exact Efron-Stein decomposition of the ordering objective.

The objective of an instance, read on independent uniform coordinates in
[-1, 1]^n, splits into a sum of chain functions indexed by variable subsets:
the part on S depends only on the coordinates in S and has mean zero
conditioned on any proper subset.  Parts of distinct subsets are orthogonal,
the empty part is the average value, and the sum of all parts reconstructs
the objective at every tie-free point.

Decomposition is per constraint.  Constraints sharing a shape (an arity and
an allowed-order set, one interned ``instance.Shape``) differ only by a
variable renaming, so their decompositions are computed once per shape on
canonical variables ``0..d-1`` and kept on the shape.  The part of
an instance on S is the sum of the canonical parts that land on S, each
written on local variables ``0..|S|-1`` (variable ``S[i]`` is local ``i``).
Writing a part on other variables only relabels its cells: cell polynomials
are stored by position within the cell (see ``chainfn``), so they are shared
untouched, and a sum of parts is one pass of ``int`` adds.  Subsets whose
recipes of (canonical part, embedding, multiplicity) agree share one
interned sum, so each distinct recipe is added up, checked for cancellation
and integrated once.  This keeps instance decomposition linear in the number
of constraints.
"""

from __future__ import annotations

import collections
import itertools
from fractions import Fraction
from operator import attrgetter, itemgetter

from .chainfn import ChainFunction, linear_combination
from .instance import Constraint, Instance, Shape

Subset = tuple[int, ...]

# recipe key: (canonical decomposition, canonical subset, local permutation);
# the local permutation gives, per variable of the canonical subset, its rank
# within the sorted subset it lands on
_Key = tuple["_Canonical", Subset, tuple[int, ...]]


class _Canonical:
    """Decomposition of one constraint shape on variables ``0..d-1``."""

    __slots__ = ("mean", "parts", "_moments")

    def __init__(self, mean: Fraction, parts: dict[Subset, ChainFunction]):
        self.mean = mean
        self.parts = parts
        self._moments: dict[tuple[Subset, int], Fraction] = {}

    def moment(self, s: Subset, r: int) -> Fraction:
        value = self._moments.get((s, r))
        if value is None:
            value = self._moments[s, r] = self.parts[s].moment(r)
        return value


class _Part:
    """An interned recipe of (key, multiplicity) pairs and its sum on local variables."""

    __slots__ = ("recipe", "local", "_moments")

    def __init__(self, recipe: tuple[tuple[_Key, int], ...]):
        self.recipe = recipe
        self.local = linear_combination(
            (mult, canon.parts[s].rename(dict(zip(s, perm)))) for (canon, s, perm), mult in recipe
        )
        self._moments: dict[int, Fraction] = {}

    def moment(self, r: int) -> Fraction:
        """E[part^r]; a single-entry recipe scales the canonical moment by mult^r."""
        value = self._moments.get(r)
        if value is None:
            if len(self.recipe) == 1:
                (((canon, s, _), mult),) = self.recipe
                value = canon.moment(s, r) * mult**r
            else:
                value = self.local.moment(r)
            self._moments[r] = value
        return value


def _subsets(items: Subset) -> list[Subset]:
    out: list[Subset] = []
    for r in range(len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


def _canonical(shape: Shape) -> _Canonical:
    """The decomposition of ``shape`` on positions ``0..d-1``, set up on first use and kept on the shape."""
    if shape.canonical is None:
        shape.canonical = _set_up(shape)
    return shape.canonical


def _set_up(shape: Shape) -> _Canonical:
    positions = tuple(range(shape.arity))
    subsets = _subsets(positions)
    # each conditional expectation averages one variable out of a larger one
    conditional = {positions: ChainFunction.from_constraint(Constraint(positions, shape.allowed))}
    for s in reversed(subsets[:-1]):
        v = min(set(positions) - set(s))
        conditional[s] = conditional[tuple(sorted((*s, v)))]._eliminate(v)
    mean = conditional[()].expectation()
    parts: dict[Subset, ChainFunction] = {}
    for s in subsets[1:]:
        total = linear_combination(
            (-1 if (len(s) - len(t)) % 2 else 1, conditional[t].refine(s)) for t in _subsets(s)
        )
        if not total.is_zero():
            parts[s] = total
    return _Canonical(mean, parts)


def decompose_constraint(constraint: Constraint) -> dict[Subset, ChainFunction]:
    """Map each variable subset to its nonzero part; key ``()`` is the mean."""
    canon = _canonical(constraint.shape)
    out: dict[Subset, ChainFunction] = {}
    if canon.mean:
        out[()] = ChainFunction.constant(canon.mean)
    for s, part in canon.parts.items():
        mapping = {i: constraint.vars[i] for i in s}
        out[tuple(sorted(mapping.values()))] = part.rename(mapping)
    return out


class ESDecomposition:
    """All nonzero parts of an instance objective, with cached moments.

    Subsets are sorted tuples of 0-based variable ids.  Each stored subset
    maps to an interned ``_Part``; subsets with equal recipes share one, so
    its moments are computed once.  ``part`` renames the local sum onto the
    subset's variables, and ``subsets`` sorts on its first call.
    """

    __slots__ = ("mean", "arity", "_parts", "_subsets", "_variance")

    def __init__(self, mean: Fraction, arity: int, parts: dict[Subset, _Part]):
        self.mean = mean
        self.arity = arity
        self._parts = parts
        self._subsets: list[Subset] | None = None
        self._variance: Fraction | None = None

    def subsets(self) -> list[Subset]:
        """Stored nonempty subsets, sorted by size then lexicographically."""
        if self._subsets is None:
            self._subsets = sorted(self._parts, key=lambda s: (len(s), s))
        return self._subsets

    @property
    def degree(self) -> int:
        return max(map(len, self._parts), default=0)

    def part(self, subset) -> ChainFunction:
        s = tuple(sorted(subset))
        return self._parts[s].local.rename(dict(enumerate(s)))

    def m2(self, subset) -> Fraction:
        return self._parts[tuple(sorted(subset))].moment(2)

    def m4(self, subset) -> Fraction:
        return self._parts[tuple(sorted(subset))].moment(4)

    def variance(self) -> Fraction:
        """Var of the objective: per distinct part, its m2 times the subsets holding it."""
        if self._variance is None:
            counts = collections.Counter(self._parts.values())
            self._variance = sum((p.moment(2) * c for p, c in counts.items()), Fraction(0))
        return self._variance

    def dependency_set(self) -> frozenset[int]:
        """Variables appearing in some nonzero part; the rest never matter."""
        return frozenset(v for s in self._parts for v in s)

    def local_fourth_moment_ratio(self) -> Fraction:
        """max E[part^4] / E[part^2]^2 over distinct stored parts; 1 when there are none."""
        distinct = dict.fromkeys(self._parts.values())
        return max((p.moment(4) / p.moment(2) ** 2 for p in distinct), default=Fraction(1))

    def min_m2(self) -> Fraction | None:
        """Smallest part second moment; None when no parts are stored."""
        return min((p.moment(2) for p in self._parts.values()), default=None)

    def evaluate_centered(self, point) -> Fraction:
        """Sum of all nonempty parts at a tie-free point (objective minus mean)."""
        total = Fraction(0)
        for s in self._parts:
            total += self.part(s).evaluate(point)
        return total


def _layout(canon: _Canonical, order: tuple[int, ...], ids: dict[_Key, int]) -> list[tuple[itemgetter, int]]:
    """Per part of ``canon``: a getter of its sorted subset from a constraint's variables, and its key's id.

    ``order`` lists a constraint's positions by increasing variable id;
    ``ids`` numbers recipe keys in the order they are first met.  A getter
    always returns a tuple: a one-variable subset is got by a slice.
    """
    out = []
    for s in canon.parts:
        positions = tuple(sorted(s, key=order.index))
        start = positions[0]
        get = itemgetter(*positions) if len(s) > 1 else itemgetter(slice(start, start + 1))
        key = (canon, s, tuple(map(positions.index, s)))
        out.append((get, ids.setdefault(key, len(ids))))
    return out


def decompose_instance(inst: Instance) -> ESDecomposition:
    """Decompose the full objective; linear in the number of constraints.

    Bucketing keeps one new object per part of a constraint, its subset.
    Recipe keys are small ints, one per (shape, canonical subset, local
    permutation), shared through one layout per (shape, variable order).  A
    subset's first key id is stored bare, with a list only for subsets that
    further ids hit, and a shared subset's recipe is its sorted tuple of
    ids.  A key tuple and a dict per part, alive until the end of the call,
    made the garbage collector's full passes about a quarter of the time on
    random-3 with n = 1e4 and m = 2e5.
    """
    ids: dict[_Key, int] = {}
    layouts: dict[tuple[Shape, tuple[int, ...]], list[tuple[itemgetter, int]]] = {}
    first: dict[Subset, int] = {}
    more: dict[Subset, list[int]] = {}
    for constraint in inst.constraints:
        cvars = constraint.vars
        order = tuple(sorted(range(len(cvars)), key=cvars.__getitem__))
        layout = layouts.get((constraint.shape, order))
        if layout is None:
            layout = layouts[constraint.shape, order] = _layout(_canonical(constraint.shape), order, ids)
        for get, key in layout:
            subset = get(cvars)
            if subset in first:
                more.setdefault(subset, []).append(key)
            else:
                first[subset] = key
    keys = list(ids)
    # None stands for a recipe whose sum cancels; one canonical part never does
    interned: dict[int | tuple[int, ...], _Part | None] = {}
    parts: dict[Subset, _Part] = {}
    for subset, key in first.items():
        rest = more.get(subset)
        recipe: int | tuple[int, ...] = key if rest is None else tuple(sorted([key, *rest]))
        if recipe not in interned:
            if rest is None:
                interned[recipe] = _Part(((keys[key], 1),))
            else:
                part = _Part(tuple((keys[k], len(list(run))) for k, run in itertools.groupby(recipe)))
                interned[recipe] = None if part.local.is_zero() else part
        part = interned[recipe]
        if part is not None:
            parts[subset] = part
    shapes = collections.Counter(map(attrgetter("shape"), inst.constraints))
    mean = sum((_canonical(shape).mean * count for shape, count in shapes.items()), Fraction(0))
    return ESDecomposition(mean, max((shape.arity for shape in shapes), default=0), parts)
