"""Piecewise polynomials on ordering cells of the cube [-1, 1]^S.

A chain function on a variable set S assigns one polynomial per cell, where
a cell is a strict ordering of S (a tuple of variable ids, smallest value
first).  Cells not stored carry the zero polynomial; ties have measure zero
and are left undefined.  Constraint indicators are chain functions, and the
class is closed under sums, products, and conditional expectation onto a
subset of S when the coordinates are independent and uniform on [-1, 1].

Cell polynomials are stored in u = (x + 1)/2.  It maps a cell of d variables
onto the order simplex 0 < u_0 < ... < u_{d-1} < 1 (positions in cell order)
and the uniform density on [-1, 1] onto density 1 on [0, 1].  A function
holds one positive ``int`` denominator D and, per cell, a dict
{packed exponent: int coefficient}; digit i of a packed key, ``_BITS`` bits
wide, is the exponent of the cell's i-th smallest variable.  So multiplying
two monomials is one integer add of their keys, renaming variables leaves
every polynomial untouched, and each monomial integrates over the simplex in
closed form:

    integral of prod_i u_i^{a_i} = prod_j 1 / sum_{i<=j} (a_i + 1).

An exponent above ``_MAX_EXPONENT`` would carry into the next digit, so the
operations that raise exponents check the bound and raise ``ValueError``.
x-coordinates appear only in ``evaluate`` and in rendering.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import SupportMismatchError, TieError

Cell = tuple[int, ...]
Poly = dict[int, int]
Scalar = Union[int, Fraction]

_BITS = 8
_MASK = (1 << _BITS) - 1
_MAX_EXPONENT = _MASK
_ONE: Poly = {0: 1}


class ChainFunction:
    """Cellwise polynomial function of the variables in ``support``.

    On ``cell`` the value is ``sum(c * prod_i u_i^{a_i}) / denominator`` over
    the terms of ``pieces[cell]``, with u_i = (x_{cell[i]} + 1)/2.  No piece is
    empty or holds a zero coefficient, and the denominator is coprime to the
    coefficients, so equal functions have equal fields.  Piece dicts are
    shared between functions and never modified.
    """

    __slots__ = ("support", "pieces", "denominator")

    def __init__(
        self,
        support: Iterable[int],
        pieces: Mapping[Cell, Mapping[int, int]],
        denominator: int = 1,
    ):
        sup = frozenset(support)
        if denominator < 1:
            raise ValueError("denominator must be a positive integer")
        for cell, poly in pieces.items():
            if frozenset(cell) != sup or len(cell) != len(sup):
                raise ValueError(f"cell {cell} is not an ordering of the support")
            if any(key < 0 or key >> (_BITS * len(cell)) for key in poly):
                raise ValueError(f"exponent keys of cell {cell} need {len(cell)} digits of {_BITS} bits")
        clean, denominator = _lowest_terms({tuple(cell): poly for cell, poly in pieces.items()}, denominator)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "pieces", clean)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("ChainFunction is immutable")

    @staticmethod
    def _raw(support: frozenset[int], pieces: dict[Cell, Poly], denominator: int = 1) -> "ChainFunction":
        """Wrap pieces already in lowest terms without copying."""
        f = ChainFunction.__new__(ChainFunction)
        object.__setattr__(f, "support", support)
        object.__setattr__(f, "pieces", pieces)
        object.__setattr__(f, "denominator", denominator)
        return f

    @staticmethod
    def _reduced(support: frozenset[int], pieces: dict[Cell, Poly], denominator: int) -> "ChainFunction":
        """Wrap pieces brought to lowest terms (see ``_lowest_terms``)."""
        return ChainFunction._raw(support, *_lowest_terms(pieces, denominator))

    @classmethod
    def constant(cls, value: Scalar) -> "ChainFunction":
        q = Fraction(value)
        return cls._raw(frozenset(), {(): {0: q.numerator}} if q else {}, q.denominator)

    @classmethod
    def from_constraint(cls, constraint) -> "ChainFunction":
        """Indicator of a constraint: 1 on each allowed cell, 0 elsewhere."""
        pieces = {tuple(constraint.vars[i] for i in perm): _ONE for perm in constraint.allowed}
        return cls._raw(frozenset(constraint.vars), pieces)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.pieces

    def cell_count(self) -> int:
        return len(self.pieces)

    def sorted_cells(self) -> list[Cell]:
        return sorted(self.pieces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainFunction):
            return NotImplemented
        return (
            self.support == other.support
            and self.denominator == other.denominator
            and self.pieces == other.pieces
        )

    def __str__(self) -> str:
        if not self.pieces:
            return "0"
        parts = []
        for cell in self.sorted_cells():
            label = "<".join(f"x{v + 1}" for v in cell) if cell else "const"
            parts.append(f"[{label}] {_render_in_x(cell, self.pieces[cell], self.denominator)}")
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"ChainFunction({self})"

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "ChainFunction") -> "ChainFunction":
        if not isinstance(other, ChainFunction):
            return NotImplemented
        return linear_combination([(1, self), (1, other)])

    def scale(self, factor: Scalar) -> "ChainFunction":
        q = Fraction(factor)
        out = {cell: {key: c * q.numerator for key, c in p.items()} for cell, p in self.pieces.items()}
        return ChainFunction._reduced(self.support, out, self.denominator * q.denominator)

    def __neg__(self) -> "ChainFunction":
        return self.scale(-1)

    def __sub__(self, other: "ChainFunction") -> "ChainFunction":
        if not isinstance(other, ChainFunction):
            return NotImplemented
        return linear_combination([(1, self), (-1, other)])

    def refine(self, target: Iterable[int]) -> "ChainFunction":
        """The same function viewed on a larger support.

        Every cell is split into all interleavings of the new variables, each
        keeping the cell's polynomial with its positions moved to make room.
        """
        target_set = frozenset(target)
        if not target_set >= self.support:
            raise SupportMismatchError(
                f"refinement target {sorted(target_set)} does not contain the support {sorted(self.support)}"
            )
        extra = sorted(target_set - self.support)
        if not extra:
            return self
        out = self.pieces
        for v in extra:
            out = {
                cell[:i] + (v,) + cell[i:]: _insert_position(poly, i, len(cell))
                for cell, poly in out.items()
                for i in range(len(cell) + 1)
            }
        return ChainFunction._raw(target_set, out, self.denominator)

    def __mul__(self, other: "ChainFunction") -> "ChainFunction":
        if not isinstance(other, ChainFunction):
            return NotImplemented
        if _max_exponent(self.pieces) + _max_exponent(other.pieces) > _MAX_EXPONENT:
            raise ValueError(f"product has an exponent above {_MAX_EXPONENT}")
        union = self.support | other.support
        a = self.refine(union)
        b = other.refine(union)
        out = {cell: _multiply(p, b.pieces[cell]) for cell, p in a.pieces.items() if cell in b.pieces}
        return ChainFunction._reduced(union, out, a.denominator * b.denominator)

    # -- integration -------------------------------------------------------------

    def _eliminate(self, var: int) -> "ChainFunction":
        """Average out one variable of the support.

        At position i of a cell the variable's u ranges between its cell
        neighbours u_{i-1} and u_{i+1}, or the ends 0 and 1, with density 1:
        a term c u_i^e integrates to c (u_{i+1}^{e+1} - u_{i-1}^{e+1}) / (e+1).
        The new exponent of a neighbour goes to its own digit, and the digits
        above i move down one.  Cells that agree after the variable is dropped
        merge.
        """
        positions = {cell: cell.index(var) for cell in self.pieces}
        factor = math.lcm(
            *{((key >> (_BITS * i)) & _MASK) + 1 for cell, i in positions.items() for key in self.pieces[cell]}
        )
        last = len(self.support) - 1
        out: dict[Cell, Poly] = {}
        for cell, poly in self.pieces.items():
            i = positions[cell]
            shift = _BITS * i
            below = (1 << shift) - 1
            acc = out.setdefault(cell[:i] + cell[i + 1 :], {})
            for key, c in poly.items():
                e = ((key >> shift) & _MASK) + 1
                c *= factor // e
                low, high = key & below, key >> (shift + _BITS)
                if (i < last and (high & _MASK) + e > _MAX_EXPONENT) or (
                    i and (low >> (shift - _BITS)) + e > _MAX_EXPONENT
                ):
                    raise ValueError(f"integration raises an exponent above {_MAX_EXPONENT}")
                upper = low | ((high + e) << shift) if i < last else low
                acc[upper] = acc.get(upper, 0) + c
                if i:
                    lower = (low + (e << (shift - _BITS))) | (high << shift)
                    acc[lower] = acc.get(lower, 0) - c
        return ChainFunction._reduced(self.support - {var}, out, self.denominator * factor)

    def conditional_expectation(self, target: Iterable[int]) -> "ChainFunction":
        """Expectation over the variables outside ``target``."""
        target_set = frozenset(target)
        if not target_set <= self.support:
            raise SupportMismatchError(
                f"conditioning target {sorted(target_set)} is not inside the support {sorted(self.support)}"
            )
        f = self
        for v in sorted(self.support - target_set):
            f = f._eliminate(v)
        return f

    def expectation(self) -> Fraction:
        f = self.conditional_expectation(())
        if not f.pieces:
            return Fraction(0)
        return Fraction(f.pieces[()][0], f.denominator)

    def moment(self, r: int) -> Fraction:
        """E[f^r] for a positive integer r, by the integer simplex kernel.

        Each stored cell polynomial is raised to the r-th power by squaring,
        equal monomials of all cells are summed, each distinct one is
        integrated once in closed form, and the numerators are added over one
        lcm of the simplex denominators before dividing by D^r.
        """
        if r < 1:
            raise ValueError("moment order must be at least 1")
        if r * _max_exponent(self.pieces) > _MAX_EXPONENT:
            raise ValueError(f"power {r} has an exponent above {_MAX_EXPONENT}")
        powers: Poly = {}
        for poly in self.pieces.values():
            p = poly
            for bit in bin(r)[3:]:
                p = _square(p)
                if bit == "1":
                    p = _multiply(p, poly)
            for key, c in p.items():
                powers[key] = powers.get(key, 0) + c
        return _simplex_integral(powers, len(self.support), self.denominator**r)

    # -- pointwise -----------------------------------------------------------------

    def evaluate(self, point: Mapping[int, Scalar]) -> Fraction:
        """Value at a tie-free point assigning every support variable; x maps to u = (x + 1)/2."""
        values = []
        for v in self.support:
            if v not in point:
                raise ValueError(f"variable x{v + 1} is unassigned")
            values.append((point[v], v))
        values.sort()
        for (a, _), (b, _) in zip(values, values[1:]):
            if a == b:
                raise TieError(f"point has tied coordinates at value {a}")
        cell = tuple(v for _, v in values)
        total = Fraction(0)
        for key, c in self.pieces.get(cell, {}).items():
            for v, a in zip(cell, _digits(key, len(cell))):
                if a:
                    c *= ((Fraction(point[v]) + 1) / 2) ** a
            total += c
        return total / self.denominator

    def rename(self, mapping: Mapping[int, int]) -> "ChainFunction":
        """Relabel support variables through an injective map."""
        new_support = frozenset(mapping.get(v, v) for v in self.support)
        if len(new_support) != len(self.support):
            raise ValueError("renaming must be injective on the support")
        out = {tuple(mapping.get(v, v) for v in cell): poly for cell, poly in self.pieces.items()}
        return ChainFunction._raw(new_support, out, self.denominator)

    def serialized_pieces(self) -> list[dict]:
        """Deterministic cell-by-cell rendering, 1-based variable names."""
        return [
            {"cell": [v + 1 for v in cell], "poly": _render_in_x(cell, self.pieces[cell], self.denominator)}
            for cell in self.sorted_cells()
        ]


def linear_combination(terms: Iterable[tuple[int, ChainFunction]]) -> ChainFunction:
    """The sum of ``mult * f`` over a nonempty list of terms on one support, in one pass."""
    terms = list(terms)
    support = terms[0][1].support
    den = math.lcm(*(f.denominator for _, f in terms))
    out: dict[Cell, Poly] = {}
    for mult, f in terms:
        if f.support != support:
            raise SupportMismatchError(
                f"cannot add chain functions on supports {sorted(support)} and {sorted(f.support)}"
            )
        factor = mult * (den // f.denominator)
        for cell, poly in f.pieces.items():
            acc = out.get(cell)
            if acc is None:
                out[cell] = {key: c * factor for key, c in poly.items()}
                continue
            for key, c in poly.items():
                acc[key] = acc.get(key, 0) + c * factor
    return ChainFunction._reduced(support, out, den)


# -- packed polynomials ------------------------------------------------------------
#
# A cell polynomial is a dict {packed exponent: int coefficient}; the exponent
# of position i is digit i of the key, _BITS bits wide.  Callers keep every
# exponent at most _MAX_EXPONENT, so multiplying two monomials is one integer
# add of their keys.


def _digits(key: int, d: int) -> list[int]:
    """The exponents of positions 0..d-1 packed in ``key``."""
    out = []
    for _ in range(d):
        out.append(key & _MASK)
        key >>= _BITS
    return out


def _max_exponent(pieces: dict[Cell, Poly]) -> int:
    return max((max(_digits(key, len(cell)), default=0) for cell, p in pieces.items() for key in p), default=0)


def _lowest_terms(pieces: Mapping[Cell, Mapping[int, int]], denominator: int) -> tuple[dict[Cell, Poly], int]:
    """Pieces without zero coefficients or empty cells, over the smallest denominator."""
    clean: dict[Cell, Poly] = {}
    for cell, poly in pieces.items():
        terms = {key: c for key, c in poly.items() if c}
        if terms:
            clean[cell] = terms
    g = math.gcd(denominator, *(c for p in clean.values() for c in p.values()))
    if g == 1:
        return clean, denominator
    return {cell: {key: c // g for key, c in p.items()} for cell, p in clean.items()}, denominator // g


def _insert_position(poly: Poly, i: int, d: int) -> Poly:
    """``poly`` on d positions with a new position i of exponent 0; later ones move up."""
    if i == d:
        return poly
    shift = _BITS * i
    below = (1 << shift) - 1
    return {(key & below) | (key >> shift << (shift + _BITS)): c for key, c in poly.items()}


def _multiply(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _square(a: Poly) -> Poly:
    """``_multiply(a, a)``, with each cross product formed once."""
    items = list(a.items())
    out: Poly = {}
    get = out.get
    for i, (ka, ca) in enumerate(items):
        k = ka + ka
        out[k] = get(k, 0) + ca * ca
        twice = ca + ca
        for kb, cb in items[i + 1 :]:
            k = ka + kb
            out[k] = get(k, 0) + twice * cb
    return {k: c for k, c in out.items() if c}


def _simplex_integral(poly: Poly, d: int, divisor: int) -> Fraction:
    """Integral of ``poly / divisor`` over 0 < u_0 < ... < u_{d-1} < 1.

    The monomial with exponents a integrates to 1 / prod_j sum_{i<=j}(a_i + 1);
    numerators sharing a denominator are summed before one lcm combines them.
    """
    by_denominator: dict[int, int] = {}
    for key, c in poly.items():
        denominator = 1
        width = 0
        for _ in range(d):
            width += (key & _MASK) + 1
            denominator *= width
            key >>= _BITS
        by_denominator[denominator] = by_denominator.get(denominator, 0) + c
    common = math.lcm(*by_denominator)
    total = sum(c * (common // den) for den, c in by_denominator.items())
    return Fraction(total, common * divisor)


def _render_in_x(cell: Cell, poly: Poly, denominator: int) -> str:
    """``poly / denominator`` in x by variable id, terms in graded-lex order.

    Each u_i^a expands as (x_{cell[i]} + 1)^a / 2^a; the numerators are kept
    over the common denominator D * 2^top, top the largest total degree.
    """
    exponents = {key: _digits(key, len(cell)) for key in poly}
    top = max(map(sum, exponents.values()))
    terms: dict[tuple[tuple[int, int], ...], int] = {}
    for key, c in poly.items():
        expansion = {(): c << (top - sum(exponents[key]))}
        for v, a in zip(cell, exponents[key]):
            if a:
                expansion = {
                    (mono + ((v, k),) if k else mono): m * math.comb(a, k)
                    for mono, m in expansion.items()
                    for k in range(a + 1)
                }
        for mono, m in expansion.items():
            mono = tuple(sorted(mono))
            terms[mono] = terms.get(mono, 0) + m
    # graded-lex: total degree first, then the variable ids with multiplicity
    ordered = sorted(
        (mono for mono, m in terms.items() if m),
        key=lambda mono: (sum(e for _, e in mono), tuple(v for v, e in mono for _ in range(e))),
    )
    pieces: list[str] = []
    for mono in ordered:
        coeff = Fraction(terms[mono], denominator << top)
        factors = "*".join(f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}" for v, e in mono)
        mag = abs(coeff)
        body = f"{mag}*{factors}" if factors and mag != 1 else factors or str(mag)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
