"""Piecewise polynomials on ordering cells of the cube [-1, 1]^S.

A chain function on a variable set S assigns one polynomial per cell, where
a cell is a strict ordering of S (a tuple of variable ids, smallest value
first).  Cells not stored carry the zero polynomial; ties have measure zero
and are left undefined.  Constraint indicators are chain functions, and the
class is closed under sums, products, and conditional expectation onto a
subset of S when the coordinates are independent and uniform on [-1, 1].

Moments are computed in integers over the order simplex.  On a cell of d
variables, u = (x + 1)/2 maps the cell onto 0 < u_0 < ... < u_{d-1} < 1
(positions in cell order), and the uniform density 1/2^d cancels against
the Jacobian 2^d, so E[f^r] is the sum over cells of the integral of the
cell polynomial's r-th power over that simplex.  With every coefficient
scaled by D, the lcm of their denominators, the polynomial in u has ``int``
coefficients, and each monomial integrates in closed form:

    integral of prod_i u_i^{a_i} = prod_j 1 / sum_{i<=j} (a_i + 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import SupportMismatchError, TieError
from .poly import Polynomial, Scalar

Cell = tuple[int, ...]

_NEG_ONE = Fraction(-1)
_POS_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class ChainFunction:
    """Cellwise polynomial function of the variables in ``support``."""

    __slots__ = ("support", "pieces")

    def __init__(self, support: Iterable[int], pieces: Mapping[Cell, Polynomial]):
        sup = frozenset(support)
        clean: dict[Cell, Polynomial] = {}
        for cell, poly in pieces.items():
            if frozenset(cell) != sup or len(cell) != len(sup):
                raise ValueError(f"cell {cell} is not an ordering of the support")
            if not poly.is_zero():
                clean[cell] = poly
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "pieces", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ChainFunction is immutable")

    @staticmethod
    def _raw(support: frozenset[int], pieces: dict[Cell, Polynomial]) -> "ChainFunction":
        """Wrap already-validated pieces (no zero polynomials) without copying."""
        f = ChainFunction.__new__(ChainFunction)
        object.__setattr__(f, "support", support)
        object.__setattr__(f, "pieces", pieces)
        return f

    @classmethod
    def constant(cls, value: Scalar) -> "ChainFunction":
        poly = Polynomial.constant(value)
        return cls._raw(frozenset(), {(): poly} if not poly.is_zero() else {})

    @classmethod
    def from_constraint(cls, constraint) -> "ChainFunction":
        """Indicator of a constraint: 1 on each allowed cell, 0 elsewhere."""
        one = Polynomial.constant(1)
        pieces = {tuple(constraint.vars[i] for i in perm): one for perm in constraint.allowed}
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
        return self.support == other.support and self.pieces == other.pieces

    def __str__(self) -> str:
        if not self.pieces:
            return "0"
        parts = []
        for cell in self.sorted_cells():
            label = "<".join(f"x{v + 1}" for v in cell) if cell else "const"
            parts.append(f"[{label}] {self.pieces[cell]}")
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"ChainFunction({self})"

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "ChainFunction") -> "ChainFunction":
        if not isinstance(other, ChainFunction):
            return NotImplemented
        if self.support != other.support:
            raise SupportMismatchError(
                f"cannot add chain functions on supports {sorted(self.support)} and {sorted(other.support)}"
            )
        out = dict(self.pieces)
        for cell, poly in other.pieces.items():
            s = out.get(cell)
            s = poly if s is None else s + poly
            if s.is_zero():
                out.pop(cell, None)
            else:
                out[cell] = s
        return ChainFunction._raw(self.support, out)

    def scale(self, factor: Scalar) -> "ChainFunction":
        f = Fraction(factor)
        if not f:
            return ChainFunction._raw(self.support, {})
        return ChainFunction._raw(self.support, {c: p.scale(f) for c, p in self.pieces.items()})

    def __neg__(self) -> "ChainFunction":
        return self.scale(-1)

    def __sub__(self, other: "ChainFunction") -> "ChainFunction":
        if not isinstance(other, ChainFunction):
            return NotImplemented
        return self + (-other)

    def refine(self, target: Iterable[int]) -> "ChainFunction":
        """The same function viewed on a larger support.

        Every cell is split into all interleavings of the new variables, each
        keeping the cell's polynomial.
        """
        target_set = frozenset(target)
        if not target_set >= self.support:
            raise SupportMismatchError(
                f"refinement target {sorted(target_set)} does not contain the support {sorted(self.support)}"
            )
        extra = sorted(target_set - self.support)
        if not extra:
            return self
        out: dict[Cell, Polynomial] = {}
        for cell, poly in self.pieces.items():
            cells = [cell]
            for v in extra:
                cells = [c[:i] + (v,) + c[i:] for c in cells for i in range(len(c) + 1)]
            for c in cells:
                out[c] = poly
        return ChainFunction._raw(target_set, out)

    def __mul__(self, other: "ChainFunction") -> "ChainFunction":
        if not isinstance(other, ChainFunction):
            return NotImplemented
        union = self.support | other.support
        a = self.refine(union)
        b = other.refine(union)
        out: dict[Cell, Polynomial] = {}
        small, big = (a, b) if len(a.pieces) <= len(b.pieces) else (b, a)
        for cell, poly in small.pieces.items():
            q = big.pieces.get(cell)
            if q is None:
                continue
            prod = poly * q
            if not prod.is_zero():
                out[cell] = prod
        return ChainFunction._raw(union, out)

    # -- integration -------------------------------------------------------------

    def _eliminate(self, var: int) -> "ChainFunction":
        """Average out one variable of the support.

        On each cell the variable ranges between its cell neighbours (or the
        cube endpoints -1 and 1); integrating a uniform coordinate contributes
        a factor 1/2.  Cells that agree after the variable is dropped merge.
        """
        out: dict[Cell, Polynomial] = {}
        for cell, poly in self.pieces.items():
            idx = cell.index(var)
            lower = cell[idx - 1] if idx > 0 else _NEG_ONE
            upper = cell[idx + 1] if idx + 1 < len(cell) else _POS_ONE
            anti = poly.antiderivative(var)
            piece = (anti.substitute(var, upper) - anti.substitute(var, lower)).scale(_HALF)
            new_cell = cell[:idx] + cell[idx + 1 :]
            s = out.get(new_cell)
            s = piece if s is None else s + piece
            if s.is_zero():
                out.pop(new_cell, None)
            else:
                out[new_cell] = s
        return ChainFunction._raw(self.support - {var}, out)

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
        return f.pieces[()].constant_value()

    def moment(self, r: int) -> Fraction:
        """E[f^r] for a positive integer r, by the integer simplex kernel.

        Each cell polynomial, rewritten in u = (x + 1)/2 with integer
        coefficients over the common denominator D, is raised to the r-th
        power with exponent vectors packed into one ``int`` (see
        ``_packed_in_u``).  Equal monomials of all cells are summed, each
        distinct one is integrated once in closed form, and the numerators
        are added over one lcm of the simplex denominators.
        """
        if r < 1:
            raise ValueError("moment order must be at least 1")
        scale = 1
        degree = 0
        for poly in self.pieces.values():
            for mono, coeff in poly.terms.items():
                scale = math.lcm(scale, coeff.denominator)
                degree = max(degree, sum(e for _, e in mono))
        base = r * degree + 1
        powers: dict[int, int] = {}
        for cell, poly in self.pieces.items():
            q = _packed_in_u(cell, poly, scale, base)
            p = q
            for bit in bin(r)[3:]:
                p = _square(p)
                if bit == "1":
                    p = _multiply(p, q)
            for key, c in p.items():
                powers[key] = powers.get(key, 0) + c
        return _simplex_integral(powers, len(self.support), base, scale**r)

    # -- pointwise -----------------------------------------------------------------

    def evaluate(self, point: Mapping[int, Fraction]) -> Fraction:
        """Value at a tie-free point assigning every support variable."""
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
        poly = self.pieces.get(cell)
        if poly is None:
            return Fraction(0)
        return poly.evaluate(point)

    def rename(self, mapping: Mapping[int, int]) -> "ChainFunction":
        """Relabel support variables through an injective map."""
        new_support = frozenset(mapping.get(v, v) for v in self.support)
        if len(new_support) != len(self.support):
            raise ValueError("renaming must be injective on the support")
        out = {
            tuple(mapping.get(v, v) for v in cell): poly.rename(mapping)
            for cell, poly in self.pieces.items()
        }
        return ChainFunction._raw(new_support, out)

    def serialized_pieces(self) -> list[dict]:
        """Deterministic cell-by-cell rendering, 1-based variable names."""
        return [
            {"cell": [v + 1 for v in cell], "poly": str(self.pieces[cell])}
            for cell in self.sorted_cells()
        ]


# -- integer simplex kernel ------------------------------------------------------
#
# A polynomial in u_0..u_{d-1} is a dict {packed exponent: int coefficient},
# where exponent a_i of position i is digit i of the packed key in base B.
# B exceeds every exponent that can arise, so multiplying two monomials is
# one integer add of their keys.


def _packed_in_u(cell: Cell, poly: Polynomial, scale: int, base: int) -> dict[int, int]:
    """``scale * poly`` in u = (x + 1)/2, positions in cell order, packed."""
    place = {v: base**i for i, v in enumerate(cell)}
    out: dict[int, int] = {}
    for mono, coeff in poly.terms.items():
        # scale * coeff is an int because scale is a multiple of its denominator
        terms = {0: coeff.numerator * (scale // coeff.denominator)}
        for v, e in mono:
            # x^e = (2u - 1)^e = sum_k C(e, k) 2^k (-1)^(e-k) u^k
            step = place[v]
            terms = {
                key + k * step: c * (-1 if (e - k) & 1 else 1) * (math.comb(e, k) << k)
                for key, c in terms.items()
                for k in range(e + 1)
            }
        for key, c in terms.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _multiply(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _square(a: dict[int, int]) -> dict[int, int]:
    """``_multiply(a, a)``, with each cross product formed once."""
    items = list(a.items())
    out: dict[int, int] = {}
    get = out.get
    for i, (ka, ca) in enumerate(items):
        k = ka + ka
        out[k] = get(k, 0) + ca * ca
        twice = ca + ca
        for kb, cb in items[i + 1 :]:
            k = ka + kb
            out[k] = get(k, 0) + twice * cb
    return {k: c for k, c in out.items() if c}


def _simplex_integral(poly: dict[int, int], d: int, base: int, divisor: int) -> Fraction:
    """Integral of ``poly / divisor`` over 0 < u_0 < ... < u_{d-1} < 1.

    The monomial with exponents a integrates to 1 / prod_j sum_{i<=j}(a_i + 1);
    numerators sharing a denominator are summed before one lcm combines them.
    """
    by_denominator: dict[int, int] = {}
    for key, c in poly.items():
        denominator = 1
        width = 0
        for _ in range(d):
            key, a = divmod(key, base)
            width += a + 1
            denominator *= width
        by_denominator[denominator] = by_denominator.get(denominator, 0) + c
    common = math.lcm(*by_denominator)
    total = sum(c * (common // den) for den, c in by_denominator.items())
    return Fraction(total, common * divisor)
