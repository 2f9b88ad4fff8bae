"""Sparse multivariate polynomials with exact rational coefficients.

Variables are non-negative integer ids (rendered 1-based as ``x1, x2, ...``).
A monomial is a tuple of ``(var, exponent)`` pairs sorted by variable id with
every exponent >= 1; the empty tuple is the constant monomial.  A polynomial
stores a map from monomial to nonzero ``Fraction`` coefficient, so equality of
the maps is equality of polynomials.  All arithmetic stays in ``Fraction``;
nothing here ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Monomial = tuple[tuple[int, int], ...]
Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted (var, exp) sequences, adding exponents of shared vars."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif va > vb:
            out.append(b[j])
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_key(mono: Monomial) -> tuple:
    # Graded-lex: total degree first, then the variable ids with multiplicity.
    degree = sum(e for _, e in mono)
    flat = tuple(v for v, e in mono for _ in range(e))
    return (degree, flat)


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _as_fraction(coeff)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def _raw(terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap an already-canonical term map without copying."""
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        c = _as_fraction(value)
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, var: int) -> "Polynomial":
        return cls._raw({((var, 1),): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[int]:
        return {v for mono in self.terms for v, _ in mono}

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    def constant_value(self) -> Fraction:
        """The value, provided the polynomial is constant."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        raise ValueError("polynomial is not constant")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        big, small = (self.terms, other.terms)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for mono, coeff in small.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial._raw(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: Scalar) -> "Polynomial":
        f = _as_fraction(factor)
        if not f:
            return Polynomial._raw({})
        return Polynomial._raw({m: c * f for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = _mono_mul(ma, mb)
                s = out.get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return Polynomial._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = Polynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def antiderivative(self, var: int) -> "Polynomial":
        """Antiderivative in ``var`` with no constant of integration."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            exp = 0
            rest = []
            for v, e in mono:
                if v == var:
                    exp = e
                else:
                    rest.append((v, e))
            new_mono = _mono_mul(tuple(rest), ((var, exp + 1),))
            out[new_mono] = coeff / (exp + 1)
        return Polynomial._raw(out)

    def substitute(self, var: int, bound: "int | Fraction") -> "Polynomial":
        """Replace ``var`` by another variable id or by a rational constant.

        An ``int`` bound is a variable id; pass ``Fraction`` for a constant.
        """
        by_var = isinstance(bound, int) and not isinstance(bound, bool)
        if by_var and bound == var:
            raise ValueError("substitution target must differ from the variable")
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            exp = 0
            rest: list[tuple[int, int]] = []
            for v, e in mono:
                if v == var:
                    exp = e
                else:
                    rest.append((v, e))
            if exp == 0:
                new_mono, new_coeff = mono, coeff
            elif by_var:
                new_mono = _mono_mul(tuple(rest), ((bound, exp),))
                new_coeff = coeff
            else:
                new_mono = tuple(rest)
                new_coeff = coeff * _as_fraction(bound) ** exp
            if not new_coeff:
                continue
            s = out.get(new_mono, 0) + new_coeff
            if s:
                out[new_mono] = s
            else:
                out.pop(new_mono, None)
        return Polynomial._raw(out)

    def evaluate(self, point: Mapping[int, Scalar]) -> Fraction:
        """Evaluate at a full assignment; every variable must be assigned."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for v, e in mono:
                if v not in point:
                    raise ValueError(f"variable x{v + 1} is unassigned")
                value *= _as_fraction(point[v]) ** e
            total += value
        return total

    def rename(self, mapping: Mapping[int, int]) -> "Polynomial":
        """Relabel variables through an injective map; ids not mapped stay put."""
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            new = tuple(sorted((mapping.get(v, v), e) for v, e in mono))
            out[new] = coeff
        return Polynomial._raw(out)

    # -- comparison and rendering ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in graded-lex order of the monomials."""
        return sorted(self.terms.items(), key=lambda item: _mono_key(item[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for v, e in mono:
                factors.append(f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"
