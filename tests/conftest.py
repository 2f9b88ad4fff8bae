"""Shared fixtures: independent integration oracle and corpus builders.

The sympy-based cell integrator below recomputes chain-function moments and
conditional expectations by iterated symbolic integration in x, sharing no
code with the package's own elimination or simplex integration; tests use it
as ground truth.  It reads the stored cell form, u_i = (x_{cell[i]} + 1)/2
with packed exponents over one common denominator.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from ocsp.chainfn import ChainFunction, _digits
from ocsp.instance import Constraint, Instance, generate


def poly_to_sympy(cell: tuple[int, ...], poly: dict[int, int], denominator: int) -> sympy.Expr:
    """A stored cell polynomial as an expression in the symbols ``x{var}``."""
    expr = sympy.Integer(0)
    for key, coeff in poly.items():
        term = sympy.Integer(coeff)
        for var, exp in zip(cell, _digits(key, len(cell))):
            term *= ((sympy.Symbol(f"x{var}") + 1) / 2) ** exp
        expr += term
    return sympy.expand(expr / denominator)


def _rational(value: Fraction) -> sympy.Rational:
    return sympy.Rational(value.numerator, value.denominator)


def _as_fraction(value: sympy.Expr) -> Fraction:
    value = sympy.Rational(sympy.simplify(value))
    return Fraction(int(value.p), int(value.q))


def sympy_moment(cf: ChainFunction, power: int = 1) -> Fraction:
    """E[cf^power] by iterated sympy integration over each ordering cell."""
    total = sympy.Integer(0)
    for cell, poly in cf.pieces.items():
        expr = poly_to_sympy(cell, poly, cf.denominator) ** power
        for i, var in enumerate(cell):
            sym = sympy.Symbol(f"x{var}")
            upper = sympy.Symbol(f"x{cell[i + 1]}") if i + 1 < len(cell) else sympy.Integer(1)
            expr = sympy.integrate(expr, (sym, sympy.Integer(-1), upper))
        total += expr
    return _as_fraction(total * sympy.Rational(1, 2 ** len(cf.support)))


def sympy_conditional_expectation(cf: ChainFunction, point: dict[int, Fraction]) -> Fraction:
    """E[cf | x_v = point[v] for v in point], point tie-free, by sympy over the other variables.

    On a cell whose fixed variables are in the point's order, each other
    variable runs from the last fixed value below it (or -1) up to its cell
    successor (a symbol, a fixed value, or 1), innermost first.
    """
    fixed = sorted(point, key=point.get)
    values = {sympy.Symbol(f"x{v}"): _rational(point[v]) for v in point}
    total = sympy.Integer(0)
    for cell, poly in cf.pieces.items():
        if [v for v in cell if v in point] != fixed:
            continue
        expr = poly_to_sympy(cell, poly, cf.denominator).subs(values)
        lower = sympy.Integer(-1)
        for i, var in enumerate(cell):
            if var in point:
                lower = _rational(point[var])
                continue
            nxt = cell[i + 1] if i + 1 < len(cell) else None
            upper = sympy.Integer(1) if nxt is None else values.get(sympy.Symbol(f"x{nxt}"), sympy.Symbol(f"x{nxt}"))
            expr = sympy.integrate(expr, (sympy.Symbol(f"x{var}"), lower, upper))
        total += expr
    return _as_fraction(total * sympy.Rational(1, 2 ** (len(cf.support) - len(point))))


@pytest.fixture(scope="session")
def sympy_oracle():
    return sympy_moment


def random_tie_free_point(variables, rng: random.Random, denominator: int = 1 << 20):
    while True:
        point = {
            v: Fraction(rng.randrange(-denominator, denominator + 1), denominator)
            for v in variables
        }
        if len(set(point.values())) == len(point):
            return point


def mixed_corpus(
    count: int,
    seed: int,
    max_n: int = 10,
    max_k: int = 4,
    max_m: int = 6,
    include_empty: bool = True,
) -> list[Instance]:
    """Deterministic list of instances across all generator models."""
    rng = random.Random(seed)
    fractions = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    out: list[Instance] = []
    for i in range(count):
        if include_empty and i % 25 == 24:
            out.append(Instance(rng.randint(0, max_n), ()))
            continue
        model = ("mas", "betweenness", "random-k")[i % 3]
        if model == "mas":
            k = 2
        elif model == "betweenness":
            k = 3
        else:
            k = rng.randint(2, max_k)
        n = rng.randint(k, max_n)
        m = rng.randint(1, max_m)
        frac = rng.choice(fractions) if model == "random-k" else Fraction(1, 2)
        out.append(
            generate(
                model,
                n=n,
                m=m,
                k=k if model == "random-k" else None,
                allowed_fraction=frac,
                seed=rng.randrange(1 << 30),
            )
        )
    return out


def triangle_mas() -> Instance:
    edge = frozenset({(0, 1)})
    return Instance(
        3,
        (
            Constraint((0, 1), edge),
            Constraint((1, 2), edge),
            Constraint((2, 0), edge),
        ),
    )


def single_mas() -> Instance:
    return Instance(2, (Constraint((0, 1), frozenset({(0, 1)})),))


def single_betweenness() -> Instance:
    return Instance(3, (Constraint((0, 1, 2), frozenset({(0, 1, 2), (2, 1, 0)})),))


def opposite_pair() -> Instance:
    return Instance(
        2,
        (
            Constraint((0, 1), frozenset({(0, 1)})),
            Constraint((1, 0), frozenset({(0, 1)})),
        ),
    )
