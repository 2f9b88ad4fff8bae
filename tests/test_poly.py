"""The cell polynomials of chain functions: ring laws, integration, evaluation.

Pieces are written out in the stored form: {packed exponent: int} dicts in
u = (x + 1)/2 over one denominator, digit i (8 bits) the exponent of the
cell's i-th smallest variable.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ocsp.chainfn import ChainFunction

from conftest import random_tie_free_point


def key(*exponents: int) -> int:
    """The packed key with exponent ``exponents[i]`` at position i."""
    return sum(e << (8 * i) for i, e in enumerate(exponents))


def coordinate(v: int) -> ChainFunction:
    """x_v = 2*u - 1 as a chain function on {v}."""
    return ChainFunction({v}, {(v,): {key(0): -1, key(1): 2}})


X0 = coordinate(0).refine({0, 1})
X1 = coordinate(1).refine({0, 1})


@st.composite
def polynomials(draw, support=None):
    """Random pieces on random cells of ``support``, by default one to three of x1..x4."""
    if support is None:
        support = draw(st.sets(st.integers(0, 3), min_size=1, max_size=3))
    support = tuple(sorted(support))
    cells = draw(st.lists(st.sampled_from(list(itertools.permutations(support))), unique=True, max_size=3))
    exponents = st.lists(st.integers(0, 3), min_size=len(support), max_size=len(support))
    pieces = {
        cell: {key(*draw(exponents)): draw(st.integers(-9, 9)) for _ in range(draw(st.integers(1, 4)))}
        for cell in cells
    }
    return ChainFunction(support, pieces, draw(st.integers(1, 9)))


def float_value(f: ChainFunction, cell, point) -> float:
    """The piece of ``f`` on ``cell`` at ``point``, in floats, read off the packed keys."""
    total = 0.0
    for k, c in f.pieces.get(cell, {}).items():
        term = float(c)
        for i, v in enumerate(cell):
            term *= ((point[v] + 1) / 2) ** ((k >> (8 * i)) & 255)
        total += term
    return total / f.denominator


class TestBasics:
    def test_canonical_terms(self):
        p = ChainFunction({0}, {(0,): {key(1): 1}})
        q = ChainFunction({0}, {(0,): {key(1): -1}})
        assert (p + q).is_zero()
        assert (p + q).pieces == {} and (p + q).denominator == 1
        # zero coefficients and empty cells are dropped; the denominator is reduced
        r = ChainFunction({0, 1}, {(0, 1): {key(0): 4, key(1): 0, key(1, 1): -6}, (1, 0): {key(2): 0}}, 8)
        assert r.pieces == {(0, 1): {key(0): 2, key(1, 1): -3}} and r.denominator == 4

    def test_difference_of_squares(self):
        assert (X0 + X1) * (X0 - X1) == X0 * X0 - X1 * X1
        assert str(X0 * X0 - X1 * X1) == "[x1<x2] x1^2 - x2^2; [x2<x1] x1^2 - x2^2"


class TestCalculus:
    def test_antiderivative_simple(self):
        # x1 on x1 < x2 is 2*u0 - 1; integrating u0 from 0 to u1 gives u1^2 - u1
        g = ChainFunction({0, 1}, {(0, 1): {key(0): -1, key(1): 2}}).conditional_expectation({1})
        assert g == ChainFunction({1}, {(1,): {key(2): 1, key(1): -1}})
        assert str(g) == "[x2] -1/4 + 1/4*x2^2"
        # a constant integrates to a multiple of the neighbour, or of 1 minus it
        three = ChainFunction({0, 1}, {(0, 1): {key(0): 3}})
        assert str(three.conditional_expectation({1})) == "[x2] 3/2 + 3/2*x2"
        assert three.conditional_expectation({0}) == ChainFunction({0}, {(0,): {key(0): 3, key(1): -3}})

    def test_substitute_constant(self):
        # the top position's antiderivative is taken at the end 1, the bottom's at 0
        top = ChainFunction({0, 1}, {(0, 1): {key(0, 2): 1}}).conditional_expectation({0})
        assert top == ChainFunction({0}, {(0,): {key(0): 1, key(3): -1}}, 3)
        bottom = ChainFunction({0, 1}, {(0, 1): {key(2, 0): 1}}).conditional_expectation({1})
        assert bottom == ChainFunction({1}, {(1,): {key(3): 1}}, 3)

    def test_substitute_variable_merges_exponents(self):
        # u0*u1 integrated over u0 < u1 < u2 is u0*(u2^2 - u0^2)/2: the lower
        # end's u0^2 merges into u0's own exponent, and u2 moves to position 1
        f = ChainFunction({0, 1, 2}, {(0, 1, 2): {key(1, 1, 0): 1}})
        g = f.conditional_expectation({0, 2})
        assert g == ChainFunction({0, 2}, {(0, 2): {key(1, 2): 1, key(3, 0): -1}}, 2)

    def test_evaluate_missing_variable(self):
        with pytest.raises(ValueError):
            (X0 + X1).evaluate({0: Fraction(1)})


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(polynomials(), polynomials(), polynomials())
    def test_ring_axioms(self, f, g, h):
        union = f.support | g.support | h.support
        a, b, c = f.refine(union), g.refine(union), h.refine(union)
        zero = ChainFunction.constant(0).refine(union)
        one = ChainFunction.constant(1).refine(union)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert (a - a).is_zero() and (a * zero).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(polynomials(), polynomials(), st.integers(0, 1 << 30))
    def test_evaluation_homomorphism(self, f, g, seed):
        union = f.support | g.support
        point = random_tie_free_point(union, random.Random(seed))
        assert (f.refine(union) + g.refine(union)).evaluate(point) == f.evaluate(point) + g.evaluate(point)
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)

    @settings(max_examples=60, deadline=None)
    @given(polynomials(), st.integers(0, 1 << 30))
    def test_terms_stay_canonical(self, f, seed):
        rng = random.Random(seed)
        keep = frozenset(v for v in f.support if rng.random() < 0.5)
        for g in (f, f * f + f, f.scale(Fraction(3, 4)), f.conditional_expectation(keep)):
            assert g.denominator >= 1
            assert math.gcd(g.denominator, *(c for p in g.pieces.values() for c in p.values())) == 1
            for cell, poly in g.pieces.items():
                assert sorted(cell) == sorted(g.support) and poly
                assert all(c != 0 and 0 <= k < 1 << (8 * len(cell)) for k, c in poly.items())

    @settings(max_examples=40, deadline=None)
    @given(
        polynomials(support={0, 1}),
        st.sampled_from([0, 1]),
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
    )
    def test_fundamental_theorem_against_quadrature(self, f, var, other):
        # E[f | x_keep = other] is half the integral of f over x_var in [-1, 1],
        # split at other where the cell changes
        keep = 1 - var
        exact = float(f.conditional_expectation({keep}).evaluate({keep: other}))
        below, above = (var, keep), (keep, var)
        numeric = sum(
            quad(lambda x, cell=cell: float_value(f, cell, {var: x, keep: float(other)}), lo, hi)[0]
            for cell, lo, hi in ((below, -1.0, float(other)), (above, float(other), 1.0))
        ) / 2
        assert math.isclose(exact, numeric, rel_tol=1e-9, abs_tol=1e-9)
