import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ocsp.chainfn import ChainFunction
from ocsp.efron_stein import decompose_constraint
from ocsp.errors import SupportMismatchError, TieError
from ocsp.instance import Constraint

from conftest import random_tie_free_point, sympy_conditional_expectation, sympy_moment

MAS_12 = Constraint((0, 1), frozenset({(0, 1)}))
MAS_23 = Constraint((1, 2), frozenset({(0, 1)}))
BETWEEN = Constraint((0, 1, 2), frozenset({(0, 1, 2), (2, 1, 0)}))
PERMS_3 = list(itertools.permutations(range(3)))
ALLOWED_3 = [frozenset(c) for k in range(1, 7) for c in itertools.combinations(PERMS_3, k)]


# x1 < x2 with -1 + 2*x2 + x1^2 - 1/3*x1*x2 written in u = (x + 1)/2 over 3:
# -7 - 10*u0 + 14*u1 + 12*u0^2 - 4*u0*u1, where u0 is position 0 (packed
# exponent 1) and u1 is position 1 (packed exponent 1 << 8)
RENDER_EXAMPLE = ChainFunction({0, 1}, {(0, 1): {0: -7, 1: -10, 256: 14, 2: 12, 257: -4}}, 3)
RENDERED = "-1 + 2*x2 + x1^2 - 1/3*x1*x2"


def moment_by_elimination(f: ChainFunction, r: int) -> Fraction:
    """E[f^r] from chain-function products and one-variable elimination passes."""
    power = f
    for _ in range(r - 1):
        power = power * f
    return power.expectation()


@st.composite
def indicators(draw, nvars: int = 4, min_orders: int = 0):
    k = draw(st.integers(2, 3))
    vars_ = tuple(sorted(draw(st.lists(st.integers(0, nvars - 1), unique=True, min_size=k, max_size=k))))
    perms = list(itertools.permutations(range(k)))
    orders = st.lists(st.sampled_from(perms), unique=True, min_size=min_orders, max_size=len(perms))
    allowed = frozenset(tuple(p) for p in draw(orders))
    return ChainFunction.from_constraint(Constraint(vars_, allowed))


@st.composite
def chain_fns(draw):
    f = draw(indicators())
    if draw(st.booleans()):
        f = f * draw(indicators())
    scale = draw(st.sampled_from([1, 1, -2, Fraction(1, 3)]))
    return f.scale(scale)


@st.composite
def polynomial_chain_fns(draw):
    """A product of two nonzero indicators, each averaged onto part of its support, scaled."""
    f = ChainFunction.constant(draw(st.sampled_from([1, -2, Fraction(1, 3), Fraction(-5, 4)])))
    for _ in range(2):
        g = draw(indicators(min_orders=1))
        f = f * g.conditional_expectation(draw(st.sets(st.sampled_from(sorted(g.support)))))
    return f


class TestWorkedExamples:
    def test_mas_conditional_on_first(self):
        f = ChainFunction.from_constraint(MAS_12)
        g = f.conditional_expectation({0})
        assert g.support == frozenset({0})
        assert str(g) == "[x1] 1/2 - 1/2*x1"

    def test_mas_conditional_on_second(self):
        f = ChainFunction.from_constraint(MAS_12)
        g = f.conditional_expectation({1})
        assert str(g) == "[x2] 1/2 + 1/2*x2"

    def test_mas_expectation_and_moments(self):
        f = ChainFunction.from_constraint(MAS_12)
        assert f.expectation() == Fraction(1, 2)
        # indicator: every power has the same mean
        assert f.moment(1) == f.moment(2) == f.moment(4) == Fraction(1, 2)
        centered = f - ChainFunction.constant(Fraction(1, 2)).refine(f.support)
        assert centered.moment(2) == Fraction(1, 4)

    def test_betweenness_expectation(self):
        f = ChainFunction.from_constraint(BETWEEN)
        assert f.cell_count() == 2
        assert f.expectation() == Fraction(1, 3)

    def test_product_of_overlapping_indicators(self):
        f = ChainFunction.from_constraint(MAS_12) * ChainFunction.from_constraint(MAS_23)
        assert f.support == frozenset({0, 1, 2})
        assert f.pieces.keys() == {(0, 1, 2)}
        assert f.expectation() == Fraction(1, 6)

    def test_refine_splits_cells(self):
        f = ChainFunction.from_constraint(MAS_12).refine({0, 1, 2})
        assert f.cell_count() == 3
        assert f.sorted_cells() == [(0, 1, 2), (0, 2, 1), (2, 0, 1)]


class TestErrors:
    def test_support_mismatch(self):
        f = ChainFunction.from_constraint(MAS_12)
        g = ChainFunction.from_constraint(MAS_23)
        with pytest.raises(SupportMismatchError):
            f + g
        with pytest.raises(SupportMismatchError):
            f.conditional_expectation({2})
        with pytest.raises(SupportMismatchError):
            f.refine({0})

    def test_tie_error(self):
        f = ChainFunction.from_constraint(MAS_12)
        with pytest.raises(TieError):
            f.evaluate({0: Fraction(1, 3), 1: Fraction(1, 3)})

    def test_unassigned_variable(self):
        f = ChainFunction.from_constraint(MAS_12)
        with pytest.raises(ValueError):
            f.evaluate({0: Fraction(1, 3)})

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            ChainFunction({0, 1}, {(0,): {0: 1}})
        with pytest.raises(ValueError):
            ChainFunction({0, 1}, {(0, 1): {1 << 16: 1}})
        with pytest.raises(ValueError):
            ChainFunction({0}, {(0,): {0: 1}}, 0)


class TestRendering:
    def test_render_order_and_signs(self):
        assert str(RENDER_EXAMPLE) == f"[x1<x2] {RENDERED}"
        # the same x polynomial on the other cell: x2 now holds position 0
        other = ChainFunction({0, 1}, {(1, 0): {0: -7, 256: -10, 1: 14, 512: 12, 257: -4}}, 3)
        assert str(other) == f"[x2<x1] {RENDERED}"
        assert other.serialized_pieces() == [{"cell": [2, 1], "poly": RENDERED}]

    def test_square_render(self):
        g = ChainFunction.from_constraint(MAS_12).conditional_expectation({0})
        assert str(g * g) == "[x1] 1/4 - 1/2*x1 + 1/4*x1^2"

    def test_zero_renders(self):
        f = ChainFunction.from_constraint(BETWEEN)
        for zero in (ChainFunction.constant(0), f - f, f.scale(0)):
            assert str(zero) == "0"
            assert zero.pieces == {} and zero.denominator == 1
        assert str(ChainFunction.constant(Fraction(-3, 2))) == "[const] -3/2"

    def test_evaluate_maps_the_point_into_u(self):
        x1, x2 = Fraction(-1, 3), Fraction(3, 5)
        assert RENDER_EXAMPLE.evaluate({0: x1, 1: x2}) == -1 + 2 * x2 + x1**2 - x1 * x2 / 3
        assert RENDER_EXAMPLE.evaluate({0: x2, 1: x1}) == 0

    def test_rename_relabels_cells_only(self):
        g = RENDER_EXAMPLE.rename({0: 5, 1: 3})
        assert str(g) == "[x6<x4] -1 + 2*x4 - 1/3*x4*x6 + x6^2"
        assert g.pieces[(5, 3)] is RENDER_EXAMPLE.pieces[(0, 1)]


def powers_of_one_minus_u(top: int) -> list[ChainFunction]:
    """(1/2 - x1/2)^k = (1 - u)^k for k = 0..top, each by one product with the last."""
    g = ChainFunction.from_constraint(MAS_12).conditional_expectation({0})
    powers = [ChainFunction.constant(1).refine({0})]
    for _ in range(top):
        powers.append(powers[-1] * g)
    return powers


def sympy_mean_of_power(k: int) -> Fraction:
    """E[(1/2 - x/2)^k] for x uniform on [-1, 1], by sympy on the closed form."""
    x = sympy.Symbol("x")
    value = sympy.integrate(((1 - x) / 2) ** k, (x, -1, 1)) / 2
    return Fraction(int(value.p), int(value.q))


class TestExponentBound:
    """Each exponent is one 8-bit digit of a packed key: 255 is exact, 256 is an error."""

    def test_products_and_moments_at_the_bound(self):
        powers = powers_of_one_minus_u(255)
        top = powers[255]
        assert top.moment(1) == sympy_mean_of_power(255) == Fraction(1, 256)
        assert top.evaluate({0: Fraction(1, 3)}) == Fraction(1, 3) ** 255
        assert powers[127].moment(2) == sympy_mean_of_power(254)
        assert powers[51].moment(5) == sympy_mean_of_power(255)
        with pytest.raises(ValueError):
            top * powers[1]
        with pytest.raises(ValueError):
            powers[128].moment(2)
        with pytest.raises(ValueError):
            powers[64].moment(4)

    def test_elimination_at_the_bound(self):
        powers = powers_of_one_minus_u(255)
        # integrating u^255 up to the end 1 leaves no exponent behind
        assert powers[255].expectation() == sympy_mean_of_power(255)
        # on x1 < x2, integrating x1 would give u2 the exponent 256
        with pytest.raises(ValueError):
            powers[255].refine({0, 1}).conditional_expectation({1})
        # one less reaches 255 exactly; the two cells sum to a constant
        h = powers[254].refine({0, 1}).conditional_expectation({1})
        assert h == ChainFunction.constant(sympy_mean_of_power(254)).refine({1})


class TestPointwise:
    def test_indicator_values(self):
        f = ChainFunction.from_constraint(MAS_12)
        assert f.evaluate({0: Fraction(-1, 2), 1: Fraction(1, 2)}) == 1
        assert f.evaluate({0: Fraction(1, 2), 1: Fraction(-1, 2)}) == 0

    @settings(max_examples=40, deadline=None)
    @given(chain_fns(), chain_fns(), st.integers(0, 1 << 20))
    def test_product_is_pointwise(self, f, g, seed):
        rng = random.Random(seed)
        point = random_tie_free_point(f.support | g.support, rng)
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)

    @settings(max_examples=40, deadline=None)
    @given(chain_fns(), st.integers(0, 1 << 20))
    def test_refine_preserves_values(self, f, seed):
        rng = random.Random(seed)
        target = f.support | {5, 6}
        point = random_tie_free_point(target, rng)
        assert f.refine(target).evaluate(point) == f.evaluate(point)

    @settings(max_examples=40, deadline=None)
    @given(chain_fns(), chain_fns(), st.integers(0, 1 << 20))
    def test_sum_is_pointwise(self, f, g, seed):
        rng = random.Random(seed)
        union = f.support | g.support
        a, b = f.refine(union), g.refine(union)
        point = random_tie_free_point(union, rng)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a - b).evaluate(point) == a.evaluate(point) - b.evaluate(point)

    def test_rename_round_trip(self):
        f = ChainFunction.from_constraint(BETWEEN)
        mapping = {0: 7, 1: 3, 2: 5}
        g = f.rename(mapping)
        assert g.support == frozenset({3, 5, 7})
        back = g.rename({7: 0, 3: 1, 5: 2})
        assert back == f


class TestConditionalExpectation:
    @settings(max_examples=25, deadline=None)
    @given(polynomial_chain_fns(), st.integers(0, 1 << 30))
    def test_matches_sympy_integral_at_a_point(self, f, seed):
        rng = random.Random(seed)
        keep = frozenset(v for v in f.support if rng.random() < 0.5)
        point = random_tie_free_point(keep, rng)
        assert f.conditional_expectation(keep).evaluate(point) == sympy_conditional_expectation(f, point)

    @settings(max_examples=50, deadline=None)
    @given(chain_fns(), st.integers(0, 1 << 30))
    def test_law_of_total_expectation(self, f, seed):
        rng = random.Random(seed)
        t = frozenset(v for v in f.support if rng.random() < 0.5)
        assert f.conditional_expectation(t).expectation() == f.expectation()

    @settings(max_examples=50, deadline=None)
    @given(chain_fns(), st.integers(0, 1 << 30))
    def test_tower_property(self, f, seed):
        rng = random.Random(seed)
        t = frozenset(v for v in f.support if rng.random() < 0.6)
        u = frozenset(v for v in t if rng.random() < 0.5)
        assert f.conditional_expectation(t).conditional_expectation(u) == f.conditional_expectation(u)

    @settings(max_examples=40, deadline=None)
    @given(chain_fns())
    def test_averaging_an_unused_variable_is_identity(self, f):
        extra = max(f.support, default=-1) + 1
        assert f.refine(f.support | {extra}).conditional_expectation(f.support) == f

    @settings(max_examples=40, deadline=None)
    @given(chain_fns(), st.integers(0, 1 << 30))
    def test_elimination_order_is_irrelevant(self, f, seed):
        rng = random.Random(seed)
        outside = sorted(f.support)
        if not outside:
            return
        keep = frozenset(outside[: rng.randrange(len(outside))])
        g = f
        order = [v for v in outside if v not in keep]
        rng.shuffle(order)
        for v in order:
            g = g._eliminate(v)
        assert g == f.conditional_expectation(keep)

    def test_linear_in_the_function(self):
        f = ChainFunction.from_constraint(MAS_12).refine({0, 1, 2})
        g = ChainFunction.from_constraint(MAS_23).refine({0, 1, 2})
        lhs = (f + g.scale(-3)).conditional_expectation({1})
        rhs = f.conditional_expectation({1}) + g.conditional_expectation({1}).scale(-3)
        assert lhs == rhs


class TestMoments:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_moments_match_symbolic_integration(self, r, sympy_oracle):
        f = ChainFunction.from_constraint(MAS_12) * ChainFunction.from_constraint(MAS_23)
        g = f - ChainFunction.constant(Fraction(1, 6)).refine(f.support)
        assert g.moment(r) == sympy_oracle(g, r)

    def test_conditional_pieces_match_symbolic_integration(self, sympy_oracle):
        f = ChainFunction.from_constraint(BETWEEN)
        g = f.conditional_expectation({0, 2})
        assert g.moment(2) == sympy_oracle(g, 2)
        assert g.moment(3) == sympy_oracle(g, 3)

    @settings(max_examples=12, deadline=None)
    @given(f=chain_fns(), r=st.sampled_from([2, 4]))
    def test_random_moments_match_symbolic_integration(self, sympy_oracle, f, r):
        assert f.moment(r) == sympy_oracle(f, r)

    @pytest.mark.parametrize("r", [2, 4])
    def test_arity_3_parts_match_elimination(self, r):
        assert len(ALLOWED_3) == 63
        for allowed in ALLOWED_3:
            for s, part in decompose_constraint(Constraint((0, 1, 2), allowed)).items():
                assert part.moment(r) == moment_by_elimination(part, r), (sorted(allowed), s)

    def test_arity_4_parts_match_elimination(self):
        perms = list(itertools.permutations(range(4)))
        # x1 < x2 < min(x3, x4): every one of the 15 subsets carries a nonzero part
        parts = decompose_constraint(Constraint((0, 1, 2, 3), frozenset(perms[:2])))
        assert len(parts) == 16
        for s, part in parts.items():
            assert part.moment(4) == moment_by_elimination(part, 4), s

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_constant_and_zero_functions(self, r):
        c = ChainFunction.constant(Fraction(-3, 7))
        assert c.pieces.keys() == {()}
        assert c.moment(r) == Fraction(-3, 7) ** r == moment_by_elimination(c, r)
        zero = ChainFunction.constant(0)
        assert zero.is_zero() and zero.moment(r) == 0
        empty_on_pair = ChainFunction({0, 1}, {})
        assert empty_on_pair.moment(r) == 0

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_recipe_style_sum_matches_elimination(self, r):
        # two embedded canonical parts on local variables 0..2 with multiplicities -2 and 3
        a = decompose_constraint(BETWEEN)[(0, 1, 2)]
        b = decompose_constraint(Constraint((0, 1, 2), frozenset({(1, 0, 2), (2, 0, 1)})))[(0, 1, 2)]
        total = a.rename({0: 2, 1: 0, 2: 1}).scale(-2) + b.scale(3)
        assert total.cell_count() == 6
        assert total.moment(r) == moment_by_elimination(total, r)

    def test_moment_order_must_be_positive(self):
        with pytest.raises(ValueError):
            ChainFunction.from_constraint(MAS_12).moment(0)

    def test_second_moment_dominates_squared_mean(self):
        rng = random.Random(5)
        for seed in range(20):
            k = rng.randint(2, 3)
            perms = list(itertools.permutations(range(k)))
            allowed = frozenset(p for p in perms if rng.random() < 0.5)
            f = ChainFunction.from_constraint(Constraint(tuple(range(k)), allowed))
            assert f.moment(2) >= f.expectation() ** 2

    def test_monte_carlo_mean(self):
        f = ChainFunction.from_constraint(MAS_12) * ChainFunction.from_constraint(BETWEEN)
        rng = random.Random(123)
        samples = 40_000
        total = 0.0
        support = sorted(f.support)
        for _ in range(samples):
            point = {v: rng.uniform(-1.0, 1.0) for v in support}
            total += f.evaluate(point)
        mean = total / samples
        exact = float(f.expectation())
        # indicator-valued, so variance is at most 1/4
        se = 0.5 / samples**0.5
        assert abs(mean - exact) < 4 * se
