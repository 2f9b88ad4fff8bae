import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ocsp.efron_stein import ESDecomposition, _canonical, decompose_constraint, decompose_instance
from ocsp.instance import Constraint, Instance, generate
from ocsp.oracle import exact_central_moment

from conftest import (
    mixed_corpus,
    opposite_pair,
    random_tie_free_point,
    single_betweenness,
    single_mas,
    triangle_mas,
)


def ordering_from_point(n: int, point) -> tuple[int, ...]:
    return tuple(sorted(range(n), key=lambda v: point[v]))


class TestSingleConstraint:
    def test_mas_parts(self):
        parts = decompose_constraint(Constraint((0, 1), frozenset({(0, 1)})))
        assert set(parts) == {(), (0,), (1,), (0, 1)}
        assert str(parts[()]) == "[const] 1/2"
        assert str(parts[(0,)]) == "[x1] -1/2*x1"
        assert str(parts[(1,)]) == "[x2] 1/2*x2"

    def test_mas_part_moments(self):
        dec = decompose_instance(single_mas())
        assert dec.mean == Fraction(1, 2)
        assert dec.subsets() == [(0,), (1,), (0, 1)]
        for s in dec.subsets():
            assert dec.m2(s) == Fraction(1, 12)
        assert dec.variance() == Fraction(1, 4)
        assert dec.degree == 2
        assert dec.dependency_set() == frozenset({0, 1})

    def test_mas_fourth_moment_ratio(self):
        dec = decompose_instance(single_mas())
        # singleton part -x/2: E[x^4/16] / E[x^2/4]^2 = (1/80)/(1/144)
        assert dec.m4((0,)) == Fraction(1, 80)
        assert dec.local_fourth_moment_ratio() == Fraction(9, 5)

    def test_renamed_variables_carry_through(self):
        parts = decompose_constraint(Constraint((2, 5), frozenset({(0, 1)})))
        assert set(parts) == {(), (2,), (5,), (2, 5)}
        assert str(parts[(2,)]) == "[x3] -1/2*x3"
        assert str(parts[(5,)]) == "[x6] 1/2*x6"

    def test_full_allowed_set_is_pure_mean(self):
        parts = decompose_constraint(
            Constraint((0, 1), frozenset({(0, 1), (1, 0)}))
        )
        assert set(parts) == {()}
        assert parts[()].expectation() == 1

    def test_empty_allowed_set_vanishes(self):
        assert decompose_constraint(Constraint((0, 1), frozenset())) == {}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 1 << 30))
    def test_mean_is_allowed_fraction(self, k, seed):
        rng = random.Random(seed)
        perms = list(itertools.permutations(range(k)))
        allowed = frozenset(p for p in perms if rng.random() < 0.5)
        parts = decompose_constraint(Constraint(tuple(range(k)), allowed))
        mean = parts[()].expectation() if () in parts else Fraction(0)
        assert mean == Fraction(len(allowed), math.factorial(k))


class TestBetweenness:
    def test_pinned_values(self, sympy_oracle):
        dec = decompose_instance(single_betweenness())
        assert dec.mean == Fraction(1, 3)
        # Bernoulli(1/3) variance
        assert dec.variance() == Fraction(2, 9)
        assert dec.degree == 3
        # pinned ratio, re-derived here by symbolic integration of each part
        ratios = [sympy_oracle(dec.part(s), 4) / sympy_oracle(dec.part(s), 2) ** 2 for s in dec.subsets()]
        assert max(ratios) == Fraction(1143, 175)
        assert dec.local_fourth_moment_ratio() == Fraction(1143, 175)

    def test_middle_variable_part(self):
        dec = decompose_instance(single_betweenness())
        # conditioned on the middle variable alone: (1 - t^2)/2 - 1/3
        part = dec.part((1,))
        assert str(part) == "[x2] 1/6 - 1/2*x2^2"


class TestCancellation:
    def test_triangle_drops_singletons(self):
        dec = decompose_instance(triangle_mas())
        assert dec.subsets() == [(0, 1), (0, 2), (1, 2)]
        assert dec.mean == Fraction(3, 2)
        assert dec.variance() == Fraction(1, 4)
        assert dec.dependency_set() == frozenset({0, 1, 2})

    def test_opposite_constraints_cancel_completely(self):
        dec = decompose_instance(opposite_pair())
        assert dec.subsets() == []
        assert dec.mean == 1
        assert dec.variance() == 0
        assert dec.degree == 0
        assert dec.dependency_set() == frozenset()
        assert dec.min_m2() is None
        assert dec.local_fourth_moment_ratio() == 1


class TestInstanceAggregation:
    def test_duplicate_constraint_multiplicity(self):
        c = Constraint((0, 1), frozenset({(0, 1)}))
        one = decompose_instance(Instance(2, (c,)))
        two = decompose_instance(Instance(2, (c, c)))
        assert two.mean == 2 * one.mean
        for s in one.subsets():
            assert two.part(s) == one.part(s).scale(2)
            assert two.m2(s) == 4 * one.m2(s)
            assert two.m4(s) == 16 * one.m4(s)

    def test_lazy_moments_match_direct_integration(self):
        for inst in mixed_corpus(10, seed=21, max_n=7, max_k=3, max_m=5):
            dec = decompose_instance(inst)
            for s in dec.subsets():
                assert dec.m2(s) == dec.part(s).moment(2)
                assert dec.m4(s) == dec.part(s).moment(4)

    def test_positive_second_moments(self):
        for inst in mixed_corpus(10, seed=4, max_n=8, max_k=4, max_m=6):
            dec = decompose_instance(inst)
            for s in dec.subsets():
                assert dec.m2(s) > 0

    def test_mean_equals_average_value(self):
        for inst in mixed_corpus(20, seed=9, max_n=9, max_k=4, max_m=6):
            assert decompose_instance(inst).mean == inst.average_value()

    def test_degree_at_most_arity(self):
        for inst in mixed_corpus(15, seed=13, max_n=8, max_k=4, max_m=6):
            dec = decompose_instance(inst)
            assert dec.degree <= inst.arity
            assert dec.dependency_set() <= set(range(inst.n))

    def test_shared_shapes_hit_the_canonical_cache(self):
        _canonical.cache_clear()
        generate_kwargs = dict(model="mas", n=30, m=50, seed=0)
        decompose_instance(generate(**generate_kwargs))
        info = _canonical.cache_info()
        assert info.misses == 1
        assert info.hits == 49



def assert_parts_match_constraint_sums(inst: Instance) -> None:
    """Each stored part is the sum of the constraints' parts on its subset; zero sums are absent."""
    dec = decompose_instance(inst)
    reference = {}
    for c in inst.constraints:
        for s, cf in decompose_constraint(c).items():
            if s:
                reference[s] = reference[s] + cf if s in reference else cf
    assert dec.subsets() == sorted(
        (s for s, cf in reference.items() if not cf.is_zero()), key=lambda s: (len(s), s)
    )
    for s in dec.subsets():
        assert dec.part(s) == reference[s]


def complement_on(vars_: tuple[int, ...], allowed: frozenset, other: tuple[int, ...]) -> Constraint:
    """The constraint allowing every order of ``vars_`` that ``allowed`` does not, written on ``other``."""
    missing = set(itertools.permutations(range(len(vars_)))) - allowed
    flip = tuple(vars_.index(v) for v in other)
    return Constraint(other, frozenset(tuple(flip.index(i) for i in perm) for perm in missing))


class TestPartsMatchConstraintSums:
    def test_mixed_corpus(self):
        for inst in mixed_corpus(40, seed=61, max_n=6, max_k=3, max_m=8):
            assert_parts_match_constraint_sums(inst)

    def test_one_edge_in_both_variable_orders(self):
        # x1 < x2 written as (1, 2) and as (2, 1): the parts double
        same = Instance(
            2, (Constraint((0, 1), frozenset({(0, 1)})), Constraint((1, 0), frozenset({(1, 0)})))
        )
        assert_parts_match_constraint_sums(same)
        assert decompose_instance(same).m2((0, 1)) == 4 * decompose_instance(single_mas()).m2((0, 1))
        # x1 < x2 and x2 < x1: everything cancels
        assert_parts_match_constraint_sums(opposite_pair())

    def test_cancelling_pairs_in_every_variable_order(self):
        # a constraint and its complement on one triple, the complement listed
        # in each of the six variable orders, as in the benchmark's padding
        shape = frozenset({(0, 1, 2), (1, 0, 2), (2, 1, 0)})
        for other in itertools.permutations((0, 1, 2)):
            pair = (Constraint((0, 1, 2), shape), complement_on((0, 1, 2), shape, other))
            inst = Instance(3, pair)
            assert_parts_match_constraint_sums(inst)
            assert decompose_instance(inst).subsets() == []
            for extra in itertools.permutations((0, 1, 2)):
                assert_parts_match_constraint_sums(Instance(3, pair + (Constraint(extra, shape),)))

    def test_crowded_subsets(self):
        # four variables, so most subsets are hit by several constraints, in
        # random variable orders and with repeats
        rng = random.Random(12)
        shapes = [
            frozenset({(0, 1)}),
            frozenset({(0, 1, 2), (2, 1, 0)}),
            frozenset({(0, 2, 1), (1, 2, 0)}),
        ]
        for _ in range(30):
            constraints = []
            for _ in range(rng.randint(2, 7)):
                shape = rng.choice(shapes)
                arity = len(next(iter(shape)))
                constraints.append(Constraint(tuple(rng.sample(range(4), arity)), shape))
            constraints += rng.sample(constraints, rng.randint(0, 2))
            assert_parts_match_constraint_sums(Instance(4, tuple(constraints)))


class TestReconstruction:
    def test_exact_at_random_points(self):
        rng = random.Random(88)
        for inst in mixed_corpus(20, seed=5, max_n=8, max_k=4, max_m=6):
            dec = decompose_instance(inst)
            for _ in range(5):
                point = random_tie_free_point(range(inst.n), rng)
                value = dec.mean + dec.evaluate_centered(point)
                assert value == inst.evaluate(ordering_from_point(inst.n, point))

    def test_centered_sum_has_mean_zero(self):
        inst = triangle_mas()
        dec = decompose_instance(inst)
        total = None
        union = sorted(dec.dependency_set())
        for s in dec.subsets():
            cf = dec.part(s).refine(union)
            total = cf if total is None else total + cf
        assert total.expectation() == 0
        assert total.moment(2) == dec.variance()


class TestOrthogonality:
    def test_parts_vanish_conditioned_on_proper_subsets(self):
        for inst in mixed_corpus(12, seed=7, max_n=7, max_k=4, max_m=5):
            dec = decompose_instance(inst)
            for s in dec.subsets():
                for r in range(len(s)):
                    for u in itertools.combinations(s, r):
                        assert dec.part(s).conditional_expectation(u).is_zero()

    def test_pairwise_products_integrate_to_zero(self):
        rng = random.Random(31)
        for inst in mixed_corpus(10, seed=17, max_n=7, max_k=3, max_m=5):
            dec = decompose_instance(inst)
            subsets = dec.subsets()
            pairs = [
                (s, t)
                for s, t in itertools.combinations(subsets, 2)
                if len(set(s) | set(t)) <= 5
            ]
            rng.shuffle(pairs)
            for s, t in pairs[:10]:
                assert (dec.part(s) * dec.part(t)).expectation() == 0


class TestOracleAgreement:
    def test_variance_matches_exact_second_central_moment(self):
        for inst in mixed_corpus(12, seed=3, max_n=6, max_k=3, max_m=4):
            dec = decompose_instance(inst)
            assert dec.variance() == exact_central_moment(inst, 2)

    def test_fourth_moment_of_centered_sum_matches_oracle(self):
        for inst in [single_mas(), single_betweenness(), triangle_mas()]:
            dec = decompose_instance(inst)
            union = sorted(dec.dependency_set())
            total = None
            for s in dec.subsets():
                cf = dec.part(s).refine(union)
                total = cf if total is None else total + cf
            assert total.moment(4) == exact_central_moment(inst, 4)
