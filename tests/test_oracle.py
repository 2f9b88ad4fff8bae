import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocsp.errors import BudgetExceededError, CapExceededError, CyclicPosetError
from ocsp.instance import Constraint, Instance, generate
from ocsp.oracle import (
    Poset,
    brute_force_opt,
    count_linear_extensions,
    exact_central_moment,
    product_expectation,
)

from conftest import mixed_corpus, opposite_pair, single_mas, triangle_mas


def enum_central_moment(inst: Instance, r: int) -> Fraction:
    """Ground truth by full enumeration of orderings."""
    values = [inst.evaluate(o) for o in itertools.permutations(range(inst.n))]
    avg = Fraction(sum(values), len(values))
    return sum(((v - avg) ** r for v in values), start=Fraction(0)) / len(values)


class TestPoset:
    def test_transitive_closure(self):
        p = Poset.from_pairs(range(3), [(0, 1), (1, 2)])
        assert (0, 2) in p.relation
        assert p.acyclic

    def test_cycle_detected(self):
        p = Poset.from_pairs(range(2), [(0, 1), (1, 0)])
        assert not p.acyclic
        with pytest.raises(CyclicPosetError):
            count_linear_extensions(p)

    def test_arbitrary_labels(self):
        p = Poset.from_pairs({3, 7, 9}, [(9, 3)])
        assert count_linear_extensions(p) == 3

    @pytest.mark.parametrize(
        "pairs,count",
        [
            ([(0, 1), (1, 2)], 1),  # chain
            ([], 6),  # antichain
            ([(0, 2), (1, 2)], 2),  # two minima
            ([(0, 1)], 3),  # chain of two plus one isolated
        ],
    )
    def test_small_counts(self, pairs, count):
        assert count_linear_extensions(Poset.from_pairs(range(3), pairs)) == count

    def test_chain_and_antichain_formulas(self):
        for n in range(1, 7):
            chain = Poset.from_pairs(range(n), [(i, i + 1) for i in range(n - 1)])
            assert count_linear_extensions(chain) == 1
            anti = Poset.from_pairs(range(n), [])
            assert count_linear_extensions(anti) == math.factorial(n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 1 << 30))
    def test_count_matches_permutation_enumeration(self, n, seed):
        rng = random.Random(seed)
        pairs = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and rng.random() < 0.3
        ]
        poset = Poset.from_pairs(range(n), pairs)
        expected = 0
        for perm in itertools.permutations(range(n)):
            pos = {v: i for i, v in enumerate(perm)}
            if all(pos[a] < pos[b] for a, b in poset.relation):
                expected += 1
        if not poset.acyclic:
            assert expected == 0
            return
        assert count_linear_extensions(poset) == expected


class TestProductExpectation:
    def test_examples(self):
        assert product_expectation([]) == 1
        assert product_expectation([(0, 1)]) == Fraction(1, 2)
        assert product_expectation([(0, 1, 2)]) == Fraction(1, 6)
        assert product_expectation([(0, 1), (1, 2)]) == Fraction(1, 6)
        assert product_expectation([(0, 1), (2, 1)]) == Fraction(1, 3)
        assert product_expectation([(0, 1), (1, 2), (2, 0)]) == 0

    def test_relabeling_invariance(self):
        a = product_expectation([(0, 1), (1, 2), (0, 3)])
        b = product_expectation([(10, 4), (4, 7), (10, 2)])
        assert a == b

    def test_disjoint_predicates_multiply(self):
        joint = product_expectation([(0, 1, 2), (3, 4)])
        assert joint == Fraction(1, 6) * Fraction(1, 2)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2024)
        preds = [(0, 2, 4), (1, 2), (3, 0)]
        exact = product_expectation(preds)
        samples = 200_000
        u = rng.random((samples, 5))
        hold = np.ones(samples, dtype=bool)
        for p in preds:
            for a, b in zip(p, p[1:]):
                hold &= u[:, a] < u[:, b]
        estimate = hold.mean()
        p = float(exact)
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(estimate - p) < 4 * se


class TestCentralMoments:
    def test_single_mas(self):
        inst = single_mas()
        assert exact_central_moment(inst, 1) == 0
        assert exact_central_moment(inst, 2) == Fraction(1, 4)
        assert exact_central_moment(inst, 4) == Fraction(1, 16)

    def test_triangle(self):
        inst = triangle_mas()
        assert exact_central_moment(inst, 2) == Fraction(1, 4)

    def test_opposite_pair_is_constant(self):
        inst = opposite_pair()
        assert exact_central_moment(inst, 2) == 0
        assert exact_central_moment(inst, 4) == 0

    def test_duplicate_constraints_scale(self):
        c = Constraint((0, 1), frozenset({(0, 1)}))
        inst = Instance(2, (c, c))
        assert exact_central_moment(inst, 2) == 1

    def test_matches_enumeration(self):
        for inst in mixed_corpus(16, seed=41, max_n=6, max_k=3, max_m=4):
            for r in (2, 3, 4):
                assert exact_central_moment(inst, r) == enum_central_moment(inst, r)

    def test_budget_guard(self):
        inst = generate("betweenness", n=6, m=4, seed=0)
        with pytest.raises(BudgetExceededError):
            exact_central_moment(inst, 4, budget=3)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            exact_central_moment(single_mas(), 0)


class TestBruteForce:
    def test_examples(self):
        assert brute_force_opt(single_mas()) == (1, Fraction(1, 2))
        assert brute_force_opt(triangle_mas()) == (2, Fraction(3, 2))
        assert brute_force_opt(opposite_pair()) == (1, 1)

    def test_cap(self):
        inst = generate("mas", n=5, m=3, seed=1)
        with pytest.raises(CapExceededError):
            brute_force_opt(inst, cap=4)
        assert brute_force_opt(inst, cap=5)[0] >= 0

    def test_avg_matches_average_value(self):
        for inst in mixed_corpus(12, seed=6, max_n=6, max_k=3, max_m=5):
            _, avg = brute_force_opt(inst)
            assert avg == inst.average_value()
