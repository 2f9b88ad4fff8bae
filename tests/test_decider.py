import itertools
import math
import random
from fractions import Fraction

import pytest

from ocsp.decider import (
    NO_KERNEL,
    UNDECIDED,
    YES_CERTIFIED,
    YES_KERNEL,
    DecideConfig,
    Witness,
    brute_force_kernel,
    certify_above_average,
    decide,
    extend_ordering,
    find_witness,
    kernelize,
)
from ocsp.efron_stein import decompose_instance
from ocsp.errors import CapExceededError
from ocsp.instance import Constraint, Instance, generate
from ocsp.oracle import brute_force_opt

from conftest import mixed_corpus, opposite_pair, single_betweenness, single_mas, triangle_mas


def largest_firing_t(sigma2: Fraction, b: Fraction) -> Fraction:
    """A positive rational t with 4*b*t^2 <= sigma2, close to the largest one."""
    s = sigma2 / (4 * b)
    scale = 10**8
    return Fraction(math.isqrt(s.numerator * scale * scale // s.denominator), scale)


class TestCertificate:
    def test_single_mas_numbers(self):
        dec = decompose_instance(single_mas())
        report = certify_above_average(dec, Fraction(1))
        assert report.sigma2 == Fraction(1, 4)
        assert report.C == Fraction(9, 5)
        assert report.b == Fraction(59054, 5)
        assert report.fires is False

    def test_fires_for_small_t(self):
        dec = decompose_instance(single_mas())
        t = largest_firing_t(dec.variance(), Fraction(59054, 5))
        assert t > 0
        assert certify_above_average(dec, t).fires is True

    def test_threshold_is_exact(self):
        dec = decompose_instance(single_mas())
        # 4*b*t^2 == sigma2 exactly at t^2 = 5/944864; pick t on the boundary
        t2 = dec.variance() / (4 * Fraction(59054, 5))
        # boundary t is irrational; bracket it by rationals instead
        below = largest_firing_t(dec.variance(), Fraction(59054, 5))
        above = below + Fraction(1, 10**6)
        assert below * below <= t2 < above * above
        assert certify_above_average(dec, below).fires
        assert not certify_above_average(dec, above).fires

    def test_zero_variance_never_fires(self):
        dec = decompose_instance(opposite_pair())
        for t in (Fraction(1, 10**9), Fraction(1, 2), Fraction(5)):
            assert certify_above_average(dec, t).fires is False

    def test_t_must_be_positive(self):
        dec = decompose_instance(single_mas())
        with pytest.raises(ValueError):
            certify_above_average(dec, Fraction(0))
        with pytest.raises(ValueError):
            certify_above_average(dec, Fraction(-1))

    def test_fired_certificate_is_sound(self):
        checked = 0
        for inst in mixed_corpus(30, seed=77, max_n=7, max_k=3, max_m=5):
            dec = decompose_instance(inst)
            sigma2 = dec.variance()
            if sigma2 == 0:
                continue
            report = certify_above_average(dec, Fraction(1))
            t = largest_firing_t(sigma2, report.b)
            if t == 0:
                continue
            assert certify_above_average(dec, t).fires
            opt, avg = brute_force_opt(inst)
            assert opt >= avg + t
            checked += 1
        assert checked >= 10


class TestKernel:
    def test_kernel_vars(self):
        assert kernelize(triangle_mas()).kernel_vars == (0, 1, 2)
        assert kernelize(opposite_pair()).kernel_vars == ()

    def test_isolated_variables_drop_out(self):
        c = Constraint((1, 3), frozenset({(0, 1)}))
        inst = Instance(6, (c,))
        assert kernelize(inst).kernel_vars == (1, 3)

    def test_brute_force_examples(self):
        k = brute_force_kernel(single_mas(), kernelize(single_mas()))
        assert k.opt_minus_avg == Fraction(1, 2)
        assert k.best_ordering == (0, 1)
        k = brute_force_kernel(triangle_mas(), kernelize(triangle_mas()))
        assert k.opt_minus_avg == Fraction(1, 2)
        assert k.best_ordering == (0, 1, 2)

    def test_brute_force_breaks_ties_lexicographically(self):
        # both (0,1,2) and (2,1,0) attain the optimum
        k = brute_force_kernel(single_betweenness(), kernelize(single_betweenness()))
        assert k.opt_minus_avg == Fraction(2, 3)
        assert k.best_ordering == (0, 1, 2)

    def test_empty_kernel(self):
        k = brute_force_kernel(opposite_pair(), kernelize(opposite_pair()))
        assert k.opt_minus_avg == 0
        assert k.best_ordering == ()

    def test_cap_enforced(self):
        inst = generate("mas", n=12, m=30, seed=2)
        kernel = kernelize(inst)
        assert len(kernel.kernel_vars) > 10
        with pytest.raises(CapExceededError):
            brute_force_kernel(inst, kernel, cap=10)

    def test_matches_enumeration_of_the_full_instance(self):
        for inst in mixed_corpus(25, seed=19, max_n=7, max_k=3, max_m=5):
            k = brute_force_kernel(inst, kernelize(inst), cap=7)
            opt, avg = brute_force_opt(inst)
            assert k.opt_minus_avg == opt - avg

    def test_best_ordering_is_the_first_maximizer(self):
        for inst in mixed_corpus(40, seed=31, max_n=7, max_k=3, max_m=6):
            kernel = kernelize(inst)
            k = brute_force_kernel(inst, kernel, cap=7)
            first = max(
                itertools.permutations(kernel.kernel_vars),
                key=lambda p: inst.evaluate(extend_ordering(p, inst.n)),
            )
            assert k.best_ordering == first
            assert k.opt_minus_avg == inst.evaluate(extend_ordering(first, inst.n)) - inst.average_value()

    def test_constraints_cancelling_across_the_kernel_boundary(self):
        # the kernel is the cycle 1 -> 3 -> 5 -> 1; each of 0, 2, 4 sits in a
        # constraint and its complement with one kernel variable, so each
        # constraint alone changes with the ordering but the pair does not
        def mas(a, b):
            return Constraint((a, b), frozenset({(0, 1)}))

        cycle = [mas(1, 3), mas(3, 5), mas(5, 1)]
        pairs = [mas(0, 1), mas(1, 0), mas(3, 2), mas(2, 3), mas(4, 5), mas(5, 4)]
        inst = Instance(6, tuple(cycle + pairs))
        kernel = kernelize(inst)
        assert kernel.kernel_vars == (1, 3, 5)
        k = brute_force_kernel(inst, kernel)
        opt, avg = brute_force_opt(inst)
        assert k.opt_minus_avg == opt - avg == Fraction(1, 2)
        assert k.best_ordering == (1, 3, 5)
        assert inst.evaluate(extend_ordering(k.best_ordering, inst.n)) == opt

    def test_extend_ordering(self):
        assert extend_ordering((2, 0), 4) == (2, 0, 1, 3)
        assert extend_ordering((), 3) == (0, 1, 2)


class TestWitnessSearch:
    def test_finds_triangle_witness(self):
        inst = triangle_mas()
        w = find_witness(inst, Fraction(1, 2), budget=50, seed=1)
        assert w is not None
        assert inst.evaluate(w.ordering) == w.value == 2

    def test_zero_budget(self):
        assert find_witness(triangle_mas(), Fraction(1, 2), budget=0) is None

    def test_unreachable_target(self):
        assert find_witness(triangle_mas(), Fraction(10), budget=5) is None

    def test_matches_the_full_reevaluation_ascent(self):
        def full_ascent(inst, t, budget, seed):
            target = inst.average_value() + t
            rng = random.Random(seed)
            base = list(range(inst.n))
            for _ in range(budget):
                rng.shuffle(base)
                current = list(base)
                value = inst.evaluate(tuple(current))
                while value < target:
                    best_value, best_i = value, -1
                    for i in range(inst.n - 1):
                        current[i], current[i + 1] = current[i + 1], current[i]
                        candidate = inst.evaluate(tuple(current))
                        current[i], current[i + 1] = current[i + 1], current[i]
                        if candidate > best_value:
                            best_value, best_i = candidate, i
                    if best_i < 0:
                        break
                    current[best_i], current[best_i + 1] = current[best_i + 1], current[best_i]
                    value = best_value
                if value >= target:
                    return Witness(tuple(current), value)
            return None

        found = 0
        for index, inst in enumerate(mixed_corpus(12, seed=41, max_n=9, max_k=4, max_m=12)):
            for seed, budget in ((index, 1), (index + 100, 3), (index + 200, 8)):
                for t in (Fraction(1, 2), Fraction(2), Fraction(4)):
                    expected = full_ascent(inst, t, budget, seed)
                    assert find_witness(inst, t, budget=budget, seed=seed) == expected
                    found += expected is not None
        assert found >= 20
        # wide constraints: a swap changes gains at positions away from its own neighbours
        found = 0
        for k in (4, 5, 6):
            for seed in range(12):
                inst = generate("random-k", n=14, m=10, k=k, seed=seed)
                for t in (Fraction(1), Fraction(3), Fraction(6)):
                    expected = full_ascent(inst, t, 3, seed)
                    assert find_witness(inst, t, budget=3, seed=seed) == expected
                    found += expected is not None
        assert found >= 40

    def test_deterministic_per_seed(self):
        inst = generate("mas", n=7, m=9, seed=5)
        a = find_witness(inst, Fraction(1, 2), budget=20, seed=9)
        b = find_witness(inst, Fraction(1, 2), budget=20, seed=9)
        assert a == b


class TestDecide:
    def test_triangle_yes(self):
        report = decide(triangle_mas(), Fraction(1, 2))
        assert report.outcome == YES_KERNEL
        assert report.certificate.fires is False
        assert report.kernel.opt_minus_avg == Fraction(1, 2)
        assert report.witness.value == 2
        assert report.witness.ordering == (0, 1, 2)

    def test_triangle_no(self):
        report = decide(triangle_mas(), Fraction(3, 5))
        assert report.outcome == NO_KERNEL
        assert report.witness is None

    def test_kernel_witness_extends_to_all_variables(self):
        c = Constraint((1, 3), frozenset({(0, 1)}))
        inst = Instance(6, (c,))
        report = decide(inst, Fraction(1, 2))
        assert report.outcome == YES_KERNEL
        assert len(report.witness.ordering) == 6
        assert inst.evaluate(report.witness.ordering) == report.witness.value == 1

    def test_undecided_beyond_cap(self):
        inst = generate("mas", n=22, m=11, seed=3)
        report = decide(inst, Fraction(1, 2))
        assert len(kernelize(inst).kernel_vars) > 10
        assert report.outcome == UNDECIDED
        assert report.kernel.opt_minus_avg is None

    def test_cap_is_configurable(self):
        inst = generate("mas", n=11, m=5, seed=4)
        assert decide(inst, Fraction(5)).outcome != UNDECIDED or len(
            kernelize(inst).kernel_vars
        ) > 10
        report = decide(inst, Fraction(5), DecideConfig(cap=11))
        assert report.outcome in (YES_KERNEL, NO_KERNEL)

    def test_certified_with_witness(self):
        inst = single_mas()
        dec = decompose_instance(inst)
        t = largest_firing_t(dec.variance(), Fraction(59054, 5))
        report = decide(inst, t, DecideConfig(witness=True, budget=50))
        assert report.outcome == YES_CERTIFIED
        assert report.kernel is None
        assert report.witness is not None
        assert report.witness.value >= inst.average_value() + t
        assert inst.evaluate(report.witness.ordering) == report.witness.value

    def test_precomputed_decomposition_gives_same_answer(self):
        inst = triangle_mas()
        direct = decide(inst, Fraction(1, 2))
        reused = decide(inst, Fraction(1, 2), dec=decompose_instance(inst))
        assert direct.outcome == reused.outcome
        assert direct.certificate == reused.certificate
        assert direct.witness == reused.witness
        assert direct.kernel.kernel_vars == reused.kernel.kernel_vars
        assert direct.kernel.opt_minus_avg == reused.kernel.opt_minus_avg
        assert direct.kernel.best_ordering == reused.kernel.best_ordering

    def test_monotone_in_t(self):
        yes = {YES_CERTIFIED, YES_KERNEL}
        for inst in mixed_corpus(15, seed=23, max_n=7, max_k=3, max_m=5):
            low = decide(inst, Fraction(1, 4))
            high = decide(inst, Fraction(2))
            if high.outcome in yes:
                assert low.outcome in yes

    def test_agrees_with_enumeration(self):
        for inst in mixed_corpus(30, seed=29, max_n=7, max_k=3, max_m=5):
            opt, avg = brute_force_opt(inst)
            for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
                report = decide(inst, t)
                assert report.outcome != UNDECIDED
                expected = opt - avg >= t
                got = report.outcome in (YES_CERTIFIED, YES_KERNEL)
                assert got == expected
                if report.outcome == YES_KERNEL:
                    assert inst.evaluate(report.witness.ordering) >= avg + t
