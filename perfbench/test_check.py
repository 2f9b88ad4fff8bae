"""Tests of the benchmark's reference and checks; none of them runs ``ocsp``.

Run from the root of a checkout:  python3 -m pytest perfbench/test_check.py
"""

from __future__ import annotations

import copy
import itertools
import math
import random
from fractions import Fraction

import pytest

from check import check_report
from reference import (
    certificate_constant,
    enumerated_moments,
    objective,
    pairwise_variance,
    parse_text,
    reference,
)
from workloads import KERNEL_PAD_PAIRS, dense_moments, kernel_enumeration, kernel_padding, render


def _random_instance(rng: random.Random, n: int, m: int):
    cons = []
    for _ in range(m):
        arity = rng.randint(2, min(3, n))
        perms = list(itertools.permutations(range(arity)))
        allowed = frozenset(rng.sample(perms, rng.randint(1, len(perms))))
        cons.append((tuple(rng.sample(range(n), arity)), allowed))
    return cons


def _naive_moments(n: int, cons) -> tuple[Fraction, Fraction]:
    """AVG and variance straight from the constraint list, one constraint at a time."""
    values = []
    for perm in itertools.permutations(range(n)):
        rank = {v: i for i, v in enumerate(perm)}
        values.append(sum(
            tuple(sorted(range(len(vs)), key=lambda i: rank[vs[i]])) in allowed
            for vs, allowed in cons
        ))
    avg = Fraction(sum(values), math.factorial(n))
    return avg, sum((v - avg) ** 2 for v in values) / math.factorial(n)


@pytest.mark.parametrize("seed", range(12))
def test_pairwise_variance_matches_full_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    cons = _random_instance(rng, n, rng.randint(1, 12))
    _, tables, _ = parse_text(render(n, cons))
    avg, m2, _ = enumerated_moments(n, tables)
    assert pairwise_variance(tables) == m2
    assert certificate_constant(tables)[1] == m2  # the parts' second moments add up to sigma^2
    assert (avg, m2) == _naive_moments(n, cons)


def test_certificate_constant_of_one_precedence_edge():
    # 1[x_a < x_b] on [0, 1]^2: the parts 1/2 - x_a, x_b - 1/2 and the pair
    # part all have m2 = 1/12 and m4 = 1/80, so C = (1/80) / (1/12)^2 = 9/5
    big_c, m2 = certificate_constant({(0, 1): {(0, 1): 1}})
    assert (big_c, m2) == (Fraction(9, 5), Fraction(1, 4))


def test_padding_pairs_sum_to_a_constant():
    cons = kernel_padding(random.Random(0), list(range(3 * KERNEL_PAD_PAIRS)))
    _, tables, _ = parse_text(render(3 * KERNEL_PAD_PAIRS, cons))
    assert pairwise_variance(tables) == 0
    assert _naive_moments(6, cons[:4]) == (2, 0)  # the first two pairs, on variables 0..5


def _certificate(ref, t: Fraction, big_c: Fraction | None = None) -> dict:
    big_c = ref.big_c if big_c is None else big_c
    b = 81**ref.arity * big_c + 1
    return {"sigma2": str(ref.sigma2), "C": str(big_c), "b": str(b), "t": str(t),
            "fires": ref.sigma2 >= 4 * b * t * t}


def _ordering_report(ref, ordering) -> dict:
    return {"ordering": [v + 1 for v in ordering], "value": objective(ref.tables, ordering)}


@pytest.fixture(scope="module")
def certified():
    decision = dense_moments(0)[0]
    ref = reference(render(decision.n, decision.constraints), decision.t, kernel=False)
    report = {"outcome": "yes-certified", "certificate": _certificate(ref, decision.t),
              "kernel": None, "witness": _ordering_report(ref, ref.proof)}
    return decision, ref, report


@pytest.fixture(scope="module")
def kernel_yes():
    decision = kernel_enumeration(0)[0]
    ref = reference(render(decision.n, decision.constraints), decision.t, kernel=True)
    facts = ref.kernel
    best = max(facts.values, key=facts.values.get)
    full = best + tuple(v for v in range(ref.n) if v not in best)
    report = {
        "outcome": "yes-kernel",
        "certificate": _certificate(ref, decision.t),
        "kernel": {"kernel_vars": [v + 1 for v in facts.kernel], "size": len(facts.kernel),
                   "opt_minus_avg": str(facts.gap), "best_ordering": [v + 1 for v in best]},
        "witness": _ordering_report(ref, full),
    }
    return decision, ref, report


def test_valid_reports_pass(certified, kernel_yes):
    for decision, ref, report in (certified, kernel_yes):
        assert check_report(decision, ref, report) == []


def _corrupted(report, path, value):
    bad = copy.deepcopy(report)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]])
    return bad


CORRUPTIONS = {
    "sigma2": (("certificate", "sigma2"), lambda s: str(Fraction(s) + Fraction(1, 7))),
    "outcome": (("outcome",), lambda _: "no-kernel"),
    "witness_value": (("witness", "value"), lambda v: v + 1),
    "witness_ordering": (("witness", "ordering"), lambda o: o[:-1]),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_certified_report_is_rejected(certified, name):
    decision, ref, report = certified
    path, value = CORRUPTIONS[name]
    assert check_report(decision, ref, _corrupted(report, path, value))


KERNEL_CORRUPTIONS = {
    **CORRUPTIONS,
    "opt_minus_avg": (("kernel", "opt_minus_avg"), lambda s: str(Fraction(s) - Fraction(1, 3))),
    "kernel_vars": (("kernel", "kernel_vars"), lambda vs: vs[:-1] + [vs[-1] + 1]),
    "kernel_size": (("kernel", "size"), lambda k: k - 1),
    "best_ordering": (("kernel", "best_ordering"), lambda o: o[:-1]),
    "fires": (("certificate", "fires"), lambda f: not f),
    "C": (("certificate", "C"), lambda c: str(Fraction(c) + 1)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CORRUPTIONS))
def test_corrupted_kernel_report_is_rejected(kernel_yes, name):
    decision, ref, report = kernel_yes
    path, value = KERNEL_CORRUPTIONS[name]
    assert check_report(decision, ref, _corrupted(report, path, value))


@pytest.mark.parametrize("factor", (Fraction(1, 2), Fraction(2)))
def test_c_and_b_changed_together_are_rejected(certified, kernel_yes, factor):
    # a consistent b = 81^k C + 1 from a wrong C, with fires left as it was
    for decision, ref, report in (certified, kernel_yes):
        bad = copy.deepcopy(report)
        wrong = _certificate(ref, decision.t, ref.big_c * factor)
        bad["certificate"].update(C=wrong["C"], b=wrong["b"])
        assert any(e.startswith("C ") for e in check_report(decision, ref, bad))


def test_no_kernel_above_opt(kernel_yes):
    decision, ref, report = kernel_yes
    above = kernel_enumeration(0)[1]
    assert above.constraints == decision.constraints and above.t > ref.kernel.gap
    bad = copy.deepcopy(report)
    bad["certificate"]["t"] = str(above.t)
    assert check_report(above, ref, bad)  # claims yes above OPT - AVG
    bad["outcome"], bad["witness"] = "no-kernel", None
    assert check_report(above, ref, bad) == []


def test_inputs_depend_on_the_seed_alone():
    assert kernel_enumeration(3) == kernel_enumeration(3)
    assert dense_moments(3) == dense_moments(3)
    assert dense_moments(3) != dense_moments(4)


def test_dense_moments_covers_all_63_allowed_sets():
    sets = set()
    for d in dense_moments(5):
        for vars_, allowed in d.constraints:
            key = sorted(vars_)
            sets.add(frozenset(tuple(key.index(vars_[i]) for i in perm) for perm in allowed))
    assert len(sets) == 63
