import pathlib
from fractions import Fraction

import pytest

from ocsp.bonami import (
    REL_TOL,
    Z_SUPPORT,
    BonamiWitness,
    surrogate_moments,
    verify_chain,
    z_moments,
)
from ocsp.efron_stein import ESDecomposition, decompose_instance
from ocsp.oracle import exact_central_moment

from conftest import mixed_corpus, single_betweenness, single_mas, triangle_mas

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ocsp"


class TestZMoments:
    def test_distribution_is_centered_and_normalized(self):
        assert sum(p for _, p in Z_SUPPORT) == 1
        assert sum(v * p for v, p in Z_SUPPORT) == 0

    def test_values_follow_from_the_distribution(self):
        expected = {
            r: Fraction(3) ** r * Fraction(1, 4) + Fraction(-1) ** r * Fraction(3, 4)
            for r in range(1, 5)
        }
        zm = z_moments()
        assert zm == expected == {1: 0, 2: 3, 3: 6, 4: 21}

    def test_higher_moments_beat_gaussian_style_growth(self):
        zm = z_moments()
        # E[Z^3]^(1/3) > E[Z^2]^(1/2): compare 6^2 against 3^3
        assert zm[3] ** 2 > zm[2] ** 3
        # E[Z^4]^(1/4) > E[Z^2]^(1/2): compare 21 against 3^2
        assert zm[4] > zm[2] ** 2


class TestSurrogate:
    def test_second_moment_matches_variance(self):
        for inst in mixed_corpus(15, seed=51, max_n=8, max_k=3, max_m=5):
            dec = decompose_instance(inst)
            s = surrogate_moments(dec)
            var = float(dec.variance())
            assert abs(s.em2 - var) <= REL_TOL * max(1.0, var)

    def test_single_part_fourth_moment_is_closed_form(self):
        base = decompose_instance(single_mas())
        # the pair part alone, without the two singleton parts of the edge
        dec = ESDecomposition(Fraction(0), 2, {(0, 1): base._parts[(0, 1)]})
        assert dec.subsets() == [(0, 1)]
        s = surrogate_moments(dec)
        m2 = float(base.m2((0, 1)))
        # one subset: em4 = 21^|S| * coeff^4 = (21/9)^|S| * m2^2
        expected = (21.0 / 9.0) ** 2 * m2 * m2
        assert s.em4 == pytest.approx(expected, rel=1e-12)
        assert s.em2 == pytest.approx(m2, rel=1e-12)

    def test_fourth_dominates_squared_second(self):
        for inst in [single_mas(), single_betweenness(), triangle_mas()]:
            s = surrogate_moments(decompose_instance(inst))
            assert s.em4 >= s.em2**2 * (1 - 1e-12)

    def test_empty_decomposition(self):
        inst = mixed_corpus(1, seed=0, include_empty=True)[0]
        dec = decompose_instance(single_mas())
        empty = ESDecomposition(Fraction(1), 2, {})
        s = surrogate_moments(empty)
        assert s.em2 == 0.0
        assert s.em4 == 0.0
        assert dec is not empty and inst is not None


class TestVerifyChain:
    def test_single_mas_witness(self):
        inst = single_mas()
        dec = decompose_instance(inst)
        w = verify_chain(dec, exact_central_moment(inst, 4))
        assert isinstance(w, BonamiWitness)
        assert w.ef2 == Fraction(1, 4)
        assert w.ef4 == Fraction(1, 16)
        assert w.degree == 2
        assert w.C == Fraction(9, 5)
        assert set(w.checks) == {
            "fourth_moment_vs_surrogate",
            "surrogate_hypercontractivity",
            "second_moment_identity",
        }
        assert w.all_passed

    def test_corpus_has_no_failures(self):
        failures = []
        for inst in mixed_corpus(25, seed=63, max_n=7, max_k=3, max_m=4):
            dec = decompose_instance(inst)
            w = verify_chain(dec, exact_central_moment(inst, 4))
            if not w.all_passed:
                failures.append((inst, w))
        assert failures == []

    def test_check_slack_sign(self):
        inst = triangle_mas()
        w = verify_chain(decompose_instance(inst), exact_central_moment(inst, 4))
        for name, check in w.checks.items():
            tol = REL_TOL * max(1.0, abs(check.lhs), abs(check.rhs))
            if name == "second_moment_identity":
                assert abs(check.lhs - check.rhs) <= tol
            else:
                assert check.slack >= -tol


class TestFirewall:
    DECISION_MODULES = [
        "chainfn.py",
        "instance.py",
        "efron_stein.py",
        "oracle.py",
        "decider.py",
    ]

    @pytest.mark.parametrize("name", DECISION_MODULES)
    def test_decision_path_stays_exact(self, name):
        source = (SRC / name).read_text()
        assert "bonami" not in source
        assert "float(" not in source
        assert "math.sqrt" not in source
