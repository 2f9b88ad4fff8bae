import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ocsp.errors import OcspError, ParseError
from ocsp.instance import (
    Constraint,
    Instance,
    generate,
    parse_instance,
    render_instance,
)

from conftest import opposite_pair, single_mas, triangle_mas

TEXT = """\
ocsp 1
nvars 3
# a comment line
con 1 2

con 1 2 3 | 3 2 1
emptycon 1 3
"""


class TestParse:
    def test_basic(self):
        inst = parse_instance(TEXT)
        assert inst.n == 3
        assert inst.m == 3
        c0, c1, c2 = inst.constraints
        assert c0 == Constraint((0, 1), frozenset({(0, 1)}))
        assert c1 == Constraint((0, 1, 2), frozenset({(0, 1, 2), (2, 1, 0)}))
        assert c2 == Constraint((0, 2), frozenset())

    def test_first_listed_variable_is_smallest(self):
        inst = parse_instance("ocsp 1\nnvars 2\ncon 2 1\n")
        # only x2 < x1 satisfies the constraint
        assert inst.evaluate((1, 0)) == 1
        assert inst.evaluate((0, 1)) == 0

    @pytest.mark.parametrize(
        "text,line",
        [
            ("nvars 2\ncon 1 2\n", 1),
            ("ocsp 2\nnvars 2\n", 1),
            ("ocsp 1\ncon 1 2\n", 2),
            ("ocsp 1\nnvars x\n", 2),
            ("ocsp 1\nnvars 2\ncon 1 1\n", 3),
            ("ocsp 1\nnvars 2\ncon 1 3\n", 3),
            ("ocsp 1\nnvars 2\ncon 1 2 | 1 2\n", 3),
            ("ocsp 1\nnvars 3\ncon 1 2 | 1 3\n", 3),
            ("ocsp 1\nnvars 2\ncon 1 2 |\n", 3),
            ("ocsp 1\nnvars 2\nfoo 1 2\n", 3),
            ("ocsp 1\nnvars 2\nemptycon\n", 3),
            ("ocsp 1\nnvars 9\ncon 1 2 3 4 5 6 7\n", 3),
        ],
    )
    def test_errors_carry_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text,line,col,message",
        [
            ("", 1, 1, "missing header 'ocsp 1'"),
            ("nvars 2\ncon 1 2\n", 1, 1, "expected header 'ocsp 1'"),
            ("\t\tocsp 1 1\n", 1, 3, "expected header 'ocsp 1'"),
            ("ocsp 1\n", 1, 1, "missing 'nvars' line"),
            ("ocsp 1\n  con 1 2\n", 2, 3, "expected 'nvars <count>'"),
            ("ocsp 1\nnvars 2 3\n", 2, 1, "expected 'nvars <count>'"),
            ("ocsp 1\n\tnvars \u3000x\n", 2, 9, "expected a variable count, got 'x'"),
            ("ocsp 1\nnvars 2\nfoo 1 2\n", 3, 1, "unknown directive 'foo'"),
            ("ocsp 1\nnvars 2\ncon 1 2|2 1\n", 3, 7, "expected a variable index, got '2|2'"),
            ("ocsp 1\nnvars 2\ncon 1 \u00b2\n", 3, 7, "expected a variable index, got '\u00b2'"),
            ("ocsp 1\nnvars 2\ncon 0 1\n", 3, 5, "variable 0 out of range 1..2"),
            ("ocsp 1\nnvars 2\ncon 1 3 # 9\n", 3, 7, "variable 3 out of range 1..2"),
            ("ocsp 1\nnvars 2\ncon 2 2\n", 3, 7, "duplicate variable 2"),
            ("ocsp 1\nnvars 2\ncon\n", 3, 1, "empty order in 'con' line"),
            ("ocsp 1\nnvars 2\ncon | 1 2\n", 3, 1, "empty order in 'con' line"),
            ("ocsp 1\nnvars 2\n con 1 2 | | 2 1\n", 3, 2, "empty order in 'con' line"),
            ("ocsp 1\nnvars 2\ncon x 2 |\n", 3, 1, "empty order in 'con' line"),
            ("ocsp 1\nnvars 2\ncon 1 2 | 1 2\n", 3, 11, "duplicate order in 'con' line"),
            ("ocsp 1\nnvars 3\ncon 1 2 | 1 3\n", 3, 11, "orders in one 'con' line must use the same variables"),
            ("ocsp 1\nnvars 9\ncon 1 2 3 4 5 6 7\n", 3, 1, "arity 7 exceeds the maximum 6"),
            ("ocsp 1\nnvars 9\ncon 1 2 3 4 5 6 7 | x\n", 3, 1, "arity 7 exceeds the maximum 6"),
            # only the first order's arity is checked; a longer later order differs in its variables
            ("ocsp 1\nnvars 9\ncon 1 2 | 1 2 3 4 5 6 7\n", 3, 11, "orders in one 'con' line must use the same variables"),
            ("ocsp 1\nnvars 2\nemptycon\n", 3, 1, "emptycon needs at least one variable"),
            ("ocsp 1\nnvars 2\nemptycon 1 | 2\n", 3, 12, "expected a variable index, got '|'"),
            ("ocsp 1\nnvars 9\nemptycon 1 2 3 4 5 6 7\n", 3, 1, "arity 7 exceeds the maximum 6"),
            # leading tabs and non-ASCII whitespace count one column per character
            ("ocsp 1\nnvars 4\n\t\u3000con\u00a0 1\x1f9\n", 3, 10, "variable 9 out of range 1..4"),
            ("ocsp 1\r\nnvars 4\r\n\u2003con 4\u205f\u20034\r\n", 3, 9, "duplicate variable 4"),
            # NEL and the information separators 0x1c-0x1e end a line; 0x1f does not
            ("ocsp 1\nnvars 4\ncon 1 2\x85 \tcon 1 x\n", 4, 9, "expected a variable index, got 'x'"),
            ("ocsp 1\x1cnvars 4\x1dcon 1 2\x1econ 2 \x1f5\n", 4, 8, "variable 5 out of range 1..4"),
        ],
    )
    def test_every_error_pins_message_line_and_column(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == f"line {line}, col {col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)

    def test_str_split_cuts_the_tokens_of_the_column_regex(self):
        # the parser splits lines with str.split() and finds an error's column with \S+
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        by_isspace = {c for c in every if c.isspace()}
        assert set(re.findall(r"\s", every)) == by_isspace
        assert set(every) - set("".join(every.split())) == by_isspace

    def test_column_points_at_offending_token(self):
        with pytest.raises(ParseError) as err:
            parse_instance("ocsp 1\nnvars 2\ncon 1 7\n")
        assert (err.value.line, err.value.col) == (3, 7)

    def test_superscript_digit_is_not_a_number(self):
        with pytest.raises(ParseError) as err:
            parse_instance("ocsp 1\nnvars 2\ncon 1 \u00b2\n")
        assert (err.value.line, err.value.col) == (3, 7)

    def test_other_decimal_digits_parse_as_numbers(self):
        # Arabic-Indic one and two, as int() reads them
        assert parse_instance("ocsp 1\nnvars 2\ncon \u0661 \u0662\n") == parse_instance("ocsp 1\nnvars 2\ncon 1 2\n")

    def test_missing_nvars(self):
        with pytest.raises(ParseError):
            parse_instance("ocsp 1\n")

    def test_arity_six_parses_and_seven_does_not(self):
        assert parse_instance("ocsp 1\nnvars 7\ncon 1 2 3 4 5 6\n").arity == 6
        for line in ("con 1 2 3 4 5 6 7", "emptycon 1 2 3 4 5 6 7"):
            with pytest.raises(ParseError):
                parse_instance(f"ocsp 1\nnvars 7\n{line}\n")


# text assembled from the format's own tokens, with well-formed headers and
# constraint-shaped lines mixed in so that inputs reach the constraint parser
_TOKENS = st.one_of(
    st.sampled_from(["ocsp", "1", "nvars", "con", "emptycon", "|", "#", "0", "2", "3", "-1", "x"]),
    st.integers(0, 12).map(str),
    st.integers(10**6, 10**40).map(str),
    st.text(alphabet="0123456789", min_size=1, max_size=6),
)
_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
_VAR = st.one_of(st.integers(1, 8).map(str), _TOKENS)
_LINE = st.builds(
    lambda toks, sep, lead, tail: lead + sep.join(toks) + tail,
    st.one_of(
        st.lists(_TOKENS, max_size=9),
        st.builds(
            lambda key, orders: [key, *[t for o in orders for t in ("|", *o)][1:]],
            st.sampled_from(["con", "con", "emptycon"]),
            st.lists(st.lists(_VAR, min_size=1, max_size=5), min_size=1, max_size=3),
        ),
    ),
    _SPACE,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", " # note", "#"]),
)


@st.composite
def instance_texts(draw):
    header = draw(st.sampled_from(["", "ocsp 1\n", "ocsp 1\nnvars 4\n", "ocsp 1\nnvars 7\n"]))
    lines = draw(st.lists(_LINE, max_size=5))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return header + newline.join(lines) + draw(st.sampled_from(["", "\n"]))


class TestParseFuzz:
    @settings(max_examples=200, deadline=None)
    @given(instance_texts())
    def test_parses_or_raises_a_parse_error(self, text):
        try:
            inst = parse_instance(text)
        except (OcspError, ValueError):
            return
        keys = [line.split("#", 1)[0].split()[:1] for line in text.splitlines()]
        assert inst.m == keys.count(["con"]) + keys.count(["emptycon"])


class TestRoundTrip:
    def test_render_parse_semantics(self):
        inst = parse_instance(TEXT)
        back = parse_instance(render_instance(inst))
        for ordering in itertools.permutations(range(inst.n)):
            assert inst.evaluate(ordering) == back.evaluate(ordering)

    def test_render_is_canonical(self):
        inst = parse_instance(TEXT)
        once = render_instance(inst)
        assert render_instance(parse_instance(once)) == once


class TestEvaluate:
    def test_triangle_values(self):
        inst = triangle_mas()
        values = {o: inst.evaluate(o) for o in itertools.permutations(range(3))}
        assert values[(0, 1, 2)] == 2
        assert values[(2, 1, 0)] == 1
        assert sorted(values.values()) == [1, 1, 1, 2, 2, 2]

    def test_invalid_ordering(self):
        inst = single_mas()
        with pytest.raises(ValueError):
            inst.evaluate((0, 0))
        with pytest.raises(ValueError):
            inst.evaluate((0,))

    def test_empty_and_full_sets(self):
        empty = Constraint((0, 1), frozenset())
        full = Constraint((0, 1), frozenset({(0, 1), (1, 0)}))
        inst = Instance(2, (empty, full))
        for o in itertools.permutations(range(2)):
            assert inst.evaluate(o) == 1
        assert inst.average_value() == 1

    def test_average_examples(self):
        assert single_mas().average_value() == Fraction(1, 2)
        assert triangle_mas().average_value() == Fraction(3, 2)
        assert opposite_pair().average_value() == 1
        assert Instance(5, ()).average_value() == 0

    def test_average_equals_mean_over_orderings(self):
        rng = random.Random(11)
        for seed in range(8):
            model = ("mas", "betweenness", "random-k")[seed % 3]
            n = rng.randint(3, 6)
            inst = generate(
                model,
                n=n,
                m=rng.randint(1, 5),
                k=3 if model == "random-k" else None,
                allowed_fraction=Fraction(1, 2),
                seed=seed,
            )
            total = sum(inst.evaluate(o) for o in itertools.permutations(range(n)))
            assert Fraction(total, math.factorial(n)) == inst.average_value()


def relabel(inst: Instance, perm: tuple[int, ...]) -> Instance:
    cons = tuple(
        Constraint(tuple(perm[v] for v in c.vars), c.allowed) for c in inst.constraints
    )
    return Instance(inst.n, cons)


class TestRelabeling:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 1 << 20), st.permutations(tuple(range(5))))
    def test_evaluate_invariant_under_relabeling(self, seed, perm):
        perm = tuple(perm)
        inst = generate("random-k", n=5, m=3, k=3, seed=seed)
        other = relabel(inst, perm)
        rng = random.Random(seed)
        ordering = list(range(5))
        rng.shuffle(ordering)
        relabeled_ordering = tuple(perm[v] for v in ordering)
        assert inst.evaluate(tuple(ordering)) == other.evaluate(relabeled_ordering)


class TestGenerate:
    def test_mas_shape(self):
        inst = generate("mas", n=3, m=3, seed=7)
        assert inst.m == 3
        for c in inst.constraints:
            assert c.arity == 2
            assert len(set(c.vars)) == 2
            assert c.allowed == frozenset({(0, 1)})

    def test_betweenness_shape(self):
        inst = generate("betweenness", n=4, m=2, seed=1)
        assert inst.m == 2
        for c in inst.constraints:
            assert c.arity == 3
            assert c.allowed == frozenset({(0, 1, 2), (2, 1, 0)})

    def test_random_k_degenerate_fractions(self):
        none = generate("random-k", n=5, m=4, k=3, allowed_fraction=Fraction(0), seed=3)
        assert all(c.allowed == frozenset() for c in none.constraints)
        everything = generate("random-k", n=5, m=4, k=3, allowed_fraction=Fraction(1), seed=3)
        full = frozenset(itertools.permutations(range(3)))
        assert all(c.allowed == full for c in everything.constraints)

    def test_deterministic(self):
        a = generate("random-k", n=6, m=5, k=3, seed=42)
        b = generate("random-k", n=6, m=5, k=3, seed=42)
        assert a == b
        c = generate("random-k", n=6, m=5, k=3, seed=43)
        assert a != c

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(model="nope", n=3, m=1),
            dict(model="random-k", n=3, m=1),  # k missing
            dict(model="mas", n=1, m=1),  # n < k
            dict(model="mas", n=3, m=-1),
            dict(model="random-k", n=9, m=1, k=7),  # k over max arity
            dict(model="random-k", n=3, m=1, k=2, allowed_fraction=Fraction(3, 2)),
        ],
    )
    def test_parameter_errors(self, kwargs):
        with pytest.raises(ValueError):
            generate(**kwargs)


class TestValidation:
    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            Constraint((0, 0), frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            Constraint((0, 1), frozenset({(0, 2)}))
        with pytest.raises(ValueError):
            Constraint((), frozenset())

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            Instance(1, (Constraint((0, 1), frozenset({(0, 1)})),))
        with pytest.raises(ValueError):
            Instance(-1, ())
        seven = Constraint(tuple(range(7)), frozenset())
        with pytest.raises(ValueError):
            Instance(7, (seven,))
