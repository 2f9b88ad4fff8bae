import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ocsp import instance
from ocsp.errors import OcspError, ParseError
from ocsp.instance import (
    MAX_ARITY,
    Constraint,
    Instance,
    Shape,
    decode_text,
    generate,
    order_index,
    orders,
    parse_instance,
    render_instance,
    swaps,
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
            # a fault in a line whose shape an earlier line already gave
            ("ocsp 1\nnvars 2\ncon 1 2\ncon 2 2\n", 4, 7, "duplicate variable 2"),
            ("ocsp 1\nnvars 2\ncon 1 2\ncon 0 1\n", 4, 5, "variable 0 out of range 1..2"),
            ("ocsp 1\nnvars 2\ncon 1 2\ncon 1 3\n", 4, 7, "variable 3 out of range 1..2"),
            ("ocsp 1\nnvars 3\ncon 1 2 | 2 1\ncon 3 3 | 3 3\n", 4, 7, "duplicate variable 3"),
            ("ocsp 1\nnvars 3\nemptycon 1 2\nemptycon 2 02\n", 4, 12, "duplicate variable 2"),
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

    @pytest.mark.parametrize(
        "data,line,col,message",
        [
            (b"ocsp 1\nnvars 2\ncon 1 \xff\n", 3, 7, "cannot decode byte 0xff as UTF-8: invalid start byte"),
            # columns count characters, not bytes; CRLF ends one line
            (b"ocsp 1\r\nnvars 2\r\ncon \xc3\xa9 \xe2\x82\n", 3, 7,
             "cannot decode byte 0xe2 as UTF-8: invalid continuation byte"),
            (b"\xc3(ocsp 1\n", 1, 1, "cannot decode byte 0xc3 as UTF-8: invalid continuation byte"),
            (b"ocsp 1\nnvars 2\n\xf0\x9f", 3, 1, "cannot decode byte 0xf0 as UTF-8: unexpected end of data"),
        ],
    )
    def test_undecodable_byte_pins_line_and_column(self, data, line, col, message):
        with pytest.raises(ParseError) as err:
            decode_text(data)
        assert str(err.value) == f"line {line}, col {col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)
        assert decode_text("ocsp 1\r\n\u00e9\n".encode()) == "ocsp 1\r\n\u00e9\n"

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


@st.composite
def _constraint_tokens(draw):
    """A con or emptycon line's tokens, mostly well-formed for ``nvars 7``, with one fault at times."""
    variables = draw(st.permutations(range(1, 8)))[: draw(st.integers(1, 3))]
    fault = draw(st.sampled_from([None] * 6 + ["range", "variable", "order"]))
    if fault == "range":
        variables[-1] = draw(st.sampled_from([0, 8]))
    elif fault == "variable" and len(variables) > 1:
        variables[-1] = variables[0]
    orders = draw(st.lists(st.permutations(variables), min_size=1, max_size=4, unique_by=tuple))
    if fault == "order":
        orders.append(draw(st.sampled_from(orders)))
    spell = st.sampled_from(["{}", "{}", "{}", "0{}", "\u0660{}"])
    if draw(st.integers(0, 3)) == 0:
        return ["emptycon", *(draw(spell).format(v) for v in orders[0])]
    return ["con", *[t for o in orders for t in ("|", *(draw(spell).format(v) for v in o))][1:]]


_LINE = st.builds(
    lambda toks, sep, lead, tail: lead + sep.join(toks) + tail,
    st.one_of(
        st.lists(_TOKENS, max_size=9),
        _constraint_tokens(),
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


@st.composite
def constraint_texts(draw):
    """A header, then constraint lines only, so that whole texts often parse."""
    lines = draw(st.lists(st.builds(" ".join, _constraint_tokens()), max_size=10))
    return "ocsp 1\nnvars 7\n" + "\n".join(lines) + "\n"


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

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(instance_texts(), constraint_texts()))
    def test_quick_reader_agrees_with_the_checked_reader(self, text):
        # every line read token by token, as when the quick reader rejects it
        def outcome():
            try:
                return parse_instance(text)
            except (OcspError, ValueError) as exc:
                return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)

        quick = outcome()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(instance, "_line_key", lambda *args: None)
            checked = outcome()
        assert quick == checked


class TestShapes:
    def test_equal_allowed_sets_share_one_validated_shape(self, monkeypatch):
        validated = []
        init = Shape.__init__

        def counted(shape, arity, allowed):
            validated.append((arity, allowed))
            init(shape, arity, allowed)

        monkeypatch.setattr(Shape, "__init__", counted)
        parsed = parse_instance(
            "ocsp 1\nnvars 6\ncon 1 2 3 | 3 2 1\ncon 4 5 6 | 6 5 4\ncon 6 2 1 | 1 2 6\n"
            "con 5 6\ncon 2 1\nemptycon 3 4\nemptycon 2 5\ncon 3 4 | 4 3\n"
        )
        c = parsed.constraints
        assert c[0].shape is c[1].shape is c[2].shape
        assert c[3].shape is c[4].shape
        assert c[5].shape is c[6].shape
        assert c[7].allowed == frozenset({(0, 1), (1, 0)})
        assert len({x.shape for x in c}) == 4
        assert {x.shape for x in generate("mas", n=6, m=20, seed=2).constraints} == {c[3].shape}
        assert {x.shape for x in generate("betweenness", n=6, m=20, seed=2).constraints} == {c[0].shape}
        generated = generate("random-k", n=6, m=300, k=2, seed=1)
        by_allowed = {}
        for x in generated.constraints:
            assert by_allowed.setdefault(x.allowed, x.shape) is x.shape
        assert len(by_allowed) == 4
        assert Constraint((4, 2), frozenset({(1, 0)})).shape is by_allowed[frozenset({(1, 0)})]
        assert len(validated) == len(set(validated))

    def test_swap_table_steps_to_the_swapped_order(self):
        for arity in range(1, MAX_ARITY + 1):
            table, index = swaps(arity), order_index(arity)
            pairs = list(itertools.combinations(range(arity), 2))
            for i, order in enumerate(orders(arity)):
                assert index[order] == i
                for j, (a, b) in enumerate(pairs):
                    swapped = tuple(b if x == a else a if x == b else x for x in order)
                    assert table[j][i] == index[swapped]


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
