"""Function-space tests: templates, parser, evaluator, enumeration.

Expected values were computed ahead of time with the eval()-based oracle in
bruteforce.py and frozen here; the oracle runs alongside as a cross-check.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigseq import funcspace as fs
from ambigseq.funcspace import (
    BinOp,
    ConcreteFunction,
    EvaluationError,
    FunctionSpace,
    IndexConvention,
    Lit,
    ParseError,
    ParsedFunction,
    TemplateKind,
    Var,
    enumerate_space,
    evaluate,
    parse,
    render_function,
)
from ambigseq.mining import continuations_of

from bruteforce import (
    ORACLE_TEMPLATES,
    oracle_callable,
    oracle_function,
    oracle_sequence,
    oracle_space,
    oracle_value,
)

CONVENTIONS = [IndexConvention(), IndexConvention(0, 2)]


def test_template_texts_match_oracle_copies():
    ours = {k.value: v for k, v in fs.TEMPLATE_TEXTS.items()}
    assert ours == ORACLE_TEMPLATES


def test_readme_template_table_matches_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| template | form |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for row in table.splitlines():
        name, form = row.replace("\\|", "\0").strip("|").split("|")
        rows[name.strip()] = form.strip().strip("`").replace("\0", "|")
    assert rows == {
        kind.value: text.format("c1", "c2") for kind, text in fs.TEMPLATE_TEXTS.items()
    }


class TestInstantiate:
    def test_arithmetic_text(self):
        fn = ConcreteFunction(TemplateKind.ARITHMETIC, 4, 3)
        assert fn.text == "lambda x: (4 * x) + 3"

    def test_recursive_text(self):
        fn = ConcreteFunction(TemplateKind.RECURSIVE, 1, 0)
        assert fn.text == (
            "(lambda a: lambda v: a(a,v))"
            "(lambda fn,x: 1 if x==0 else 1 * x * fn(fn,x-1) + 0)"
        )

    def test_indexing_text(self):
        fn = ConcreteFunction(TemplateKind.INDEXING_CRITERIA, 1, 2)
        assert fn.text == (
            "lambda x: [i for i in range(100) if i % (1 + 1) or i % (2 + 1)][x]"
        )


class TestEvaluate:
    # hand-checked values, confirmed against the oracle below
    CASES = [
        (TemplateKind.ARITHMETIC, 4, 3, 1, 7),
        (TemplateKind.ARITHMETIC, 4, 3, 4, 19),
        (TemplateKind.GEOMETRIC, 2, 3, 3, 18),
        (TemplateKind.EXPONENTIAL, 2, 2, 3, 36),
        (TemplateKind.POWER, 2, 1, 5, 32),
        (TemplateKind.BIT_OR, 3, 3, 2, 7),
        (TemplateKind.BIT_OR, 3, 3, 5, 15),
        (TemplateKind.MODULAR, 3, 4, 7, 1),
        (TemplateKind.INDEXING_CRITERIA, 1, 2, 0, 1),
        (TemplateKind.INDEXING_CRITERIA, 1, 2, 4, 5),
        (TemplateKind.INDEXING_CRITERIA, 1, 2, 5, 7),
        (TemplateKind.RECURSIVE, 1, 0, 3, 6),
        (TemplateKind.RECURSIVE, 1, 0, 5, 120),
        (TemplateKind.RECURSIVE, 2, 1, 3, 79),
    ]

    @pytest.mark.parametrize("kind,c1,c2,x,expected", CASES)
    def test_known_values(self, kind, c1, c2, x, expected):
        assert evaluate(ConcreteFunction(kind, c1, c2), x) == expected

    @pytest.mark.parametrize("kind,c1,c2,x,expected", CASES)
    def test_known_values_agree_with_oracle(self, kind, c1, c2, x, expected):
        assert oracle_value(kind.value, c1, c2, x) == expected

    def test_negative_index_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate(ConcreteFunction(TemplateKind.ARITHMETIC, 1, 1), -1)

    def test_indexing_out_of_range(self):
        # moduli (1,1): every i fails both criteria, the list is empty
        fn = ConcreteFunction(TemplateKind.INDEXING_CRITERIA, 0, 0)
        with pytest.raises(EvaluationError):
            evaluate(fn, 0)

    def test_indexing_end_of_list(self):
        fn = ConcreteFunction(TemplateKind.INDEXING_CRITERIA, 1, 2)
        lst = [i for i in range(100) if i % 2 or i % 3]
        assert evaluate(fn, len(lst) - 1) == lst[-1]
        with pytest.raises(EvaluationError):
            evaluate(fn, len(lst))

    def test_exact_bignum_arithmetic(self):
        # recursive growth dwarfs 64-bit range well before x=30; must be exact
        fn = ConcreteFunction(TemplateKind.RECURSIVE, 2, 1)
        assert evaluate(fn, 30) == oracle_value("recursive", 2, 1, 30)

    def test_whole_grid_matches_oracle(self):
        for kind in TemplateKind:
            for c1 in range(5):
                for c2 in range(5):
                    fn = ConcreteFunction(kind, c1, c2)
                    for x in range(11):
                        try:
                            expected = oracle_value(kind.value, c1, c2, x)
                        except Exception:
                            with pytest.raises(EvaluationError):
                                evaluate(fn, x)
                        else:
                            assert evaluate(fn, x) == expected, (kind, c1, c2, x)


class TestParse:
    @pytest.mark.parametrize("kind", list(TemplateKind))
    @pytest.mark.parametrize("c1,c2", [(0, 0), (1, 3), (4, 4), (2, 1)])
    def test_roundtrip_all_templates(self, kind, c1, c2):
        fn = ConcreteFunction(kind, c1, c2)
        parsed = parse(fn.text)
        assert parsed == fn

    def test_whitespace_insensitive(self):
        fn = ConcreteFunction(TemplateKind.ARITHMETIC, 4, 3)
        assert parse("lambda x:(4*x)+3") == fn
        assert parse("  lambda   x :  ( 4 * x ) + 3  ") == fn

    def test_variable_name_is_free(self):
        assert parse("lambda n: (4 * n) + 3") == ConcreteFunction(
            TemplateKind.ARITHMETIC, 4, 3
        )

    def test_recursive_names_are_free_but_must_be_consistent(self):
        text = (
            "(lambda f: lambda y: f(f,y))"
            "(lambda g,n: 1 if n==0 else 2 * n * g(g,n-1) + 1)"
        )
        assert parse(text) == ConcreteFunction(TemplateKind.RECURSIVE, 2, 1)
        bad = text.replace("g(g,n-1)", "g(f,n-1)")
        with pytest.raises(ParseError):
            parse(bad)

    def test_general_expression(self):
        parsed = parse("lambda x: x + 2")
        assert isinstance(parsed, ParsedFunction)
        assert parsed.ast == BinOp("+", Var(), Lit(2))
        assert evaluate(parsed, 3) == 5

    def test_out_of_range_constants_parse_as_template(self):
        parsed = parse("lambda x: (7 * x) + 3")
        assert parsed == ConcreteFunction(TemplateKind.ARITHMETIC, 7, 3)

    def test_operand_order_matters(self):
        parsed = parse("lambda x: (x * 4) + 3")
        assert isinstance(parsed, ParsedFunction)  # not the arithmetic shape

    def test_precedence(self):
        parsed = parse("lambda x: 2 * x + 3 * x ** 2")
        assert evaluate(parsed, 2) == 4 + 12
        parsed = parse("lambda x: 2 ** 2 ** x")
        assert evaluate(parsed, 2) == 2**4  # right-assoc

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "lambda x: x - 1",
            "lambda x: x / 2",
            "lambda x: foo(x)",
            "lambda x: y + 1",
            "lambda x: (2 * x",
            "lambda x: 2 * x) ",
            "lambda x: [i for i in range(50) if i % (1 + 1)][x]",
            "def f(x): return x",
            "lambda x: x + 1 extra",
            "lambda x: 1.5 * x",
            "the next number is 19",
        ],
    )
    def test_rejects_out_of_language(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_base2_wrapped_roundtrip(self):
        for kind in TemplateKind:
            fn = ConcreteFunction(kind, 2, 1)
            wrapped = render_function(fn, base=2)
            assert wrapped.startswith("lambda x: bin(")
            assert parse(wrapped) == fn

    def test_parse_reports_position_for_garbage(self):
        with pytest.raises(ParseError):
            parse("lambda x: x + $")


@st.composite
def general_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Lit(draw(st.integers(min_value=0, max_value=9)))
        return Var()
    op = draw(st.sampled_from(["+", "*", "**", "|", "%"]))
    left = draw(general_exprs(depth=depth + 1))
    right = draw(general_exprs(depth=depth + 1))
    return BinOp(op, left, right)


class TestRenderRoundtrip:
    @given(general_exprs())
    @settings(max_examples=300, deadline=None)
    def test_parse_inverts_render(self, ast):
        text = ParsedFunction(ast).text
        parsed = parse(text)
        # rendering may reveal a template shape; compare ASTs
        assert parsed.ast == ast

    @given(general_exprs(), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_whitespace_noise_does_not_change_parse(self, ast, rng):
        text = ParsedFunction(ast).text
        # stretch existing gaps and pad the ends; never split a token
        noisy = (" " * rng.randint(0, 3)) + text.replace(
            " ", " " * rng.randint(1, 4)
        ) + (" " * rng.randint(0, 3))
        assert parse(noisy).ast == ast


class TestAnswerSizeBounds:
    """A parsed answer too big to handle is a ParseError or an
    EvaluationError, never a hang or a RecursionError."""

    def test_power_tower_is_refused_at_once(self):
        space = enumerate_space()
        started = time.perf_counter()
        fn = parse("lambda x: 9 ** 9 ** 9 ** x")
        assert continuations_of(fn, (1, 2, 3), space) == frozenset()
        assert time.perf_counter() - started < 1.0

    def test_power_bound_is_the_bit_estimate(self):
        fn = parse("lambda x: 3 ** x")  # 3 has 2 bits
        last = fs.MAX_POWER_BITS // 2
        assert evaluate(fn, last) == 3**last
        with pytest.raises(EvaluationError, match="bits"):
            evaluate(fn, last + 1)

    def test_largest_template_power_evaluates(self):
        fn = ConcreteFunction(TemplateKind.POWER, 19, 19)
        assert evaluate(fn, 12) == 19 ** (19 * 12)

    @pytest.mark.parametrize(
        "body",
        [
            "(" * 500 + "x" + ")" * 500,
            " + ".join(["x"] * 3000),
            " ** ".join(["x"] * 3000),
            "(" * 60 + "x" + " + x" * 60 + ")" * 60,
        ],
        ids=["parentheses", "left_chain", "right_chain", "mixed"],
    )
    def test_deep_nesting_is_a_parse_error(self, body):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(f"lambda x: {body}")

    def test_depth_bound_is_inclusive(self):
        depth = fs.MAX_PARSE_DEPTH
        assert parse("lambda x: " + "(" * depth + "x" + ")" * depth).ast == Var()
        with pytest.raises(ParseError):
            parse("lambda x: " + "(" * (depth + 1) + "x" + ")" * (depth + 1))
        chain = parse("lambda x: " + " + ".join(["x"] * (depth + 1)))
        assert evaluate(chain, 3) == 3 * (depth + 1)
        assert parse(render_function(chain, 2)) == chain
        with pytest.raises(ParseError):
            parse("lambda x: " + " + ".join(["x"] * (depth + 2)))


    def test_overlong_literal_is_a_parse_error(self):
        digits = "7" * (fs.MAX_NUMERAL_DIGITS + 1)
        for text in (
            f"lambda x: ({digits} * x) + 1",
            f"lambda x: bin(x + {digits})",
            f"lambda x: [i for i in range(100) if i % ({digits} + 1) or i % (1 + 1)][x]",
        ):
            with pytest.raises(ParseError, match="digits"):
                parse(text)

    def test_literal_bound_is_inclusive(self):
        digits = "7" * fs.MAX_NUMERAL_DIGITS
        fn = parse(f"lambda x: x + {digits}")
        assert evaluate(fn, 0) == int(digits)
        assert parse(render_function(fn)) == fn


class TestGenerateSequence:
    """``FunctionSpace.sequence``: a member's values, sliced from its row."""

    @staticmethod
    def hand_built(*fns, convention=IndexConvention()):
        """A space built without enumerate_space, so it holds no row yet."""
        return FunctionSpace(
            functions=fns, excluded=(), constant_range=(0, 4),
            probe_indices=tuple(range(1, 11)), max_value=None, convention=convention,
        )

    def test_table_vector(self):
        fn = ConcreteFunction(TemplateKind.ARITHMETIC, 4, 3)
        for space in (enumerate_space(), self.hand_built(fn)):
            assert space.sequence(fn, 0, 3) == (7, 11, 15)
            assert space.sequence(fn, 0, 4) == (7, 11, 15, 19)

    def test_offset_shifts_start(self):
        fn = ConcreteFunction(TemplateKind.BIT_OR, 3, 3)
        for space in (enumerate_space(), self.hand_built(fn)):
            assert space.sequence(fn, 1, 3) == (7, 11, 15)
            assert space.sequence(fn, 1, 4) == (7, 11, 15, 15)

    def test_offset_bounds_enforced(self):
        fn = ConcreteFunction(TemplateKind.ARITHMETIC, 1, 0)
        space = enumerate_space()
        with pytest.raises(ValueError):
            space.sequence(fn, 5, 3)
        with pytest.raises(ValueError):
            space.sequence(fn, -1, 3)

    def test_propagates_evaluation_error(self):
        fn = ConcreteFunction(TemplateKind.INDEXING_CRITERIA, 0, 0)
        space = self.hand_built(fn)
        with pytest.raises(EvaluationError):
            space.sequence(fn, 0, 3)
        assert space._rows[fn] == ()  # a failed read leaves the row as it was

    def test_evaluates_a_function_outside_the_space_unstored(self):
        space = enumerate_space()
        rows = dict(space._rows)
        parsed = "lambda x: x * x + 1"
        for fn, oracle in (
            (ConcreteFunction(TemplateKind.POWER, 4, 4), oracle_callable("power", 4, 4)),
            (ConcreteFunction(TemplateKind.ARITHMETIC, 7, 9), oracle_callable("arithmetic", 7, 9)),
            (parse(parsed), oracle_function(parsed)),
        ):
            assert fn not in space
            for offset, length in ((0, 3), (4, 9)):
                expected = tuple(oracle(1 + offset + j) for j in range(length))
                assert space.sequence(fn, offset, length) == expected
        assert space._rows == rows

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_matches_bruteforce_past_the_probes(self, convention):
        enumerated = enumerate_space(convention=convention)
        cold = self.hand_built(*enumerated.functions, convention=convention)
        start = convention.start_index
        for space in (enumerated, cold):
            for length in range(1, 8):  # PROBE_LENGTH is 5
                for fn in space:
                    for offset in convention.offsets:
                        expected = oracle_sequence(
                            fn.kind.value, fn.c1, fn.c2, offset, length, start
                        )
                        assert space.sequence(fn, offset, length) == tuple(expected)

    def test_a_read_past_the_row_evaluates_only_the_missing_indices(self, monkeypatch):
        space = enumerate_space()
        fn = space.functions[0]
        probed = space._rows[fn]
        calls = []
        monkeypatch.setattr(fs, "evaluate", lambda f, x: calls.append(x) or evaluate(f, x))
        assert space.sequence(fn, 4, 8)[:6] == probed[4:]
        assert calls == [11, 12]
        assert space._rows[fn][:10] == probed and len(space._rows[fn]) == 12
        space.sequence(fn, 3, 9)
        assert calls == [11, 12]

    def test_threads_sharing_a_cold_space_read_true_values(self):
        space = self.hand_built(*enumerate_space().functions)
        rng = random.Random(7)
        reads = [(fn, rng.randrange(5), rng.randrange(1, 10)) for fn in space for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a torn row would show
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda read: space.sequence(*read), reads, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for (fn, offset, length), values in zip(reads, got):
            oracle = oracle_sequence(fn.kind.value, fn.c1, fn.c2, offset, length)
            assert values == tuple(oracle)
        for fn, row in space._rows.items():  # every row kept is a true prefix
            assert row == tuple(oracle_sequence(fn.kind.value, fn.c1, fn.c2, 0, len(row)))


class TestEnumerateSpace:
    def test_valid_count_is_197(self):
        space = enumerate_space()
        assert len(space) == 197
        assert len(space.excluded) == 3

    def test_excluded_identities(self):
        space = enumerate_space()
        excluded = {(e.function.kind, e.function.c1, e.function.c2)
                    for e in space.excluded}
        assert excluded == {
            (TemplateKind.INDEXING_CRITERIA, 0, 0),
            (TemplateKind.POWER, 3, 4),
            (TemplateKind.POWER, 4, 4),
        }

    def test_excluded_reasons_are_informative(self):
        space = enumerate_space()
        reasons = {e.function.kind: e.reason for e in space.excluded}
        assert "error" in reasons[TemplateKind.INDEXING_CRITERIA]
        assert "magnitude" in reasons[TemplateKind.POWER]

    def test_matches_oracle_space(self):
        space = enumerate_space()
        got = [(f.kind.value, f.c1, f.c2) for f in space]
        assert got == oracle_space()

    def test_error_only_rule_keeps_199(self):
        space = enumerate_space(max_value=None)
        assert len(space) == 199
        assert {e.function.kind for e in space.excluded} == {
            TemplateKind.INDEXING_CRITERIA
        }

    def test_probe_indices_cover_mining_reach(self):
        space = enumerate_space()
        assert space.probe_indices == tuple(range(1, 11))

    def test_deterministic(self):
        assert enumerate_space() == enumerate_space()

    def test_equal_spaces_hash_equal(self):
        a, b, small = enumerate_space(), enumerate_space(), enumerate_space((0, 1))
        assert hash(a) == hash(b) and {a: 1}[b] == 1
        assert small != a and small.functions[0] in a
        assert fs.ConcreteFunction(fs.TemplateKind.POWER, 4, 4) not in a  # excluded

    def test_space_carries_its_convention(self):
        convention = fs.IndexConvention(0, 2)
        space = enumerate_space(convention=convention)
        assert space.convention == convention
        other = dataclasses.replace(space, convention=fs.IndexConvention(0, 3))
        assert other != space and other.functions == space.functions
        assert hash(other) != hash(space)

    def test_enumeration_order_is_template_then_constants(self):
        space = enumerate_space()
        keys = [f.sort_key() for f in space]
        assert keys == sorted(keys)

    def test_every_member_roundtrips_through_parse(self):
        space = enumerate_space()
        for fn in space:
            assert parse(fn.text) == fn

    def test_smaller_constant_range(self):
        space = enumerate_space(constant_range=(0, 1))
        # 8 templates x 4 combos, minus indexing_criteria(0,0)
        assert len(space) == 31


class TestIndexConvention:
    def test_defaults(self):
        conv = IndexConvention()
        assert conv.start_index == 1
        assert conv.max_offset == 4
        assert list(conv.offsets) == [0, 1, 2, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexConvention(start_index=-1)
        with pytest.raises(ValueError):
            IndexConvention(max_offset=-2)


class TestRandomizedOracleAgreement:
    def test_random_probes(self):
        rng = random.Random(20260818)
        space = enumerate_space()
        for _ in range(300):
            fn = space.functions[rng.randrange(len(space))]
            x = rng.randrange(0, 15)
            try:
                expected = oracle_value(fn.kind.value, fn.c1, fn.c2, x)
            except Exception:
                with pytest.raises(EvaluationError):
                    evaluate(fn, x)
            else:
                assert evaluate(fn, x) == expected
