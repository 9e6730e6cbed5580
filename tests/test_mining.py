"""Mining tests: definition fidelity, frozen dataset counts, serialization.

The frozen counts (9/389 at length 4, etc.) were computed with the eval-based
oracle in bruteforce.py; each test recomputes the oracle side so the numbers
stay pinned from two independent directions.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigseq import funcspace, mining
from ambigseq.funcspace import (
    ConcreteFunction,
    FunctionSpace,
    IndexConvention,
    TemplateKind,
    enumerate_space,
    evaluate,
    parse,
)
from ambigseq.mining import (
    AmbiguityRecord,
    Dataset,
    DatasetParameters,
    Generator,
    SequenceRecord,
    canonical_json,
    continuations_of,
    format_int,
    load_dataset,
    matching_generators,
    mine,
    save_dataset,
    valid_continuations,
    valid_explanations,
)

from bruteforce import (
    oracle_callable,
    oracle_continuations,
    oracle_continuations_of,
    oracle_function,
    oracle_mine,
    oracle_space,
    pairwise_ambiguities,
)


def _record(dataset, values):
    """The dataset's record of the value prefix ``values``, or None."""
    return next((r for r in dataset.records() if r.sequence.values == tuple(values)), None)


@pytest.fixture(scope="module")
def space():
    return enumerate_space()


@pytest.fixture(scope="module")
def dataset4(space):
    return mine(space, length=4)


class TestSequenceRecord:
    def test_render_base10(self):
        assert SequenceRecord((7, 11, 15)).render() == "7,11,15"

    def test_render_base2(self):
        assert SequenceRecord((3, 7), base=2).render() == "0b11,0b111"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SequenceRecord(())

    def test_rejects_unknown_base(self):
        with pytest.raises(ValueError):
            SequenceRecord((1, 2), base=16)

    def test_format_int(self):
        assert format_int(19) == "19"
        assert format_int(19, 2) == "0b10011"
        assert format_int(0, 2) == "0b0"


class TestKnownAmbiguity:
    """The worked example: [7,11,15] continues as 19 or 15."""

    def test_continuations(self, space):
        assert valid_continuations((7, 11, 15), space) == frozenset({19, 15})

    def test_oracle_agrees(self):
        assert oracle_continuations((7, 11, 15), oracle_space()) == {19, 15}

    def test_generators(self, space):
        gens = matching_generators((7, 11, 15), space)
        as_tuples = {
            (g.function.kind, g.function.c1, g.function.c2, g.offset, g.continuation)
            for g in gens
        }
        assert as_tuples == {
            (TemplateKind.ARITHMETIC, 4, 3, 0, 19),
            (TemplateKind.BIT_OR, 4, 3, 0, 19),
            (TemplateKind.BIT_OR, 3, 3, 1, 15),
        }

    def test_explanations_deduped_in_order(self, space):
        fns = valid_explanations((7, 11, 15), space)
        assert [f.kind for f in fns] == [TemplateKind.ARITHMETIC, TemplateKind.BIT_OR,
                                         TemplateKind.BIT_OR]
        assert len(set(fns)) == 3

    def test_mined_record_matches(self, space):
        ds = mine(space, length=3)
        record = _record(ds, (7, 11, 15))
        assert record is not None
        assert record.is_ambiguous
        assert record.continuations == (15, 19)

    def test_unambiguous_example(self, space):
        assert valid_continuations((3, 6, 9, 12), space) == frozenset({15})

    def test_identity_ramp_is_ambiguous(self, space):
        # looks innocent, but (x*1)%5 wraps to 0 where x+... continues to 5
        assert valid_continuations((1, 2, 3, 4), space) == frozenset({0, 5})

    def test_unmatched_sequence_has_no_continuations(self, space):
        assert valid_continuations((1, 3, 5, 7), space) == frozenset()
        assert valid_explanations((1, 3, 5, 7), space) == ()


FROZEN_COUNTS = {
    # length: (seq_amb, seq_unamb, fn_amb, fn_unamb, pairs, self_amb)
    2: (48, 267, 106, 91, 617, 1),
    3: (12, 370, 45, 152, 225, 2),
    4: (9, 389, 33, 164, 106, 0),
}


class TestDatasetCounts:
    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_frozen_counts(self, space, length):
        counts = mine(space, length=length).counts(space)
        assert (
            counts.sequences_ambiguous,
            counts.sequences_unambiguous,
            counts.functions_ambiguous,
            counts.functions_unambiguous,
            counts.ambiguous_function_pairs,
            counts.self_ambiguous_functions,
        ) == FROZEN_COUNTS[length]

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_oracle_recomputes_sequence_counts(self, length):
        table = oracle_mine(oracle_space(), length)
        amb = sum(1 for g in table.values() if len({c for *_, c in g}) > 1)
        expected = FROZEN_COUNTS[length]
        assert (amb, len(table) - amb) == expected[:2]

    def test_function_partition_covers_space(self, space, dataset4):
        counts = dataset4.counts(space)
        assert counts.functions_ambiguous + counts.functions_unambiguous == len(space)

    def test_ambiguity_decreases_with_length_here(self, space):
        seq_counts = [
            mine(space, length=L).counts(space).sequences_ambiguous for L in (2, 3, 4, 5)
        ]
        assert seq_counts == sorted(seq_counts, reverse=True)


class TestMiningSoundness:
    def test_every_generator_reproduces_its_sequence(self, space, dataset4):
        # evaluated directly, not through the space's rows the index came from
        conv = dataset4.parameters.convention
        for record in dataset4.records():
            for g in record.generators:
                first = conv.start_index + g.offset
                seq = [evaluate(g.function, first + j) for j in range(5)]
                assert tuple(seq[:4]) == record.sequence.values
                assert seq[4] == g.continuation

    def test_records_partition_by_ambiguity(self, dataset4):
        assert all(len(r.continuations) >= 2 for r in dataset4.ambiguous)
        assert all(len(r.continuations) == 1 for r in dataset4.unambiguous)

    def test_sequences_are_distinct(self, dataset4):
        values = [r.sequence.values for r in dataset4.records()]
        assert len(values) == len(set(values))

    def test_generators_sorted_canonically(self, dataset4):
        for record in dataset4.records():
            keys = [g.sort_key() for g in record.generators]
            assert keys == sorted(keys)

    def test_every_space_function_appears(self, space, dataset4):
        seen = {f for r in dataset4.records() for f in r.functions}
        assert seen == set(space.functions)


class TestPairwiseAudit:
    def test_pairwise_matches_grouped(self, space):
        """The O(n^2) definition-faithful scan finds the same ambiguities."""
        small = enumerate_space(constant_range=(0, 2))
        ds = mine(small, length=3)
        pair_prefixes = {p.prefix for p in pairwise_ambiguities(small, length=3)}
        grouped_prefixes = {r.sequence.values for r in ds.ambiguous}
        assert pair_prefixes == grouped_prefixes

    def test_pairwise_full_space_length4(self, space, dataset4):
        pairs = pairwise_ambiguities(space, length=4)
        assert {p.prefix for p in pairs} == {
            r.sequence.values for r in dataset4.ambiguous
        }
        for p in pairs:
            assert p.first.continuation != p.second.continuation


class TestPrefixIndex:
    """The prefix index is cached on the space instance, so each test builds a
    fresh space and empties the process-wide lookup cache: a shared space
    could hide a bad second build."""

    CONVENTIONS = [IndexConvention(), IndexConvention(0, 2)]

    @pytest.fixture(autouse=True)
    def cold_lookup_cache(self):
        mining._matching_generators.cache_clear()

    @staticmethod
    def fresh_space(convention):
        return enumerate_space(convention=convention)

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_matches_bruteforce_past_probe_length(self, convention):
        space = self.fresh_space(convention)
        first = convention.start_index
        probes = range(first, first + convention.max_offset + 5 + 1)
        oracle = oracle_space(probes=probes)
        assert [(f.kind.value, f.c1, f.c2) for f in space] == oracle
        for length in range(1, 8):  # PROBE_LENGTH is 5
            table = oracle_mine(oracle, length, convention.max_offset, first)
            for prefix, expected in table.items():
                got = matching_generators(prefix, space)
                assert [
                    (g.function.kind.value, g.function.c1, g.function.c2,
                     g.offset, g.continuation)
                    for g in got
                ] == expected
            assert matching_generators((10**30,) * length, space) == ()

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_mine_agrees_with_lookup(self, convention):
        space = self.fresh_space(convention)
        for length in range(1, 8):
            dataset = mine(space, length)
            records = list(dataset.records())
            assert len(records) == len(oracle_mine(
                oracle_space(probes=space.probe_indices), length,
                convention.max_offset, convention.start_index,
            ))
            for record in records:
                assert record.generators == matching_generators(
                    record.sequence.values, space
                )

    @pytest.mark.parametrize("length", [3, 7])
    def test_second_miss_evaluates_nothing(self, length, monkeypatch):
        space = self.fresh_space(IndexConvention())
        first, second = sorted(oracle_mine(oracle_space(), length))[:2]
        calls = []
        monkeypatch.setattr(
            funcspace, "evaluate", lambda fn, x: calls.append((fn, x)) or evaluate(fn, x)
        )
        matching_generators(first, space)
        # the first miss builds the index from the rows the validity probe
        # filled: it evaluates each (function, index) past the probes once,
        # and nothing at all when the length stays inside them (length 3)
        last = space.convention.start_index + space.convention.max_offset + length
        past = range(space.probe_indices[-1] + 1, last + 1)
        assert len(calls) == len(set(calls))
        assert set(calls) == {(fn, x) for fn in space for x in past}
        calls.clear()
        matching_generators(second, space)
        mine(space, length)
        assert calls == []
        assert mining._matching_generators.cache_info().misses == 2


class TestHandBuiltSpaceCompleteness:
    """A space small enough to verify by hand: exhaustive cross-check."""

    def test_three_function_space(self):
        fns = (
            ConcreteFunction(TemplateKind.ARITHMETIC, 4, 3),  # 4x+3
            ConcreteFunction(TemplateKind.BIT_OR, 3, 3),      # (3x)|3
            ConcreteFunction(TemplateKind.BIT_OR, 4, 3),      # (4x)|3
        )
        space = FunctionSpace(
            functions=fns, excluded=(), constant_range=(0, 4),
            probe_indices=tuple(range(1, 11)), max_value=None,
        )
        ds = mine(space, length=3)
        record = _record(ds, (7, 11, 15))
        assert record is not None and record.is_ambiguous
        assert record.continuations == (15, 19)
        # by hand: arithmetic(4,3)@0 -> 19, bit_or(4,3)@0 -> 19, bit_or(3,3)@1 -> 15
        assert len(record.generators) == 3
        counts = ds.counts(space)
        assert counts.functions_ambiguous == 3
        assert counts.ambiguous_function_pairs == 2  # {ar,bo33}, {bo43,bo33}


class TestMonotonicity:
    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=5, deadline=None)
    def test_extending_prefix_never_adds_generators(self, length):
        space = enumerate_space(constant_range=(0, 2))
        ds = mine(space, length=length)
        for record in list(ds.ambiguous)[:10]:
            longer = record.sequence.values + (record.generators[0].continuation,)
            shorter_fns = set(valid_explanations(record.sequence.values, space))
            longer_fns = set(valid_explanations(longer, space))
            assert longer_fns <= shorter_fns


class TestContinuationsOf:
    def test_matches_generator_view(self, space, dataset4):
        for record in dataset4.ambiguous:
            for fn in record.functions:
                expected = {
                    g.continuation
                    for g in record.generators
                    if g.function == fn
                }
                assert continuations_of(fn, record.sequence.values, space) == expected

    def test_non_generator_yields_nothing(self, space):
        fn = ConcreteFunction(TemplateKind.MODULAR, 1, 1)
        assert continuations_of(fn, (7, 11, 15), space) == frozenset()

    def test_offsets_that_cannot_be_evaluated_are_skipped(self, space):
        # the filtered list of (0, 0) is empty: no offset evaluates
        fn = ConcreteFunction(TemplateKind.INDEXING_CRITERIA, 0, 0)
        assert continuations_of(fn, (1, 2, 3), space) == frozenset()

    def test_a_programming_error_propagates(self, space, monkeypatch):
        def broken(fn, x):
            raise TypeError("broken evaluator")

        monkeypatch.setattr(funcspace, "evaluate", broken)
        fn = ConcreteFunction(TemplateKind.ARITHMETIC, 5, 3)  # outside the space: evaluated
        with pytest.raises(TypeError, match="broken evaluator"):
            continuations_of(fn, (8, 13, 18), space)

    @pytest.mark.parametrize("convention", [IndexConvention(), IndexConvention(0, 2)])
    def test_matches_bruteforce(self, convention):
        # a fresh space: lengths 6 and 7 read its members past the probes
        space = enumerate_space(convention=convention)
        start, max_offset = convention.start_index, convention.max_offset
        parsed = "lambda x: 7 % (x % 3) + x"  # no value where x % 3 is 0
        functions = {
            fn: oracle_callable(fn.kind.value, fn.c1, fn.c2) for fn in space
        } | {
            # excluded at the default convention: 4 ** 40 at index 10
            ConcreteFunction(TemplateKind.POWER, 4, 4): oracle_callable("power", 4, 4),
            ConcreteFunction(TemplateKind.RECURSIVE, 7, 9): oracle_callable("recursive", 7, 9),
            parse(parsed): oracle_function(parsed),
        }
        assert (ConcreteFunction(TemplateKind.POWER, 4, 4) in space) == (start == 0)
        for fn, oracle in functions.items():
            for length in range(1, 8):  # PROBE_LENGTH is 5
                for offset in range(max_offset + 1):
                    try:
                        values = [oracle(start + offset + j) for j in range(length)]
                    except ZeroDivisionError:
                        continue
                    expected = oracle_continuations_of(oracle, values, max_offset, start)
                    assert continuations_of(fn, values, space) == expected, (fn, values)


def _json_edit(change):
    """An edit of a JSON object line: ``change`` updates the decoded object."""
    def edit(line: bytes) -> bytes:
        data = json.loads(line)
        change(data)
        return canonical_json(data).encode()
    return edit


class TestSerialization:
    def test_roundtrip(self, tmp_path, space, dataset4):
        path = tmp_path / "ds.jsonl"
        for digest in (None, "abc"):  # the header field no reader checks
            save_dataset(dataset4, path, config_digest=digest)
            assert load_dataset(path, space, 4, 10) == dataset4

    def test_header_parameters_are_the_dataset_parameters(self, tmp_path, dataset4):
        path = tmp_path / "ds.jsonl"
        save_dataset(dataset4, path)
        header = json.loads(path.read_text().splitlines()[0])
        names = {f.name for f in dataclasses.fields(DatasetParameters)}
        assert set(header["parameters"]) == names
        assert DatasetParameters(**header["parameters"]) == dataset4.parameters
        assert "config_digest" not in header  # written only when given
        save_dataset(dataset4, path, config_digest="abc")
        assert json.loads(path.read_text().splitlines()[0])["config_digest"] == "abc"

    def test_bytes_stable(self, tmp_path, space):
        ds = mine(space, length=3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        save_dataset(mine(space, length=3), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_format(self, tmp_path, space):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"format":"something-else","version":1}\n')
        with pytest.raises(ValueError):
            load_dataset(path, space, 4, 10)

    def test_blank_lines_are_refused(self, tmp_path, space, dataset4):
        """save_dataset never writes a blank line, so one is damage."""
        path = tmp_path / "ds.jsonl"
        save_dataset(dataset4, path)
        header, *records = path.read_text().splitlines()
        for n, blank in ((2, ""), (len(records) + 2, "  ")):
            lines = [header, *records]
            lines.insert(n - 1, blank)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=rf"ds\.jsonl:{n}: malformed record line"):
                load_dataset(path, space, 4, 10)

    @pytest.mark.parametrize(
        "n, edit, where",
        [
            (0, lambda line: b"[1]", ": not a dataset file"),
            (0, lambda line: b"{not json", ": unreadable header"),
            (0, _json_edit(lambda raw: raw.pop("parameters")), ": malformed dataset header"),
            (
                0,
                lambda line: line.replace(b'"sequence_length":4', b'"sequence_length":"4"', 1),
                ": malformed dataset header",
            ),
            (1, _json_edit(lambda raw: raw.pop("generators")), ":2: malformed record line"),
            (
                2,
                lambda line: line.replace(b'"function":"lambda', b'"function":"mu', 1),
                ":3: malformed record line",
            ),
            (1, lambda line: b"[1, 2]", ":2: malformed record line"),
            (
                1,
                _json_edit(lambda raw: raw.update(values=[str(v) for v in raw["values"]])),
                ":2: malformed record line",
            ),
            (1, _json_edit(lambda raw: raw.update(base=10.0)), ":2: malformed record line"),
            (
                1,
                _json_edit(lambda raw: raw["generators"][0].update(offset="2")),
                ":2: malformed record line",
            ),
            (
                1,
                _json_edit(lambda raw: raw["generators"][0].update(continuation=1.5)),
                ":2: malformed record line",
            ),
            (
                1,
                _json_edit(lambda raw: raw.update(ambiguous=int(raw["ambiguous"]))),
                ":2: malformed record line",
            ),
            (
                1,
                _json_edit(lambda raw: raw["generators"].pop()),
                ":2: malformed record line",
            ),
            (0, lambda line: line[:12] + b"\xff" + line[12:], ": unreadable header line"),
            (2, lambda line: line[:12] + b"\xff" + line[12:], ":3: malformed record line"),
            *[
                (2, lambda line, brk=brk: line + brk + b"junk", ":3: malformed record line")
                for brk in map(str.encode, ("\r", "\x0c", "\x85", "\u2028"))
            ],
        ],
        ids=[
            "header_is_a_list",
            "header_is_not_json",
            "header_without_parameters",
            "mistyped_sequence_length",
            "record_without_generators",
            "function_outside_the_language",
            "record_is_a_list",
            "values_as_text",
            "base_as_float",
            "offset_as_text",
            "continuation_1.5",
            "ambiguous_as_int",
            "generator_dropped",
            "header_not_utf8",
            "record_not_utf8",
            "carriage_return",
            "form_feed",
            "next_line",
            "line_separator",
        ],
    )
    def test_damaged_file_is_a_value_error_naming_it(
        self, tmp_path, space, dataset4, n, edit, where
    ):
        # a record line's damage is named by its line alone: only a newline
        # ends a line, so no other break in it moves a line number
        path = tmp_path / "ds.jsonl"
        save_dataset(dataset4, path)
        lines = path.read_bytes().split(b"\n")
        lines[n] = edit(lines[n])
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}{where}")):
            load_dataset(path, space, 4, 10)

    def test_unterminated_last_line_is_refused(self, tmp_path, space, dataset4):
        # a whole write ends every line with its newline; without it the
        # last record may be torn, or lines after it lost
        path = tmp_path / "ds.jsonl"
        save_dataset(dataset4, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines))
        with pytest.raises(
            ValueError, match=re.escape(f"{path}:{len(lines)}: malformed record line")
        ):
            load_dataset(path, space, 4, 10)


class TestRecordInvariants:
    def test_record_requires_generators(self):
        with pytest.raises(ValueError):
            AmbiguityRecord(SequenceRecord((1, 2)), ())

    def test_functions_property_dedupes(self):
        fn = ConcreteFunction(TemplateKind.ARITHMETIC, 1, 0)
        rec = AmbiguityRecord(
            SequenceRecord((1, 2)),
            (Generator(fn, 1, 4), Generator(fn, 0, 3)),
        )
        assert rec.functions == (fn,)
        assert rec.continuations == (3, 4)
        assert rec.is_ambiguous

    def test_from_records_splits_by_ambiguity_in_order(self, dataset4):
        records = sorted(dataset4.records(), key=lambda r: r.sequence.values)
        split = Dataset.from_records(records, dataset4.parameters)
        assert split == dataset4

    def test_dataset_rejects_swapped_splits(self, dataset4):
        with pytest.raises(ValueError):
            Dataset(
                parameters=dataset4.parameters,
                ambiguous=dataset4.unambiguous[:1],
                unambiguous=(),
            )
        with pytest.raises(ValueError):
            Dataset(
                parameters=dataset4.parameters,
                ambiguous=(),
                unambiguous=dataset4.ambiguous[:1],
            )
