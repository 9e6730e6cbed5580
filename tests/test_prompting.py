"""Prompt rendering tests: golden files, determinism, demonstration soundness."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambigseq import prompting
from ambigseq.funcspace import ParsedFunction, TemplateKind, enumerate_space, parse
from ambigseq.mining import SequenceRecord, canonical_json, valid_continuations
from ambigseq.prompting import (
    ANSWERS,
    DEFAULT_N_SHOTS,
    OFFSET_NOTE,
    PromptSpec,
    PromptingError,
    ShotSampling,
    Task,
    Variant,
    build_prompt,
    build_system_prompt,
    parse_response,
    render_answer,
    sample_few_shot,
)
from bruteforce import oracle_continuations_of, oracle_function
from test_funcspace import general_exprs

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def full_space():
    return enumerate_space()


@pytest.fixture(scope="module")
def small_space():
    return enumerate_space(constant_range=(0, 1))


TARGET = SequenceRecord((2, 3, 4))


class TestSystemPrompt:
    def test_matches_golden_base10(self, full_space):
        expected = (GOLDEN / "system_prompt_base10.txt").read_text()
        assert build_system_prompt(full_space, 10) + "\n" == expected

    def test_matches_golden_base2(self, full_space):
        expected = (GOLDEN / "system_prompt_base2.txt").read_text()
        assert build_system_prompt(full_space, 2) + "\n" == expected

    def test_contains_whole_space_and_note(self, full_space):
        text = build_system_prompt(full_space, 10)
        lines = text.splitlines()
        assert lines[-1] == OFFSET_NOTE
        assert len(lines) == 1 + len(full_space) + 1
        for fn in full_space:
            assert fn.text in lines

    def test_base2_functions_parse_back(self, full_space):
        text = build_system_prompt(full_space, 2)
        for line in text.splitlines()[1:-1]:
            assert line.startswith("lambda x: bin(")
            assert parse(line) in full_space

    def test_role_text_prepended(self, full_space):
        text = build_system_prompt(full_space, 10, role_text="You are careful.")
        assert text.startswith("You are careful.\n\n")

    def test_no_blank_header_without_role(self, full_space):
        assert not build_system_prompt(full_space, 10).startswith("\n")

    def test_rendered_once_per_space_base_role(self, monkeypatch):
        renders = []
        monkeypatch.setattr(
            prompting,
            "build_system_prompt",
            lambda *args: renders.append(args) or build_system_prompt(*args),
        )
        prompting._system_prompt.cache_clear()
        space = enumerate_space()
        cases = [(1, 10, None), (2, 10, None), (3, 2, None), (4, 10, "Be brief.")]
        for seed, base, role in cases:
            spec = PromptSpec(Task.COMPLETION, base=base, rng_seed=seed, role_text=role)
            prompt = build_prompt(spec, TARGET, space)
            assert prompt.system == build_system_prompt(space, base, role)
        assert renders == [(space, 10, None), (space, 2, None), (space, 10, "Be brief.")]


def _render(task, variant, small_space, **extra):
    spec = PromptSpec(task=task, variant=variant, base=10, n_shots=2, rng_seed=7)
    return build_prompt(spec, TARGET, small_space, **extra)


GOLDEN_CASES = [
    (Task.COMPLETION, Variant.PLAIN, "prompt_completion_plain.txt", {}),
    (Task.COMPLETION, Variant.RANDOM, "prompt_completion_random.txt", {}),
    (Task.COMPLETION, Variant.SELF_CONSISTENT, "prompt_completion_self_consistent.txt", {}),
    (Task.COMPLETION, Variant.MOST_LIKELY, "prompt_completion_most_likely.txt", {}),
    (Task.EXPLANATION, Variant.PLAIN, "prompt_explanation_plain.txt", {}),
    (Task.EXPLANATION, Variant.RANDOM, "prompt_explanation_random.txt", {}),
    (Task.EXPLANATION, Variant.SELF_CONSISTENT, "prompt_explanation_self_consistent.txt", {}),
    (Task.EXPLANATION, Variant.MOST_LIKELY, "prompt_explanation_most_likely.txt", {}),
    (Task.VERBALIZE_ALTERNATIVES, Variant.PLAIN, "prompt_verbalize_alternatives_plain.txt", {}),
    (
        Task.CONSISTENCY_JUDGMENT,
        Variant.PLAIN,
        "prompt_consistency_judgment_plain.txt",
        dict(judged=(parse("lambda x: (1 * x) + 1"), 5)),
    ),
]


class TestGoldenPrompts:
    @pytest.mark.parametrize("task,variant,name,extra", GOLDEN_CASES)
    def test_rendering_is_frozen(self, task, variant, name, extra,
                                 small_space):
        rp = _render(task, variant, small_space, **extra)
        assert rp.full_text() + "\n" == (GOLDEN / name).read_text()

    def test_base2_golden(self, small_space):
        spec = PromptSpec(task=Task.COMPLETION, base=2, n_shots=2, rng_seed=7)
        rp = build_prompt(spec, SequenceRecord((2, 3, 4), base=2), small_space)
        expected = (GOLDEN / "prompt_completion_plain_base2.txt").read_text()
        assert rp.full_text() + "\n" == expected

    def test_named_model_golden(self, small_space):
        spec = PromptSpec(task=Task.VERBALIZE_ALTERNATIVES, n_shots=1, rng_seed=7,
                          model_name="test-model")
        rp = build_prompt(spec, TARGET, small_space)
        expected = (GOLDEN / "prompt_verbalize_named_model.txt").read_text()
        assert rp.full_text() + "\n" == expected
        assert "{model_name}" not in rp.full_text()
        assert "test-model" in rp.test_query


class TestVerbatimInstructionLines:
    """Spot-check the instruction wording that downstream parsing counts on."""

    def test_offset_note_spacing_is_exact(self):
        assert OFFSET_NOTE == (
            "Sequences are not always 0 indexed , they may be offset "
            "by an arbitrary i-index value."
        )

    def test_random_completion_has_no_format_line(self, small_space):
        rp = _render(Task.COMPLETION, Variant.RANDOM, small_space)
        assert "Give the response as a number" not in rp.test_query
        assert rp.test_query.endswith("choose the corresponding continuation randomly.")

    def test_most_likely_explanation_quirks(self, small_space):
        rp = _render(Task.EXPLANATION, Variant.MOST_LIKELY, small_space)
        assert "the third by f(2), and so on." in rp.test_query
        assert "output the number in the same representation" in rp.test_query

    def test_verbalize_separator_and_placeholder(self, small_space):
        rp = _render(Task.VERBALIZE_ALTERNATIVES, Variant.PLAIN, small_space)
        assert "separated by escape character '\\n'" in rp.test_query
        assert rp.test_query.endswith("as determined by you, {model_name}.")
        for _, answer in rp.demonstrations:
            assert answer.endswith(" \\n")


class TestDeterminismAndSampling:
    def test_same_seed_same_prompt(self, small_space):
        a = _render(Task.COMPLETION, Variant.PLAIN, small_space)
        b = _render(Task.COMPLETION, Variant.PLAIN, small_space)
        assert a == b
        assert a.full_text() == b.full_text()

    def test_different_seed_different_demos(self, small_space):
        spec7 = PromptSpec(task=Task.COMPLETION, n_shots=4, rng_seed=7)
        spec8 = PromptSpec(task=Task.COMPLETION, n_shots=4, rng_seed=8)
        a = build_prompt(spec7, TARGET, small_space)
        b = build_prompt(spec8, TARGET, small_space)
        assert a.demonstrations != b.demonstrations

    def test_zero_shots(self, small_space):
        spec = PromptSpec(task=Task.COMPLETION, n_shots=0)
        rp = build_prompt(spec, TARGET, small_space)
        assert rp.demonstrations == ()
        assert rp.user_text() == rp.test_query

    def test_default_shot_counts(self):
        assert DEFAULT_N_SHOTS[Task.COMPLETION] == 8
        assert DEFAULT_N_SHOTS[Task.EXPLANATION] == 6

    def test_default_shots_used_when_unset(self, full_space):
        spec = PromptSpec(task=Task.COMPLETION, rng_seed=3)
        rp = build_prompt(spec, TARGET, full_space)
        assert len(rp.demonstrations) == 8

    def test_sampling_without_replacement(self, full_space):
        import random

        fns = sample_few_shot(full_space, 50, ShotSampling.RANDOM,
                              frozenset(), random.Random(0))
        assert len(set(fns)) == 50

    def test_same_class_restricts_pool(self, full_space):
        import random

        kinds = frozenset({TemplateKind.ARITHMETIC})
        fns = sample_few_shot(full_space, 10, ShotSampling.SAME_CLASS,
                              kinds, random.Random(0))
        assert all(f.kind is TemplateKind.ARITHMETIC for f in fns)

    def test_exclude_class_removes_pool(self, full_space):
        import random

        kinds = frozenset({TemplateKind.ARITHMETIC, TemplateKind.BIT_OR})
        fns = sample_few_shot(full_space, 30, ShotSampling.EXCLUDE_CLASS,
                              kinds, random.Random(0))
        assert not any(f.kind in kinds for f in fns)

    def test_class_modes_through_build_prompt(self, full_space):
        target = SequenceRecord((7, 11, 15))  # arithmetic + bit_or generators
        spec = PromptSpec(task=Task.EXPLANATION, n_shots=6, rng_seed=1,
                          shot_sampling=ShotSampling.EXCLUDE_CLASS)
        rp = build_prompt(spec, target, full_space)
        for _, answer in rp.demonstrations:
            fn = parse(answer.removeprefix("Explanation: "))
            assert fn.kind not in (TemplateKind.ARITHMETIC, TemplateKind.BIT_OR)

    def test_pool_exhaustion_raises(self, small_space):
        spec = PromptSpec(task=Task.COMPLETION, n_shots=50,
                          shot_sampling=ShotSampling.SAME_CLASS)
        with pytest.raises(PromptingError):
            build_prompt(spec, TARGET, small_space)

    def test_class_mode_needs_known_generators(self, small_space):
        spec = PromptSpec(task=Task.COMPLETION, n_shots=2,
                          shot_sampling=ShotSampling.SAME_CLASS)
        orphan = SequenceRecord((999, 998, 997))
        with pytest.raises(PromptingError):
            build_prompt(spec, orphan, small_space)


def _demo_sequence_values(query: str, base: int = 10) -> tuple[int, ...]:
    first = query.splitlines()[0]
    assert first.startswith("For the sequence: ")
    rendered = first.removeprefix("For the sequence: ")
    return tuple(int(tok, base) for tok in rendered.split(","))


class TestDemonstrationSoundness:
    def test_completion_demos_are_valid_continuations(self, full_space):
        spec = PromptSpec(task=Task.COMPLETION, n_shots=8, rng_seed=11)
        rp = build_prompt(spec, TARGET, full_space)
        for query, answer in rp.demonstrations:
            values = _demo_sequence_values(query)
            assert int(answer) in valid_continuations(values, full_space)

    def test_explanation_demos_generate_their_sequences(self, full_space):
        spec = PromptSpec(task=Task.EXPLANATION, n_shots=6, rng_seed=11)
        rp = build_prompt(spec, TARGET, full_space)
        for query, answer in rp.demonstrations:
            values = _demo_sequence_values(query)
            fn = oracle_function(answer.removeprefix("Explanation: "))
            # the demo function must reproduce its own sequence at some offset
            assert values[-1] in oracle_continuations_of(fn, values[:-1])

    def test_judgment_demo_labels_are_true(self, full_space):
        spec = PromptSpec(task=Task.CONSISTENCY_JUDGMENT, n_shots=6, rng_seed=11)
        rp = build_prompt(spec, TARGET, full_space,
                          judged=(parse("lambda x: (1 * x) + 1"), 5))
        labels = set()
        for query, answer in rp.demonstrations:
            lines = query.splitlines()
            values = _demo_sequence_values(query)
            fn = oracle_function(lines[1].removeprefix("Explanation: "))
            shown = int(lines[2].removeprefix("Continuation: "))
            actual = shown in oracle_continuations_of(fn, values)
            assert (answer == "consistent") == actual
            labels.add(answer)
        assert labels == {"consistent", "inconsistent"}

    def test_verbalize_demo_answers_are_valid_and_capped(self, full_space):
        spec = PromptSpec(task=Task.VERBALIZE_ALTERNATIVES, n_shots=4, rng_seed=11)
        rp = build_prompt(spec, TARGET, full_space)
        for query, answer in rp.demonstrations:
            values = _demo_sequence_values(query)
            items = [tok.strip() for tok in answer.split("\\n") if tok.strip()]
            assert 1 <= len(items) <= 5
            valid = valid_continuations(values, full_space)
            assert all(int(tok) in valid for tok in items)
            assert items == sorted(items, key=int)

    def test_base2_demos_use_binary_numerals(self, full_space):
        spec = PromptSpec(task=Task.COMPLETION, base=2, n_shots=4, rng_seed=11)
        rp = build_prompt(spec, SequenceRecord((2, 3, 4), base=2), full_space)
        for query, answer in rp.demonstrations:
            seq_line = query.splitlines()[0].removeprefix("For the sequence: ")
            assert all(tok.startswith("0b") for tok in seq_line.split(","))
            assert answer.startswith("0b")

    def test_demo_length_matches_target(self, full_space):
        for length in (2, 4, 6):
            target = SequenceRecord(tuple(range(1, length + 1)))
            spec = PromptSpec(task=Task.COMPLETION, n_shots=3, rng_seed=5)
            rp = build_prompt(spec, target, full_space)
            for query, _ in rp.demonstrations:
                assert len(_demo_sequence_values(query)) == length


class TestRenderAnswer:
    """What render_answer writes, the task's parser reads back, and a results
    line records what was read."""

    @given(data=st.data(), base=st.sampled_from([10, 2]))
    @settings(max_examples=300, deadline=None)
    def test_parse_inverts_render(self, full_space, data, base):
        task = data.draw(st.sampled_from(list(Task)))
        values = {
            Task.COMPLETION: st.integers(min_value=0),
            Task.EXPLANATION: st.sampled_from(full_space.functions),
            Task.CONSISTENCY_JUDGMENT: st.booleans(),
            Task.VERBALIZE_ALTERNATIVES: st.lists(
                st.integers(min_value=0), max_size=5, unique=True
            ).map(lambda v: tuple(sorted(v))),
        }
        value = data.draw(values[task])
        read = parse_response(task, render_answer(task, value, base), base)
        assert read == value
        answer = ANSWERS[task]
        assert answer.fits(read)
        recorded = answer.recorded(read)
        assert recorded["kind"] == answer.kind
        assert json.loads(canonical_json(recorded)) == recorded

    @pytest.mark.parametrize("base", [10, 2])
    def test_every_space_member_round_trips(self, full_space, base):
        for fn in full_space:
            text = render_answer(Task.EXPLANATION, fn, base)
            assert parse_response(Task.EXPLANATION, text, base) == fn

    def test_verbalization_keeps_the_first_alternatives(self):
        text = render_answer(Task.VERBALIZE_ALTERNATIVES, range(1, 8), 10)
        assert text == "1 \\n 2 \\n 3 \\n 4 \\n 5 \\n"


class TestJudgmentPrompt:
    def test_requires_judged_pair(self, small_space):
        spec = PromptSpec(task=Task.CONSISTENCY_JUDGMENT, n_shots=0)
        with pytest.raises(PromptingError):
            build_prompt(spec, TARGET, small_space)

    def test_test_query_carries_the_pair(self, small_space):
        spec = PromptSpec(task=Task.CONSISTENCY_JUDGMENT, n_shots=0)
        judged = (parse("lambda x: (1 * x) + 1"), 5)
        rp = build_prompt(spec, TARGET, small_space, judged=judged)
        assert "Explanation: lambda x: (1 * x) + 1" in rp.test_query
        assert "Continuation: 5" in rp.test_query
        assert rp.judged == judged

    @given(data=st.data(), base=st.sampled_from([10, 2]))
    @settings(max_examples=200, deadline=None)
    def test_shown_pair_denotes_the_judged_pair(self, full_space, data, base):
        fn = data.draw(
            st.one_of(
                st.sampled_from(full_space.functions),
                general_exprs().map(ParsedFunction),
            )
        )
        completion = data.draw(st.integers(min_value=0))
        spec = PromptSpec(task=Task.CONSISTENCY_JUDGMENT, base=base, n_shots=0)
        rp = build_prompt(spec, TARGET, full_space, judged=(fn, completion))
        _, explanation, continuation, *_ = rp.test_query.splitlines()
        # shown as the explanation answer itself would be written
        assert explanation == render_answer(Task.EXPLANATION, fn, base)
        # a rendered expression may read back as the template it spells
        assert parse_response(Task.EXPLANATION, explanation, base).ast == fn.ast
        shown = continuation.removeprefix("Continuation: ")
        assert parse_response(Task.COMPLETION, shown, base) == completion


class TestSpecValidation:
    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError):
            PromptSpec(task=Task.COMPLETION, n_shots=-1)

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            PromptSpec(task=Task.COMPLETION, base=16)

    def test_target_rebased_to_spec_base(self, small_space):
        spec = PromptSpec(task=Task.COMPLETION, base=2, n_shots=0)
        rp = build_prompt(spec, SequenceRecord((2, 3, 4)), small_space)
        assert "0b10,0b11,0b100" in rp.test_query
        assert rp.target.base == 2
