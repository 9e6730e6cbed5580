"""Backend tests: playback, oracles, random-valid statistics, HTTP plumbing, cache."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from ambigseq.backends import (
    AuthenticationError,
    BackendError,
    CachingBackend,
    CompletionRequest,
    CompletionResponse,
    HttpBackend,
    MalformedResponseError,
    NO_VALID_ANSWER,
    TIE_BREAKS,
    OracleBackend,
    RandomValidBackend,
    ScriptedBackend,
    TransportError,
    _response_from_json,
    _response_to_json,
    build_chat_payload,
    parse_chat_response,
    random_valid_answer,
    request_digest,
)
from ambigseq import backends, funcspace, mining
from ambigseq.config import canonical_json
from ambigseq.distribution import MIN_LOGPROB, TokenDistribution
from ambigseq.funcspace import enumerate_space, parse
from ambigseq.mining import SequenceRecord, mine
from ambigseq.prompting import PromptSpec, Task, build_prompt, parse_response

from bruteforce import oracle_continuations_of, oracle_function


@pytest.fixture(scope="module")
def space():
    return enumerate_space()


@pytest.fixture(scope="module")
def dataset(space):
    return mine(space, length=3)


AMBIG = SequenceRecord((7, 11, 15))


def make_request(space, task=Task.COMPLETION, target=AMBIG, want_logprobs=0, **spec_kw):
    spec = PromptSpec(task=task, n_shots=0, **spec_kw)
    extra = {}
    if task is Task.CONSISTENCY_JUDGMENT:
        extra = dict(judged=(parse("lambda x: (4 * x) + 3"), 19))
    prompt = build_prompt(spec, target, space, **extra)
    return CompletionRequest(prompt, want_top_logprobs=want_logprobs)


class TestScriptedBackend:
    def test_exact_test_query_playback(self, space):
        req = make_request(space)
        backend = ScriptedBackend({req.prompt.test_query: "19"})
        assert backend.complete(req).text == "19"

    def test_full_text_key_wins(self, space):
        req = make_request(space)
        backend = ScriptedBackend(
            {req.prompt.full_text(): "15", req.prompt.test_query: "19"}
        )
        assert backend.complete(req).text == "15"

    def test_substring_fallback_and_default(self, space):
        req = make_request(space)
        backend = ScriptedBackend({"7,11,15": "19"}, default="0")
        assert backend.complete(req).text == "19"
        other = make_request(space, target=SequenceRecord((3, 6, 9)))
        assert backend.complete(other).text == "0"

    def test_missing_fixture_raises(self, space):
        backend = ScriptedBackend({})
        with pytest.raises(BackendError):
            backend.complete(make_request(space))

    def test_fixture_with_logprobs(self, space):
        req = make_request(space, want_logprobs=2)
        backend = ScriptedBackend(
            {"7,11,15": {"text": "19", "top_logprobs": [["19", -0.5], ["15", -1.0]]}}
        )
        resp = backend.complete(req)
        assert resp.first_token_top_logprobs.entries[0].token == "19"

    def test_wanting_logprobs_without_fixture_support_gets_none(self, space):
        req = make_request(space, want_logprobs=2)
        backend = ScriptedBackend({"7,11,15": "19"})
        assert backend.complete(req) == CompletionResponse("19")


class TestOracleAnswer:
    """The text ``OracleBackend.complete`` answers each task with."""

    @staticmethod
    def answer(space, task, target=AMBIG, **backend_kw):
        request = make_request(space, task, target, base=target.base)
        return OracleBackend(space, **backend_kw).complete(request).text

    def test_min_value_completion(self, space):
        assert self.answer(space, Task.COMPLETION) == "15"

    def test_enumeration_order_completion(self, space):
        answer = self.answer(space, Task.COMPLETION, tie_break="enumeration_order")
        assert answer == "19"  # arithmetic(4,3) enumerates before bit_or

    def test_explanation_formats(self, space):
        answer = self.answer(space, Task.EXPLANATION, tie_break="enumeration_order")
        assert answer == "Explanation: lambda x: (4 * x) + 3"

    def test_min_value_explanation_matches_its_completion(self, space):
        answer = self.answer(space, Task.EXPLANATION)
        assert answer == "Explanation: lambda x: (3 * x) | 3"

    def test_verbalize_lists_all(self, space):
        answer = self.answer(space, Task.VERBALIZE_ALTERNATIVES)
        assert answer == "15 \\n 19 \\n"

    def test_no_generators_sentinel(self, space):
        orphan = SequenceRecord((1, 3, 5, 7))
        assert self.answer(space, Task.COMPLETION, orphan) == NO_VALID_ANSWER

    def test_base2_rendering(self, space):
        seq = SequenceRecord((7, 11, 15), base=2)
        assert self.answer(space, Task.COMPLETION, seq) == "0b1111"

    def test_unknown_tie_break(self, space):
        with pytest.raises(ValueError, match="unknown tie_break: 'coin_flip'"):
            OracleBackend(space, tie_break="coin_flip")


class TestOracleBackend:
    def test_consistent_pair_really_consistent(self, space):
        from ambigseq.funcspace import parse
        from ambigseq.mining import continuations_of

        backend = OracleBackend(space)
        completion = backend.complete(make_request(space, Task.COMPLETION)).text
        explanation = backend.complete(make_request(space, Task.EXPLANATION)).text
        fn = parse(explanation.removeprefix("Explanation: "))
        assert int(completion) in continuations_of(fn, AMBIG.values, space)

    def test_adversarial_pair_inconsistent_on_ambiguous(self, space):
        from ambigseq.funcspace import parse
        from ambigseq.mining import continuations_of

        backend = OracleBackend(space, mode="adversarial")
        completion = backend.complete(make_request(space, Task.COMPLETION)).text
        explanation = backend.complete(make_request(space, Task.EXPLANATION)).text
        fn = parse(explanation.removeprefix("Explanation: "))
        assert int(completion) not in continuations_of(fn, AMBIG.values, space)

    def test_adversarial_on_every_ambiguous_record(self, space, dataset):
        from ambigseq.funcspace import parse
        from ambigseq.mining import continuations_of

        backend = OracleBackend(space, mode="adversarial")
        for record in dataset.ambiguous:
            target = record.sequence
            completion = backend.complete(
                make_request(space, Task.COMPLETION, target)).text
            explanation = backend.complete(
                make_request(space, Task.EXPLANATION, target)).text
            fn = parse(explanation.removeprefix("Explanation: "))
            assert int(completion) not in continuations_of(fn, target.values, space)

    def test_judgment_answers_truthfully(self, space):
        backend = OracleBackend(space)
        req = make_request(space, Task.CONSISTENCY_JUDGMENT)
        assert backend.complete(req).text == "consistent"

        spec = PromptSpec(task=Task.CONSISTENCY_JUDGMENT, n_shots=0)
        prompt = build_prompt(spec, AMBIG, space,
                              judged=(parse("lambda x: (4 * x) + 3"), 15))
        assert backend.complete(CompletionRequest(prompt)).text == "inconsistent"

    @pytest.mark.parametrize("completion", [15, 19, 23])
    @pytest.mark.parametrize("explanation", [
        "lambda x: (4 * x) + 3",
        "lambda x: (3 * x) | 3",
        "lambda x: x + x + x + x + 3",
        "lambda x: 9 ** 9 ** 9 ** x",
    ])
    def test_judgment_is_the_pair_check(self, space, explanation, completion):
        backend = OracleBackend(space)
        spec = PromptSpec(task=Task.CONSISTENCY_JUDGMENT, n_shots=0)
        prompt = build_prompt(spec, AMBIG, space,
                              judged=(parse(explanation), completion))
        text = backend.complete(CompletionRequest(prompt)).text
        verdict = parse_response(Task.CONSISTENCY_JUDGMENT, text)
        if "9 ** 9 ** 9" in explanation:
            oracle = set()  # eval would need billions of bits; the bit bound refuses it
        else:
            oracle = oracle_continuations_of(oracle_function(explanation), AMBIG.values)
        assert verdict == (completion in oracle)

    def test_judgment_lets_a_programming_error_propagate(self, space, monkeypatch):
        def broken(fn, x):
            raise TypeError("broken evaluator")

        spec = PromptSpec(task=Task.CONSISTENCY_JUDGMENT, n_shots=0)
        # an explanation outside the space, so the check evaluates it
        judged = (parse("lambda x: x + x + x + x + 3"), 19)
        request = CompletionRequest(build_prompt(spec, AMBIG, space, judged=judged))
        monkeypatch.setattr(funcspace, "evaluate", broken)
        with pytest.raises(TypeError, match="broken evaluator"):
            OracleBackend(space).complete(request)

    def test_synthetic_logprobs_consistent(self, space):
        backend = OracleBackend(space)
        resp = backend.complete(make_request(space, want_logprobs=5))
        dist = resp.first_token_top_logprobs
        assert dist.entries[0].token == resp.text  # top-1 is the answered completion
        tokens = {e.token for e in dist.entries}
        assert tokens == {"15", "19"}

    def test_synthetic_logprobs_adversarial_top1_is_wrong(self, space):
        backend = OracleBackend(space, mode="adversarial")
        resp = backend.complete(make_request(space, want_logprobs=5))
        dist = resp.first_token_top_logprobs
        assert int(dist.entries[0].token) not in {15, 19}

    def test_mode_validation(self, space):
        with pytest.raises(ValueError):
            OracleBackend(space, mode="chaotic")


class TestOneLookupPerAnswer:
    """The oracle ranks the target's generators once per answer, and looks
    nothing up to judge a pair."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        seen = []
        for module in (backends, mining):
            lookup = module.matching_generators

            def counted(values, space, lookup=lookup):
                seen.append(tuple(values))
                return lookup(values, space)

            monkeypatch.setattr(module, "matching_generators", counted)
        return seen

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("mode", ["consistent", "adversarial"])
    @pytest.mark.parametrize("task, want_logprobs, expected", [
        (Task.COMPLETION, 0, 1),
        (Task.COMPLETION, 5, 1),
        (Task.EXPLANATION, 0, 1),
        (Task.VERBALIZE_ALTERNATIVES, 0, 1),
        (Task.CONSISTENCY_JUDGMENT, 0, 0),
    ])
    def test_lookups(self, space, lookups, mode, tie_break, task, want_logprobs, expected):
        request = make_request(space, task, want_logprobs=want_logprobs)
        OracleBackend(space, mode=mode, tie_break=tie_break).complete(request)
        assert lookups == [AMBIG.values] * expected


class TestRandomValid:
    def test_same_seed_same_answer(self, space):
        a = random_valid_answer(AMBIG, Task.COMPLETION, space, rng_seed=5)
        b = random_valid_answer(AMBIG, Task.COMPLETION, space, rng_seed=5)
        assert a == b

    def test_uniform_over_continuations(self, space):
        counts = Counter(
            random_valid_answer(AMBIG, Task.COMPLETION, space, rng_seed=s)
            for s in range(10_000)
        )
        assert set(counts) == {"15", "19"}
        # binomial(10000, 0.5): 3 sigma is 150
        assert abs(counts["15"] - 5000) < 3 * math.sqrt(10_000 * 0.25)

    def test_explanations_always_valid(self, space):
        from ambigseq.funcspace import parse
        from ambigseq.mining import valid_explanations

        valid = set(valid_explanations(AMBIG.values, space))
        for s in range(50):
            answer = random_valid_answer(AMBIG, Task.EXPLANATION, space, rng_seed=s)
            assert parse(answer.removeprefix("Explanation: ")) in valid

    def test_no_valid_answers_sentinel(self, space):
        orphan = SequenceRecord((1, 3, 5, 7))
        assert random_valid_answer(
            orphan, Task.COMPLETION, space, rng_seed=0) == NO_VALID_ANSWER

    def test_backend_is_deterministic_per_prompt(self, space):
        backend = RandomValidBackend(space, seed=3)
        req = make_request(space)
        assert backend.complete(req).text == backend.complete(req).text

    def test_backend_varies_with_prompt_seed(self, space):
        backend = RandomValidBackend(space, seed=3)
        answers = {
            backend.complete(make_request(space, rng_seed=s)).text
            for s in range(40)
        }
        assert answers == {"15", "19"}

    def test_backend_rejects_other_tasks(self, space):
        backend = RandomValidBackend(space)
        with pytest.raises(BackendError):
            backend.complete(make_request(space, Task.VERBALIZE_ALTERNATIVES))


class TestChatPayload:
    def test_payload_shape(self, space):
        req = make_request(space)
        payload = build_chat_payload(req, "test-model")
        assert payload["model"] == "test-model"
        assert payload["messages"][0]["role"] == "system"
        assert payload["messages"][1]["content"] == req.prompt.user_text()
        assert "logprobs" not in payload

    def test_payload_with_logprobs(self, space):
        req = make_request(space, want_logprobs=5)
        payload = build_chat_payload(req, "m")
        assert payload["logprobs"] is True
        assert payload["top_logprobs"] == 5

    def test_parse_response_happy_path(self):
        data = {"choices": [{"message": {"content": " 19"}}]}
        text, dist = parse_chat_response(data, 0)
        assert text == " 19" and dist is None

    def test_parse_response_with_logprobs(self):
        data = {
            "choices": [{
                "message": {"content": "19"},
                "logprobs": {"content": [{
                    "top_logprobs": [
                        {"token": "19", "logprob": -0.5},
                        {"token": "15", "logprob": -1.2},
                        {"token": "19", "logprob": -3.0},
                    ]
                }]},
            }]
        }
        text, dist = parse_chat_response(data, 5)
        assert [e.token for e in dist.entries] == ["19", "15"]

    @pytest.mark.parametrize(
        "choice",
        [
            {},
            {"logprobs": None},
            {"logprobs": {"content": []}},
            {"logprobs": {"content": [{}]}},
            {"logprobs": {"content": [{"top_logprobs": []}]}},
        ],
        ids=["no_logprobs", "null_logprobs", "no_content", "no_list", "empty_list"],
    )
    def test_parse_response_missing_logprobs_is_none(self, choice):
        data = {"choices": [{"message": {"content": "19"}, **choice}]}
        assert parse_chat_response(data, 5) == ("19", None)

    def test_parse_malformed(self):
        with pytest.raises(MalformedResponseError):
            parse_chat_response({"choices": []}, 0)
        for content in (None, 7, ["a"], {"x": 1}, True):
            with pytest.raises(MalformedResponseError, match="content is not text"):
                parse_chat_response({"choices": [{"message": {"content": content}}]}, 0)


class FakeTransport:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, url, headers, payload, timeout):
        self.calls.append((url, headers, payload))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_body(text="19"):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpBackend:
    def test_success(self, space, monkeypatch):
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "sk-test")
        transport = FakeTransport([(200, ok_body())])
        backend = HttpBackend("https://api.example/v1", "m", transport=transport,
                              sleep=lambda s: None)
        resp = backend.complete(make_request(space))
        assert resp.text == "19"
        url, headers, payload = transport.calls[0]
        assert url == "https://api.example/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sk-test"

    def test_missing_key_fails_fast(self, space, monkeypatch):
        monkeypatch.delenv("AMBIGSEQ_API_KEY", raising=False)
        backend = HttpBackend("https://api.example", "m",
                              transport=FakeTransport([]), sleep=lambda s: None)
        with pytest.raises(AuthenticationError):
            backend.complete(make_request(space))

    @pytest.mark.parametrize(
        "entry",
        [
            {"token": "15"},
            None,
            {"token": "15", "logprob": "unlikely"},
            {"token": 15, "logprob": -1.0},
            {"token": "15", "logprob": float("nan")},
            {"token": "15", "logprob": float("-inf")},
        ],
        ids=["no_logprob", "null", "text_logprob", "int_token", "nan", "minus_inf"],
    )
    def test_malformed_logprob_entry_is_a_malformed_response(
        self, space, monkeypatch, entry
    ):
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "sk-test")
        body = ok_body()
        top = [{"token": "19", "logprob": -0.5}, entry]
        body["choices"][0]["logprobs"] = {"content": [{"top_logprobs": top}]}
        transport = FakeTransport([(200, body)])
        backend = HttpBackend("https://api.example", "m", transport=transport,
                              sleep=lambda s: None)
        with pytest.raises(MalformedResponseError, match="top_logprobs"):
            backend.complete(make_request(space, want_logprobs=5))
        assert len(transport.calls) == 1

    def test_auth_rejection_not_retried(self, space, monkeypatch):
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "sk-test")
        transport = FakeTransport([(401, {})])
        backend = HttpBackend("https://api.example", "m", transport=transport,
                              sleep=lambda s: None)
        with pytest.raises(AuthenticationError):
            backend.complete(make_request(space))
        assert len(transport.calls) == 1

    def test_retries_with_backoff_then_succeeds(self, space, monkeypatch):
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "sk-test")
        sleeps = []
        transport = FakeTransport([
            (429, {}),
            requests.ConnectionError("boom"),
            (500, {}),
            (200, ok_body("15")),
        ])
        backend = HttpBackend("https://api.example", "m", transport=transport,
                              max_retries=3, backoff_base=0.5,
                              sleep=sleeps.append)
        resp = backend.complete(make_request(space))
        assert resp.text == "15"
        assert sleeps == [0.5, 1.0, 2.0]

    def test_plain_connection_reset_is_retried(self, space, monkeypatch):
        # requests' errors are OSErrors, and so is a custom transport's reset
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "sk-test")
        sleeps = []
        transport = FakeTransport([ConnectionResetError("reset"), (200, ok_body("15"))])
        backend = HttpBackend("https://api.example", "m", transport=transport,
                              backoff_base=0.5, sleep=sleeps.append)
        assert backend.complete(make_request(space)).text == "15"
        assert sleeps == [0.5]

    def test_default_transport_posts_with_requests(self, space, monkeypatch):
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "sk-test")
        posts = []

        class Response:
            status_code = 200

            def json(self):
                return ok_body("15")

        def post(url, headers, json, timeout):
            posts.append((url, headers, json, timeout))
            return Response()

        monkeypatch.setattr(requests, "post", post)
        backend = HttpBackend("https://api.example/v1", "m", timeout=7.0,
                              sleep=lambda s: None)
        assert backend.complete(make_request(space)).text == "15"
        [(url, headers, payload, timeout)] = posts
        assert url == "https://api.example/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sk-test"
        assert payload["model"] == "m" and timeout == 7.0

    def test_importing_the_package_leaves_requests_unloaded(self):
        script = (
            "import sys\n"
            "import ambigseq, ambigseq.cli\n"
            "assert 'requests' not in sys.modules, 'requests imported'\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def test_gives_up_after_max_retries(self, space, monkeypatch):
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "sk-test")
        transport = FakeTransport([(503, {})] * 3)
        backend = HttpBackend("https://api.example", "m", transport=transport,
                              max_retries=2, sleep=lambda s: None)
        with pytest.raises(TransportError):
            backend.complete(make_request(space))
        assert len(transport.calls) == 3

    def test_unexpected_4xx_raises_without_retry(self, space, monkeypatch):
        monkeypatch.setenv("AMBIGSEQ_API_KEY", "sk-test")
        transport = FakeTransport([(404, {"error": "nope"})])
        backend = HttpBackend("https://api.example", "m", transport=transport,
                              sleep=lambda s: None)
        with pytest.raises(BackendError):
            backend.complete(make_request(space))
        assert len(transport.calls) == 1


class TestCachingBackend:
    def test_second_call_hits_cache(self, space, tmp_path):
        inner = OracleBackend(space)
        backend = CachingBackend(inner, tmp_path)
        req = make_request(space)
        first = backend.complete(req)
        second = backend.complete(req)
        assert not first.cached and second.cached
        assert first.text == second.text

    def test_cache_is_keyed_by_prompt(self, space, tmp_path):
        backend = CachingBackend(OracleBackend(space), tmp_path)
        a = backend.complete(make_request(space))
        b = backend.complete(make_request(space, target=SequenceRecord((3, 6, 9))))
        assert a.text != b.text
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_digest_depends_on_decoding_params(self, space):
        req1 = make_request(space)
        req2 = CompletionRequest(req1.prompt, want_top_logprobs=3)
        assert request_digest(req1, "b") != request_digest(req2, "b")
        assert request_digest(req1, "b") != request_digest(req1, "other")

    def test_cache_preserves_logprobs(self, space, tmp_path):
        backend = CachingBackend(OracleBackend(space), tmp_path)
        req = make_request(space, want_logprobs=3)
        first = backend.complete(req)
        second = backend.complete(req)
        assert second.first_token_top_logprobs == first.first_token_top_logprobs

    def test_corrupt_entry_is_refreshed(self, space, tmp_path):
        backend = CachingBackend(OracleBackend(space), tmp_path)
        req = make_request(space)
        backend.complete(req)
        entry = next(tmp_path.glob("*.json"))
        for corrupt in ("{not json", "[" * 5000 + "]" * 5000):
            entry.write_text(corrupt)
            resp = backend.complete(req)
            assert resp.text == "15"
            assert json.loads(entry.read_text())["text"] == "15"

    @pytest.mark.parametrize(
        "entry",
        [
            [1, 2],
            {"text": "15", "backend_id": "scripted", "top_logprobs": [5]},
            {"text": None, "backend_id": "scripted", "top_logprobs": None},
            {"text": 19, "backend_id": "scripted", "top_logprobs": None},
        ],
        ids=["list", "bare_logprob", "null_text", "int_text"],
    )
    def test_wrong_shape_entry_is_refreshed(self, space, tmp_path, entry):
        inner = ScriptedBackend({}, default="15")
        backend = CachingBackend(inner, tmp_path)
        req = make_request(space)
        backend.complete(req)
        path = next(tmp_path.glob("*.json"))
        path.write_text(json.dumps(entry))
        calls = []
        complete = inner.complete
        inner.complete = lambda request: calls.append(request) or complete(request)
        resp = backend.complete(req)
        assert calls == [req]
        assert resp.text == "15" and not resp.cached
        assert json.loads(path.read_text()) == {"text": "15", "top_logprobs": None}

    @pytest.mark.parametrize(
        "entry",
        [
            {"text": "19", "top_logprobs": [["19", -0.5], ["15", -1]]},
            {"text": "19", "backend_id": "scripted", "top_logprobs": [["19", -0.5], ["15", -1]]},
        ],
        ids=["without_backend_id", "with_backend_id"],
    )
    def test_answer_entry_is_a_hit(self, space, tmp_path, entry):
        # entries written before the cache stopped storing backend_id hit too
        inner = ScriptedBackend({}, default="15")
        backend = CachingBackend(inner, tmp_path)
        req = make_request(space, want_logprobs=2)
        digest = request_digest(req, inner.backend_id)
        (tmp_path / f"{digest}.json").write_text(json.dumps(entry))
        calls = []
        inner.complete = calls.append
        resp = backend.complete(req)
        assert calls == []
        assert resp == CompletionResponse(
            "19", TokenDistribution.from_pairs([("19", -0.5), ("15", -1)]), cached=True
        )

    def test_logprob_fallback_is_stored_as_an_answer_and_replayed(self, space, tmp_path):
        inner = ScriptedBackend({}, default="15")
        backend = CachingBackend(inner, tmp_path)
        req = make_request(space, want_logprobs=2)
        assert backend.complete(req) == CompletionResponse("15")
        inner.complete = pytest.fail  # a hit must not reach the inner backend
        assert backend.complete(req) == CompletionResponse("15", cached=True)
        (entry,) = tmp_path.glob("*.json")
        assert entry.name == f"{request_digest(req, inner.backend_id)}.json"
        assert entry.read_text() == canonical_json({"text": "15", "top_logprobs": None})

    def test_old_refusal_entry_is_refreshed_once(self, space, tmp_path):
        # older versions stored a request refused for wanting top logprobs
        # as this entry; it is no answer, so it is asked again and replaced
        inner = ScriptedBackend({}, default="15")
        backend = CachingBackend(inner, tmp_path)
        req = make_request(space, want_logprobs=2)
        entry = tmp_path / f"{request_digest(req, inner.backend_id)}.json"
        entry.write_text(canonical_json({"refused": "top_logprobs"}))
        calls = []
        complete = inner.complete
        inner.complete = lambda request: calls.append(request) or complete(request)
        assert backend.complete(req) == CompletionResponse("15")
        assert backend.complete(req) == CompletionResponse("15", cached=True)
        assert calls == [req]
        assert entry.read_text() == canonical_json({"text": "15", "top_logprobs": None})

    def test_counts_inner_calls(self, space, tmp_path):
        calls = []

        class Spy:
            backend_id = "spy"

            def complete(self, request):
                calls.append(request)
                return CompletionResponse("19")

        backend = CachingBackend(Spy(), tmp_path)
        req = make_request(space)
        backend.complete(req)
        backend.complete(req)
        assert len(calls) == 1

    def test_concurrent_completion_is_safe(self, space, tmp_path):
        backend = CachingBackend(OracleBackend(space), tmp_path)
        reqs = [make_request(space, target=SequenceRecord((7, 11, 15)),
                             rng_seed=s % 3) for s in range(12)]
        results = [None] * len(reqs)

        def work(i):
            results[i] = backend.complete(reqs[i]).text

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(reqs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(results) == {"15"}


_distributions = st.lists(
    st.tuples(st.text(), st.floats(min_value=MIN_LOGPROB, max_value=0)),
    min_size=1,
    max_size=5,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: TokenDistribution.from_pairs(sorted(pairs, key=lambda p: -p[1])))


@given(text=st.text(), dist=st.none() | _distributions)
def test_answer_round_trips_through_its_json_form(text, dist):
    response = CompletionResponse(text, dist)
    stored = json.loads(canonical_json(_response_to_json(response)))
    assert _response_from_json(stored) == response
