"""Tests of the benchmark's simulated chat endpoint.

    python3 -m pytest perfbench/test_simendpoint.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ambigseq.backends import (  # noqa: E402
    CompletionRequest,
    HttpBackend,
    LogprobsUnsupportedError,
    build_chat_payload,
)
from ambigseq.evaluation import parse_response  # noqa: E402
from ambigseq.funcspace import enumerate_space  # noqa: E402
from ambigseq.mining import SequenceRecord  # noqa: E402
from ambigseq.prompting import PromptSpec, Task, build_prompt  # noqa: E402
from simendpoint import (  # noqa: E402
    BLOCK,
    CAP_S,
    LOGPROBS_LOST_FROM,
    MEDIAN_S,
    SimulatedEndpoint,
    latency_quantiles,
)

SPACE = enumerate_space()
SEQUENCES = [(1, 2, 3), (0, 4, 8, 12), (5, 1, 7), (2, 2)]


def no_sleep(_seconds: float) -> None:
    pass


def payload(task: Task, values: tuple[int, ...], base: int = 10, top: int = 0) -> dict:
    kwargs = {}
    if task is Task.CONSISTENCY_JUDGMENT:
        kwargs = {"judged_explanation": "lambda x: (1 * x) + 0", "judged_completion": 4}
    prompt = build_prompt(
        PromptSpec(task=task, base=base, rng_seed=7), SequenceRecord(values, base), SPACE, **kwargs
    )
    return build_chat_payload(CompletionRequest(prompt, want_top_logprobs=top), "simulated")


def call(endpoint: SimulatedEndpoint, body: dict):
    return endpoint("http://simulated-endpoint.invalid/v1/chat/completions", {}, body, 1.0)


def test_same_seed_same_latencies_429s_and_answers():
    a, b = SimulatedEndpoint(5, sleep=no_sleep), SimulatedEndpoint(5, sleep=no_sleep)
    assert [a.schedule(i) for i in range(3 * BLOCK)] == [b.schedule(i) for i in range(3 * BLOCK)]
    bodies = [payload(task, seq) for task in Task for seq in SEQUENCES]
    assert [call(a, p) for p in bodies] == [call(b, p) for p in bodies]
    other = SimulatedEndpoint(6, sleep=no_sleep)
    assert [other.schedule(i) for i in range(BLOCK)] != [a.schedule(i) for i in range(BLOCK)]


def test_429_rate_matches_setting_and_never_repeats_back_to_back():
    endpoint = SimulatedEndpoint(11, rate_429=0.03, sleep=no_sleep)
    n = 20 * BLOCK
    limited = [endpoint.schedule(i)[1] for i in range(n)]
    assert sum(limited) / n == pytest.approx(0.03, abs=0.005)
    assert not any(x and y for x, y in zip(limited, limited[1:]))


def test_latencies_follow_the_lognormal_setting():
    lat = latency_quantiles()
    assert sorted(lat)[len(lat) // 2] == pytest.approx(MEDIAN_S, rel=0.05)
    assert max(lat) <= CAP_S
    endpoint = SimulatedEndpoint(3, sleep=no_sleep)
    assert sorted(endpoint.schedule(i)[0] for i in range(BLOCK)) == sorted(lat)


@pytest.mark.parametrize("base", [10, 2])
@pytest.mark.parametrize("values", SEQUENCES)
@pytest.mark.parametrize("task", list(Task))
def test_answers_parse_as_valid_for_their_task(task, values, base):
    endpoint = SimulatedEndpoint(1, rate_429=0.0, sleep=no_sleep)
    status, body = call(endpoint, payload(task, values, base))
    assert status == 200
    text = body["choices"][0]["message"]["content"]
    assert parse_response(task, text, base) is not None, text


def test_completion_requests_get_top_logprobs_through_http_backend(monkeypatch):
    monkeypatch.setenv("AMBIGSEQ_API_KEY", "test")
    endpoint = SimulatedEndpoint(2, sleep=no_sleep)
    backend = HttpBackend(
        "http://simulated-endpoint.invalid/v1", "simulated", backoff_base=0.0,
        transport=endpoint, sleep=no_sleep,
    )
    prompt = build_prompt(PromptSpec(task=Task.COMPLETION), SequenceRecord((1, 2, 3)), SPACE)
    response = backend.complete(CompletionRequest(prompt, want_top_logprobs=5))
    assert response.text == "4"
    assert [e.token for e in response.first_token_top_logprobs.entries][0] == "4"
    assert len(response.first_token_top_logprobs.entries) == 5


def test_top_logprobs_stop_from_a_seeded_request_on(monkeypatch):
    monkeypatch.setenv("AMBIGSEQ_API_KEY", "test")
    endpoint = SimulatedEndpoint(4, sleep=no_sleep)
    assert endpoint.logprobs_lost_from in LOGPROBS_LOST_FROM
    assert endpoint.logprobs_lost_from == SimulatedEndpoint(4).logprobs_lost_from
    lost = {SimulatedEndpoint(seed).logprobs_lost_from for seed in range(50)}
    assert len(lost) > 1
    backend = HttpBackend(
        "http://simulated-endpoint.invalid/v1", "simulated", backoff_base=0.0,
        transport=endpoint, sleep=no_sleep,
    )
    prompt = build_prompt(PromptSpec(task=Task.COMPLETION), SequenceRecord((1, 2, 3)), SPACE)
    for _ in range(endpoint.logprobs_lost_from - 1):
        assert backend.complete(CompletionRequest(prompt, want_top_logprobs=5)).first_token_top_logprobs
        backend.complete(CompletionRequest(prompt))  # asks for none, so does not count
    for _ in range(2):
        with pytest.raises(LogprobsUnsupportedError):
            backend.complete(CompletionRequest(prompt, want_top_logprobs=5))
    assert backend.complete(CompletionRequest(prompt)).text == "4"
