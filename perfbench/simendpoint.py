"""A seeded stand-in for a chat-completions endpoint, for HttpBackend's transport hook.

``SimulatedEndpoint`` is called as ``transport(url, headers, payload, timeout)``
and returns ``(status, body)`` the way ``HttpBackend`` expects. It sleeps a
lognormal latency (really sleeps, so wall time is set by the "model"),
answers 429 on a fixed share of attempts, and otherwise answers cheaply from
the sequence shown in the prompt — never from the function space, so the
benchmark's harness cost is not hidden inside the backend.

Latencies and 429s are *stratified* rather than drawn independently: every
block of ``BLOCK`` attempts uses the same ``BLOCK`` lognormal quantiles and
the same number of 429s, shuffled by the seed. The seed still decides which
attempt gets which latency, but the total simulated latency of a campaign
barely moves between seeds, so seed-to-seed spread in the benchmark reflects
the harness rather than the dice. No two 429 slots are adjacent, so a
request retried once always gets through.

The endpoint also stops returning top logprobs partway through, the way an
endpoint without logprob support answers: the n-th request that asks for
them and every later one get none, with n drawn by the seed from
``LOGPROBS_LOST_FROM``. That is late in a campaign of a few dozen
completions, so ``HttpBackend`` raises ``LogprobsUnsupportedError`` once and
the campaign's fallback path runs at every seed.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import threading
import time
from statistics import NormalDist
from typing import Callable

BLOCK = 100
# lognormal latency: median, sigma of its log, and cap, in seconds
MEDIAN_S = 0.020
SIGMA = 0.6
CAP_S = 0.5
LOGPROBS_LOST_FROM = range(30, 40)

_SEQUENCE_LINE = re.compile(r"^For the sequence: (.*)$", re.MULTILINE)


def _digest_int(*parts: object) -> int:
    blob = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def latency_quantiles() -> list[float]:
    """The ``BLOCK`` mid-quantiles of the capped lognormal latency."""
    normal = NormalDist()
    mu = math.log(MEDIAN_S)
    return [
        min(CAP_S, math.exp(mu + SIGMA * normal.inv_cdf((i + 0.5) / BLOCK)))
        for i in range(BLOCK)
    ]


def _parse_numeral(text: str) -> tuple[int, int]:
    text = text.strip()
    if text.lower().startswith("0b"):
        return int(text[2:], 2), 2
    return int(text), 10


def _render(value: int, base: int) -> str:
    return str(value) if base == 10 else bin(value)


def shown_sequence(block: str) -> tuple[list[int], int]:
    """The values and base of the last ``For the sequence:`` line in a block."""
    matches = _SEQUENCE_LINE.findall(block)
    if not matches:
        return [0], 10
    parsed = [_parse_numeral(tok) for tok in matches[-1].split(",")]
    return [v for v, _ in parsed], parsed[0][1]


def classify(block: str) -> str:
    """Which task a test block asks for, read from its instruction text."""
    if "'consistent' or 'inconsistent'" in block:
        return "consistency_judgment"
    if "Explanation: <function>" in block:
        return "explanation"
    if "possible and valid answers" in block:
        return "verbalize_alternatives"
    return "completion"


def answer(seed: int, user_text: str) -> tuple[str, int]:
    """(answer text, next-value guess) for the test block of a user message.

    The guess extends the last step of the shown sequence; the explanation is
    the arithmetic template through its first two values. Judgments are a
    seeded coin per prompt. All answers are well-formed for their task.
    """
    block = user_text.rsplit("\n\n", 1)[-1]
    values, base = shown_sequence(block)
    last = values[-1]
    step = abs(last - values[-2]) if len(values) > 1 else 1
    guess = last + step
    task = classify(block)
    if task == "consistency_judgment":
        coin = _digest_int("judge", seed, block) % 2
        return ("consistent" if coin else "inconsistent"), guess
    if task == "explanation":
        slope = abs(values[1] - values[0]) if len(values) > 1 else 1
        return f"Explanation: lambda x: ({slope} * x) + {values[0]}", guess
    if task == "verbalize_alternatives":
        return f"{_render(guess, base)} \\n {_render(guess + 1, base)} \\n", guess
    return _render(guess, base), guess


def _top_logprobs(seed: int, user_text: str, guess: int, k: int, base: int) -> list:
    jitter = (_digest_int("logprobs", seed, user_text) % 1000) / 10000.0
    return [
        {"token": _render(guess + i, base), "logprob": -0.05 - jitter - 0.7 * i}
        for i in range(k)
    ]


class SimulatedEndpoint:
    """Transport callable for ``HttpBackend(..., transport=SimulatedEndpoint(seed))``.

    The counters ``attempts`` and ``logprob_requests`` are guarded by a lock
    so concurrent callers see a consistent attempt numbering.
    ``logprobs_lost_from`` is the seed's n, counting from 1.
    """

    def __init__(
        self,
        seed: int,
        rate_429: float = 0.03,
        sleep: Callable[[float], None] = time.sleep,
    ):
        n_429 = round(rate_429 * BLOCK)
        if not 0 <= n_429 <= BLOCK // 2:
            raise ValueError(f"rate_429 must be within 0..0.5, got {rate_429}")
        self.seed = seed
        self.sleep = sleep
        self._quantiles = latency_quantiles()
        self._n_429 = n_429
        self._lock = threading.Lock()
        self._blocks: dict[int, tuple[list[float], frozenset[int]]] = {}
        self.logprobs_lost_from = LOGPROBS_LOST_FROM[
            _digest_int("logprobs lost", seed) % len(LOGPROBS_LOST_FROM)
        ]
        self.attempts = 0
        self.logprob_requests = 0

    def _block(self, index: int) -> tuple[list[float], frozenset[int]]:
        cached = self._blocks.get(index)
        if cached is None:
            rng = random.Random(_digest_int("block", self.seed, index))
            latencies = list(self._quantiles)
            rng.shuffle(latencies)
            # even slots only, so two 429s are never back to back
            limited = frozenset(rng.sample(range(0, BLOCK, 2), self._n_429))
            cached = self._blocks[index] = (latencies, limited)
        return cached

    def schedule(self, attempt: int) -> tuple[float, bool]:
        """(latency in seconds, answered with 429) for the n-th attempt."""
        latencies, limited = self._block(attempt // BLOCK)
        slot = attempt % BLOCK
        return latencies[slot], slot in limited

    def __call__(self, url: str, headers: dict, payload: dict, timeout: float):
        with self._lock:
            attempt = self.attempts
            self.attempts += 1
            latency, limited = self.schedule(attempt)
            k = 0
            if not limited and payload.get("logprobs"):
                self.logprob_requests += 1
                if self.logprob_requests < self.logprobs_lost_from:
                    k = payload.get("top_logprobs", 0)
        self.sleep(latency)
        if limited:
            return 429, {"error": {"message": "rate limited (simulated)"}}
        user_text = payload["messages"][-1]["content"]
        text, guess = answer(self.seed, user_text)
        choice: dict = {"index": 0, "message": {"role": "assistant", "content": text}}
        if k:
            _, base = shown_sequence(user_text.rsplit("\n\n", 1)[-1])
            choice["logprobs"] = {
                "content": [
                    {
                        "token": text,
                        "logprob": -0.05,
                        "top_logprobs": _top_logprobs(
                            self.seed, user_text, guess, k, base
                        ),
                    }
                ]
            }
        return 200, {"choices": [choice]}
