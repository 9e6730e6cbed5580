"""Model backends: HTTP chat endpoints plus deterministic synthetic stand-ins.

Every backend implements ``complete(CompletionRequest) -> CompletionResponse``.
The synthetic backends (scripted playback, answer oracles, seeded random-valid
responders) let the whole evaluation pipeline run, and be tested, without any
network access; the HTTP backend speaks the chat-completions JSON shape with
an injectable transport so its plumbing is testable offline too.

The oracle and random-valid backends pick answer values (a continuation, a
function, a verdict, a list of alternatives) and write none of the text:
:func:`ambigseq.prompting.render_answer` does, as it does for the few-shot
demonstrations, so both carry the format that
:func:`ambigseq.prompting.parse_response` reads. The oracle ranks the
target's generators once per answer. A config's backend names are the
keys of :data:`BACKENDS`, its oracle tie-breaks those of :data:`TIE_BREAKS`.

An answer is a text plus the first token's top logprobs: a
:class:`CompletionResponse` in memory, and in a cache entry or a scripted
fixture the JSON object that :func:`_response_to_json` writes and
:func:`_response_from_json` reads. Its logprobs are checked by
:class:`~ambigseq.distribution.TokenDistribution`; an HTTP answer's are
clamped into ``[MIN_LOGPROB, 0]`` first. A backend that cannot supply top
logprobs a request asks for answers without them (``None``); no backend
refuses a request for wanting them.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol

from .distribution import MAX_TOP_K, MIN_LOGPROB, TokenDistribution
from .funcspace import FunctionSpace
from .mining import (
    Generator,
    SequenceRecord,
    canonical_json,
    continuations_of,
    decode_json,
    format_int,
    matching_generators,
    valid_continuations,
    valid_explanations,
    write_atomic,
)
from .prompting import RenderedPrompt, Task, render_answer

#: Answer text produced by synthetic backends when no valid answer exists.
NO_VALID_ANSWER = "no valid answer"


class BackendError(Exception):
    """Base class for backend failures."""


class AuthenticationError(BackendError):
    """Credentials missing or rejected; retrying will not help."""


class TransportError(BackendError):
    """The endpoint stayed unreachable after retries."""


class MalformedResponseError(BackendError):
    """The endpoint answered with JSON we cannot interpret."""


class LogprobsUnsupportedError(BackendError):
    """Top logprobs were requested but the backend cannot supply them.

    ambigseq no longer raises it: a backend answers without the top logprobs
    it lacks. The name stays importable for code written against it.
    """


#: Decoding parameters of every request: sent to HTTP endpoints and hashed
#: into every cache key.
TEMPERATURE = 0.0
MAX_TOKENS = 64


@dataclass(frozen=True)
class CompletionRequest:
    prompt: RenderedPrompt
    want_top_logprobs: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.want_top_logprobs <= MAX_TOP_K:
            raise ValueError(
                f"want_top_logprobs must be 0..{MAX_TOP_K}, got {self.want_top_logprobs}"
            )


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    first_token_top_logprobs: TokenDistribution | None = None
    cached: bool = False


class Backend(Protocol):
    backend_id: str

    def complete(self, request: CompletionRequest) -> CompletionResponse: ...


def request_digest(request: CompletionRequest, backend_id: str) -> str:
    """Stable content hash of everything that determines a response."""
    payload = {
        "backend": backend_id,
        "prompt": request.prompt.full_text(),
        "temperature": TEMPERATURE,
        "max_tokens": MAX_TOKENS,
        "want_top_logprobs": request.want_top_logprobs,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Scripted playback
# ---------------------------------------------------------------------------

class ScriptedBackend:
    """Plays back canned responses, keyed by test query or full prompt text.

    Answers are read by :func:`_response_from_json`, once, here; a string
    ``s`` stands for ``{"text": s}``. Lookup order: exact full text, exact
    test query, first fixture whose key is a substring of the full text, then
    the default. The answer is the fixture as it is, top logprobs or none,
    whatever the request asks for. Useful for replaying recorded transcripts
    and for failure-mode fixtures in tests.
    """

    backend_id = "scripted"

    def __init__(self, fixtures: Mapping[str, Any], default: Any = None):
        self.fixtures = {key: _scripted_answer(raw) for key, raw in fixtures.items()}
        self.default = None if default is None else _scripted_answer(default)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        full = request.prompt.full_text()
        response = (
            self.fixtures.get(full)
            or self.fixtures.get(request.prompt.test_query)
            or next((v for k, v in self.fixtures.items() if k in full), self.default)
        )
        if response is None:
            raise BackendError(
                f"no fixture for prompt starting {request.prompt.test_query[:60]!r}"
            )
        return response


def _scripted_answer(raw: Any) -> CompletionResponse:
    return _response_from_json({"text": raw} if isinstance(raw, str) else raw)


def load_scripted_fixtures(path: str | Path) -> ScriptedBackend:
    """A playback backend from a JSON file ``{"fixtures": {key: answer},
    "default": answer | null}`` (``default`` optional); any other shape, or a
    malformed answer, is a ``ValueError`` naming the file."""
    try:
        data = decode_json(Path(path).read_text())
        if not (isinstance(data, dict) and isinstance(data.get("fixtures"), dict)):
            raise ValueError('not {"fixtures": {key: answer}, "default": answer}')
        return ScriptedBackend(data["fixtures"], data.get("default"))
    except ValueError as exc:
        raise ValueError(f"{path}: bad scripted fixtures file ({exc})") from exc


# ---------------------------------------------------------------------------
# Oracle answers
# ---------------------------------------------------------------------------

#: Each ``tie_break`` name, with the key an oracle ranks a sequence's
#: generators by; the first generator answers. ``min_value`` prefers the
#: smallest continuation, ``enumeration_order`` the first generator in
#: template order, the order the prefix index already holds them in.
TIE_BREAKS: dict[str, Callable[[Generator], Any]] = {
    "min_value": lambda g: (g.continuation, g.sort_key()),
    "enumeration_order": Generator.sort_key,
}


class OracleBackend:
    """Answers every prompt from the function space itself.

    An answer ranks the target's generators once, by
    ``TIE_BREAKS[tie_break]``, and takes everything it says from that
    ranking; a judgment without top logprobs looks nothing up.

    ``consistent`` mode commits to the first ranked generator and answers
    completion and explanation prompts from it, so its cross-context
    consistency is 100% by construction. ``adversarial`` mode answers the
    two tasks from deliberately mismatched (explanation, completion) pairs
    on every sequence: the explanation is the first generator's function and
    the completion a continuation that function does not give, another
    generator's where there is one, else one past the largest. So on
    ambiguous data consistency is 0%, and on unambiguous data every
    completion is out of the valid set (completion accuracy 0%) while every
    explanation is correct. Judgment prompts are always answered truthfully,
    and synthetic top-logprob lists rank an out-of-set numeral first in
    adversarial mode.
    """

    def __init__(
        self,
        space: FunctionSpace,
        mode: str = "consistent",
        tie_break: str = "min_value",
    ):
        if mode not in ("consistent", "adversarial"):
            raise ValueError(f"unknown oracle mode: {mode!r}")
        if tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie_break: {tie_break!r}")
        self.space = space
        self.mode = mode
        self.tie_break = tie_break
        self.backend_id = f"oracle-{mode}"

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        prompt, k = request.prompt, request.want_top_logprobs
        seq = prompt.target
        judging = prompt.task is Task.CONSISTENCY_JUDGMENT
        gens = [] if judging and not k else sorted(
            matching_generators(seq.values, self.space), key=TIE_BREAKS[self.tie_break]
        )
        text = self._judge(prompt) if judging else self._answer(prompt.task, gens, seq.base)
        dist = self._synthetic_logprobs(gens, seq.base, k) if k else None
        return CompletionResponse(text, dist)

    def _answer(self, task: Task, gens: list[Generator], base: int) -> str:
        if not gens:
            return NO_VALID_ANSWER
        if task is Task.EXPLANATION:
            value = gens[0].function
        elif task is Task.VERBALIZE_ALTERNATIVES:
            value = sorted({g.continuation for g in gens})
        elif self.mode == "adversarial":
            value = _mismatched_completion(gens)
        else:
            value = gens[0].continuation
        return render_answer(task, value, base)

    def _judge(self, prompt: RenderedPrompt) -> str:
        if prompt.judged is None:
            return NO_VALID_ANSWER
        fn, completion = prompt.judged
        consistent = completion in continuations_of(fn, prompt.target.values, self.space)
        return render_answer(Task.CONSISTENCY_JUDGMENT, consistent, prompt.target.base)

    def _synthetic_logprobs(
        self, gens: list[Generator], base: int, k: int
    ) -> TokenDistribution:
        conts = sorted({g.continuation for g in gens})
        pairs: list[tuple[str, float]] = []
        if self.mode == "adversarial":
            pairs.append((format_int(max(conts, default=0) + 1, base), -0.05))
        elif gens:
            # the token the oracle would actually answer ranks first
            conts.sort(key=lambda v: v != gens[0].continuation)
        pairs.extend(
            (format_int(v, base), -0.1 * (i + 1) - 0.1) for i, v in enumerate(conts)
        )
        if not pairs:
            pairs = [(NO_VALID_ANSWER, -0.1)]
        return TokenDistribution.from_pairs(pairs[:k])


def _mismatched_completion(gens: list[Generator]) -> int:
    """A completion the first ranked generator's function does not give:
    another generator's where there is one, else (a self-ambiguous sequence)
    one past the largest, so the pair still fails an execution check."""
    own = {g.continuation for g in gens if g.function == gens[0].function}
    return next(
        (g.continuation for g in gens if g.continuation not in own),
        max(g.continuation for g in gens) + 1,
    )


# ---------------------------------------------------------------------------
# Seeded random-valid answers
# ---------------------------------------------------------------------------

def _derive_seed(*parts: object) -> int:
    blob = canonical_json([str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "big")


def random_valid_answer(
    sequence: SequenceRecord,
    task: Task,
    space: FunctionSpace,
    rng_seed: int = 0,
) -> str:
    """A uniformly random valid answer; the same seed always returns the same one."""
    import random as _random

    rng = _random.Random(_derive_seed("random_valid", rng_seed, task.value,
                                      sequence.values, sequence.base))
    if task is Task.COMPLETION:
        options = sorted(valid_continuations(sequence.values, space))
    elif task is Task.EXPLANATION:
        options = list(valid_explanations(sequence.values, space))
    else:
        raise ValueError(f"random_valid_answer does not cover task {task!r}")
    if not options:
        return NO_VALID_ANSWER
    return render_answer(task, rng.choice(options), sequence.base)


class RandomValidBackend:
    """Uniform over the valid answer set, independently per request.

    Seeding is derived from (backend seed, task, target, prompt seed), so a
    given prompt always gets the same answer while different few-shot seeds
    (different runs) re-roll the choice. It has no top logprobs, and answers
    a request for them without.
    """

    backend_id = "random-valid"

    def __init__(self, space: FunctionSpace, seed: int = 0):
        self.space = space
        self.seed = seed

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        prompt = request.prompt
        if prompt.task not in (Task.COMPLETION, Task.EXPLANATION):
            raise BackendError(
                f"random-valid backend does not answer {prompt.task.value} prompts"
            )
        per_request = _derive_seed(self.seed, prompt.rng_seed)
        text = random_valid_answer(prompt.target, prompt.task, self.space, per_request)
        return CompletionResponse(text)


# ---------------------------------------------------------------------------
# HTTP chat endpoint
# ---------------------------------------------------------------------------

def build_chat_payload(request: CompletionRequest, model: str) -> dict:
    payload: dict = {
        "model": model,
        "messages": [
            {"role": "system", "content": request.prompt.system},
            {"role": "user", "content": request.prompt.user_text()},
        ],
        "temperature": TEMPERATURE,
        "max_tokens": MAX_TOKENS,
    }
    if request.want_top_logprobs:
        payload["logprobs"] = True
        payload["top_logprobs"] = request.want_top_logprobs
    return payload


def parse_chat_response(data: dict, want_top_logprobs: int) -> tuple[str, TokenDistribution | None]:
    """The (text, top logprobs) of a chat-completions response body.

    The top logprobs are ``None`` when none were asked for, or when the
    response carries no list of them, or an empty one. A body without a text,
    or a list entry without a text token and a finite logprob, is a
    :class:`MalformedResponseError`.
    """
    try:
        choice = data["choices"][0]
        text = choice["message"]["content"]
    except (KeyError, IndexError, TypeError) as err:
        raise MalformedResponseError(f"unexpected response shape: {err}") from err
    if not isinstance(text, str):
        raise MalformedResponseError(f"response content is not text: {text!r}")
    try:
        raw = want_top_logprobs and choice["logprobs"]["content"][0]["top_logprobs"]
    except (KeyError, IndexError, TypeError):
        raw = None  # the response carries no list
    if not raw:
        return text, None
    pairs: list[tuple[str, float]] = []
    seen: set[str] = set()
    try:
        for item in raw:
            token, lp = item["token"], item["logprob"]
            number = type(lp) in (int, float)  # never a bool, nor a numeral's text
            if not (isinstance(token, str) and number and math.isfinite(lp)):
                raise ValueError(f"entry {item!r} needs a text token and a finite logprob")
            if token in seen:
                continue  # some endpoints repeat tokens; keep the first (highest)
            seen.add(token)
            pairs.append((token, min(max(float(lp), MIN_LOGPROB), 0.0)))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise MalformedResponseError(f"malformed top_logprobs: {err!r}") from err
    pairs.sort(key=lambda p: -p[1])
    return text, TokenDistribution.from_pairs(pairs[:want_top_logprobs])


class HttpBackend:
    """Chat-completions endpoint client with retry and injectable transport.

    ``transport`` takes (url, headers, payload, timeout) and returns
    (status_code, parsed_json); the default posts with ``requests``, imported
    on the first such post. Retries connection failures (any ``OSError``,
    which ``requests``' errors are), 429 and 5xx with exponential backoff;
    fails fast on authentication errors.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = "AMBIGSEQ_API_KEY",
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff_base: float = 1.0,
        transport: Callable[..., tuple[int, dict]] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.transport = transport or self._post
        self.sleep = sleep
        self.backend_id = f"http:{model}"

    def _post(self, url: str, headers: dict, payload: dict, timeout: float):
        import requests

        resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
        try:
            body = resp.json()
        except ValueError:
            body = {}
        return resp.status_code, body

    def _headers(self) -> dict:
        key = os.environ.get(self.api_key_env)
        if not key:
            raise AuthenticationError(
                f"API key environment variable {self.api_key_env} is not set"
            )
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        url = f"{self.base_url}/chat/completions"
        headers = self._headers()
        payload = build_chat_payload(request, self.model)
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                status, body = self.transport(url, headers, payload, self.timeout)
            except OSError as err:
                last_error = err
                continue
            if status in (401, 403):
                raise AuthenticationError(f"endpoint rejected credentials ({status})")
            if status == 429 or status >= 500:
                last_error = TransportError(f"status {status}: {body}")
                continue
            if status != 200:
                raise BackendError(f"unexpected status {status}: {body}")
            text, dist = parse_chat_response(body, request.want_top_logprobs)
            return CompletionResponse(text, dist)
        raise TransportError(
            f"gave up after {self.max_retries + 1} attempts: {last_error}"
        )


@dataclass(frozen=True)
class BackendEntry:
    """A backend as a campaign config sees it: how it is built from the
    config ``c`` and the function space, the settings it needs, the tasks it
    answers, and its calls in flight by default (a remote endpoint waits on
    the network; the in-process backends compute under the interpreter lock)."""

    build: Callable[[Any, FunctionSpace], Backend]
    needs: tuple[str, ...] = ()
    tasks: tuple[Task, ...] = tuple(Task)
    workers: int = 1


#: Each ``backend`` name a campaign config may give, with its entry.
BACKENDS: dict[str, BackendEntry] = {
    "oracle": BackendEntry(lambda c, space: OracleBackend(space, tie_break=c.tie_break)),
    "adversarial": BackendEntry(lambda c, space: OracleBackend(space, "adversarial", c.tie_break)),
    "random_valid": BackendEntry(lambda c, space: RandomValidBackend(space, seed=c.backend_seed),
                                 tasks=(Task.COMPLETION, Task.EXPLANATION)),
    "scripted": BackendEntry(lambda c, space: load_scripted_fixtures(c.fixtures_file),
                             needs=("fixtures_file",)),
    "http": BackendEntry(lambda c, space: HttpBackend(c.http_base_url, c.http_model, c.api_key_env),
                         needs=("http_base_url", "http_model"), workers=8),
}


# ---------------------------------------------------------------------------
# On-disk response cache
# ---------------------------------------------------------------------------

class CachingBackend:
    """Wraps another backend with a content-addressed response cache.

    Cache keys hash the full prompt text and decoding parameters. Each
    entry is the answer as :func:`_response_to_json` writes it, top logprobs
    ``null`` where the inner backend had none. Writes go through a temp file
    and an atomic rename, so concurrent workers can share a cache directory;
    a hit is returned with ``cached=True`` but is otherwise indistinguishable
    from a fresh response. An entry that is not an answer (corrupt, or the
    refusal entry older versions wrote) is asked of the inner backend again
    and overwritten.
    """

    def __init__(self, inner: Backend, cache_dir: str | Path):
        self.inner = inner
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.backend_id = inner.backend_id

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        path = self.cache_dir / f"{request_digest(request, self.inner.backend_id)}.json"
        if path.exists():
            try:
                return _response_from_json(decode_json(path.read_text()), cached=True)
            except ValueError:
                pass  # corrupt entry: fall through and refresh it
        response = self.inner.complete(request)
        write_atomic(path, canonical_json(_response_to_json(response)))
        return response


def _response_to_json(response: CompletionResponse) -> dict:
    dist = response.first_token_top_logprobs
    return {"text": response.text, "top_logprobs": dist.to_pairs() if dist else None}


def _response_from_json(data: object, cached: bool = False) -> CompletionResponse:
    """The response an answer object ``{"text": str, "top_logprobs": [[token,
    logprob], ...] | null}`` holds, other keys ignored; ``ValueError`` unless
    it has that shape and the logprobs form a :class:`TokenDistribution`."""
    if not (isinstance(data, dict) and isinstance(data.get("text"), str)):
        raise ValueError("answer is not an object with a text string")
    pairs = data.get("top_logprobs")
    dist = None if pairs is None else TokenDistribution.from_pairs(pairs)
    return CompletionResponse(data["text"], dist, cached=cached)
