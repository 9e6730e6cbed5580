"""Campaign execution: drive one backend over mined datasets, write results.

The datasets are mined on the config's space, and each is compared with its
``dataset_L*.jsonl`` file in the output directory (see
:func:`ambigseq.mining.load_dataset`): a file that is not what the config's
parameters mine, ``config_digest`` aside, is refused, so a campaign runs over
exactly the mined split.

The results file is line-oriented JSON: a header (format, schema version,
config, config digest, dataset filenames) followed by one record per backend
query. Record lines carry no wall-clock data, so a repeat run with the same
config and a deterministic backend reproduces the file byte for byte;
timestamps go to a sidecar ``audit.log``. Lines are committed in plan
order, so the file is a prefix of :func:`plan_queries`: record line N
answers query N, and a reader checks each line against its query (see
:func:`_record_lines`). Reruns resume: the plan continues past the lines
present, an unterminated trailing line from an interrupted run is truncated
away (every line is written with its newline), and the remainder is
appended in the same canonical order. A resume holds only the lines of the
run it resumes in that the run's judgments read: the completion and
explanation lines of its ambiguous records.

Backend calls may overlap. With ``CampaignConfig.workers`` above 1, only
``backend.complete`` runs on a pool of that many threads; the calling thread
walks the plan, builds prompts, scores answers and commits lines strictly in
plan order, so the file is the same for every worker count. At most 16
queries a worker are sent ahead of the oldest uncommitted line. A
consistency judgment is held, unsent, until its run's completion and
explanation lines are committed; the queries after it do not wait for it.
Whether a request still asks for top logprobs is decided in one place,
:class:`_Dispatch`, which turns that capture off at the first answer
without them. While it is on, each completion that asks for them goes to
the logprob lane: one thread that sends these requests one at
a time, in plan order, each once the one before it is answered, so an
endpoint that stops sending top logprobs stops at the same query every run.
The other requests run beside the lane on the pool, which leaves one worker
to the lane; from the first lane answer without top logprobs on, the lane
sends each completion still queued in it to the pool, asking for none, and
the pool uses every worker. A failure surfaces when its query's turn to be
committed comes: the lines before it stay on disk, later answers are
dropped, and ``audit.log`` records why the run stopped. With one worker
each call is made inline as its line is committed, on no thread.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, TextIO

try:
    import fcntl
except ImportError:  # not POSIX: results files are not locked
    fcntl = None

from .backends import (
    BACKENDS,
    Backend,
    BackendError,
    CachingBackend,
    CompletionRequest,
)
from .config import CampaignConfig, ConfigError, canonical_json
from .distribution import TokenDistribution
from .evaluation import annotate_correctness, build_eval_record
from .funcspace import FunctionSpace, IndexConvention, enumerate_space, parse, render_function
from .mining import AmbiguityRecord, Dataset, load_dataset
from .prompting import JudgedPair, PromptSpec, RenderedPrompt, Task, build_prompt

RESULTS_FORMAT = "ambigseq.results"
RESULTS_VERSION = 1
RESULTS_FILENAME = "results.jsonl"
AUDIT_FILENAME = "audit.log"

#: The note of a completion line that asked for top logprobs and got none.
LOGPROBS_UNAVAILABLE_NOTE = "top logprobs unavailable from backend"
#: The note of a judgment line whose run gives no parseable pair to judge:
#: the backend is not asked, and the line files the empty answer as invalid.
NO_PAIR_NOTE = "no parseable completion/explanation pair to judge"
#: That line's (answer text, top logprobs, note), for the writer and the reader.
NO_PAIR_ANSWER = ("", None, NO_PAIR_NOTE)


class CampaignError(RuntimeError):
    pass


def dataset_filename(length: int) -> str:
    return f"dataset_L{length}.jsonl"


def results_path(output_dir: str | Path) -> Path:
    return Path(output_dir) / RESULTS_FILENAME


# ---------------------------------------------------------------------------
# backend construction


def make_backend(config: CampaignConfig, space: FunctionSpace) -> Backend:
    backend = BACKENDS[config.backend].build(config, space)
    if config.cache_dir:
        backend = CachingBackend(backend, config.cache_dir)
    return backend


def config_space(config: CampaignConfig) -> FunctionSpace:
    return enumerate_space(
        constant_range=config.constant_range,
        convention=IndexConvention(config.start_index, config.max_offset),
    )


# ---------------------------------------------------------------------------
# mining stage


def mine_datasets(config: CampaignConfig) -> dict[int, Dataset]:
    """Mine one dataset per configured length and write them to output_dir."""
    from .mining import mine, save_dataset

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    space = config_space(config)
    datasets = {}
    results = results_path(out_dir)
    # a run writing results over these datasets holds its results file's lock
    with _claim(results) if results.exists() else nullcontext():
        for length in config.lengths:
            dataset = mine(space, length=length, base=config.base)
            save_dataset(dataset, out_dir / dataset_filename(length), config.digest())
            datasets[length] = dataset
    return datasets


def load_campaign_datasets(config: CampaignConfig, space: FunctionSpace) -> dict[int, Dataset]:
    """The config's datasets, mined on ``space`` (the config's) and checked
    against their files by :func:`load_dataset`."""
    out_dir = Path(config.output_dir)
    datasets = {}
    for length in config.lengths:
        path = out_dir / dataset_filename(length)
        if not path.exists():
            raise CampaignError(
                f"dataset file {path} not found — run the mine stage first"
            )
        datasets[length] = load_dataset(path, space, length, config.base)
    return datasets


# ---------------------------------------------------------------------------
# campaign plan


class PlannedQuery(NamedTuple):
    """One backend query of the plan: the ``task`` asked of ``record``'s
    sequence in run ``run_id`` of the dataset of ``length``."""

    length: int
    run_id: int
    task: Task
    record: AmbiguityRecord

    @property
    def key(self) -> tuple:
        return (
            self.length,
            self.run_id,
            self.task.value,
            self.record.sequence.values,
            self.record.sequence.base,
        )


def _task_targets(dataset: Dataset, task: Task, limit: int | None):
    """Completion/explanation run everywhere; judgment and verbalization only
    make sense where several answers compete."""
    if task in (Task.COMPLETION, Task.EXPLANATION):
        groups = (dataset.ambiguous, dataset.unambiguous)
    else:
        groups = (dataset.ambiguous,)
    for group in groups:
        yield from group[:limit] if limit else group


def plan_queries(
    config: CampaignConfig, datasets: dict[int, Dataset]
) -> Iterator[PlannedQuery]:
    for length in config.lengths:
        dataset = datasets[length]
        for run_id in range(config.n_runs):
            for task in config.task_enums:
                for record in _task_targets(dataset, task, config.limit_sequences):
                    yield PlannedQuery(length, run_id, task, record)


def prompt_seed(config: CampaignConfig, query: PlannedQuery) -> int:
    """Stable per-query seed: distinct few-shot draws per run, reproducible
    across reruns."""
    material = "|".join(
        [
            str(config.rng_seed),
            str(query.length),
            str(query.run_id),
            query.task.value,
            str(query.record.sequence.base),
            ",".join(map(str, query.record.sequence.values)),
        ]
    )
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")


# ---------------------------------------------------------------------------
# results file handling


def _results_header(config: CampaignConfig) -> dict:
    return {
        "format": RESULTS_FORMAT,
        "version": RESULTS_VERSION,
        "config": config.experiment_json(),
        "config_digest": config.digest(),
        "datasets": {str(n): dataset_filename(n) for n in config.lengths},
    }


def read_header(path: str | Path) -> tuple[dict, CampaignConfig]:
    """The header of the results file at ``path`` and the config it holds;
    a :class:`CampaignError` unless it is the header that config writes."""
    path = Path(path)
    with path.open("rb") as fh:
        return _check_header(path, fh.readline())


def read_results(
    path: str | Path,
    datasets: dict[int, Dataset] | None = None,
    consume: Callable[[dict], Any] | None = None,
) -> tuple[dict, list[dict]]:
    """The header and the record lines of a results file.

    Line N must answer query N of the plan of the header's config over
    ``datasets`` (by default mined on the config's space and checked against
    the dataset files beside ``path``); see :func:`_record_lines`. A
    trailing line without its newline (an interrupted write) is dropped,
    even when it holds a whole record.

    Each line is handed to ``consume`` as soon as it is checked, in file
    order, and the whole read (``consume`` included) runs inside this call.
    By default ``consume`` collects the lines into the returned list; with
    one given, the list is empty and the caller keeps what it needs: the
    read itself holds one line at a time.

    The lines are read-only: they share their field-name strings, the
    lines of a record its ``sequence`` and ``continuations`` objects, those
    of a task its ``task`` text, and those that got the same answer to the
    same task on the same record its ``raw_response`` text and ``parsed``
    object (see :func:`_record_lines`). Nothing in ``ambigseq`` edits a line it has
    read.
    """
    path = Path(path)
    lines: list[dict] = []
    consume = consume or lines.append
    with path.open("rb") as fh:
        header, config = _check_header(path, fh.readline())
        if datasets is None:
            datasets = load_campaign_datasets(
                config.override(output_dir=str(path.parent)), config_space(config)
            )
        plan = plan_queries(config, datasets)
        for _, _, _, line in _record_lines(path, fh, plan, _RunLines()):
            consume(line)
        return header, lines


def _check_header(path: Path, first: bytes) -> tuple[dict, CampaignConfig]:
    """The header line ``first`` of the results file at ``path`` and its
    config, if it is the header that config writes."""
    if not first.endswith(b"\n"):
        raise CampaignError(f"{path}: empty results file (no complete header line)")
    try:
        text = first[:-1].decode()
        header = json.loads(text)
        written = canonical_json(header)
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, or nested too deep to decode or to write again
        raise CampaignError(f"{path}: unreadable header line ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != RESULTS_FORMAT:
        raise CampaignError(f"{path}: not a results file (header {text[:80]!r})")
    if header.get("version") != RESULTS_VERSION:
        raise CampaignError(
            f"{path}: results schema version {header.get('version')!r} "
            f"unsupported (expected {RESULTS_VERSION})"
        )
    missing = [k for k in ("config", "config_digest", "datasets") if k not in header]
    if missing:
        raise CampaignError(f"{path}: results header lacks {', '.join(missing)}")
    try:
        config = CampaignConfig.from_json(header["config"])
    except ConfigError as exc:
        raise CampaignError(f"{path}: results header config: {exc}") from exc
    if written != canonical_json(_results_header(config)):
        raise CampaignError(f"{path}: results header is not the one its config writes")
    return header, config


#: The fields of a record line, in the order a refusal names the first at
#: fault: the plan fields, which the line's query fixes (see
#: :func:`_plan_half`), the answer fields, which its ``raw_response`` scores
#: to, and what the backend captured.
_FIELDS = (
    "sequence", "task", "run_id", "length", "ambiguous", "continuations",
    "raw_response", "parsed", "valid", "correct", "top_logprobs", "judged", "note",
)
_PLAN_FIELDS = _FIELDS[:6]
_decode_at = json.JSONDecoder().raw_decode


def _free_value(t: str, at: int, stop: int, kind: type) -> Any:
    """The value of JSON text ``t[at:stop]``, decoded in place, if it is a
    ``kind`` and that text is what ``canonical_json`` writes for it; else
    None. A ``ValueError`` or ``RecursionError`` if it is not JSON."""
    value, end = _decode_at(t, at)
    if end == stop and type(value) is kind and canonical_json(value) == t[at:stop]:
        return value
    return None


def _record_lines(
    path: Path, fh: BinaryIO, plan: Iterator[PlannedQuery], run: _RunLines
) -> Iterator[tuple[int, int, PlannedQuery, dict]]:
    """The record lines of the results file at ``path``, read from ``fh``
    after its header line: (line number, end offset of the line, the query
    it answers, the line). An unterminated last line (a torn write) is not
    read. Each line read is added to ``run``, as the writer adds each line
    it writes.

    Line N passes when its text is what the writer writes for the query
    ``plan`` gives next (``canonical_json`` of :func:`_result_line`, then a
    newline), for some answer text, top logprobs and note. ``canonical_json``
    sorts the keys, so the line is, in this order::

        {"ambiguous":…,"continuations":…,"correct":…,"judged":…,"length":…,
         "note":…,"parsed":…,"raw_response":…,"run_id":…,"sequence":…,
         "task":…,"top_logprobs":…,"valid":…}

    The line is not decoded whole. Its ``raw_response`` text is found
    first, by the keys around it, as it picks the writer's text for the
    rest; then the line is compared with that text piece by piece, each
    piece starting where the one before it ends:

    - the plan fields, rendered once per record and once per (length, run);
    - ``judged``: null, or on a judgment line the pair its run's own
      completion and explanation lines give (:func:`_judged_pair` over
      ``run``); with no such pair, the line is the one the writer writes
      without asking the backend (:data:`NO_PAIR_ANSWER`);
    - ``correct``, ``parsed`` and ``valid``: what :func:`_answer_fields`
      scores the ``raw_response`` to, rendered once per (task,
      ``raw_response`` text, record);
    - the free values, ``note``, ``raw_response`` (at its first sight in
      the read) and ``top_logprobs``, each decoded in place and shown to be
      canonical by being encoded again. A ``top_logprobs`` list must be one
      :class:`TokenDistribution` takes, as the writer writes only those;
      the lines of one (length, run) with the same ``top_logprobs`` text
      share one list, and the lists are let go when the next run begins.

    Equal text implies equal JSON types, so no field needs a type test. The
    first line that fails is a :class:`CampaignError` naming ``path:N``, in
    the words of :func:`_line_problem`, which decodes it to name its fault.

    A line that passes is built from what the check looked up: its record's
    ``json_fields`` objects, which every line of the record shares, its
    task's one text, and the answer fields scored for the first line read
    with its task, record and ``raw_response`` text. So the lines share
    their field-name strings and those objects, and are read-only; a caller
    that edits one edits every line sharing it. Records and tasks are keyed
    by identity: hashing a record would hash every field, and hashing a
    Task, as reading its ``.value``, is a Python call."""
    end = fh.tell()
    encode = canonical_json
    from_pairs = TokenDistribution.from_pairs
    judgment = Task.CONSISTENCY_JUDGMENT
    # one copy of each scored piece, as many entries of answers hold the same
    texts: dict[str, str] = {}
    # by record: the text up to its "correct" value and its length, its
    # sequence's text, its ambiguity and its json_fields
    records: dict[int, tuple[str, int, str, bool, dict, list]] = {}
    # by (raw_response text, record, task): the record's entry, the text
    # from "task" to the top_logprobs value and the task's text, the text
    # from correct's value to judged's, from "parsed" to the raw_response
    # text and from "valid" on, and the answer fields
    answers: dict[tuple, tuple] = {}
    tops: dict[str, list] = {}  # this (length, run)'s top_logprobs, by text
    length = run_id = -1
    length_note = judged_null = run_text = ""

    def scored(t: str, at: int, stop: int, query: PlannedQuery) -> tuple | None:
        """The entry of ``answers`` for the raw_response text ``t[at:stop]``
        of ``query``'s line, if that text is canonical JSON text."""
        raw_response = _free_value(t, at, stop, str)
        if raw_response is None:
            return None
        record = query.record
        piece = records.get(id(record))
        if piece is None:
            sequence, continuations = record.json_fields
            head = (
                f'{{"ambiguous":{encode(record.is_ambiguous)},'
                f'"continuations":{encode(continuations)},"correct":'
            )
            piece = records[id(record)] = (
                head, len(head), encode(sequence), record.is_ambiguous, sequence, continuations
            )
        task = query.task.value
        answer = _answer_fields(query, raw_response)
        return (
            piece,
            texts.setdefault(task, f',"task":{encode(task)},"top_logprobs":'),
            task,
            *(texts.setdefault(text, text) for text in (
                f'{encode(answer["correct"])},"judged":',
                f',"parsed":{encode(answer["parsed"])},"raw_response":',
                f',"valid":{encode(answer["valid"])}}}\n',
            )),
            answer,
        )

    def checked(t: str, query: PlannedQuery) -> dict | None:
        """The line ``t`` (with its newline) built again, if it is the text
        the writer writes for ``query``; else None."""
        raw_at = t.find(',"raw_response":"') + 16
        stop = t.find(',"run_id":', raw_at)
        if raw_at == 15 or stop < 0:
            return None
        key = (t[raw_at:stop], id(query.record), id(query.task))
        entry = answers.get(key)
        if entry is None:
            entry = scored(t, raw_at, stop, query)
            if entry is None:
                return None
            answers[key] = entry
        (head, at, sequence_text, ambiguous, sequence, continuations), tail, task, \
            correct, parsed, last, answer = entry
        if not (t.startswith(head) and t.startswith(correct, at)):
            return None
        at += len(correct)
        judged = None
        if query.task is judgment:
            judged = _judged_field(_judged_pair(run, query), query.record.sequence.base)
            middle = encode(judged) + length_note
        else:
            middle = judged_null
        if not t.startswith(middle, at):
            return None
        at += len(middle)
        end_of_note = raw_at - len(parsed)
        if end_of_note < at or not t.startswith(parsed, end_of_note):
            return None
        note = None
        if t[at:end_of_note] != "null" and (note := _free_value(t, at, end_of_note, str)) is None:
            return None
        at = stop + len(run_text)
        if not (t.startswith(run_text, stop) and t.startswith(sequence_text, at)
                and t.startswith(tail, at := at + len(sequence_text)) and t.endswith(last)):
            return None
        at += len(tail)
        stop = len(t) - len(last)
        text = t[at:stop]
        if text == "null":
            top = None
        elif (top := tops.get(text)) is None:
            if (top := _free_value(t, at, stop, list)) is None:
                return None
            from_pairs(top)  # a ValueError unless the writer could write it
            tops[text] = top
        if judged is None and query.task is judgment and (
            (answer["raw_response"], top, note) != NO_PAIR_ANSWER
        ):
            return None
        return {
            "sequence": sequence, "task": task, "run_id": run_id, "length": length,
            "ambiguous": ambiguous, "continuations": continuations, **answer,
            "top_logprobs": top, "judged": judged, "note": note,
        }

    for n, raw in enumerate(fh, 2):
        if not raw.endswith(b"\n"):
            return  # a torn write
        query = next(plan, None)
        line = None
        if query is not None:
            if query.run_id != run_id or query.length != length:
                length, run_id, tops = query.length, query.run_id, {}
                length_note = f',"length":{length},"note":'
                judged_null = "null" + length_note
                run_text = f',"run_id":{run_id},"sequence":'
            try:
                line = checked(raw.decode(), query)
            except (ValueError, RecursionError):
                # not UTF-8, or a free value that is not JSON, too deep, or
                # not a top-logprob list
                pass
        if line is None:
            try:
                problem = _line_problem(raw, query, run)
            except RecursionError as exc:  # a value too deep to compare or to name
                problem = str(exc)
            raise CampaignError(f"{path}:{n}: malformed record line ({problem})")
        run.add(query, line)
        end += len(raw)
        yield n, end, query, line


def _line_problem(raw: bytes, query: PlannedQuery | None, run: _RunLines) -> str:
    """The words for the refusal of ``raw``, a results line with its
    newline, as the results line of ``query``, with ``run`` holding the
    lines before it (see :func:`_record_lines`). The line is decoded by
    ``json.loads``, whose words name a line that is not JSON. Else they
    name the first plan field that differs from the query's, or a value
    the writer could not write, or the first field whose canonical JSON
    differs from the line the writer writes for the line's own answer and
    capture; a line whose every field is right is not the text the writer
    writes (blanks, another key order or other escapes). They decide
    nothing."""
    try:
        line = json.loads(raw[:-1].decode())
    except UnicodeDecodeError:
        return "not UTF-8"
    except (ValueError, RecursionError) as exc:
        # not JSON, an integer of too many digits, or nested too deep
        return str(exc)
    if query is None:
        return "past the last planned query"
    if type(line) is not dict:
        return "not a JSON object"
    missing = [f for f in _FIELDS if f not in line]
    if missing:
        return f"no {missing[0]}"
    unknown = [f for f in line if f not in _FIELDS]
    if unknown:
        return f"unknown field {unknown[0]!r}"
    expected = _plan_half(query)
    field = _first_difference(line, expected, _PLAN_FIELDS)
    if field is not None:
        return (
            f"the plan puts {_query_text(expected)} here, not a line whose "
            f"{field} is {canonical_json(line[field])}"
        )
    return f"{_query_text(line)}: {_answer_problem(line, query, run)}"


def _answer_problem(line: dict, query: PlannedQuery, run: _RunLines) -> str:
    """What is wrong with ``line``, past its plan fields, as the results line
    of ``query`` (see :func:`_line_problem`)."""
    text, top, note = line["raw_response"], line["top_logprobs"], line["note"]
    if type(text) is not str:
        return "raw_response is not text"
    if not (note is None or type(note) is str):
        return "note is neither text nor null"
    if top is not None:
        try:
            top = TokenDistribution.from_pairs(top)
        except ValueError as exc:
            return f"malformed top_logprobs: {exc}"
    judged = None
    if query.task is Task.CONSISTENCY_JUDGMENT:
        judged = _judged_pair(run, query)
        if judged is None:
            text, top, note = NO_PAIR_ANSWER
    written = _result_line(query, text, top, judged, note)
    field = _first_difference(line, written, _FIELDS)
    if field is None:
        return "not the text ambigseq writes for these fields"
    if field == "judged":
        if query.task is not Task.CONSISTENCY_JUDGMENT:
            return "judged is not null, nor a judgment line's explanation and completion"
        where = "its run's completion and explanation lines give"
    elif field in ("raw_response", "top_logprobs", "note"):  # taken from NO_PAIR_ANSWER
        where = "a judgment with no parseable pair to judge has"
    else:
        where = "this version of ambigseq scores its raw_response"
    given, wanted = canonical_json(line[field]), canonical_json(written[field])
    return f"{field} is {given}, where {where} {wanted}"


def _first_difference(line: dict, written: dict, fields: tuple[str, ...]) -> str | None:
    """The first of ``fields`` whose canonical JSON differs in the two lines."""
    return next(
        (f for f in fields if canonical_json(line[f]) != canonical_json(written[f])), None
    )


def _query_text(line: dict) -> str:
    """The query a record line answers, as an error names it."""
    return (
        f"the {line['task']} line of run {line['run_id']} for sequence "
        f"{list(line['sequence']['values'])} at length {line['length']}"
    )


# ---------------------------------------------------------------------------
# the run loop


@dataclass(frozen=True)
class CampaignOutcome:
    results_file: Path
    queried: int
    skipped: int
    failed: bool = False
    error: str | None = None


class _Audit:
    def __init__(self, path: Path):
        self._path = path

    def log(self, message: str) -> None:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        with self._path.open("a") as fh:
            fh.write(f"{stamp} {message}\n")


def run_campaign(
    config: CampaignConfig, backend: Backend | None = None
) -> CampaignOutcome:
    """Execute (or resume) the configured campaign.

    A backend failure mid-run leaves everything recorded so far on disk and
    returns a failed outcome rather than raising. Any other exception, an
    interrupt included, leaves the same and is raised again. Either way
    ``audit.log`` gets an ``abort`` line naming the error. The results file
    is locked from before it is read until the run ends (see
    :func:`_claim`): a second writer is a :class:`CampaignError`.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    space = config_space(config)
    datasets = load_campaign_datasets(config, space)
    if backend is None:
        backend = make_backend(config, space)
    audit = _Audit(out_dir / AUDIT_FILENAME)

    path = results_path(out_dir)
    header_line = canonical_json(_results_header(config)) + "\n"
    plan = plan_queries(config, datasets)
    run = _RunLines()
    with _claim(path) as fh:
        size, skipped, fallback = _resume_point(path, config, header_line, plan, run)
        if size:
            audit.log(f"resume campaign={config.digest()} existing_records={skipped}")
        else:
            audit.log(f"start campaign={config.digest()} backend={backend.backend_id}")

        queried = 0
        # the queries whose line is not yet committed, in plan order: [query,
        # judged pair, answer], the answer None while the query is held
        pending: deque[list] = deque()
        # the held entries of pending, in plan order: judgments whose pair is
        # not yet committed, which are not sent until it is
        held: deque[list] = deque()
        # capture stays off across a resume once a line on file has recorded the
        # fallback, as it does in an uninterrupted run
        dispatch = _Dispatch(config.workers, config.want_top_logprobs > 0 and not fallback)

        def send(query: PlannedQuery) -> list:
            return [*_execute_query(config, query, backend, space, run, dispatch.ask)]

        def release() -> None:
            # held judgments are sent as their pairs commit, which is in plan order
            while held and None not in run.pair(held[0][0]):
                entry = held.popleft()
                entry[:] = send(entry[0])

        def commit(fh: TextIO) -> None:
            nonlocal queried
            query, judged, answer = pending.popleft()
            text, top, note = answer()
            line = _result_line(query, text, top, judged, note)
            run.add(query, line)
            _append_line(fh, line)
            queried += 1
            release()

        try:
            # drop any torn tail so appends start on a line boundary
            fh.truncate(size)
            if not size:
                fh.write(header_line)
                fh.flush()
            # the plan past the queries the file answers
            for query in plan:
                if query.task is Task.CONSISTENCY_JUDGMENT and None in run.pair(query):
                    held.append([query, None, None])
                    pending.append(held[-1])
                else:
                    pending.append(send(query))
                while len(pending) > dispatch.window:
                    commit(fh)
            while pending:
                commit(fh)
        except BaseException as exc:
            # a backend failure ends the run with a failed outcome; anything
            # else, an interrupt included, is raised again once it is logged
            failed = isinstance(exc, BackendError)
            audit.log(
                f"abort campaign={config.digest()} after {queried} queries: "
                f"{exc if failed else repr(exc)}"
            )
            if not failed:
                raise
            return CampaignOutcome(path, queried, skipped, failed=True, error=str(exc))
        finally:
            dispatch.close()

    audit.log(
        f"finish campaign={config.digest()} queried={queried} skipped={skipped}"
    )
    return CampaignOutcome(path, queried, skipped)


def _claim(path: Path) -> TextIO:
    """``path`` opened for appending and locked until it is closed; a
    :class:`CampaignError` while another open of it holds the lock. Without
    ``fcntl`` (not POSIX) nothing is locked."""
    fh = path.open("a")
    if fcntl is not None:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.close()
            raise CampaignError(f"{path} is being written by another run") from None
    return fh


def _resume_point(
    path: Path,
    config: CampaignConfig,
    header_line: str,
    plan: Iterator[PlannedQuery],
    run: _RunLines,
) -> tuple[int, int, bool]:
    """Where ``config``'s campaign resumes the results file at ``path``: the
    byte length of its complete lines (0 to start afresh), its record lines,
    and whether one records the logprob fallback. The lines are read each
    against the next query of ``plan``, and added to ``run``; ``plan`` is
    left at the first query they do not answer. The file of another
    campaign is a :class:`CampaignError`."""
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        return 0, 0, False
    with fh:
        first = fh.readline()
        if not first.endswith(b"\n"):
            if header_line.encode().startswith(first):
                # empty, or cut inside this campaign's own header line
                return 0, 0, False
            raise CampaignError(
                f"{path} has no complete line and is not this campaign's header "
                "cut short — use a fresh output directory"
            )
        header, _ = _check_header(path, first)
        if header["config_digest"] != config.digest():
            raise CampaignError(
                f"{path} belongs to campaign {header['config_digest']}, "
                f"this config is {config.digest()} — use a fresh output directory"
            )
        size, count, fallback = len(first), 0, False
        for n, size, query, line in _record_lines(path, fh, plan, run):
            fallback = fallback or line["note"] == LOGPROBS_UNAVAILABLE_NOTE
            count = n - 1
        return size, count, fallback


class _RunLines:
    """The completion and explanation lines of one run of the plan's
    ambiguous records, by sequence values: what the run's judgments read
    (:func:`_task_targets` gives judgments only ambiguous records). Lines
    are added in plan order; a line of an unambiguous record is not kept,
    and the first line of the next run drops those kept."""

    def __init__(self) -> None:
        self.run: tuple[int, int] | None = None
        self.completions: dict[tuple, dict] = {}
        self.explanations: dict[tuple, dict] = {}

    def add(self, query: PlannedQuery, line: dict) -> None:
        """Add ``line``, the answer to ``query``."""
        if (query.length, query.run_id) != self.run:
            self.run, self.completions, self.explanations = (query.length, query.run_id), {}, {}
        task = query.task
        if task is Task.COMPLETION:
            kept = self.completions
        elif task is Task.EXPLANATION:
            kept = self.explanations
        else:
            return
        if query.record.is_ambiguous:
            kept[query.record.sequence.values] = line

    def pair(self, query: PlannedQuery) -> tuple[dict | None, dict | None]:
        """The completion and the explanation lines that ``query``, a
        judgment, judges: its run's answers for its sequence, or None while
        not added."""
        if (query.length, query.run_id) != self.run:
            return None, None
        values = query.record.sequence.values
        return self.completions.get(values), self.explanations.get(values)


class _Dispatch:
    """Where the backend calls of :func:`_ask` run, and the one record of
    whether top logprobs are still asked for (``capture``). With one worker
    a call is made inline when its answer is read; with more, on a pool of
    that many threads, and the run loop keeps at most ``window`` queries
    dispatched ahead of the oldest uncommitted line.

    While capture is on, a request that asks for top logprobs goes through
    :meth:`_sequenced`, the one place that turns capture off: at the first
    answer with the logprob fallback's note. Every other request asks for
    none. With more than one worker such requests go to the lane: one
    thread that sends them one at a time, in the order given, each once the
    one before it is answered; a lane request sent after capture is off
    goes to the pool asking for none. While capture is on, the pool's calls
    leave one worker to the lane, so at most ``workers`` calls are in
    flight at any moment and a lane request never waits behind the others."""

    def __init__(self, workers: int, capture: bool):
        self._pool = self._lane = None
        self.window = 0
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(workers, "ambigseq-backend")
            # wide enough that the lane starts on the next (length, run)
            # block's completions before this block's tail is answered
            self.window = 16 * workers
            self._slots = threading.Semaphore(workers - 1 if capture else workers)
            if capture:
                self._lane = ThreadPoolExecutor(1, "ambigseq-backend-lane")
        self.capture = capture

    def ask(self, backend: Backend, prompt: RenderedPrompt, want: int) -> Callable[[], Any]:
        """A no-argument callable that returns ``_ask(backend, prompt,
        want)`` or raises what it raised, with ``want`` 0 once capture is
        off; by way of :meth:`_sequenced` while ``want`` asks for top
        logprobs and capture is on."""
        if want and self.capture:
            if self._lane is None:
                return lambda: self._sequenced(backend, prompt, want)()
            sequenced = self._lane.submit(self._sequenced, backend, prompt, want)
            return lambda: sequenced.result()()
        if self._pool is None:
            return partial(_ask, backend, prompt, 0)
        return self._pool.submit(self._slotted, backend, prompt).result

    def _slotted(self, backend: Backend, prompt: RenderedPrompt) -> Any:
        with self._slots:
            return _ask(backend, prompt, 0)

    def _sequenced(self, backend: Backend, prompt: RenderedPrompt, want: int) -> Callable[[], Any]:
        """On the lane's thread, or inline at one worker: the request sent
        while capture is on, else sent as asking for none; a no-argument
        callable for its answer."""
        if not self.capture:
            return self.ask(backend, prompt, 0)
        answer = _ask(backend, prompt, want)
        if answer[2] == LOGPROBS_UNAVAILABLE_NOTE:
            self.capture = False
            if self._lane is not None:
                self._slots.release()  # the pool may use the lane's worker now
        return lambda: answer

    def close(self) -> None:
        for executor in (self._lane, self._pool):
            if executor is not None:
                executor.shutdown(cancel_futures=True)


def _append_line(fh: TextIO, line: dict) -> None:
    fh.write(canonical_json(line) + "\n")
    fh.flush()


#: :func:`~ambigseq.funcspace.parse` memoized per text: each judgment line
#: of a run reads its pair's explanation again, as written and as read.
_explanation_function = lru_cache(maxsize=1024)(parse)


def _judged_pair(run: _RunLines, query: PlannedQuery) -> JudgedPair | None:
    """The model's own (explanation function, completion value) for this
    run+sequence, if both parsed: what the judgment ``query`` judges, for
    the writer and for the reader (see :func:`_record_lines`). The
    explanation line's function text is the one the writer wrote, checked
    by the reader, so it parses."""
    compl, expl = run.pair(query)
    if not (compl and expl and compl["valid"] and expl["valid"]):
        return None
    return _explanation_function(expl["parsed"]["value"]), compl["parsed"]["value"]


def _judged_field(judged: JudgedPair | None, base: int) -> dict | None:
    """The ``judged`` field of a results line: null, or the judged pair's
    function, written in ``base``, and completion."""
    return judged and {
        "explanation": render_function(judged[0], base),
        "completion": judged[1],
    }


def _execute_query(
    config: CampaignConfig,
    query: PlannedQuery,
    backend: Backend,
    space: FunctionSpace,
    run: _RunLines,
    ask: Callable,
) -> tuple[PlannedQuery, JudgedPair | None, Callable]:
    """Build the query's prompt and hand its backend call to ``ask``, which
    takes :func:`_ask`'s arguments.

    Returns the query's pending line: (query, judged pair, answer), where
    ``answer()`` gives the (text, top logprobs, note) to build it from.
    """
    judged = None
    if query.task is Task.CONSISTENCY_JUDGMENT:
        judged = _judged_pair(run, query)
        if judged is None:
            # nothing coherent to judge; the empty answer files as invalid
            return query, None, lambda: NO_PAIR_ANSWER

    spec = PromptSpec(
        task=query.task,
        variant=config.variant_enum,
        base=config.base,
        n_shots=config.n_shots,
        shot_sampling=config.shot_sampling_enum,
        rng_seed=prompt_seed(config, query),
        role_text=config.role_text,
        model_name=config.model_name,
    )
    prompt = build_prompt(spec, query.record.sequence, space, judged)
    want = config.want_top_logprobs if query.task is Task.COMPLETION else 0
    return query, judged, ask(backend, prompt, want)


def _ask(
    backend: Backend, prompt: RenderedPrompt, want_logprobs: int
) -> tuple[str, TokenDistribution | None, str | None]:
    """The backend's (text, top logprobs, note) for ``prompt``, in one
    request; the only step of a query that runs on a worker thread. The note
    is the logprob fallback's when the request asked for top logprobs and
    the answer carries none."""
    response = backend.complete(CompletionRequest(prompt, want_logprobs))
    top = response.first_token_top_logprobs
    note = LOGPROBS_UNAVAILABLE_NOTE if want_logprobs and top is None else None
    return response.text, top, note


def _result_line(
    query: PlannedQuery,
    text: str,
    top: TokenDistribution | None,
    judged: JudgedPair | None,
    note: str | None,
) -> dict:
    """The one builder of a result line: the query's plan fields (see
    :func:`_plan_half`), the answer ``text`` parsed and scored against the
    query's record, and whatever the backend captured."""
    return {
        **_plan_half(query),
        **_answer_fields(query, text),
        "top_logprobs": top.to_pairs() if top else None,
        "judged": _judged_field(judged, query.record.sequence.base),
        "note": note,
    }


def _plan_half(query: PlannedQuery) -> dict:
    """The fields of ``query``'s results line that the query fixes:
    sequence, task, run id, length, ambiguity and ascending continuations.
    The sequence and the continuations are the record's
    :attr:`~ambigseq.mining.AmbiguityRecord.json_fields`, which every line
    of the record holds, written or read."""
    record = query.record
    sequence, continuations = record.json_fields
    return {
        "sequence": sequence, "task": query.task.value, "run_id": query.run_id,
        "length": query.length, "ambiguous": record.is_ambiguous,
        "continuations": continuations,
    }


def _answer_fields(query: PlannedQuery, text: str) -> dict:
    """The answer half of ``query``'s results line for the answer ``text``:
    the text, parsed and scored against the query's record. The writer
    builds each line's from it, and the reader checks each line's by it."""
    # looked up on the module at each call, so a rebinding of it is seen
    from .evaluation import eval_record_to_json

    record = query.record
    base = record.sequence.base
    return eval_record_to_json(
        annotate_correctness(build_eval_record(query.task, text, base), record)
    )
