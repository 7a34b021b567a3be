"""Provider-agnostic gateway for file-grounded prompting.

A document is uploaded once and referenced by identifier across many
prompts.  Two backends: a live HTTPS provider (configured, never required
for tests) and a deterministic scripted backend that replays canned
responses keyed by (file content hash, question).  Every request/response
pair is kept in a transcript log so extracted values can be audited
against raw model output.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

from .config import default
from .edgar import CachedDocument, SystemClock, send, with_retries
from .errors import (BatchError, NetworkError, NotFoundError, ProviderError, ScriptMissError, SchemaError,
                     UploadError, ValidationError)
from .values import collapse_ws, load

SCRIPTED = "scripted"
LIVE = "live"


@dataclass(frozen=True)
class FileHandle:
    provider_file_id: str
    content_hash: str


@dataclass(frozen=True)
class PromptRequest:
    file: FileHandle
    question: str
    request_id: str
    system_preamble: str = ""
    format_rules: str = ""

    def __post_init__(self):
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        if not self.request_id:
            raise ValueError("request_id must be non-empty")


@dataclass(frozen=True)
class Completion:
    request_id: str
    text: str  # raw model output, unmodified
    backend: str  # "live" | "scripted"
    latency_ms: int


@dataclass(frozen=True)
class ScriptEntry:
    file_hash: str
    question: str
    response: str


class ScriptStore:
    """Read-only map (file_hash, normalized question) -> scripted response.

    Question matching is exact after collapsing internal whitespace, so
    template re-rendering cannot silently change which entry is hit.
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], str] = {}

    @classmethod
    def from_entries(cls, entries: list[dict]) -> "ScriptStore":
        """A store of ``{"file_hash", "question", "response"}`` dicts."""
        store = cls()
        for entry in entries:
            store.add(entry["file_hash"], entry["question"], entry["response"])
        return store

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptStore":
        store = cls()
        try:
            lines = Path(path).read_text(encoding="utf-8").split("\n")  # the lines a file iterates
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: {exc}") from None
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = load(ScriptEntry, json.loads(line))
            except (SchemaError, ValueError) as exc:  # ValueError: bad JSON
                raise SchemaError(f"{path}:{line_no}: {exc}") from exc
            store.add(entry.file_hash, entry.question, entry.response)
        return store

    def add(self, file_hash: str, question: str, response: str) -> None:
        key = (file_hash, collapse_ws(question))
        existing = self._entries.get(key)
        if existing is not None and existing != response:
            raise SchemaError(
                f"conflicting script entries for file {file_hash[:12]} "
                f"question {question!r}"
            )
        self._entries[key] = response

    def lookup(self, file_hash: str, question: str) -> str:
        key = (file_hash, collapse_ws(question))
        if key not in self._entries:
            raise ScriptMissError(file_hash=file_hash, question=question)
        return self._entries[key]

    def entries(self) -> list[ScriptEntry]:
        return [
            ScriptEntry(file_hash=h, question=q, response=r)
            for (h, q), r in sorted(self._entries.items())
        ]

    def __len__(self) -> int:
        return len(self._entries)


class ScriptedBackend:
    """Deterministic backend: a pure function of (file_hash, question).

    `delay_fn`, when given, injects an artificial per-question sleep; used
    by tests to verify order preservation under out-of-order completion.
    """

    def __init__(self, store: ScriptStore, delay_fn=None):
        self.store = store
        self._delay_fn = delay_fn

    def upload(self, content_hash: str, data: bytes, display_name: str) -> FileHandle:
        return FileHandle(
            provider_file_id="scripted:" + content_hash[:12],
            content_hash=content_hash,
        )

    def ask(self, request: PromptRequest) -> Completion:
        if self._delay_fn is not None:
            delay = self._delay_fn(request.question)
            if delay:
                time.sleep(delay)
        text = self.store.lookup(request.file.content_hash, request.question)
        return Completion(
            request_id=request.request_id,
            text=text,
            backend=SCRIPTED,
            latency_ms=0,
        )


class LiveBackend:
    """HTTPS JSON provider client. Exact wire schema is isolated here."""

    max_attempts = 3

    def __init__(self, api_base: str, model: str, api_key: str = "", timeout: float = 60.0, session=None,
                 clock=None):
        if not api_base:
            raise ProviderError("llm.api_base is not configured")
        import requests

        self.api_base = api_base.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.session = session or requests.Session()
        self._clock = clock or SystemClock()
        if api_key:
            self.session.headers["Authorization"] = f"Bearer {api_key}"

    def upload(self, content_hash: str, data: bytes, display_name: str) -> FileHandle:
        response = self._post(
            "/files",
            files={"file": (display_name, data)},
            data={"purpose": "grounding"},
        )
        try:
            file_id = response["id"]
        except (TypeError, KeyError) as exc:
            raise UploadError(f"provider returned no file id: {response!r}") from exc
        return FileHandle(
            provider_file_id=file_id,
            content_hash=content_hash,
        )

    def ask(self, request: PromptRequest) -> Completion:
        started = self._clock.monotonic()
        payload = {
            "model": self.model,
            "file_id": request.file.provider_file_id,
            "system": request.system_preamble,
            "question": request.question,
            "format_rules": request.format_rules,
        }
        response = self._post("/completions", json=payload)
        try:
            text = response["text"]
        except (TypeError, KeyError) as exc:
            raise ProviderError(f"provider returned no completion text: {response!r}") from exc
        latency_ms = int((self._clock.monotonic() - started) * 1000)
        return Completion(
            request_id=request.request_id,
            text=text,
            backend=LIVE,
            latency_ms=latency_ms,
        )

    def _post(self, route: str, **kwargs):
        """POST with up to ``max_attempts`` tries, backing off from 1 s or for ``Retry-After``."""
        post = partial(self.session.post, self.api_base + route, timeout=self.timeout, **kwargs)
        try:
            return with_retries(partial(send, post), self.max_attempts, 1.0, self._clock).json()
        except (NetworkError, NotFoundError) as exc:
            raise ProviderError(f"provider error: {exc}") from exc


@dataclass
class TranscriptRecord:
    request_id: str
    file_hash: str
    question: str
    response: str
    backend: str
    latency_ms: int


class Gateway:
    """Upload-once, file-grounded prompting with a transcript log.

    ``max_in_flight`` is one budget for the whole gateway: at most that
    many prompts are with the backend at once. Queued prompts are sent by
    at most that many workers, in two classes, each first come, first
    served: a waiting critical request gets the next free slot before any
    waiting ``filler`` request. A worker settles each future with the
    gateway paused, so the continuations that run on it queue their
    follow-ups before any worker takes another prompt.

    The gateway never numbers requests; callers give each one an id, and
    reusing an id is an error.
    """

    def __init__(self, backend, max_in_flight: int = default("llm.max_in_flight")):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.backend = backend
        self.max_in_flight = max_in_flight
        self.transcript: list[TranscriptRecord] = []
        self._handles: dict[str, FileHandle] = {}
        self._upload_guards: dict[str, threading.Lock] = {}  # one per content hash
        self._guards_lock = threading.Lock()
        self._seen_request_ids: set[str] = set()
        self._lock = threading.RLock()  # re-entered by continuations that queue prompts
        self._slots = threading.BoundedSemaphore(max_in_flight)
        # (filler, arrival, request, future); a heap serves critical first.
        self._queue: list[tuple[bool, int, PromptRequest, Future]] = []
        self._arrivals = itertools.count()
        self._workers = 0
        self._in_flight = 0  # prompts a worker took and has not settled yet
        self._wake = threading.Condition(self._lock)

    @classmethod
    def from_config(cls, config) -> "Gateway":
        if config.get("llm.backend") == LIVE:
            backend = LiveBackend(config.get("llm.api_base"), config.get("llm.model"),
                                  config.get("llm.api_key"))
        else:
            script_path = config.get("llm.script_path")
            if not script_path:
                raise SchemaError("scripted backend requires llm.script_path")
            backend = ScriptedBackend(ScriptStore.from_jsonl(script_path))
        return cls(backend, max_in_flight=config.get_int("llm.max_in_flight"))

    # -- uploads ------------------------------------------------------------

    def upload(self, doc: CachedDocument) -> FileHandle:
        data = doc.read_bytes()
        if not data:
            raise UploadError("refusing to upload empty document")
        return self.upload_bytes(data, content_hash=doc.content_hash,
                                 display_name=doc.ref.primary_document or "document")

    def upload_bytes(self, data: bytes, content_hash: str, display_name: str = "document") -> FileHandle:
        """Upload a document once per content hash, outside the pause, so prompts
        go on meanwhile; a failed upload is not kept, and the next caller tries again."""
        with self._guards_lock:
            guard = self._upload_guards.setdefault(content_hash, threading.Lock())
        with guard:
            if content_hash not in self._handles:
                self._handles[content_hash] = self.backend.upload(content_hash, data, display_name)
            return self._handles[content_hash]

    # -- prompting ----------------------------------------------------------

    def ask(self, request: PromptRequest) -> Completion:
        """Send one prompt now, waiting for a free slot of the budget."""
        with self._lock:
            if request.request_id in self._seen_request_ids:
                raise ValueError(f"duplicate request_id {request.request_id!r}")
            self._seen_request_ids.add(request.request_id)
        with self._slots:
            completion = self.backend.ask(request)
        self._log(request, completion)
        return completion

    def submit(self, request: PromptRequest, filler: bool = False) -> Future:
        """Queue one prompt; the future holds its Completion or its error.

        With ``filler=True`` the prompt starts only when no critical one is
        queued; the caller decides which of its prompts are filler.
        """
        future: Future = Future()
        with self._lock:
            heapq.heappush(self._queue, (filler, next(self._arrivals), request, future))
            self._wake.notify()
            idle = self._workers - self._in_flight  # workers that will take a queued prompt
            if idle < len(self._queue) and self._workers < self.max_in_flight:
                threading.Thread(target=self._work, name="gateway-worker", daemon=True).start()
                self._workers += 1
        return future

    def _work(self) -> None:
        # A worker stays while a prompt is in flight, whose continuation may queue more,
        # and leaves once nothing is queued or in flight: an idle gateway holds no thread.
        while True:
            with self._lock:
                while not self._queue and self._in_flight:
                    self._wake.wait()
                if not self._queue:
                    self._workers -= 1
                    self._wake.notify_all()  # so the waiting workers leave too
                    return
                _, _, request, future = heapq.heappop(self._queue)
                if not future.set_running_or_notify_cancel():
                    continue
                self._in_flight += 1
            try:
                settle = partial(future.set_result, self.ask(request))
            except Exception as exc:  # noqa: BLE001 - handed to the future's reader
                settle = partial(future.set_exception, exc)
            with self.paused():
                settle()
                self._in_flight -= 1

    def paused(self):
        """A context in which no worker takes a prompt, so a continuation attached inside it
        to a prompt queued inside it runs on the worker that settles that prompt. Code
        that holds it must never wait on a future: no worker could settle one."""
        return self._lock

    def ask_many(self, requests: list[PromptRequest]) -> list[Completion]:
        """Run requests concurrently; results come back in input order.

        Per-request failures are aggregated into a BatchError carrying the
        completions that did succeed, so one bad request never aborts its
        siblings.
        """
        futures = [self.submit(request) for request in requests]
        completions: dict[int, Completion] = {}
        errors: dict[int, Exception] = {}
        for index, future in enumerate(futures):
            try:
                completions[index] = future.result()
            except Exception as exc:  # noqa: BLE001 - aggregated below
                errors[index] = exc
        if errors:
            raise BatchError(completions=completions, errors=errors)
        return [completions[i] for i in range(len(requests))]

    # -- transcript -----------------------------------------------------------

    def _log(self, request: PromptRequest, completion: Completion) -> None:
        record = TranscriptRecord(
            request_id=request.request_id,
            file_hash=request.file.content_hash,
            question=request.question,
            response=completion.text,
            backend=completion.backend,
            latency_ms=completion.latency_ms,
        )
        with self._lock:
            self.transcript.append(record)

    def transcript_jsonl(self) -> str:
        """The full transcript, one JSON line per record, sorted by request_id so that
        the text does not depend on completion order and scripted runs stay byte-identical."""
        with self._lock:
            records = sorted(self.transcript, key=lambda r: r.request_id)
        return "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in records)


# -- checked asks ---------------------------------------------------------------


def then(futures: list[Future], fn) -> Future:
    """The future of ``fn(*futures)``, called once every one of ``futures`` is done.

    ``fn`` runs on the thread that settles the last of them (at once, if all
    are done already); a worker runs it holding ``Gateway.paused()``, so it
    must never wait on a future. An exception it raises settles the result;
    a Future it returns is followed.
    """
    result: Future = Future()
    waiting = list(futures)  # emptied once fn is called, so no future keeps the others alive
    arrivals, last = itertools.count(1), len(waiting) + 1  # next() is atomic: no lock needed

    def arrive(_=None) -> None:
        if next(arrivals) == last:  # the last one, counting the call below
            done, waiting[:] = waiting[:], []
            _settle(result, partial(fn, *done))

    for future in waiting:
        future.add_done_callback(arrive)
    arrive()
    return result


def _settle(result: Future, get) -> None:
    """Settle ``result`` with what ``get()`` returns or raises; follow a returned Future."""
    try:
        value = get()
        if isinstance(value, Future):
            value.add_done_callback(lambda done: _settle(result, done.result))
        else:
            result.set_result(value)
    except Exception as exc:  # noqa: BLE001 - handed to the result's reader
        result.set_exception(exc)


@dataclass
class Answer:
    """One item's outcome from ``ask_checked``: ``value`` when ``error`` is None.

    ``text`` is the last answer received and ``ids`` the request ids asked.
    ``invalid`` is set when the answer kept failing its check: to the retry's
    ValidationError, or the first one when the retry has no script entry.
    """

    ids: list[str]
    text: str = ""
    value: object = None
    error: Exception | None = None
    invalid: ValidationError | None = None


def ask_checked(gateway: Gateway, items: list, filler: bool = False) -> Future:
    """Queue every ``(request, validator, reminder)`` item at once; the future of
    their Answers, in order, which settles with the last of them.

    Each answer is checked on the worker that receives it, and one the
    validator rejects is asked once more at once, as "<question> <reminder>"
    with id "<id>-r", in the same ``filler`` class. A script miss on a first
    ask is a fixture bug, never data: the future raises the earliest one.
    """
    def collect(*asked: Future) -> list[Answer]:
        answers = [future.result() for future in asked]
        for answer in answers:
            if isinstance(answer.error, ScriptMissError) and answer.invalid is None:
                raise answer.error
        return answers

    with gateway.paused():  # every item is queued, and its check attached, before any starts
        return then([then([gateway.submit(item[0], filler)],
                          partial(_check, gateway, filler, item, Answer([item[0].request_id]), None))
                     for item in items], collect)


def _check(gateway: Gateway, filler: bool, item: tuple, answer: Answer,
           first_invalid: ValidationError | None, done: Future) -> Answer | Future:
    """``answer`` completed from ``done``, the settled ask of ``item``; or the future of its retry."""
    request, validator, reminder = item
    try:
        answer.text = done.result().text
        answer.value = validator(answer.text)
    except ValidationError as exc:
        if first_invalid is not None:
            answer.error = answer.invalid = exc
            return answer
        retry = replace(request, question=f"{request.question} {reminder}",
                        request_id=f"{request.request_id}-r")
        answer.ids.append(retry.request_id)
        return then([gateway.submit(retry, filler)],
                    partial(_check, gateway, filler, (retry, validator, reminder), answer, exc))
    except Exception as exc:  # noqa: BLE001 - the caller raises or degrades it
        answer.error = exc
        if isinstance(exc, ScriptMissError):
            answer.invalid = first_invalid
    return answer
