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
from dataclasses import asdict, dataclass
from pathlib import Path

from .edgar import CachedDocument
from .errors import BatchError, ProviderError, ScriptMissError, SchemaError, UploadError
from .values import write_atomic

SCRIPTED = "scripted"
LIVE = "live"


@dataclass(frozen=True)
class FileHandle:
    provider_file_id: str
    content_hash: str
    uploaded_at: str = ""  # empty for the scripted backend (deterministic runs)


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


def _normalize_question(question: str) -> str:
    return " ".join(question.split())


class ScriptStore:
    """Read-only map (file_hash, normalized question) -> scripted response.

    Question matching is exact after collapsing internal whitespace, so
    template re-rendering cannot silently change which entry is hit.
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], str] = {}

    @classmethod
    def from_entries(cls, entries) -> "ScriptStore":
        store = cls()
        for entry in entries:
            if isinstance(entry, ScriptEntry):
                store.add(entry.file_hash, entry.question, entry.response)
            else:
                store.add(entry["file_hash"], entry["question"], entry["response"])
        return store

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptStore":
        store = cls()
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
                for key in ("file_hash", "question", "response"):
                    if key not in record:
                        raise SchemaError(f"{path}:{line_no}: missing field {key!r}")
                store.add(record["file_hash"], record["question"], record["response"])
        return store

    def add(self, file_hash: str, question: str, response: str) -> None:
        key = (file_hash, _normalize_question(question))
        existing = self._entries.get(key)
        if existing is not None and existing != response:
            raise SchemaError(
                f"conflicting script entries for file {file_hash[:12]} "
                f"question {question!r}"
            )
        self._entries[key] = response

    def lookup(self, file_hash: str, question: str) -> str:
        key = (file_hash, _normalize_question(question))
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

    name = SCRIPTED

    def __init__(self, store: ScriptStore, delay_fn=None):
        self.store = store
        self._delay_fn = delay_fn

    def upload(self, content_hash: str, data: bytes, display_name: str) -> FileHandle:
        return FileHandle(
            provider_file_id="scripted:" + content_hash[:12],
            content_hash=content_hash,
            uploaded_at="",
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

    name = LIVE
    max_attempts = 3

    def __init__(self, api_base: str, model: str, api_key: str = "", timeout: float = 60.0, session=None):
        if not api_base:
            raise ProviderError("llm.api_base is not configured")
        import requests

        self.api_base = api_base.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.session = session or requests.Session()
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
            uploaded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        )

    def ask(self, request: PromptRequest) -> Completion:
        started = time.monotonic()
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
        latency_ms = int((time.monotonic() - started) * 1000)
        return Completion(
            request_id=request.request_id,
            text=text,
            backend=LIVE,
            latency_ms=latency_ms,
        )

    def _post(self, route: str, **kwargs):
        import requests

        delay = 1.0
        for attempt in range(self.max_attempts):
            try:
                resp = self.session.post(self.api_base + route, timeout=self.timeout, **kwargs)
            except requests.RequestException as exc:
                if attempt + 1 == self.max_attempts:
                    raise ProviderError(f"provider request failed: {exc}") from exc
            else:
                if resp.status_code < 400:
                    return resp.json()
                if resp.status_code not in (429, 500, 502, 503, 504) or attempt + 1 == self.max_attempts:
                    raise ProviderError(f"provider error HTTP {resp.status_code}: {resp.text[:200]}")
            time.sleep(delay)
            delay *= 2
        raise ProviderError("provider retries exhausted")


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

    ``max_in_flight`` is one budget for the whole gateway: however many
    threads call ask(), submit() or ask_many() at once, no more than that
    many prompts are with the backend. Queued prompts start in two classes,
    each first come, first served: a waiting critical-path request gets the
    next free slot before any waiting ``filler`` request.

    The gateway never numbers requests; callers give each one an id, and
    reusing an id is an error.
    """

    def __init__(self, backend, max_in_flight: int = 8):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.backend = backend
        self.max_in_flight = max_in_flight
        self.transcript: list[TranscriptRecord] = []
        self._handles: dict[str, FileHandle] = {}
        self._seen_request_ids: set[str] = set()
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(max_in_flight)
        # (filler, arrival, request, future); a heap serves critical first.
        self._queue: list[tuple[bool, int, PromptRequest, Future]] = []
        self._arrivals = itertools.count()
        self._workers = 0

    @classmethod
    def from_config(cls, config, script_store: ScriptStore | None = None) -> "Gateway":
        backend_name = config.get("llm.backend")
        max_in_flight = config.get_int("llm.max_in_flight")
        if backend_name == SCRIPTED:
            if script_store is None:
                script_path = config.get("llm.script_path")
                if not script_path:
                    raise SchemaError("scripted backend requires llm.script_path")
                script_store = ScriptStore.from_jsonl(script_path)
            backend = ScriptedBackend(script_store)
        elif backend_name == LIVE:
            backend = LiveBackend(
                api_base=config.get("llm.api_base"),
                model=config.get("llm.model"),
                api_key=config.get("llm.api_key"),
            )
        else:
            raise SchemaError(f"unknown llm.backend {backend_name!r}")
        return cls(backend, max_in_flight=max_in_flight)

    # -- uploads ------------------------------------------------------------

    def upload(self, doc: CachedDocument) -> FileHandle:
        data = doc.read_bytes()
        if not data:
            raise UploadError("refusing to upload empty document")
        return self.upload_bytes(data, content_hash=doc.content_hash,
                                 display_name=doc.ref.primary_document or "document")

    def upload_bytes(self, data: bytes, content_hash: str, display_name: str = "document") -> FileHandle:
        with self._lock:
            handle = self._handles.get(content_hash)
            if handle is not None:
                return handle
            handle = self.backend.upload(content_hash, data, display_name)
            self._handles[content_hash] = handle
            return handle

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
        """Queue one prompt; the future holds its Completion or its error."""
        future: Future = Future()
        with self._lock:
            heapq.heappush(self._queue, (filler, next(self._arrivals), request, future))
            if self._workers < self.max_in_flight:
                threading.Thread(target=self._work, name="gateway-worker", daemon=True).start()
                self._workers += 1
        return future

    def _work(self) -> None:
        # A worker leaves as soon as the queue is empty, so an idle gateway
        # holds no threads; submit() starts a new one when needed.
        while True:
            with self._lock:
                if not self._queue:
                    self._workers -= 1
                    return
                _, _, request, future = heapq.heappop(self._queue)
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(self.ask(request))
            except Exception as exc:  # noqa: BLE001 - handed to the future's reader
                future.set_exception(exc)

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

    def dump_transcript(self, path: str | Path) -> None:
        """Write the full transcript sorted by request_id.

        Sorting makes the file independent of thread completion order, so
        scripted runs stay byte-identical.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            records = sorted(self.transcript, key=lambda r: r.request_id)
        write_atomic(path, "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in records))
