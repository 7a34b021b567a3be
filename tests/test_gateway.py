"""Gateway and scripted-backend tests.

Concurrency checks use an injected per-question delay rather than wall
clock assumptions, and the bounded-concurrency probe counts overlapping
calls directly instead of timing them.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import threading
import time
from concurrent.futures import Future

import pytest
import requests

from segforge.config import Config
from segforge.edgar import EdgarClient, FilingRef, LiveTransport
from segforge.errors import (BatchError, NetworkError, NotFoundError, ProviderError, SchemaError, ScriptMissError,
                             UploadError)
from segforge.gateway import (
    Completion,
    FileHandle,
    Gateway,
    LiveBackend,
    PromptRequest,
    ScriptedBackend,
    ScriptStore,
    then,
)
from test_edgar import FakeClock, FakeSession, http_response

HASH_A = "a" * 64
HASH_B = "b" * 64


def store_with(pairs: dict[str, str], file_hash: str = HASH_A) -> ScriptStore:
    store = ScriptStore()
    for question, response in pairs.items():
        store.add(file_hash, question, response)
    return store


def write_jsonl(store: ScriptStore, path) -> None:
    """A script file in the format ``ScriptStore.from_jsonl`` reads."""
    path.write_text("".join(json.dumps(dataclasses.asdict(entry), sort_keys=True) + "\n"
                            for entry in store.entries()), encoding="utf-8")


def request_for(question: str, request_id: str, file_hash: str = HASH_A) -> PromptRequest:
    handle = FileHandle(provider_file_id="scripted:" + file_hash[:12], content_hash=file_hash)
    return PromptRequest(file=handle, question=question, request_id=request_id)


class TestScriptStore:
    def test_lookup_normalizes_whitespace(self):
        store = store_with({"What  is\nthe total?": "42"})
        assert store.lookup(HASH_A, "What is the total?") == "42"
        assert store.lookup(HASH_A, "  What is the\ttotal?  ") == "42"

    def test_miss_raises_with_context(self):
        store = store_with({"q": "r"})
        with pytest.raises(ScriptMissError) as excinfo:
            store.lookup(HASH_A, "unknown question")
        assert excinfo.value.file_hash == HASH_A
        assert excinfo.value.question == "unknown question"

    def test_wrong_file_hash_misses(self):
        store = store_with({"q": "r"})
        with pytest.raises(ScriptMissError):
            store.lookup(HASH_B, "q")

    def test_conflicting_entry_rejected(self):
        store = store_with({"q": "first"})
        with pytest.raises(SchemaError):
            store.add(HASH_A, "q", "second")

    def test_identical_duplicate_is_allowed(self):
        store = store_with({"q": "same"})
        store.add(HASH_A, "q", "same")
        assert len(store) == 1

    def test_jsonl_roundtrip(self, tmp_path):
        store = store_with({"q1": "r1", "q2": "r2"})
        store.add(HASH_B, "q1", "other file")
        path = tmp_path / "script.jsonl"
        write_jsonl(store, path)
        reloaded = ScriptStore.from_jsonl(path)
        assert reloaded.entries() == store.entries()
        assert len(reloaded) == 3

    def test_from_jsonl_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"file_hash": "x"\n', encoding="utf-8")
        with pytest.raises(SchemaError):
            ScriptStore.from_jsonl(path)

    def test_from_jsonl_rejects_missing_field(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(json.dumps({"file_hash": HASH_A, "question": "q"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError):
            ScriptStore.from_jsonl(path)

    @pytest.mark.parametrize("record", [
        {"file_hash": HASH_A, "question": 5, "response": "r"},
        {"file_hash": HASH_A, "question": "q", "response": None},
        {"file_hash": HASH_A, "question": "q", "response": "r", "note": "x"},
        ["file_hash", "question", "response"],
    ], ids=["int_question", "null_response", "unexpected_key", "not_an_object"])
    def test_from_jsonl_rejects_wrong_record_naming_its_line(self, tmp_path, record):
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps({"file_hash": HASH_A, "question": "q", "response": "r"})
                        + "\n\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:3: "):
            ScriptStore.from_jsonl(path)

    def test_from_entries_reads_dicts(self):
        entries = [
            {"file_hash": HASH_A, "question": "q1", "response": "r1"},
            {"file_hash": HASH_B, "question": "q1", "response": "r2"},
        ]
        store = ScriptStore.from_entries(entries)
        assert store.lookup(HASH_A, "q1") == "r1"
        assert store.lookup(HASH_B, "q1") == "r2"
        assert [dataclasses.asdict(e) for e in store.entries()] == entries

    def test_merge_applies_conflict_rules(self):
        def dicts(store: ScriptStore) -> list[dict]:
            return [dataclasses.asdict(e) for e in store.entries()]

        left = dicts(store_with({"q": "r"}))
        with pytest.raises(SchemaError):
            ScriptStore.from_entries(left + dicts(store_with({"q": "different"})))
        merged = ScriptStore.from_entries(left + dicts(store_with({"q ": "r", "q2": "r2"})))
        assert len(merged) == 2


class TestPromptRequest:
    def test_blank_question_rejected(self):
        with pytest.raises(ValueError):
            request_for("   ", "req-1")

    def test_blank_request_id_rejected(self):
        with pytest.raises(ValueError):
            request_for("q", "")


class TestScriptedBackend:
    def test_upload_handle_is_deterministic(self):
        backend = ScriptedBackend(ScriptStore())
        handle = backend.upload(HASH_A, b"payload", "doc.htm")
        assert handle == FileHandle(
            provider_file_id="scripted:" + "a" * 12,
            content_hash=HASH_A,
            uploaded_at="",
        )

    def test_ask_replays_script(self):
        backend = ScriptedBackend(store_with({"q": "canned"}))
        completion = backend.ask(request_for("q", "req-1"))
        assert completion == Completion(
            request_id="req-1", text="canned", backend="scripted", latency_ms=0
        )


class TestGatewayUpload:
    def test_upload_once_per_content_hash(self):
        class CountingBackend(ScriptedBackend):
            def __init__(self):
                super().__init__(ScriptStore())
                self.uploads: list[str] = []

            def upload(self, content_hash, data, display_name):
                self.uploads.append(content_hash)
                return super().upload(content_hash, data, display_name)

        backend = CountingBackend()
        gateway = Gateway(backend)
        first = gateway.upload_bytes(b"data", content_hash=HASH_A)
        second = gateway.upload_bytes(b"data", content_hash=HASH_A)
        assert first is second
        assert backend.uploads == [HASH_A]
        gateway.upload_bytes(b"other", content_hash=HASH_B)
        assert backend.uploads == [HASH_A, HASH_B]

    def test_prompts_go_on_while_a_document_uploads(self):
        started, release = threading.Event(), threading.Event()

        class SlowUpload(ScriptedBackend):
            def upload(self, content_hash, data, display_name):
                if content_hash == HASH_B:
                    started.set()
                    release.wait()
                return super().upload(content_hash, data, display_name)

        gateway = Gateway(SlowUpload(store_with({"q": "r"})))
        handle = gateway.upload_bytes(b"data", content_hash=HASH_A)
        uploading = threading.Thread(target=gateway.upload_bytes, args=(b"other", HASH_B))
        uploading.start()
        answers: list[Future] = []
        answered = threading.Event()

        def ask():  # on its own thread: a gateway that pauses for uploads blocks submit()
            answers.append(gateway.submit(PromptRequest(file=handle, question="q",
                                                        request_id="req-1")))
            answers[0].add_done_callback(lambda _: answered.set())

        try:
            assert started.wait(timeout=10)
            threading.Thread(target=ask, daemon=True).start()
            assert answered.wait(timeout=10), "the prompt waited for another document's upload"
            assert answers[0].result().text == "r"
        finally:
            release.set()
            uploading.join(timeout=10)
        assert not uploading.is_alive()

    def test_concurrent_callers_share_one_upload(self):
        started, release = threading.Event(), threading.Event()

        class SlowUpload(ScriptedBackend):
            def __init__(self):
                super().__init__(ScriptStore())
                self.uploads: list[str] = []

            def upload(self, content_hash, data, display_name):
                self.uploads.append(content_hash)
                started.set()
                release.wait()
                return super().upload(content_hash, data, display_name)

        backend = SlowUpload()
        gateway = Gateway(backend)
        handles: list[FileHandle] = []
        callers = [threading.Thread(target=lambda: handles.append(
            gateway.upload_bytes(b"data", content_hash=HASH_A))) for _ in range(3)]
        for caller in callers:
            caller.start()
        assert started.wait(timeout=10)
        release.set()
        for caller in callers:
            caller.join(timeout=10)
        assert not any(caller.is_alive() for caller in callers)
        assert backend.uploads == [HASH_A]
        assert len(handles) == 3 and all(handle is handles[0] for handle in handles)

    def test_uploads_under_contention_stay_once_per_hash(self):
        """8 threads upload the same 20 documents in different orders, switching
        threads every microsecond: a lost update would upload one twice."""
        class CountingBackend(ScriptedBackend):
            def __init__(self):
                super().__init__(ScriptStore())
                self.uploads: list[str] = []

            def upload(self, content_hash, data, display_name):
                self.uploads.append(content_hash)
                return super().upload(content_hash, data, display_name)

        backend = CountingBackend()
        gateway = Gateway(backend)
        hashes = [f"{i:064x}" for i in range(20)]
        handles: dict[str, set[int]] = {h: set() for h in hashes}

        def upload_all(order: list[str]):
            for content_hash in order:
                handles[content_hash].add(id(gateway.upload_bytes(b"doc", content_hash)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=upload_all, args=(hashes[i:] + hashes[:i],))
                       for i in range(8)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert sorted(backend.uploads) == hashes
        assert all(len(ids) == 1 for ids in handles.values())

    def test_failed_upload_is_not_kept(self):
        class FlakyUpload(ScriptedBackend):
            calls = 0

            def upload(self, content_hash, data, display_name):
                self.calls += 1
                if self.calls == 1:
                    raise UploadError("provider returned no file id")
                return super().upload(content_hash, data, display_name)

        backend = FlakyUpload(ScriptStore())
        gateway = Gateway(backend)
        with pytest.raises(UploadError):
            gateway.upload_bytes(b"data", content_hash=HASH_A)
        handle = gateway.upload_bytes(b"data", content_hash=HASH_A)
        assert gateway.upload_bytes(b"data", content_hash=HASH_A) is handle
        assert backend.calls == 2

    def test_cached_document_upload(self, edgar_client):
        ref = edgar_client.resolve_filing(320193, 2024)
        doc = edgar_client.fetch(ref)
        gateway = Gateway(ScriptedBackend(ScriptStore()))
        handle = gateway.upload(doc)
        assert handle.content_hash == doc.content_hash
        assert gateway.upload(doc) is handle

    def test_empty_upload_rejected(self):
        class EmptyDoc:
            content_hash = HASH_A

            class ref:
                primary_document = "x.htm"

            def read_bytes(self):
                return b""

        gateway = Gateway(ScriptedBackend(ScriptStore()))
        with pytest.raises(UploadError):
            gateway.upload(EmptyDoc())


class TestGatewayAsk:
    def test_duplicate_request_id_rejected(self):
        gateway = Gateway(ScriptedBackend(store_with({"q": "r"})))
        gateway.ask(request_for("q", "req-1"))
        with pytest.raises(ValueError):
            gateway.ask(request_for("q", "req-1"))

    def test_transcript_records_every_ask(self):
        gateway = Gateway(ScriptedBackend(store_with({"q1": "r1", "q2": "r2"})))
        gateway.ask(request_for("q1", "req-1"))
        gateway.ask(request_for("q2", "req-2"))
        assert [(r.request_id, r.question, r.response) for r in gateway.transcript] == [
            ("req-1", "q1", "r1"),
            ("req-2", "q2", "r2"),
        ]
        assert all(r.backend == "scripted" for r in gateway.transcript)

    def test_transcript_records_carry_file_hash(self):
        store = store_with({"q": "ra"})
        store.add(HASH_B, "q", "rb")
        gateway = Gateway(ScriptedBackend(store))
        gateway.ask(request_for("q", "req-a", HASH_A))
        gateway.ask(request_for("q", "req-b", HASH_B))
        assert [(r.file_hash, r.response) for r in gateway.transcript] == [
            (HASH_A, "ra"), (HASH_B, "rb")]

    def test_dump_transcript_sorted_by_request_id(self):
        gateway = Gateway(ScriptedBackend(store_with({"q1": "r1", "q2": "r2"})))
        gateway.ask(request_for("q2", "req-2"))
        gateway.ask(request_for("q1", "req-1"))
        text = gateway.transcript_jsonl()
        assert text.endswith("\n")
        records = [json.loads(line) for line in text.splitlines()]
        assert [(r["request_id"], r["response"]) for r in records] == [
            ("req-1", "r1"), ("req-2", "r2"),
        ]


class TestAskMany:
    def test_results_in_input_order_despite_delays(self):
        questions = [f"q{i}" for i in range(6)]
        store = store_with({q: f"r{i}" for i, q in enumerate(questions)})
        delays = {q: 0.05 if i < 2 else 0.0 for i, q in enumerate(questions)}
        backend = ScriptedBackend(store, delay_fn=lambda q: delays[q])
        gateway = Gateway(backend, max_in_flight=6)
        requests = [request_for(q, f"req-{i}") for i, q in enumerate(questions)]
        completions = gateway.ask_many(requests)
        assert [c.text for c in completions] == [f"r{i}" for i in range(6)]

    def test_concurrency_never_exceeds_limit(self):
        lock = threading.Lock()
        active = 0
        peak = 0

        def probe(question: str) -> float:
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.01)
            with lock:
                active -= 1
            return 0.0

        questions = [f"q{i}" for i in range(20)]
        store = store_with({q: "r" for q in questions})
        gateway = Gateway(ScriptedBackend(store, delay_fn=probe), max_in_flight=3)
        requests = [request_for(q, f"req-{i}") for i, q in enumerate(questions)]
        gateway.ask_many(requests)
        assert peak <= 3
        assert peak >= 2

    def test_failures_are_aggregated(self):
        store = store_with({"q0": "r0", "q2": "r2"})
        gateway = Gateway(ScriptedBackend(store))
        requests = [request_for(q, f"req-{i}") for i, q in enumerate(["q0", "q1", "q2"])]
        with pytest.raises(BatchError) as excinfo:
            gateway.ask_many(requests)
        err = excinfo.value
        assert set(err.errors) == {1}
        assert isinstance(err.errors[1], ScriptMissError)
        assert {i: c.text for i, c in err.completions.items()} == {0: "r0", 2: "r2"}

    def test_empty_batch(self):
        gateway = Gateway(ScriptedBackend(ScriptStore()))
        assert gateway.ask_many([]) == []

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            Gateway(ScriptedBackend(ScriptStore()), max_in_flight=0)
        # A zero llm.max_in_flight is refused when the config is read, before
        # any gateway is built or prompt queued.
        with pytest.raises(SchemaError, match="llm.max_in_flight = '0' must be >= 1"):
            Config({"llm.max_in_flight": "0"}, use_env=False)

    def test_request_ids_unique_across_batches(self):
        store = store_with({"q": "r"})
        gateway = Gateway(ScriptedBackend(store))
        gateway.ask_many([request_for("q", "req-1")])
        with pytest.raises(BatchError) as excinfo:
            gateway.ask_many([request_for("q", "req-1")])
        assert isinstance(excinfo.value.errors[0], ValueError)


class InFlightProbe:
    """A delay_fn that counts overlapping backend calls and records start order."""

    def __init__(self, hold: float = 0.01, gates: dict[str, threading.Event] | None = None):
        self.hold = hold
        self.gates = gates or {}
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.started: list[str] = []

    def __call__(self, question: str) -> float:
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.started.append(question)
        gate = self.gates.get(question)
        if gate is not None:
            assert gate.wait(timeout=5), f"{question} was never released"
        else:
            time.sleep(self.hold)
        with self.lock:
            self.active -= 1
        return 0.0

    def wait_started(self, questions: list[str]) -> None:
        deadline = time.monotonic() + 5
        while self.started != questions and time.monotonic() < deadline:
            time.sleep(0.001)
        assert self.started == questions


class TestGatewayBudget:
    """max_in_flight is one budget for the gateway, shared by every caller."""

    def test_concurrent_ask_many_calls_share_one_cap(self):
        probe = InFlightProbe()
        questions = [f"q{i}" for i in range(24)]
        gateway = Gateway(ScriptedBackend(store_with({q: "r" for q in questions}),
                                          delay_fn=probe), max_in_flight=3)
        results: dict[int, list[str]] = {}

        def caller(part: int) -> None:
            batch = [request_for(q, f"req-{q}") for q in questions[part::2]]
            results[part] = [c.text for c in gateway.ask_many(batch)]

        threads = [threading.Thread(target=caller, args=(part,)) for part in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert results == {0: ["r"] * 12, 1: ["r"] * 12}
        assert 2 <= probe.peak <= 3

    def test_direct_ask_counts_against_the_cap(self):
        release = threading.Event()
        probe = InFlightProbe(gates={"held": release})
        gateway = Gateway(ScriptedBackend(store_with({"held": "h", "q": "r"}), delay_fn=probe),
                          max_in_flight=1)
        held = gateway.submit(request_for("held", "req-held"))
        probe.wait_started(["held"])
        caller = threading.Thread(target=gateway.ask, args=(request_for("q", "req-q"),))
        caller.start()
        caller.join(timeout=0.2)
        assert caller.is_alive()  # waiting for the one slot
        assert probe.started == ["held"]
        release.set()
        caller.join(timeout=5)
        assert not caller.is_alive()
        assert held.result(timeout=5).text == "h"
        assert probe.peak == 1

    def test_critical_request_starts_before_queued_filler(self):
        release = threading.Event()
        probe = InFlightProbe(hold=0.0, gates={"held": release})
        answers = {q: q.upper() for q in ("held", "f0", "f1", "f2", "chain")}
        gateway = Gateway(ScriptedBackend(store_with(answers), delay_fn=probe), max_in_flight=1)
        futures = [gateway.submit(request_for("held", "req-held"))]
        probe.wait_started(["held"])
        futures += [gateway.submit(request_for(q, f"req-{q}"), filler=True)
                    for q in ("f0", "f1", "f2")]
        futures.append(gateway.submit(request_for("chain", "req-chain")))
        release.set()
        assert [f.result(timeout=5).text for f in futures] == ["HELD", "F0", "F1", "F2", "CHAIN"]
        assert probe.started == ["held", "chain", "f0", "f1", "f2"]

    def test_stress_many_submitters(self):
        # Workers come and go as the queue empties; a lost update to their
        # count would strand a queued request and its future would time out.
        probe = InFlightProbe(hold=0.0)
        questions = [f"q{i}" for i in range(400)]
        gateway = Gateway(ScriptedBackend(store_with({q: q.upper() for q in questions}),
                                          delay_fn=probe), max_in_flight=3)
        futures: dict[str, object] = {}

        def submitter(part: int) -> None:
            for q in questions[part::8]:
                futures[q] = gateway.submit(request_for(q, f"req-{q}"), filler=part % 2 == 0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter, args=(part,)) for part in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert {q: f.result(timeout=10).text for q, f in futures.items()} == {
                q: q.upper() for q in questions}
        finally:
            sys.setswitchinterval(interval)
        assert probe.peak <= 3

    def test_submit_hands_errors_to_the_future(self):
        gateway = Gateway(ScriptedBackend(store_with({"q": "r"})))
        future = gateway.submit(request_for("missing", "req-1"))
        with pytest.raises(ScriptMissError):
            future.result(timeout=5)

    def test_no_prompt_starts_while_paused(self):
        # A filler queued first still starts after a critical prompt queued
        # later in the same pause: no worker takes a prompt until it ends.
        probe = InFlightProbe(hold=0.0)
        gateway = Gateway(ScriptedBackend(store_with({"f": "F", "c": "C"}), delay_fn=probe),
                          max_in_flight=1)
        with gateway.paused():
            filler = gateway.submit(request_for("f", "req-f"), filler=True)
            time.sleep(0.05)
            assert probe.started == []
            critical = gateway.submit(request_for("c", "req-c"))
        assert [filler.result(timeout=5).text, critical.result(timeout=5).text] == ["F", "C"]
        assert probe.started == ["c", "f"]


class TestGatewayWorkers:
    """A worker stays while any prompt is in flight, so at most max_in_flight ever start."""

    def test_a_worker_stays_while_a_prompt_is_in_flight(self, monkeypatch):
        # b's continuation queues c after a's worker found the queue empty: a
        # worker that left then would leave c to a third thread.
        gates = {"a": threading.Event(), "b": threading.Event()}
        probe = InFlightProbe(gates=gates)
        workers: dict[str, threading.Thread] = {}

        def delay(question: str) -> float:
            workers[question] = threading.current_thread()
            return probe(question)

        started: list[threading.Thread] = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), start(thread))[1])
        gateway = Gateway(ScriptedBackend(store_with({"a": "A", "b": "B", "c": "C"}),
                                          delay_fn=delay), max_in_flight=2)
        a = gateway.submit(request_for("a", "req-a"))
        b = gateway.submit(request_for("b", "req-b"))
        c = then([b], lambda _: gateway.submit(request_for("c", "req-c")))
        deadline = time.monotonic() + 5
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        gates["a"].set()
        assert a.result(timeout=5).text == "A"
        workers["a"].join(timeout=0.2)
        assert workers["a"].is_alive()  # b is in flight, so a's worker stays
        gates["b"].set()
        assert (b.result(timeout=5).text, c.result(timeout=5).text) == ("B", "C")
        monkeypatch.undo()
        assert len(started) == 2
        for thread in started:  # nothing in flight: the idle gateway holds no thread
            thread.join(timeout=5)
            assert not thread.is_alive()

    CHAINS = [(0, 9), (10, 29), (30, 69), (70, 129), (130, 199)]  # (first, last) question

    def test_stress_chains_start_at_most_max_in_flight_workers(self, monkeypatch):
        # Each settled prompt's continuation queues the next of its chain, so
        # the gateway is never idle until every chain ends. Chains end at
        # different times: a worker that left while others' prompts were in
        # flight would have a fourth thread started; a lost wake-up would
        # strand a prompt.
        questions = [f"q{i}" for i in range(200)]
        gateway = Gateway(ScriptedBackend(store_with({q: q.upper() for q in questions})),
                          max_in_flight=3)

        def ask_from(i: int, last: int) -> Future:
            asked = gateway.submit(request_for(questions[i], f"req-{i}"))
            return asked if i == last else then([asked], lambda _: ask_from(i + 1, last))

        started: list[threading.Thread] = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), start(thread))[1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with gateway.paused():  # every chain is queued before any prompt starts
                ends = [ask_from(first, last) for first, last in self.CHAINS]
            assert [end.result(timeout=10).text for end in ends] == [f"Q{last}" for _, last in self.CHAINS]
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        assert len(gateway.transcript) == 200
        assert len(started) <= 3
        for thread in started:
            thread.join(timeout=5)
            assert not thread.is_alive()


class TestThen:
    """``then``, the one combinator a firm-year's plan is built from."""

    def test_fn_runs_once_all_are_done_on_the_thread_that_settles_the_last(self):
        first, second = Future(), Future()
        ran_on: list[str] = []

        def add(a: Future, b: Future) -> int:
            ran_on.append(threading.current_thread().name)
            return a.result() + b.result()

        joined = then([first, second], add)
        first.set_result(1)
        assert not joined.done()
        settler = threading.Thread(target=second.set_result, args=(2,), name="settler")
        settler.start()
        settler.join(timeout=5)
        assert not settler.is_alive()
        assert joined.result(timeout=5) == 3
        assert ran_on == ["settler"]

    def test_fn_runs_at_once_when_all_are_done(self):
        done: Future = Future()
        done.set_result(1)
        assert then([done], lambda f: f.result() + 1).result(timeout=0) == 2
        assert then([], lambda: "none").result(timeout=0) == "none"

    def test_an_exception_settles_the_result(self):
        failed: Future = Future()
        failed.set_exception(ScriptMissError(HASH_A, "q"))
        with pytest.raises(ScriptMissError):
            then([failed], lambda f: f.result()).result(timeout=0)
        with pytest.raises(ZeroDivisionError):
            then([], lambda: 1 / 0).result(timeout=0)

    def test_a_returned_future_is_followed(self):
        inner: Future = Future()
        outer = then([], lambda: inner)
        assert not outer.done()
        inner.set_result("x")
        assert outer.result(timeout=0) == "x"

    def test_stress_futures_settled_together(self):
        # Only the last arrival may call fn: a lost or doubled count would
        # leave the result unsettled or call fn twice.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                futures: list[Future] = [Future() for _ in range(8)]
                calls: list[int] = []
                joined = then(futures, lambda *done: calls.append(1) or sum(f.result() for f in done))
                threads = [threading.Thread(target=future.set_result, args=(i,))
                           for i, future in enumerate(futures)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=5)
                    assert not thread.is_alive()
                assert joined.result(timeout=5) == sum(range(8))
                assert calls == [1]
        finally:
            sys.setswitchinterval(interval)


class TestFromConfig:
    def test_scripted_backend_from_config(self, tmp_path):
        script = tmp_path / "script.jsonl"
        write_jsonl(store_with({"q": "r"}), script)
        config = Config({"llm.script_path": str(script)}, use_env=False)
        gateway = Gateway.from_config(config)
        assert isinstance(gateway.backend, ScriptedBackend)
        assert gateway.max_in_flight == 5
        completion = gateway.ask(request_for("q", "req-1"))
        assert completion.text == "r"

    def test_scripted_backend_requires_script_path(self):
        config = Config({"llm.script_path": ""}, use_env=False)
        with pytest.raises(SchemaError):
            Gateway.from_config(config)

    def test_explicit_store_wins_over_path(self):
        config = Config({"llm.script_path": ""}, use_env=False)
        gateway = Gateway.from_config(config, script_store=store_with({"q": "r"}))
        assert gateway.ask(request_for("q", "req-1")).text == "r"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SchemaError, match="llm.backend = 'mystery' must be 'scripted' or 'live'"):
            Config({"llm.backend": "mystery"}, use_env=False)


class TestLiveBackend:
    """LiveBackend's retry loop over a fake requests session and clock."""

    class Clock:
        def __init__(self):
            self.now = 0.0
            self.sleeps = []

        def monotonic(self):
            return self.now

        def sleep(self, seconds):
            self.sleeps.append(seconds)
            self.now += seconds

    class Session:
        def __init__(self, *responses):
            self.headers = {}
            self.responses = list(responses)
            self.posts = 0

        def post(self, url, timeout=None, **kwargs):
            self.posts += 1
            return self.responses.pop(0)

    @staticmethod
    def response(status, body=None, retry_after=None):
        response = requests.Response()
        response.status_code = status
        if retry_after is not None:
            response.headers["Retry-After"] = retry_after
        response._content = json.dumps(body).encode()
        return response

    def backend(self, *responses):
        clock, session = self.Clock(), self.Session(*responses)
        return LiveBackend("https://llm.example.test", "m", session=session, clock=clock), clock

    @pytest.mark.parametrize("first, sleeps", [
        (response(429, retry_after="5"), [5.0]),
        (response(503, retry_after="0"), [1.0]),  # the 1 s backoff stands
        (response(502, retry_after="5"), [1.0]),  # only 429 and 503 carry Retry-After
        (response(503), [1.0]),
    ])
    def test_retry_after_sets_the_wait(self, first, sleeps):
        backend, clock = self.backend(first, self.response(200, {"id": "file-1"}))
        assert backend.upload(HASH_A, b"doc", "doc.htm").provider_file_id == "file-1"
        assert clock.sleeps == sleeps

    def test_waits_then_gives_up_after_max_attempts(self):
        backend, clock = self.backend(*[self.response(429, retry_after="4")] * 3)
        with pytest.raises(ProviderError, match="HTTP 429"):
            backend.upload(HASH_A, b"doc", "doc.htm")
        assert clock.sleeps == [4.0, 4.0]

    def test_latency_comes_from_the_clock(self):
        backend, clock = self.backend(self.response(429, retry_after="2"),
                                      self.response(200, {"text": "answer"}))
        completion = backend.ask(request_for("q", "req-1"))
        assert (completion.text, completion.latency_ms) == ("answer", 2000)


def answer(outcome):
    """A queued outcome: an exception is raised, a response returned."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class TestTransportParity:
    """EDGAR and the provider meet the same outcomes through one send-and-retry path.

    EDGAR fetches a document through LiveTransport under EdgarClient; the
    provider uploads one through LiveBackend. Each side keeps its own
    backoff and its own final exception type.
    """

    class EdgarSession(FakeSession):
        def get(self, url, headers=None, timeout=None):
            return answer(super().get(url, headers, timeout))

    class ProviderSession(TestLiveBackend.Session):
        def post(self, url, timeout=None, **kwargs):
            return answer(super().post(url, timeout=timeout, **kwargs))

    BODY = {"id": "file-1"}
    REF = FilingRef(cik=42, fiscal_year=2023, accession_number="0000000042-24-000000",
                    document_url="https://example.test/doc.htm", primary_document="doc.htm")

    def edgar(self, tmp_path, outcomes):
        clock, session = FakeClock(), self.EdgarSession({self.REF.document_url: outcomes})
        client = EdgarClient(LiveTransport("segforge tests test@example.com", session=session),
                             cache_dir=tmp_path, rate_limit_rps=10_000, clock=clock)
        return lambda: client.fetch(self.REF).read_bytes(), clock

    def provider(self, tmp_path, outcomes):
        clock, session = FakeClock(), self.ProviderSession(*outcomes)
        backend = LiveBackend("https://llm.example.test", "m", session=session, clock=clock)
        return lambda: backend.upload(HASH_A, b"doc", "doc.htm").provider_file_id, clock

    # side: (backoff between attempts, final error, error for a 404, what a success returns)
    SIDES = {
        "edgar": ([0.5, 1.0, 2.0, 4.0, 8.0], NetworkError, NotFoundError, json.dumps(BODY).encode()),
        "provider": ([1.0, 2.0], ProviderError, ProviderError, "file-1"),
    }

    @pytest.fixture(params=sorted(SIDES))
    def side(self, request, tmp_path):
        """``(run, backoff, error, missing, result)``; ``run(*outcomes)`` returns a call and its clock."""
        make = getattr(self, request.param)
        return (lambda *outcomes: make(tmp_path, list(outcomes)), *self.SIDES[request.param])

    def test_a_lost_connection_is_retried_with_backoff_then_fails(self, side):
        run, backoff, error, _, _ = side
        lost = [requests.ConnectionError("connection reset") for _ in range(len(backoff) + 1)]
        call, clock = run(*lost, http_response(200, self.BODY))
        with pytest.raises(error, match="connection reset"):
            call()
        assert clock.sleeps == backoff

    def test_any_2xx_succeeds(self, side):
        run, _, _, _, result = side
        call, clock = run(http_response(201, self.BODY))
        assert call() == result
        assert clock.sleeps == []

    def test_a_404_is_final(self, side):
        run, _, _, missing, _ = side
        call, clock = run(http_response(404), http_response(200, self.BODY))
        with pytest.raises(missing, match="HTTP 404"):
            call()
        assert clock.sleeps == []
