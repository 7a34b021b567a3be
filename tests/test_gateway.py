"""Gateway and scripted-backend tests.

Concurrency checks use an injected per-question delay rather than wall
clock assumptions, and the bounded-concurrency probe counts overlapping
calls directly instead of timing them.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from segforge.config import Config
from segforge.errors import BatchError, SchemaError, ScriptMissError, UploadError
from segforge.gateway import (
    Completion,
    FileHandle,
    Gateway,
    PromptRequest,
    ScriptedBackend,
    ScriptEntry,
    ScriptStore,
)

HASH_A = "a" * 64
HASH_B = "b" * 64


def store_with(pairs: dict[str, str], file_hash: str = HASH_A) -> ScriptStore:
    store = ScriptStore()
    for question, response in pairs.items():
        store.add(file_hash, question, response)
    return store


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
        store.dump_jsonl(path)
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

    def test_from_entries_accepts_dicts_and_objects(self):
        entries = [
            {"file_hash": HASH_A, "question": "q1", "response": "r1"},
            ScriptEntry(file_hash=HASH_A, question="q2", response="r2"),
        ]
        store = ScriptStore.from_entries(entries)
        assert store.lookup(HASH_A, "q1") == "r1"
        assert store.lookup(HASH_A, "q2") == "r2"

    def test_merge_applies_conflict_rules(self):
        left = store_with({"q": "r"})
        right = store_with({"q": "different"})
        with pytest.raises(SchemaError):
            left.merge(right)
        left2 = store_with({"q": "r"})
        left2.merge(store_with({"q2": "r2"}))
        assert len(left2) == 2


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
        gateway = Gateway(ScriptedBackend(ScriptStore()))
        first = gateway.upload_bytes(b"data", content_hash=HASH_A)
        second = gateway.upload_bytes(b"data", content_hash=HASH_A)
        assert first is second
        assert gateway.upload_calls == 1
        gateway.upload_bytes(b"other", content_hash=HASH_B)
        assert gateway.upload_calls == 2

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

    def test_transcript_for_filters_by_file(self):
        store = store_with({"q": "ra"})
        store.add(HASH_B, "q", "rb")
        gateway = Gateway(ScriptedBackend(store))
        gateway.ask(request_for("q", "req-a", HASH_A))
        gateway.ask(request_for("q", "req-b", HASH_B))
        assert [r.response for r in gateway.transcript_for(HASH_A)] == ["ra"]
        assert [r.response for r in gateway.transcript_for(HASH_B)] == ["rb"]

    def test_dump_transcript_sorted_by_request_id(self, tmp_path):
        gateway = Gateway(ScriptedBackend(store_with({"q1": "r1", "q2": "r2"})))
        gateway.ask(request_for("q2", "req-2"))
        gateway.ask(request_for("q1", "req-1"))
        path = tmp_path / "out.jsonl"
        gateway.dump_transcript(path)
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
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
        # The one cap is the gateway's, so a zero llm.max_in_flight is
        # refused when the gateway is built, before any prompt is queued.
        config = Config({"llm.max_in_flight": "0"}, use_env=False)
        with pytest.raises(ValueError):
            Gateway.from_config(config, script_store=store_with({"q": "r"}))

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


class TestFromConfig:
    def test_scripted_backend_from_config(self, tmp_path):
        script = tmp_path / "script.jsonl"
        store_with({"q": "r"}).dump_jsonl(script)
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
        config = Config({"llm.backend": "mystery"}, use_env=False)
        with pytest.raises(SchemaError):
            Gateway.from_config(config)
