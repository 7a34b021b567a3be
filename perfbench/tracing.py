"""Span tracing for the traced benchmark run, done entirely from outside segforge.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record a span (name, start, end, parent, op
id, thread) around each call, and ``uninstall`` puts the originals back.
A function is patched in every segforge module that imported it by name,
so ``cli`` calling ``retrieval.load_index`` is seen as well. Spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import segforge
from segforge.templates import RETRY_REMINDERS

# (module, attribute, span name). "Class.method" patches the class attribute.
TARGETS = [
    ("edgar", "EdgarClient.resolve_filing", "edgar.resolve"),
    ("edgar", "EdgarClient.fetch", "edgar.fetch"),
    ("parsing", "parse", "parsing.parse"),
    ("parsing", "dump_json", "parsing.dump_json"),
    ("parsing", "locate_segment_regions", "parsing.locate_segment_regions"),
    ("retrieval", "build_index", "retrieval.build_index"),
    ("retrieval", "save_index", "retrieval.save_index"),
    ("retrieval", "load_index", "retrieval.load_index"),
    ("retrieval", "retrieve", "retrieval.retrieve"),
    ("retrieval", "assemble_context", "retrieval.assemble_context"),
    ("gateway", "Gateway.upload", "gateway.upload"),
    ("gateway", "Gateway.upload_bytes", "gateway.upload_bytes"),
    ("gateway", "Gateway.ask", "gateway.ask"),
    ("gateway", "Gateway.ask_many", "gateway.ask_many"),
    ("extraction", "ExtractionPipeline.run_pipeline", "extraction.run_pipeline"),
    ("extraction", "ExtractionPipeline.classify_segmentation", "extraction.classify"),
    ("extraction", "ExtractionPipeline.extract_general_fields", "extraction.general_fields"),
    ("extraction", "ExtractionPipeline.extract_reportable", "extraction.reportable"),
    ("extraction", "ExtractionPipeline.detect_nested", "extraction.detect_nested"),
    ("extraction", "ExtractionPipeline.extract_nested", "extraction.nested"),
    ("store", "SegmentStore.__init__", "store.open"),
    ("store", "SegmentStore.put", "store.put"),
    ("store", "SegmentStore.gap_report", "store.gap_report"),
    ("store", "SegmentStore.export_csv", "store.export_csv"),
    ("comparability", "detect_changes", "comparability.detect_changes"),
    ("comparability", "explain_changes", "comparability.explain_changes"),
    ("comparability", "align_regions", "comparability.align_regions"),
    ("cli", "cmd_changes", "cli.changes"),
    ("cli", "cmd_align", "cli.align"),
    ("cli", "cmd_gaps", "cli.gaps"),
    ("cli", "cmd_export", "cli.export"),
]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans. ``op`` names the benchmark op that is running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._ids = 0
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs: dict | None = None):
        stack = self._stack()
        # Pool threads (Gateway.ask_many) inherit the op thread's open span.
        parents = stack or self._main_stack[-1:]
        parent = parents[-1] if parents else None
        with self._lock:
            self._ids += 1
            span_id = self._ids
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, self.op,
                                       threading.get_ident(), attrs or {}))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"segforge.{info.name}")
                   for info in pkgutil.iter_modules(segforge.__path__)]
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"segforge.{module_name}")
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                self._patch(owner, method, self._wrap(span_name, vars(owner)[method]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "gateway.ask":
            @functools.wraps(fn)
            def ask(gateway, request, *args, **kwargs):
                retry = request.question.endswith(tuple(RETRY_REMINDERS.values()))
                return tracer.call(name, fn, (gateway, request, *args), kwargs,
                                   {"retry": True} if retry else None)
            return ask

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    # -- analysis --------------------------------------------------------------

    def self_ms(self, spans: list[Span]) -> dict[str, float]:
        """Per layer: time of ``spans`` not covered by their child spans, in ms."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, []), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[span.layer] = totals.get(span.layer, 0.0) + (span.end - span.start
                                                                 - covered) * 1000.0
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.span_id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                    "thread": span.thread, **({"attrs": span.attrs} if span.attrs else {}),
                }) + "\n")
