"""Three-stage file-grounded extraction of segment disclosures.

Stage 1 classifies the firm-year as single reporting unit vs. multiple
operating segments. Stage 2 extracts reportable segment names and their
financial measures. Stage 3 detects nested disclosures inside each
reportable segment and, where present, extracts the lower-tier components
with an explicit parent link. Every model answer is validated against its
declared answer shape before it may enter a bundle.
"""

from __future__ import annotations

import json
import re
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .edgar import CachedDocument
from .errors import SchemaError, ScriptMissError, ValidationError
from .gateway import FileHandle, Gateway, PromptRequest
from .templates import (
    AnswerShape,
    CLASSIFY_QUESTION,
    FORMAT_RULES,
    GENERAL_FIELD_NAMES,
    GENERAL_FIELDS,
    NOT_PROVIDED,
    SEGMENT_NAMES_QUESTION,
    SYSTEM_PREAMBLE,
    TEMPLATE_VERSION,
    measure_question,
    nested_detect_question,
    nested_names_question,
    nested_measure_question,
    retry_question,
)
from .values import Money, encode, load, parse_monetary, write_atomic

SINGLE_UNIT = "single_unit"
MULTI_SEGMENT = "multi_segment"

AXIS_BUSINESS = "business"
AXIS_GEOGRAPHIC = "geographic"
AXIS_PRODUCT = "product_offering"
AXIS_CUSTOMER = "customer"
AXIS_OTHER = "other"
AXES = {AXIS_BUSINESS, AXIS_GEOGRAPHIC, AXIS_PRODUCT, AXIS_CUSTOMER, AXIS_OTHER}

DEFAULT_MEASURES = ["revenue", "profit_or_loss", "assets"]

_GEO_WORDS = {
    "americas", "america", "united states", "u.s.", "us", "canada", "mexico",
    "europe", "emea", "asia", "asia pacific", "asia-pacific", "japan", "china",
    "greater china", "taiwan", "singapore", "korea", "india", "hong kong",
    "latin america", "middle east", "africa", "domestic", "international",
    "foreign", "rest of world", "rest of asia", "other countries", "worldwide",
}
_PRODUCT_WORDS = {
    "cloud", "product", "products", "software", "hardware", "subscription",
    "subscriptions", "services", "license", "licensing", "platform", "devices",
}
_CUSTOMER_WORDS = {"customer", "customers", "client", "clients", "end market", "end markets"}


@dataclass(frozen=True)
class SegmentationClass:
    kind: str  # single_unit | multi_segment
    raw_response: str

    def __post_init__(self):
        if self.kind not in (SINGLE_UNIT, MULTI_SEGMENT):
            raise ValueError(f"bad segmentation kind {self.kind!r}")


@dataclass
class SegmentRecord:
    """One segment or nested component; its bundle holds the firm-year."""

    name: str
    axis: str = AXIS_BUSINESS
    measures: dict[str, Money] = field(default_factory=dict)
    parent_name: str | None = None
    provenance: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.name.strip():
            raise ValueError("segment name must be non-empty")
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}")


@dataclass
class ExtractionBundle:
    cik: int
    fiscal_year: int
    classification: SegmentationClass
    general_fields: dict[str, str]
    reportable: list[SegmentRecord] = field(default_factory=list)
    nested: list[SegmentRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    template_version: str = TEMPLATE_VERSION

    @property
    def key(self) -> tuple[int, int]:
        return (self.cik, self.fiscal_year)


def validate_bundle(bundle: ExtractionBundle) -> None:
    """Check the cross-field invariants; raise SchemaError on violation."""
    if bundle.classification.kind == SINGLE_UNIT and (bundle.reportable or bundle.nested):
        raise SchemaError("single_unit bundle must have empty reportable/nested lists")
    if set(bundle.general_fields) != set(GENERAL_FIELD_NAMES):
        missing = set(GENERAL_FIELD_NAMES) - set(bundle.general_fields)
        extra = set(bundle.general_fields) - set(GENERAL_FIELD_NAMES)
        raise SchemaError(f"general_fields key mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    reportable_names = {r.name for r in bundle.reportable}
    for record in bundle.nested:
        if record.parent_name is None or record.parent_name not in reportable_names:
            raise SchemaError(f"nested record {record.name!r} has orphan parent {record.parent_name!r}")


# -- answer validation -------------------------------------------------------


def validate_yes_no(text: str) -> bool:
    answer = text.strip().rstrip(".").casefold()
    if answer == "yes":
        return True
    if answer == "no":
        return False
    raise ValidationError(f"expected Yes or No, got {text!r}")


def validate_scalar(text: str) -> str:
    answer = text.strip()
    if not answer:
        raise ValidationError("empty scalar answer")
    if "\n" in answer:
        raise ValidationError(f"scalar answer spans multiple lines: {text!r}")
    return answer


def validate_list(text: str) -> tuple[list[str], list[str]]:
    """Split a semicolon-delimited list; returns (names, warnings)."""
    answer = text.strip()
    if not answer:
        raise ValidationError("empty list answer")
    if answer == NOT_PROVIDED:
        return [], []
    warnings: list[str] = []
    parts = [part.strip() for part in answer.split(";")]
    if parts and parts[-1] == "":
        warnings.append(f"trailing delimiter in list answer {text!r}")
    names: list[str] = []
    for part in parts:
        if not part:
            continue
        if part in names:
            warnings.append(f"duplicate name {part!r} in list answer; keeping first")
            continue
        names.append(part)
    if not names:
        raise ValidationError(f"list answer has no names: {text!r}")
    return names, warnings


def validate_monetary(text: str) -> Money | None:
    answer = text.strip()
    if answer == NOT_PROVIDED:
        return None
    try:
        return parse_monetary(answer)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


_VALIDATORS = {
    AnswerShape.YES_NO: validate_yes_no,
    AnswerShape.SCALAR: validate_scalar,
    AnswerShape.DELIMITED_LIST: validate_list,
    AnswerShape.MONETARY: validate_monetary,
}


def infer_axis(name: str, nested: bool, question: str = "") -> str:
    """Keyword-rule axis assignment for a segment or component name."""
    haystack = f"{name} {question}".casefold()
    tokens = set(re.split(r"[^a-z.]+", haystack))
    for word in _GEO_WORDS:
        if (" " in word and word in haystack) or word in tokens:
            return AXIS_GEOGRAPHIC
    for word in _CUSTOMER_WORDS:
        if (" " in word and word in haystack) or word in tokens:
            return AXIS_CUSTOMER
    if nested:
        for word in _PRODUCT_WORDS:
            if word in tokens:
                return AXIS_PRODUCT
        return AXIS_OTHER
    return AXIS_BUSINESS


# -- pipeline ----------------------------------------------------------------


# Every firm-year's plan opens with classify and then the general fields in
# template order, so their request numbers are fixed: 0001 and 0002-0018.
_CLASSIFY_SEQ = 1
_GENERAL_SEQ = 2
_CHAIN_SEQ = _GENERAL_SEQ + len(GENERAL_FIELDS)


class ExtractionPipeline:
    """Runs the staged workflow for one firm-year at a time.

    ``run_pipeline`` schedules a firm-year's prompts by dependency, not by
    stage, under the gateway's one in-flight budget. The 17 general fields
    go out with classify as filler and are joined at the end. The chain
    runs classify, then the segment names, then their measures together
    with nested detection; the nested names for every flagged parent go out
    in one batch as soon as detection answers, and their measures after
    them. A chain request takes the next free slot before any waiting
    general field.

    Request ids are "<cik>-<fy>-<seq>" and never depend on completion
    order. Classify is always 0001 and the general fields 0002-0018, in
    template order. Every later first ask takes the next number from 0019
    in plan order: names, measures, detection, nested names, nested
    measures. Only one thread numbers at a time, because the detection
    thread starts once the measures are numbered. A format retry's id is
    its original's id plus "-r".

    Every answer goes through one validate-and-retry path, ``_ask_all``: an
    answer that fails its shape check gets one format-reminder retry, sent
    as soon as that answer fails. Required answers (the classification,
    segment names and nested names) raise on a terminal failure, since no
    bundle can be built without them. Optional answers (measures, nested
    detection and general fields) become a warning and are left out of the
    bundle (general fields read "Not provided"). A script miss on a first
    ask always raises: in scripted mode it is a fixture bug, never data.
    Bundle warnings list the general fields' first, then the chain's, each
    in plan order; when stages fail together, the failure of the earliest
    stage in plan order is raised.
    """

    def __init__(self, gateway: Gateway, measures: list[str] | None = None):
        self.gateway = gateway
        self.measures = list(measures) if measures else list(DEFAULT_MEASURES)
        if not self.measures:
            raise ValueError("measure list must be non-empty")
        self._seq: dict[tuple[int, int], int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_config(cls, gateway: Gateway, config) -> "ExtractionPipeline":
        return cls(gateway, measures=config.get_list("extraction.measures"))

    def _next_seq(self, cik: int, fy: int) -> int:
        with self._lock:
            seq = self._seq.get((cik, fy), _CHAIN_SEQ - 1) + 1
            self._seq[(cik, fy)] = seq
        return seq

    def _request(self, handle: FileHandle, question: str, shape: AnswerShape,
                 request_id: str) -> PromptRequest:
        return PromptRequest(
            file=handle,
            question=question,
            request_id=request_id,
            system_preamble=SYSTEM_PREAMBLE,
            format_rules=FORMAT_RULES[shape],
        )

    def _ask_all(self, handle: FileHandle, items: list[tuple[str, AnswerShape]],
                 cik: int, fy: int, warnings: list[str] | None = None, *,
                 first_seq: int | None = None, filler: bool = False, alongside=None) -> list:
        """Validated asks with one format-reminder retry per invalid answer.

        Returns a list aligned with items; each element is (value, raw text,
        request ids used). The items are numbered from ``first_seq`` when
        given, else from the firm-year's counter, and all go out at once;
        ``alongside()``, when given, is called as soon as they are queued.
        Each answer is checked as it arrives, and an invalid one is retried
        at once. With ``warnings=None`` the answers are required and a
        terminal failure raises: the request's own error, or the last
        ValidationError (the first one when the retry has no script entry).
        Otherwise a failed answer is None and the failure is recorded in
        warnings. Failures are raised or recorded in item order, after
        every ask has settled.
        """
        seqs = (range(first_seq, first_seq + len(items)) if first_seq
                else [self._next_seq(cik, fy) for _ in items])
        requests = [self._request(handle, question, shape, f"{cik}-{fy}-{seq:04d}")
                    for (question, shape), seq in zip(items, seqs)]
        pending = {self.gateway.submit(request, filler): i for i, request in enumerate(requests)}
        if alongside is not None:
            alongside()
        results: list = [None] * len(items)
        ids = [[request.request_id] for request in requests]
        first_errors: dict[int, ValidationError] = {}
        failed: dict[int, Exception] = {}
        unanswered: dict[int, Exception] = {}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                i = pending.pop(future)
                question, shape = items[i]
                try:
                    text = future.result().text
                except Exception as exc:  # noqa: BLE001 - raised or recorded below
                    retry_missed = i in first_errors and isinstance(exc, ScriptMissError)
                    (unanswered if retry_missed else failed)[i] = exc
                    continue
                try:
                    results[i] = (_VALIDATORS[shape](text), text, ids[i])
                except ValidationError as exc:
                    if i in first_errors:
                        unanswered[i] = exc
                        continue
                    first_errors[i] = exc
                    retry = self._request(handle, retry_question(question, shape), shape,
                                          f"{requests[i].request_id}-r")
                    ids[i].append(retry.request_id)
                    pending[self.gateway.submit(retry, filler)] = i
        for i, error in sorted(failed.items()):
            if warnings is None or isinstance(error, ScriptMissError):
                raise error
            warnings.append(f"request {requests[i].request_id} failed: {error}")
        for i, error in sorted(unanswered.items()):
            if warnings is None:
                raise first_errors[i] if isinstance(error, ScriptMissError) else error
            warnings.append(f"request {requests[i].request_id} invalid after retry: {error}")
        return results

    def _extract_tier(self, handle: FileHandle, parents: list[str | None], cik: int, fy: int,
                      warnings: list[str], alongside=None) -> list[SegmentRecord]:
        """Ask for the names under every parent in one batch, then every measure per name.

        ``parents`` is ``[None]`` for reportable segments. Only reportable
        measures warn on a missing scale word; only nested names feed the
        names question to ``infer_axis``. ``alongside(records)``, when
        given, is called as soon as the measures are queued.
        """
        questions = [SEGMENT_NAMES_QUESTION if parent is None else nested_names_question(parent)
                     for parent in parents]
        named = self._ask_all(
            handle, [(question, AnswerShape.DELIMITED_LIST) for question in questions], cik, fy
        )
        records: list[SegmentRecord] = []
        for parent, question, answer in zip(parents, questions, named):
            (names, list_warnings), _, name_ids = answer
            warnings.extend(list_warnings)
            nested = parent is not None
            records += [
                SegmentRecord(
                    name=name,
                    axis=infer_axis(name, nested=nested, question=question if nested else ""),
                    parent_name=parent,
                    provenance=list(name_ids),
                )
                for name in names
            ]
        items = [
            (measure_question(measure, record.name) if record.parent_name is None
             else nested_measure_question(measure, record.name, record.parent_name),
             AnswerShape.MONETARY)
            for record in records
            for measure in self.measures
        ]
        if alongside is not None:
            alongside = partial(alongside, records)
        answers = self._ask_all(handle, items, cik, fy, warnings, alongside=alongside)
        for i, answer in enumerate(answers):
            if answer is None:
                continue
            record = records[i // len(self.measures)]
            measure = self.measures[i % len(self.measures)]
            money, _, ids = answer
            record.provenance.extend(ids)
            if money is None:  # "Not provided"
                continue
            if record.parent_name is None and not money.scale_explicit:
                warnings.append(
                    f"measure {measure} for {record.name!r} has no scale word; taking value as-is"
                )
            record.measures[measure] = money
        return records

    # -- stages -------------------------------------------------------------

    def classify_segmentation(self, handle: FileHandle, cik: int, fy: int,
                              alongside=None) -> SegmentationClass:
        [(is_multi, raw, _)] = self._ask_all(
            handle, [(CLASSIFY_QUESTION, AnswerShape.YES_NO)], cik, fy,
            first_seq=_CLASSIFY_SEQ, alongside=alongside,
        )
        return SegmentationClass(kind=MULTI_SEGMENT if is_multi else SINGLE_UNIT, raw_response=raw)

    def extract_reportable(self, handle: FileHandle, cik: int, fy: int,
                           warnings: list[str], alongside=None) -> list[SegmentRecord]:
        return self._extract_tier(handle, [None], cik, fy, warnings, alongside)

    def detect_nested(self, handle: FileHandle, reportable: list[SegmentRecord],
                      cik: int, fy: int, warnings: list[str]) -> dict[str, bool]:
        items = [
            (nested_detect_question(record.name), AnswerShape.YES_NO) for record in reportable
        ]
        answers = self._ask_all(handle, items, cik, fy, warnings)
        return {record.name: answer[0]
                for record, answer in zip(reportable, answers) if answer is not None}

    def extract_nested(self, handle: FileHandle, parents: list[SegmentRecord],
                       cik: int, fy: int, warnings: list[str]) -> list[SegmentRecord]:
        return self._extract_tier(handle, [parent.name for parent in parents], cik, fy, warnings)

    def extract_general_fields(self, handle: FileHandle, cik: int, fy: int,
                               warnings: list[str]) -> dict[str, str]:
        items = [(spec.question, spec.answer_shape) for spec in GENERAL_FIELDS]
        answers = self._ask_all(handle, items, cik, fy, warnings,
                                first_seq=_GENERAL_SEQ, filler=True)
        # Store the raw validated text; interpretation (e.g. parsing revt
        # into a number) happens at point of use.
        return {spec.field_name: NOT_PROVIDED if answer is None else answer[1].strip()
                for spec, answer in zip(GENERAL_FIELDS, answers)}

    def _detect_and_extract_nested(self, handle: FileHandle, cik: int, fy: int,
                                   warnings: list[str],
                                   reportable: list[SegmentRecord]) -> list[SegmentRecord]:
        flags = self.detect_nested(handle, reportable, cik, fy, warnings)
        parents = [record for record in reportable if flags.get(record.name)]
        return self.extract_nested(handle, parents, cik, fy, warnings) if parents else []

    def run_pipeline(self, doc: CachedDocument, cik: int, fy: int) -> ExtractionBundle:
        handle = self.gateway.upload(doc)
        general_warnings: list[str] = []
        warnings: list[str] = []
        nested_warnings: list[str] = []
        reportable: list[SegmentRecord] = []
        nested: list[SegmentRecord] = []
        started: dict[str, Future] = {}
        with ThreadPoolExecutor(max_workers=2, thread_name_prefix="stage") as stages:

            def start(name: str, stage, *args) -> None:
                started[name] = stages.submit(stage, *args)

            classification = self.classify_segmentation(
                handle, cik, fy,
                alongside=partial(start, "general", self.extract_general_fields,
                                  handle, cik, fy, general_warnings),
            )
            try:
                if classification.kind == MULTI_SEGMENT:
                    reportable = self.extract_reportable(
                        handle, cik, fy, warnings,
                        alongside=partial(start, "nested", self._detect_and_extract_nested,
                                          handle, cik, fy, nested_warnings),
                    )
                    nested = started["nested"].result()
            finally:
                # The general fields come before the chain in plan order, so
                # their failure is the one raised when both fail.
                general_fields = started["general"].result()
        bundle = ExtractionBundle(
            cik=cik,
            fiscal_year=fy,
            classification=classification,
            general_fields=general_fields,
            reportable=reportable,
            nested=nested,
            warnings=general_warnings + warnings + nested_warnings,
        )
        audit_nested_sums(bundle)
        validate_bundle(bundle)
        return bundle


def audit_nested_sums(bundle: ExtractionBundle, measure: str = "revenue") -> None:
    """Reconcile each parent's measure against the sum of its children.

    A nonzero difference is flagged as a warning, not an error: filings may
    omit residual categories from the nested breakdown.
    """
    by_parent: dict[str, list[SegmentRecord]] = {}
    for record in bundle.nested:
        by_parent.setdefault(record.parent_name or "", []).append(record)
    parents = {r.name: r for r in bundle.reportable}
    for parent_name, children in sorted(by_parent.items()):
        parent = parents.get(parent_name)
        if parent is None or measure not in parent.measures:
            continue
        child_values = [c.measures.get(measure) for c in children]
        if any(v is None for v in child_values):
            continue
        scales = {parent.measures[measure].scale} | {v.scale for v in child_values}
        if len(scales) != 1:
            continue
        difference = parent.measures[measure].value - sum(v.value for v in child_values)
        if difference != 0:
            bundle.warnings.append(
                f"nested_sum_mismatch parent={parent_name!r} measure={measure} "
                f"difference={difference}"
            )


# -- serialization -----------------------------------------------------------


def bundle_from_json(data: dict) -> ExtractionBundle:
    """Decode and validate a bundle written through ``values.encode``."""
    bundle = load(ExtractionBundle, data)
    validate_bundle(bundle)
    return bundle


def bundle_filename(cik: int, fiscal_year: int) -> str:
    return f"{cik}_{fiscal_year}.bundle.json"


def dump_bundle(bundle: ExtractionBundle, directory: str | Path) -> Path:
    path = Path(directory) / bundle_filename(bundle.cik, bundle.fiscal_year)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(bundle, default=encode, indent=2, sort_keys=True) + "\n")
    return path


def load_bundle(path: str | Path) -> ExtractionBundle:
    """Read a bundle file; a malformed or invalid one raises SchemaError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return bundle_from_json(data)
    except (json.JSONDecodeError, SchemaError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
