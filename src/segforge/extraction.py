"""Three-stage file-grounded extraction of segment disclosures.

Stage 1 classifies the firm-year as single reporting unit vs. multiple
operating segments. Stage 2 extracts reportable segment names and their
financial measures. Stage 3 detects nested disclosures inside each
reportable segment and, where present, extracts the lower-tier components
with an explicit parent link. Every model answer is validated against its
declared answer shape before it may enter a bundle.
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Iterable, Iterator
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .edgar import CachedDocument
from .errors import SchemaError, ValidationError
from .gateway import FileHandle, Gateway, PromptRequest, ask_checked, then
from .templates import (
    AnswerShape,
    CLASSIFY_QUESTION,
    FORMAT_RULES,
    GENERAL_FIELD_NAMES,
    GENERAL_FIELDS,
    MEASURES,
    NOT_PROVIDED,
    RETRY_REMINDERS,
    SEGMENT_NAMES_QUESTION,
    SYSTEM_PREAMBLE,
    TEMPLATE_VERSION,
    measure_question,
    nested_detect_question,
    nested_names_question,
    nested_measure_question,
)
from .values import Money, encode, load, money_sum, parse_monetary, read

SINGLE_UNIT = "single_unit"
MULTI_SEGMENT = "multi_segment"

AXIS_BUSINESS = "business"
AXIS_GEOGRAPHIC = "geographic"
AXIS_PRODUCT = "product_offering"
AXIS_CUSTOMER = "customer"
AXIS_OTHER = "other"
AXES = {AXIS_BUSINESS, AXIS_GEOGRAPHIC, AXIS_PRODUCT, AXIS_CUSTOMER, AXIS_OTHER}

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
    stage, under the gateway's one in-flight budget. Each stage queues its
    prompts and returns a future; a step planned from an answer is a
    continuation, run on the worker that settles that answer before any
    worker takes another prompt, so no step blocks or holds a thread. The
    17 general fields go out with classify and are joined at the end. The
    chain runs classify, then the segment names, then their measures
    together with nested detection; the nested names for every flagged
    parent go out in one batch as soon as detection answers, and their
    measures after them. Every segment and component is asked the same
    ``MEASURES``: revenue, profit or loss, and assets.

    A prompt is filler when nothing but the bundle waits on its answer: the
    general fields and every measure of both tiers, with their retries.
    Classify, the segment names, nested detection and the nested names are
    critical, because another prompt is planned from each answer; a waiting
    critical prompt takes the next free slot before any waiting filler.

    Request ids are "<cik>-<fy>-<seq>" and never depend on completion
    order. Classify is always 0001 and the general fields 0002-0018, in
    template order. Every later first ask takes the next number from 0019
    off the run's counter, which only continuations advance, in plan order:
    names, measures, detection, nested names, nested measures. A format
    retry's id is its original's id plus "-r".

    Every answer is checked, and retried once, by ``gateway.ask_checked``.
    Required answers (the classification, segment names and nested names)
    raise on a terminal failure, since no bundle can be built without them.
    Optional answers (measures, nested detection and general fields) become
    a warning and are left out of the bundle (general fields read "Not
    provided"). Bundle warnings list the general fields' first, then the
    chain's, each in plan order; when stages fail together, the failure of
    the earliest stage in plan order is raised.
    """

    def __init__(self, gateway: Gateway):
        self.gateway = gateway

    @classmethod
    def from_config(cls, gateway: Gateway, config) -> "ExtractionPipeline":
        """The pipeline reads no setting; the shape matches the other components'."""
        return cls(gateway)

    def _ask_all(self, handle: FileHandle, items: list[tuple[str, AnswerShape]], cik: int,
                 fy: int, seqs: Iterable[int], read, warnings: list[str] | None = None,
                 filler: bool = False) -> Future:
        """Number the items from ``seqs`` and ask them through ``ask_checked``; the
        future of ``read`` of each item's Answer, in order.

        With ``warnings=None`` the answers are required and the earliest
        failure raises: the request's own error, or the ValidationError that
        stands for the answer. Otherwise a failed answer is None and each
        failure is recorded in warnings, in item order.
        """
        def settle(asked: Future):
            answers = asked.result()
            for answer in answers:
                if answer.error is None:
                    continue
                if warnings is None:
                    raise answer.invalid or answer.error
                failure = "failed" if answer.invalid is None else "invalid after retry"
                warnings.append(f"request {answer.ids[0]} {failure}: {answer.error}")
            return read([None if answer.error else answer for answer in answers])

        return then([ask_checked(self.gateway, [
            (PromptRequest(handle, question, f"{cik}-{fy}-{seq:04d}", SYSTEM_PREAMBLE,
                           FORMAT_RULES[shape]), _VALIDATORS[shape], RETRY_REMINDERS[shape])
            for (question, shape), seq in zip(items, seqs)
        ], filler)], settle)

    def _extract_tier(self, handle: FileHandle, parents: list[str | None], cik: int, fy: int,
                      warnings: list[str], seqs: Iterator[int]) -> tuple[Future, Future]:
        """Ask for the names under every parent in one batch, then every measure per name:
        the futures of the named records and of the same records once measured.

        ``parents`` is ``[None]`` for reportable segments. Only reportable
        measures warn on a missing scale word; only nested names feed the
        names question to ``infer_axis``. ``seqs`` is the run's request counter.
        """
        questions = [SEGMENT_NAMES_QUESTION if parent is None else nested_names_question(parent)
                     for parent in parents]

        def name(answers: list) -> list[SegmentRecord]:
            records: list[SegmentRecord] = []
            for parent, question, answer in zip(parents, questions, answers):
                names, list_warnings = answer.value
                warnings.extend(list_warnings)
                nested = parent is not None
                records += [SegmentRecord(name, infer_axis(name, nested, question if nested else ""),
                                          parent_name=parent, provenance=list(answer.ids))
                            for name in names]
            return records

        def measure(named: Future) -> Future:
            records = named.result()
            asked = [(record, measure) for record in records for measure in MEASURES]
            items = [(measure_question(measure, record.name) if record.parent_name is None
                      else nested_measure_question(measure, record.name, record.parent_name),
                      AnswerShape.MONETARY) for record, measure in asked]
            return self._ask_all(handle, items, cik, fy, seqs, partial(fill, records, asked),
                                 warnings, filler=True)

        def fill(records: list[SegmentRecord], asked: list, answers: list) -> list[SegmentRecord]:
            for (record, measure), answer in zip(asked, answers):
                if answer is None:
                    continue
                money = answer.value
                record.provenance.extend(answer.ids)
                if money is None:  # "Not provided"
                    continue
                if record.parent_name is None and not money.scale_explicit:
                    warnings.append(
                        f"measure {measure} for {record.name!r} has no scale word; taking value as-is"
                    )
                record.measures[measure] = money
            return records

        named = self._ask_all(handle, [(q, AnswerShape.DELIMITED_LIST) for q in questions], cik, fy,
                              seqs, name)
        return named, then([named], measure)

    # -- stages -------------------------------------------------------------
    # Each queues its prompts and returns at once: the future of its result,
    # or for a tier the futures of its named and of its measured records.

    def classify_segmentation(self, handle: FileHandle, cik: int, fy: int) -> Future:
        return self._ask_all(handle, [(CLASSIFY_QUESTION, AnswerShape.YES_NO)], cik, fy,
                             [_CLASSIFY_SEQ], lambda answers: SegmentationClass(
                                 kind=MULTI_SEGMENT if answers[0].value else SINGLE_UNIT,
                                 raw_response=answers[0].text))

    def extract_reportable(self, handle: FileHandle, cik: int, fy: int, warnings: list[str],
                           seqs: Iterator[int]) -> tuple[Future, Future]:
        return self._extract_tier(handle, [None], cik, fy, warnings, seqs)

    def detect_nested(self, handle: FileHandle, reportable: list[SegmentRecord], cik: int, fy: int,
                      warnings: list[str], seqs: Iterator[int]) -> Future:
        items = [(nested_detect_question(record.name), AnswerShape.YES_NO) for record in reportable]
        return self._ask_all(handle, items, cik, fy, seqs,
                             lambda answers: {record.name: answer.value
                                              for record, answer in zip(reportable, answers)
                                              if answer is not None}, warnings)

    def extract_nested(self, handle: FileHandle, parents: list[SegmentRecord], cik: int, fy: int,
                       warnings: list[str], seqs: Iterator[int]) -> tuple[Future, Future]:
        return self._extract_tier(handle, [parent.name for parent in parents], cik, fy, warnings, seqs)

    def extract_general_fields(self, handle: FileHandle, cik: int, fy: int,
                               warnings: list[str]) -> Future:
        items = [(spec.question, spec.answer_shape) for spec in GENERAL_FIELDS]
        # Store the raw validated text; interpretation (e.g. parsing revt
        # into a number) happens at point of use.
        return self._ask_all(handle, items, cik, fy, itertools.count(_GENERAL_SEQ), lambda answers: {
            spec.field_name: NOT_PROVIDED if answer is None else answer.text.strip()
            for spec, answer in zip(GENERAL_FIELDS, answers)
        }, warnings, filler=True)

    def run_pipeline(self, doc: CachedDocument, cik: int, fy: int) -> ExtractionBundle:
        handle = self.gateway.upload(doc)
        seqs = itertools.count(_CHAIN_SEQ)
        general_warnings: list[str] = []
        warnings: list[str] = []
        nested_warnings: list[str] = []

        def nested(named: Future) -> Future:
            reportable = named.result()
            # With no parent flagged, extract_nested asks nothing.
            return then([self.detect_nested(handle, reportable, cik, fy, nested_warnings, seqs)],
                        lambda flagged: self.extract_nested(handle, [
                            record for record in reportable if flagged.result().get(record.name)
                        ], cik, fy, nested_warnings, seqs)[1])

        def segments(classified: Future):
            if classified.result().kind == SINGLE_UNIT:
                return [], []
            named, measured = self.extract_reportable(handle, cik, fy, warnings, seqs)
            return then([measured, then([named], nested)],
                        lambda *tiers: [tier.result() for tier in tiers])

        def build(classified: Future, general: Future, chain: Future) -> ExtractionBundle:
            # Read in plan order, so that the earliest stage's failure is raised.
            return ExtractionBundle(cik, fy, classified.result(), general.result(), *chain.result(),
                                    warnings=general_warnings + warnings + nested_warnings)

        with self.gateway.paused():  # so that the chain runs on the worker that answers classify
            classified = self.classify_segmentation(handle, cik, fy)
            chain = then([classified], segments)
        general = self.extract_general_fields(handle, cik, fy, general_warnings)
        bundle = then([classified, general, chain], build).result()
        audit_nested_sums(bundle)
        validate_bundle(bundle)
        return bundle


def audit_nested_sums(bundle: ExtractionBundle) -> None:
    """Reconcile each parent's revenue against the exact sum of its children's.

    A nonzero difference is flagged as a warning, not an error: filings may
    omit residual categories from the nested breakdown. When the amounts mix
    scales, the difference is stated at the finest of them, with its word.
    """
    by_parent: dict[str, list[SegmentRecord]] = {}
    for record in bundle.nested:
        by_parent.setdefault(record.parent_name or "", []).append(record)
    parents = {r.name: r for r in bundle.reportable}
    for parent_name, children in sorted(by_parent.items()):
        parent = parents.get(parent_name)
        if parent is None or "revenue" not in parent.measures:
            continue
        amounts = [parent.measures["revenue"], *(child.measures.get("revenue") for child in children)]
        if None in amounts:
            continue
        difference = money_sum([amounts[0], *(Money(-v.value, v.scale) for v in amounts[1:])])
        if difference.value != 0:
            mixed = any(amount.scale != difference.scale for amount in amounts)
            bundle.warnings.append(
                f"nested_sum_mismatch parent={parent_name!r} measure=revenue "
                f"difference={difference.value}" + (f" {difference.scale.value}" if mixed else "")
            )


# -- serialization -----------------------------------------------------------


def bundle_from_json(data: dict) -> ExtractionBundle:
    """Decode and validate a bundle written through ``values.encode``."""
    bundle = load(ExtractionBundle, data)
    validate_bundle(bundle)
    return bundle


def bundle_filename(cik: int, fiscal_year: int) -> str:
    return f"{cik}_{fiscal_year}.bundle.json"


def bundle_json(bundle: ExtractionBundle) -> str:
    """The text of a bundle file, which ``load_bundle`` reads back."""
    return json.dumps(bundle, default=encode, indent=2, sort_keys=True) + "\n"


def load_bundle(path: str | Path) -> ExtractionBundle:
    """Read a bundle file; a malformed or invalid one raises SchemaError naming it."""
    bundle = read(ExtractionBundle, path)
    try:
        validate_bundle(bundle)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return bundle
