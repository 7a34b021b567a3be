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
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

from .edgar import CachedDocument
from .errors import BatchError, SchemaError, ScriptMissError, ValidationError
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
from .values import Money, Scale, parse_monetary

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
    cik: int
    fiscal_year: int
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
    for record in [*bundle.reportable, *bundle.nested]:
        if (record.cik, record.fiscal_year) != bundle.key:
            raise SchemaError(f"record {record.name!r} carries a foreign firm-year")


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


class ExtractionPipeline:
    """Runs the staged workflow for one firm-year at a time.

    Request ids are "<cik>-<fy>-<seq>" with a per-firm-year counter, so
    scripted runs assign identical ids on every execution.

    Every answer goes through one validate-and-retry path, ``_ask_all``: an
    answer that fails its shape check gets one format-reminder retry.
    Required answers (the classification, segment names and nested names)
    raise on a terminal failure, since no bundle can be built without them.
    Optional answers (measures, nested detection and general fields) become
    a warning and are left out of the bundle (general fields read
    "Not provided"). A script miss on a first ask always raises: in scripted
    mode it is a fixture bug, never data.
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

    def _next_id(self, cik: int, fy: int) -> str:
        with self._lock:
            seq = self._seq.get((cik, fy), 0) + 1
            self._seq[(cik, fy)] = seq
        return f"{cik}-{fy}-{seq:04d}"

    def _request(self, handle: FileHandle, question: str, shape: AnswerShape,
                 cik: int, fy: int) -> PromptRequest:
        return PromptRequest(
            file=handle,
            question=question,
            request_id=self._next_id(cik, fy),
            system_preamble=SYSTEM_PREAMBLE,
            format_rules=FORMAT_RULES[shape],
        )

    def _ask_all(self, handle: FileHandle, items: list[tuple[str, AnswerShape]],
                 cik: int, fy: int, warnings: list[str] | None = None) -> list:
        """Validated ask_many with one format-reminder retry per invalid answer.

        Returns a list aligned with items; each element is (value, raw text,
        request_ids used). With ``warnings=None`` the answers are required
        and a terminal failure raises: the request's own error, or the last
        ValidationError (the first one when the retry has no script entry).
        Otherwise a failed answer is None and the failure is recorded in
        warnings.
        """
        requests = [self._request(handle, q, shape, cik, fy) for q, shape in items]
        try:
            completions = dict(enumerate(self.gateway.ask_many(requests)))
        except BatchError as batch:
            completions = batch.completions
            for index, error in sorted(batch.errors.items()):
                if warnings is None or isinstance(error, ScriptMissError):
                    raise error
                warnings.append(f"request {requests[index].request_id} failed: {error}")
        results: list = [None] * len(items)
        for i, completion in sorted(completions.items()):
            question, shape = items[i]
            ids = [requests[i].request_id]
            try:
                results[i] = (_VALIDATORS[shape](completion.text), completion.text, ids)
            except ValidationError as first_error:
                retry = self._request(handle, retry_question(question, shape), shape, cik, fy)
                ids.append(retry.request_id)
                try:
                    second = self.gateway.ask(retry)
                    results[i] = (_VALIDATORS[shape](second.text), second.text, ids)
                except (ValidationError, ScriptMissError) as exc:
                    if warnings is None:
                        raise first_error if isinstance(exc, ScriptMissError) else exc
                    warnings.append(f"request {requests[i].request_id} invalid after retry: {exc}")
        return results

    def _extract_tier(self, handle: FileHandle, names_question: str, parent: str | None,
                      cik: int, fy: int, warnings: list[str]) -> list[SegmentRecord]:
        """Ask for one tier's names, then fan out every measure per name.

        ``parent`` is None for reportable segments. Only reportable measures
        warn on a missing scale word; only nested names feed the names
        question to ``infer_axis``.
        """
        [((names, list_warnings), _, name_ids)] = self._ask_all(
            handle, [(names_question, AnswerShape.DELIMITED_LIST)], cik, fy
        )
        warnings.extend(list_warnings)
        nested = parent is not None
        records = [
            SegmentRecord(
                cik=cik,
                fiscal_year=fy,
                name=name,
                axis=infer_axis(name, nested=nested, question=names_question if nested else ""),
                parent_name=parent,
                provenance=list(name_ids),
            )
            for name in names
        ]
        items = [
            (nested_measure_question(measure, record.name, parent) if nested
             else measure_question(measure, record.name), AnswerShape.MONETARY)
            for record in records
            for measure in self.measures
        ]
        answers = self._ask_all(handle, items, cik, fy, warnings)
        for i, answer in enumerate(answers):
            if answer is None:
                continue
            record = records[i // len(self.measures)]
            measure = self.measures[i % len(self.measures)]
            money, _, ids = answer
            record.provenance.extend(ids)
            if money is None:  # "Not provided"
                continue
            if not nested and not money.scale_explicit:
                warnings.append(
                    f"measure {measure} for {record.name!r} has no scale word; taking value as-is"
                )
            record.measures[measure] = money
        return records

    # -- stages -------------------------------------------------------------

    def classify_segmentation(self, handle: FileHandle, cik: int, fy: int) -> SegmentationClass:
        [(is_multi, raw, _)] = self._ask_all(
            handle, [(CLASSIFY_QUESTION, AnswerShape.YES_NO)], cik, fy
        )
        return SegmentationClass(kind=MULTI_SEGMENT if is_multi else SINGLE_UNIT, raw_response=raw)

    def extract_reportable(self, handle: FileHandle, cik: int, fy: int,
                           warnings: list[str]) -> list[SegmentRecord]:
        return self._extract_tier(handle, SEGMENT_NAMES_QUESTION, None, cik, fy, warnings)

    def detect_nested(self, handle: FileHandle, reportable: list[SegmentRecord],
                      cik: int, fy: int, warnings: list[str]) -> dict[str, bool]:
        items = [
            (nested_detect_question(record.name), AnswerShape.YES_NO) for record in reportable
        ]
        answers = self._ask_all(handle, items, cik, fy, warnings)
        return {record.name: answer[0]
                for record, answer in zip(reportable, answers) if answer is not None}

    def extract_nested(self, handle: FileHandle, parent: SegmentRecord,
                       cik: int, fy: int, warnings: list[str]) -> list[SegmentRecord]:
        return self._extract_tier(handle, nested_names_question(parent.name), parent.name,
                                  cik, fy, warnings)

    def extract_general_fields(self, handle: FileHandle, cik: int, fy: int,
                               warnings: list[str]) -> dict[str, str]:
        items = [(spec.question, spec.answer_shape) for spec in GENERAL_FIELDS]
        answers = self._ask_all(handle, items, cik, fy, warnings)
        # Store the raw validated text; interpretation (e.g. parsing revt
        # into a number) happens at point of use.
        return {spec.field_name: NOT_PROVIDED if answer is None else answer[1].strip()
                for spec, answer in zip(GENERAL_FIELDS, answers)}

    def run_pipeline(self, doc: CachedDocument, cik: int, fy: int) -> ExtractionBundle:
        handle = self.gateway.upload(doc)
        warnings: list[str] = []
        classification = self.classify_segmentation(handle, cik, fy)
        general = self.extract_general_fields(handle, cik, fy, warnings)
        reportable: list[SegmentRecord] = []
        nested: list[SegmentRecord] = []
        if classification.kind == MULTI_SEGMENT:
            reportable = self.extract_reportable(handle, cik, fy, warnings)
            flags = self.detect_nested(handle, reportable, cik, fy, warnings)
            for record in reportable:
                if flags.get(record.name):
                    nested.extend(self.extract_nested(handle, record, cik, fy, warnings))
        bundle = ExtractionBundle(
            cik=cik,
            fiscal_year=fy,
            classification=classification,
            general_fields=general,
            reportable=reportable,
            nested=nested,
            warnings=warnings,
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


def _money_dict(money: Money) -> dict:
    return {"value": str(money.value), "scale": money.scale.value,
            "scale_explicit": money.scale_explicit}


def _record_dict(record: SegmentRecord) -> dict:
    return {
        "name": record.name,
        "axis": record.axis,
        "measures": {k: _money_dict(v) for k, v in sorted(record.measures.items())},
        "parent_name": record.parent_name,
        "provenance": record.provenance,
    }


def bundle_to_json(bundle: ExtractionBundle) -> dict:
    return {
        "cik": bundle.cik,
        "fiscal_year": bundle.fiscal_year,
        "template_version": bundle.template_version,
        "classification": {
            "kind": bundle.classification.kind,
            "raw_response": bundle.classification.raw_response,
        },
        "general_fields": dict(sorted(bundle.general_fields.items())),
        "reportable": [_record_dict(r) for r in bundle.reportable],
        "nested": [_record_dict(r) for r in bundle.nested],
        "warnings": bundle.warnings,
    }


def _record_from_dict(data: dict, cik: int, fy: int) -> SegmentRecord:
    return SegmentRecord(
        cik=cik,
        fiscal_year=fy,
        name=data["name"],
        axis=data["axis"],
        measures={
            k: Money(Decimal(v["value"]), Scale(v["scale"]), v.get("scale_explicit", True))
            for k, v in data["measures"].items()
        },
        parent_name=data.get("parent_name"),
        provenance=list(data.get("provenance", [])),
    )


def bundle_from_json(data: dict) -> ExtractionBundle:
    cik = data["cik"]
    fy = data["fiscal_year"]
    bundle = ExtractionBundle(
        cik=cik,
        fiscal_year=fy,
        classification=SegmentationClass(
            kind=data["classification"]["kind"],
            raw_response=data["classification"]["raw_response"],
        ),
        general_fields=dict(data["general_fields"]),
        reportable=[_record_from_dict(r, cik, fy) for r in data["reportable"]],
        nested=[_record_from_dict(r, cik, fy) for r in data["nested"]],
        warnings=list(data["warnings"]),
        template_version=data.get("template_version", TEMPLATE_VERSION),
    )
    validate_bundle(bundle)
    return bundle


def bundle_filename(cik: int, fiscal_year: int) -> str:
    return f"{cik}_{fiscal_year}.bundle.json"


def dump_bundle(bundle: ExtractionBundle, directory: str | Path) -> Path:
    path = Path(directory) / bundle_filename(bundle.cik, bundle.fiscal_year)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bundle_to_json(bundle), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_bundle(path: str | Path) -> ExtractionBundle:
    return bundle_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
