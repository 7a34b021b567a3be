"""Longitudinal and cross-firm comparability of segment disclosures.

Two layers. A deterministic layer detects within-firm segment-name changes
by normalized set comparison and aggregates geographic components into
declared region schemes with exact arithmetic. A grounded layer asks the
gateway to interpret detected changes (reason, linkage, prior-to-current
mapping) against retrieved multi-year context, and to arbitrate geographic
labels the scheme does not list. Model answers are validated against
closed vocabularies; malformed answers degrade after one format retry
to "unknown" (a change) or to an excluded label.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal
from functools import partial
from pathlib import Path

from .errors import SchemaError, ValidationError
from .extraction import SegmentRecord, validate_yes_no
from .gateway import Gateway, PromptRequest, ask_checked
from .retrieval import ChunkIndex, ContextBlock, RetrievalResult, assemble_context, retrieve
from .store import SegmentStore
from .templates import (
    CHANGE_FORMAT_RULES,
    CHANGE_RETRY_REMINDER,
    FORMAT_RULES,
    LINKAGE_CLASSES,
    REASON_CLASSES,
    RETRY_REMINDERS,
    SYSTEM_PREAMBLE,
    AnswerShape,
    change_explanation_question,
    region_membership_question,
)
from .values import (
    Money, Scale, collapse_ws, load, money_sum, parse_monetary, percent_of, render_amount, render_csv,
    render_fixed_width,
)

CHANGE_CONTEXT_QUERY = "reportable segments segment reporting change"
CHANGE_TABLE_HEADER = [
    "Year", "Reportable Segment Name(s)", "Change?", "Reason for Change",
    "Linked with Prior Segment?",
]

_STOPWORDS = {"and", "&", "of", "the"}


@dataclass
class ChangeRow:
    fiscal_year: int
    segment_names: list[str]
    changed: bool
    reason: str | None = None
    reason_text: str = ""
    linkage: str | None = None
    linkage_text: str = ""
    mapping: list[tuple[tuple[str, ...], str]] = field(default_factory=list)
    cites: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.changed and (self.reason is not None or self.linkage is not None):
            raise ValueError("unchanged year cannot carry reason or linkage")
        if self.reason is not None and self.reason not in REASON_CLASSES:
            raise ValueError(f"unknown reason class {self.reason!r}")
        if self.linkage is not None and self.linkage not in LINKAGE_CLASSES:
            raise ValueError(f"unknown linkage class {self.linkage!r}")


def normalize_segment_name(name: str) -> str:
    """Fold case/whitespace/conjunction variants for set comparison."""
    text = collapse_ws(name).casefold().replace("&", "and")
    text = re.sub(r"[.,]", "", text)
    return collapse_ws(text)


def initialism(name: str) -> str:
    words = [w for w in re.split(r"[\s\-]+", normalize_segment_name(name)) if w]
    return "".join(w[0] for w in words if w not in _STOPWORDS)


def name_matches(candidate: str, official: str) -> bool:
    """candidate names official either verbatim (normalized) or as initialism."""
    cand = normalize_segment_name(candidate)
    if cand == normalize_segment_name(official):
        return True
    return cand.replace(" ", "") == initialism(official)


def detect_changes(panel: list[tuple[int, list[str]]],
                   warnings: list[str] | None = None) -> list[ChangeRow]:
    """Deterministic layer: changed(y) iff the normalized name set moved.

    The first covered year is reported as unchanged by convention. If years
    are non-consecutive, a GapInYears warning is recorded and detection
    still compares each year against the nearest prior available year.
    """
    rows: list[ChangeRow] = []
    ordered = sorted(panel, key=lambda entry: entry[0])
    previous: set[str] | None = None
    previous_year: int | None = None
    for year, names in ordered:
        current = {normalize_segment_name(n) for n in names}
        if previous is None:
            changed = False
        else:
            if warnings is not None and year != previous_year + 1:
                warnings.append(f"GapInYears: no data between {previous_year} and {year}")
            changed = current != previous
        rows.append(ChangeRow(fiscal_year=year, segment_names=list(names), changed=changed))
        previous = current
        previous_year = year
    return rows


# -- grounded change explanation ---------------------------------------------


def _parse_mapping(raw: str, prior_names: list[str], current_names: list[str]):
    mapping: list[tuple[tuple[str, ...], str]] = []
    if not raw:
        return mapping
    for part in raw.split("|"):
        part = part.strip()
        if not part:
            continue
        if "->" not in part:
            raise ValidationError(f"mapping entry without '->': {part!r}")
        left, right = part.split("->", 1)
        sources = tuple(s.strip() for s in left.split("+") if s.strip())
        target = right.strip()
        if not sources or not target:
            raise ValidationError(f"incomplete mapping entry: {part!r}")
        for source in sources:
            if not any(name_matches(source, name) for name in prior_names):
                raise ValidationError(f"mapping source {source!r} not among prior segments")
        if target.casefold() != "discontinued" and not any(
            name_matches(target, name) for name in current_names
        ):
            raise ValidationError(f"mapping target {target!r} not among current segments")
        mapping.append((sources, target))
    return mapping


def _grounded_request(index: ChunkIndex, gateway: Gateway, results: list[RetrievalResult],
                      budget_chars: int, display_name: str, request_id: str, question: str,
                      format_rules: str) -> tuple[ContextBlock, PromptRequest]:
    """Upload the context assembled from ``results``; the request asking ``question`` against it."""
    context = assemble_context(index, results, budget_chars)
    data = context.text.encode("utf-8")
    handle = gateway.upload_bytes(data, hashlib.sha256(data).hexdigest(), display_name)
    return context, PromptRequest(handle, question, request_id, SYSTEM_PREAMBLE, format_rules)


def _check_change(row: ChangeRow, prior_names: list[str], chunk_ids: list[str],
                  text: str) -> ChangeRow:
    """``row`` explained by the change answer ``text``; ValidationError if it is not valid."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, value = line.split(":", 1)
        fields[key.strip().casefold()] = value.strip()
    for required in ("reason", "linkage", "cites"):
        if required not in fields:
            raise ValidationError(f"change answer missing {required!r} line: {text!r}")
    reason = fields["reason"].casefold()
    linkage = fields["linkage"].casefold()
    if reason not in REASON_CLASSES:
        raise ValidationError(f"reason {reason!r} outside ReasonClass")
    if linkage not in LINKAGE_CLASSES:
        raise ValidationError(f"linkage {linkage!r} outside LinkageClass")
    cites = [c.strip() for c in fields["cites"].split(";") if c.strip()]
    valid_cites = [c for c in cites if c in chunk_ids]
    if not valid_cites:
        raise ValidationError(f"no cited chunk id is in the retrieved context: {cites!r}")
    return replace(
        row, reason=reason, linkage=linkage, cites=valid_cites,
        mapping=_parse_mapping(fields.get("mapping", ""), prior_names, row.segment_names),
        reason_text=f"{fields.get('explanation', '')} [cites: {'; '.join(valid_cites)}]".strip(),
        linkage_text=fields.get("mapping", ""),
    )


def explain_changes(cik: int, panel: list[tuple[int, list[str]]], index: ChunkIndex,
                    gateway: Gateway, warnings: list[str] | None = None) -> list[ChangeRow]:
    """Grounded layer: classify each detected change with retrieved context.

    For every changed year the adjacent years' chunks are retrieved,
    assembled into a provenance-headed context, uploaded as the grounding
    document, and the gateway must answer with one ReasonClass keyword, one
    LinkageClass keyword, a prior-to-current mapping, and chunk citations.
    All the years are asked in one ``ask_checked`` batch; an answer still
    invalid after its format retry degrades the row to reason="unknown".
    """
    warnings = warnings if warnings is not None else []
    rows = detect_changes(panel, warnings)
    by_year = {year: names for year, names in panel}
    years = sorted(by_year)
    asked = {}
    for row in rows:
        if not row.changed:
            continue
        position = years.index(row.fiscal_year)
        prior_year = years[position - 1]
        results = [
            retrieve(index, CHANGE_CONTEXT_QUERY, 4,
                     {"cik": cik, "fiscal_year": year})
            for year in (prior_year, row.fiscal_year)
        ]
        if not any(result.hits for result in results):
            continue
        context, request = _grounded_request(
            index, gateway, results, 12000,
            display_name=f"context_{cik}_{row.fiscal_year}",
            request_id=f"chg-{cik}-{row.fiscal_year}-1",
            question=change_explanation_question(
                cik, prior_year, row.fiscal_year, by_year[prior_year], row.segment_names),
            format_rules=CHANGE_FORMAT_RULES,
        )
        asked[row.fiscal_year] = (request, partial(_check_change, row, by_year[prior_year],
                                                   context.chunk_ids), CHANGE_RETRY_REMINDER)
    answers = dict(zip(asked, ask_checked(gateway, list(asked.values())).result()))
    for i, row in enumerate(rows):
        if not row.changed:
            continue
        answer = answers.get(row.fiscal_year)
        if answer is None:
            warnings.append(f"RetrievalEmpty: no context for {cik} {row.fiscal_year}")
            row.reason = "unknown"
            row.reason_text = "no retrieved context"
        elif answer.invalid is not None:
            warnings.append(f"change explanation for {row.fiscal_year} invalid: {answer.invalid}")
            row.reason = "unknown"
            row.reason_text = f"validation failed: {answer.invalid}"
        elif answer.error is not None:
            raise answer.error
        else:
            rows[i] = answer.value
    return rows


# -- regional alignment --------------------------------------------------------


@dataclass(frozen=True)
class RegionScheme:
    region_name: str
    member_labels: frozenset[str]  # normalized

    @classmethod
    def from_labels(cls, region_name: str, labels) -> "RegionScheme":
        members = frozenset(normalize_label(label) for label in labels)
        if not members:
            raise ValueError("region scheme needs at least one member label")
        return cls(region_name=region_name, member_labels=members)

    @classmethod
    def from_json(cls, path: str | Path) -> "RegionScheme":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            return cls.from_labels(load(str, data["region_name"]), load(list[str], data["member_labels"]))
        except (KeyError, SchemaError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: {type(exc).__name__}: {exc}") from exc

    def contains(self, label: str) -> bool:
        return normalize_label(label) in self.member_labels


def normalize_label(label: str) -> str:
    return collapse_ws(label).casefold()


def _label_ambiguous(label: str, scheme: RegionScheme) -> bool:
    tokens = set(re.findall(r"[a-z]+", normalize_label(label)))
    for member in scheme.member_labels:
        if tokens & set(re.findall(r"[a-z]+", member)):
            return True
    return False


@dataclass
class AlignmentRow:
    """One year of ``align_regions``; each region total is stated at the finest
    scale among its firm's components."""
    fiscal_year: int
    firm_a_components: list[tuple[str, Decimal, Scale]]
    firm_b_components: list[tuple[str, Decimal, Scale]]
    firm_a_region_total: Decimal
    firm_b_region_total: Decimal
    firm_a_pct_of_total: Decimal | None
    firm_b_pct_of_total: Decimal | None
    warnings: list[str] = field(default_factory=list)


def _arbitration(label: str, cik: int, year: int, scheme: RegionScheme,
                 index: ChunkIndex | None, gateway: Gateway | None):
    """The yes/no item that arbitrates a label absent from the scheme, or the
    warning that excludes it unasked."""
    if index is None or gateway is None:
        return f"LabelAmbiguity: {label!r} ({cik}, {year}) unresolved; excluded"
    result = retrieve(index, f"{label} geographic revenue", 4,
                      {"cik": cik, "fiscal_year": year})
    if not result.hits:
        return f"LabelAmbiguity: no context for {label!r} ({cik}, {year}); excluded"
    _, request = _grounded_request(
        index, gateway, [result], 8000,
        display_name=f"region_{cik}_{year}",
        request_id=f"rgn-{cik}-{year}-{normalize_label(label).replace(' ', '_')}",
        question=region_membership_question(label, scheme.region_name, year),
        format_rules=FORMAT_RULES[AnswerShape.YES_NO],
    )
    return request, validate_yes_no, RETRY_REMINDERS[AnswerShape.YES_NO]


def _firm_components(records: list[SegmentRecord], cik: int, year: int, scheme: RegionScheme,
                     verdicts: dict, warnings: list[str]) -> list[tuple[str, Decimal, Scale]]:
    components: list[tuple[str, Decimal, Scale]] = []
    for record in records:
        member = scheme.contains(record.name) or verdicts.get((cik, year, record.name), False)
        if isinstance(member, str):  # the warning that excludes the label
            warnings.append(member)
            continue
        if not member:
            continue
        money = record.measures.get("revenue")
        if money is None:
            warnings.append(f"{record.name!r} ({cik}, {year}) has no revenue measure; skipped")
            continue
        components.append((record.name, money.value, money.scale))
    return components


def _firm_total(store: SegmentStore, cik: int, year: int, components: list[tuple[str, Decimal, Scale]],
                warnings: list[str]) -> tuple[Money, Decimal | None]:
    """The exact sum of a firm's components, and its percentage of the firm's revt."""
    total = money_sum(Money(value, scale) for _, value, scale in components)
    if any(scale != total.scale for _, _, scale in components):
        warnings.append(f"mixed component scales in {year} for {cik}; total stated in {total.scale.value}")
    if not components:
        return total, Decimal("0.0")
    bundle = store.get(cik, year)
    revt_text = (bundle.general_fields.get("revt", "") if bundle else "").strip()
    try:
        revt = parse_monetary(revt_text)
    except ValueError:
        warnings.append(f"MissingTotalRevenue: no usable revt for ({cik}, {year}); pct omitted")
        return total, None
    if revt.units == 0:
        warnings.append(f"MissingTotalRevenue: zero revt for ({cik}, {year}); pct omitted")
        return total, None
    pct = percent_of(total.units, revt.units)
    if pct > 100:
        warnings.append(f"pct over 100 for ({cik}, {year}); possible scale mismatch")
    return total, pct


def align_regions(firm_a: int, firm_b: int, scheme: RegionScheme,
                  years: tuple[int, int], store: SegmentStore,
                  index: ChunkIndex | None = None,
                  gateway: Gateway | None = None) -> list[AlignmentRow]:
    """Aggregate each firm's in-region geographic components per year.

    Components come from stored geographic records whose normalized label
    is a scheme member. A firm's total is their exact sum, stated at the
    finest scale among them (``values.money_sum``); percentages divide its
    units by the bundle's consolidated revt (never re-derived from segment
    sums).
    Labels the scheme does not list but shares a word with are arbitrated
    by the gateway, all in one ``ask_checked`` batch.
    """
    plan = []
    verdicts = {}  # (cik, year, label) -> arbitration item, then True, False or a warning
    for year in range(years[0], years[1] + 1):
        firms = [[record for record in store.query_segments(cik, year, axis="geographic")
                  if record.parent_name is None] for cik in (firm_a, firm_b)]
        plan.append((year, firms))
        for cik, records in zip((firm_a, firm_b), firms):
            for record in records:
                if not scheme.contains(record.name) and _label_ambiguous(record.name, scheme):
                    verdicts[(cik, year, record.name)] = _arbitration(
                        record.name, cik, year, scheme, index, gateway)
    asked = {key: item for key, item in verdicts.items() if isinstance(item, tuple)}
    answers = ask_checked(gateway, list(asked.values())).result() if asked else []  # gateway may be None
    for key, answer in zip(asked, answers):
        if answer.invalid is not None:
            verdicts[key] = (f"LabelAmbiguity: arbitration for {key[2]!r} invalid (expected Yes "
                             f"or No, got {answer.text.strip().casefold()!r}); excluded")
        elif answer.error is not None:
            raise answer.error
        else:
            verdicts[key] = answer.value
    rows: list[AlignmentRow] = []
    for year, firms in plan:
        warnings: list[str] = []
        parts = [_firm_components(records, cik, year, scheme, verdicts, warnings)
                 for cik, records in zip((firm_a, firm_b), firms)]
        if not any(parts) and store.get(firm_a, year) is None and store.get(firm_b, year) is None:
            continue
        (total_a, pct_a), (total_b, pct_b) = [_firm_total(store, cik, year, firm, warnings)
                                              for cik, firm in zip((firm_a, firm_b), parts)]
        rows.append(AlignmentRow(year, *parts, total_a.value, total_b.value, pct_a, pct_b, warnings))
    return rows


# -- rendering -----------------------------------------------------------------


def _mapping_text(row: ChangeRow) -> str:
    if row.linkage_text:
        return f"{(row.linkage or '').capitalize()} ({row.linkage_text})" if row.linkage else row.linkage_text
    return ""


def render_change_csv(rows: list[ChangeRow]) -> str:
    table = [CHANGE_TABLE_HEADER]
    for row in rows:
        table.append([
            row.fiscal_year,
            "; ".join(row.segment_names),
            "Yes" if row.changed else "No",
            row.reason_text if row.changed else "",
            _mapping_text(row) if row.changed else "",
        ])
    return render_csv(table)


def render_change_text(rows: list[ChangeRow]) -> str:
    table = [CHANGE_TABLE_HEADER]
    for row in rows:
        table.append([
            str(row.fiscal_year),
            "; ".join(row.segment_names),
            "Yes" if row.changed else "No",
            (row.reason or "") if row.changed else "",
            (row.linkage or "") if row.changed else "",
        ])
    return render_fixed_width(table)


def alignment_table_header(firm_a: str, firm_b: str, region: str) -> list[str]:
    return [
        "Year",
        f"Segments in {region} for {firm_a}",
        f"Segments in {region} for {firm_b}",
        f"Detailed Segment Performance for {firm_a}",
        f"Detailed Segment Performance for {firm_b}",
        f"Sales for {firm_a} in {region}",
        f"Sales for {firm_b} in {region}",
        f"% {region} / Total {firm_a}",
        f"% {region} / Total {firm_b}",
    ]


def _total_scale(components: list[tuple[str, Decimal, Scale]]) -> Scale:
    return money_sum(Money(value, scale) for _, value, scale in components).scale


def _alignment_table(rows: list[AlignmentRow], firm_a: str, firm_b: str,
                     region: str) -> list[list[str]]:
    """The header, then one line per row. Where a row's amounts mix scales, within
    a firm or across the two, each amount carries its scale word; a total is
    stated at the scale ``money_sum`` gives it."""
    table = [alignment_table_header(firm_a, firm_b, region)]
    for row in rows:
        firms = [(row.firm_a_components, row.firm_a_region_total, row.firm_a_pct_of_total),
                 (row.firm_b_components, row.firm_b_region_total, row.firm_b_pct_of_total)]
        scales = [scale for components, _, _ in firms for _, _, scale in components]
        mixed = any(scale != scales[0] for scale in scales)
        table.append([
            str(row.fiscal_year),
            *(", ".join(label for label, _, _ in components) for components, _, _ in firms),
            *("; ".join(f"{label}, {render_amount(value, scale if mixed else None)}"
                        for label, value, scale in components) for components, _, _ in firms),
            *(render_amount(total, _total_scale(components) if mixed else None)
              for components, total, _ in firms),
            *("" if pct is None else f"{pct}%" for _, _, pct in firms),
        ])
    return table


def render_alignment_csv(rows: list[AlignmentRow], firm_a: str, firm_b: str,
                         region: str) -> str:
    return render_csv(_alignment_table(rows, firm_a, firm_b, region))


def render_alignment_text(rows: list[AlignmentRow], firm_a: str, firm_b: str,
                          region: str) -> str:
    return render_fixed_width(_alignment_table(rows, firm_a, firm_b, region))
