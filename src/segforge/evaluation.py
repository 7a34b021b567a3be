"""Evaluation protocol: cell accuracy and Table-2 reports.

Gold labels are human-authored JSON; this module never invents truth. A
group pairs a set of filings with a set of cells; scoring compares model
classifications and extracted cell values against the gold labels, with
monetary normalization so "$3,300 million" and "3,300 million" agree.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import CoverageError, SchemaError
from .extraction import ExtractionBundle, MULTI_SEGMENT
from .values import load, normalized_value_equal, render_amount, render_fixed_width

PanelKey = tuple[int, int]


@dataclass(frozen=True)
class GoldFiling:
    cik: int
    fiscal_year: int
    is_multi_segment: bool
    has_nested: bool

    @property
    def key(self) -> PanelKey:
        return (self.cik, self.fiscal_year)


@dataclass(frozen=True)
class GoldCell:
    cik: int
    fiscal_year: int
    segment: str
    measure: str  # measure kind or general field name
    gold_value: str
    tier: str = ""  # "reportable" | "nested" | "" (derive from bundle)

    @property
    def key(self) -> PanelKey:
        return (self.cik, self.fiscal_year)


@dataclass
class GoldLabelSet:
    group_id: str
    filings: list[GoldFiling] = field(default_factory=list)
    cells: list[GoldCell] = field(default_factory=list)

    @classmethod
    def from_json(cls, path: str | Path) -> "GoldLabelSet":
        try:  # ValueError: also bytes that are not UTF-8
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except (AttributeError, KeyError, SchemaError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "GoldLabelSet":
        filings = load(list[GoldFiling], data.get("filings", []))
        rows = [{"tier": "", **row} for row in data.get("cells", [])]  # "tier" is optional
        for row in rows:
            row.pop("correct", None)  # an audit file's verdict; scoring derives its own
        cells = load(list[GoldCell], rows)
        for cell in cells:
            if not cell.gold_value.strip():
                raise SchemaError(f"gold cell with empty gold_value: {cell!r}")
        return cls(group_id=load(str, data.get("group_id", "group")), filings=filings, cells=cells)


@dataclass(frozen=True)
class CellVerdict:
    cik: int
    fiscal_year: int
    segment: str
    measure: str
    gold_value: str
    extracted_value: str
    correct: bool
    tier: str


@dataclass
class EvalReport:
    group_id: str
    n_filings: int
    n_multi_manual: int
    n_multi_model: int
    primary_accuracy: float
    n_nested_manual: int
    n_nested_model: int
    nested_accuracy: float
    primary_verdicts: list[CellVerdict] = field(default_factory=list)
    nested_verdicts: list[CellVerdict] = field(default_factory=list)

    def __post_init__(self):
        for value in (self.primary_accuracy, self.nested_accuracy):
            if not (0.0 <= value <= 100.0):
                raise ValueError(f"accuracy out of range: {value}")
        for count in (self.n_multi_manual, self.n_multi_model,
                      self.n_nested_manual, self.n_nested_model):
            if count > self.n_filings:
                raise ValueError("classification count exceeds n_filings")


# -- scoring -------------------------------------------------------------------


def _extracted_cell_value(bundle: ExtractionBundle, cell: GoldCell) -> tuple[str, str]:
    """Returns (extracted string, tier). Missing values come back empty."""
    for tier, records in (("reportable", bundle.reportable), ("nested", bundle.nested)):
        if cell.tier and cell.tier != tier:
            continue
        for record in records:
            if record.name == cell.segment:
                money = record.measures.get(cell.measure)
                if money is None:
                    return "", tier
                return render_amount(money.value, money.scale), tier
    if cell.segment == "" and cell.measure in bundle.general_fields:
        return bundle.general_fields[cell.measure], cell.tier or "reportable"
    return "", cell.tier or "reportable"


def score(gold: GoldLabelSet, bundles: list[ExtractionBundle]) -> EvalReport:
    """Score classification agreement and cell accuracy against gold labels."""
    if not gold.cells:
        raise CoverageError("gold label set has no cells to score")
    by_key = {bundle.key: bundle for bundle in bundles}
    for filing in gold.filings:
        if filing.key not in by_key:
            raise CoverageError(f"no bundle for gold filing {filing.key}")

    n_multi_manual = sum(1 for f in gold.filings if f.is_multi_segment)
    n_multi_model = sum(
        1 for f in gold.filings
        if by_key[f.key].classification.kind == MULTI_SEGMENT
    )
    n_nested_manual = sum(1 for f in gold.filings if f.has_nested)
    n_nested_model = sum(1 for f in gold.filings if by_key[f.key].nested)

    primary: list[CellVerdict] = []
    nested: list[CellVerdict] = []
    for cell in gold.cells:
        bundle = by_key.get(cell.key)
        if bundle is None:
            raise CoverageError(f"no bundle for gold cell {cell.key}")
        extracted, tier = _extracted_cell_value(bundle, cell)
        correct = bool(extracted) and normalized_value_equal(extracted, cell.gold_value)
        verdict = CellVerdict(
            cik=cell.cik,
            fiscal_year=cell.fiscal_year,
            segment=cell.segment,
            measure=cell.measure,
            gold_value=cell.gold_value,
            extracted_value=extracted,
            correct=correct,
            tier=tier,
        )
        (primary if tier == "reportable" else nested).append(verdict)

    return EvalReport(
        group_id=gold.group_id,
        n_filings=len(gold.filings),
        n_multi_manual=n_multi_manual,
        n_multi_model=n_multi_model,
        primary_accuracy=_accuracy(primary),
        n_nested_manual=n_nested_manual,
        n_nested_model=n_nested_model,
        nested_accuracy=_accuracy(nested),
        primary_verdicts=primary,
        nested_verdicts=nested,
    )


def _accuracy(verdicts: list[CellVerdict]) -> float:
    if not verdicts:
        return 0.0
    return round(100.0 * sum(1 for v in verdicts if v.correct) / len(verdicts), 1)


# -- reporting -----------------------------------------------------------------


def report_to_json(report: EvalReport) -> dict:
    return asdict(report)


_TABLE2_ROWS = [
    ("Num of 10-K Filings", lambda r: str(r.n_filings)),
    ("Num of Firms with Multi-Segment Disclosure", lambda r: str(r.n_multi_manual)),
    ("Model Identified Multi-Segment Filings", lambda r: str(r.n_multi_model)),
    ("Primary Segment Extraction Accuracy (%)", lambda r: f"{r.primary_accuracy}%"),
    ("Num of Observations with Nested Disclosure", lambda r: str(r.n_nested_manual)),
    ("Model Identified Nested Disclosure", lambda r: str(r.n_nested_model)),
    ("Nested Segment Extraction Accuracy (%)", lambda r: f"{r.nested_accuracy}%"),
]


def render_table2(reports: list[EvalReport]) -> str:
    """Text block shaped like the evaluation summary table."""
    header = [""] + [r.group_id for r in reports]
    lines = [header] + [
        [label] + [value_of(r) for r in reports] for label, value_of in _TABLE2_ROWS
    ]
    return render_fixed_width(lines, right_justify_values=True)
