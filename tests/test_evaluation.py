"""Evaluation-protocol tests: gold labels, scoring, reports."""

from __future__ import annotations

import json
from decimal import Decimal

import pytest

import filingfab
from segforge.errors import CoverageError, SchemaError
from segforge.evaluation import (
    CellVerdict,
    EvalReport,
    GoldCell,
    GoldFiling,
    GoldLabelSet,
    _accuracy,
    render_table2,
    report_to_json,
    score,
)
from segforge.extraction import (
    AXIS_BUSINESS,
    SINGLE_UNIT,
    ExtractionBundle,
    SegmentationClass,
    SegmentRecord,
)
from segforge.values import Money, Scale


def multi_bundle(cik: int, year: int) -> ExtractionBundle:
    bundle = filingfab.geo_bundle(cik, year, "Scored Corp", "SCR",
                                  [("Americas", 600), ("Europe", 400)], 1000)
    bundle.nested.append(
        SegmentRecord(name="Consumer", axis=AXIS_BUSINESS,
                      parent_name="Americas",
                      measures={"revenue": Money(Decimal(250), Scale.MILLIONS)})
    )
    return bundle


def single_unit_bundle(cik: int, year: int) -> ExtractionBundle:
    return ExtractionBundle(
        cik=cik,
        fiscal_year=year,
        classification=SegmentationClass(kind=SINGLE_UNIT, raw_response="No"),
        general_fields=filingfab.general_responses(
            {"revt": filingfab.money_text(500)}),
    )


class TestGoldLabels:
    DATA = {
        "group_id": "By Hand",
        "filings": [
            {"cik": 10, "fiscal_year": 2020, "is_multi_segment": True, "has_nested": True},
        ],
        "cells": [
            {"cik": 10, "fiscal_year": 2020, "segment": "Americas",
             "measure": "revenue", "gold_value": "$600 million"},
        ],
    }

    def test_from_dict(self):
        gold = GoldLabelSet.from_dict(self.DATA)
        assert gold.group_id == "By Hand"
        assert gold.filings[0] == GoldFiling(10, 2020, True, True)
        cell = gold.cells[0]
        assert (cell.segment, cell.measure, cell.tier) == ("Americas", "revenue", "")

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "gold.json"
        path.write_text(json.dumps(self.DATA), encoding="utf-8")
        assert GoldLabelSet.from_json(path).cells == GoldLabelSet.from_dict(self.DATA).cells

    def test_blank_gold_value_rejected(self):
        data = dict(self.DATA)
        data["cells"] = [dict(self.DATA["cells"][0], gold_value="  ")]
        with pytest.raises(SchemaError):
            GoldLabelSet.from_dict(data)

    def test_group_id_defaults(self):
        assert GoldLabelSet.from_dict({}).group_id == "group"

    @pytest.mark.parametrize("group_id", [None, 5, ["a"]])
    def test_group_id_of_the_wrong_type_rejected(self, group_id):
        """No str() coercion: a null group_id would name the report eval_None.json."""
        with pytest.raises(SchemaError, match="is not a str"):
            GoldLabelSet.from_dict(dict(self.DATA, group_id=group_id))

    @pytest.mark.parametrize("key,value", [("is_multi_segment", "false"), ("has_nested", 0),
                                           ("cik", "10"), ("fiscal_year", 2020.0)])
    def test_filing_of_the_wrong_type_rejected(self, key, value):
        """No bool() or int() coercion: "false" would read as True."""
        data = dict(self.DATA)
        data["filings"] = [dict(self.DATA["filings"][0], **{key: value})]
        with pytest.raises(SchemaError, match=f"GoldFiling.{key}"):
            GoldLabelSet.from_dict(data)

    @pytest.mark.parametrize("key,value", [("cik", True), ("fiscal_year", "2020"), ("segment", 5),
                                           ("measure", None), ("gold_value", 600), ("tier", 1)])
    def test_cell_of_the_wrong_type_rejected(self, key, value):
        """No int() or str() coercion: a cik of true would read as cik 1."""
        data = dict(self.DATA)
        data["cells"] = [dict(self.DATA["cells"][0], **{key: value})]
        with pytest.raises(SchemaError, match=f"GoldCell.{key}"):
            GoldLabelSet.from_dict(data)

    def test_audit_verdict_key_is_ignored(self):
        # Gold files from the audit workflow carry a per-cell "correct" verdict;
        # scoring derives correctness itself, so the key loads and is dropped.
        data = dict(self.DATA)
        data["cells"] = [dict(self.DATA["cells"][0], correct=False)]
        assert GoldLabelSet.from_dict(data).cells == GoldLabelSet.from_dict(self.DATA).cells


class TestScore:
    def gold(self) -> GoldLabelSet:
        return GoldLabelSet(
            group_id="unit",
            filings=[GoldFiling(10, 2020, True, True), GoldFiling(11, 2020, False, False)],
            cells=[
                GoldCell(10, 2020, "Americas", "revenue", "$600 million"),
                GoldCell(10, 2020, "Europe", "revenue", "401 million"),
                GoldCell(11, 2020, "", "revt", "500 millions"),
                GoldCell(10, 2020, "Consumer", "revenue", "0.25 billion"),
            ],
        )

    def bundles(self) -> list[ExtractionBundle]:
        return [multi_bundle(10, 2020), single_unit_bundle(11, 2020)]

    def test_report_counts_and_accuracy(self):
        report = score(self.gold(), self.bundles())
        assert report.group_id == "unit"
        assert report.n_filings == 2
        assert (report.n_multi_manual, report.n_multi_model) == (1, 1)
        assert (report.n_nested_manual, report.n_nested_model) == (1, 1)
        # Reportable: Americas correct, Europe off by one, revt correct.
        assert report.primary_accuracy == 66.7
        assert report.nested_accuracy == 100.0
        assert len(report.primary_verdicts) == 3
        assert len(report.nested_verdicts) == 1

    def test_verdicts_record_normalized_comparison(self):
        report = score(self.gold(), self.bundles())
        by_segment = {v.segment: v for v in report.primary_verdicts}
        assert by_segment["Americas"].correct is True
        assert by_segment["Americas"].extracted_value == "600 millions"
        assert by_segment["Europe"].correct is False
        assert by_segment[""].correct is True
        nested = report.nested_verdicts[0]
        assert nested.tier == "nested"
        assert nested.correct is True

    def test_missing_measure_is_incorrect_not_error(self):
        gold = GoldLabelSet(group_id="g", cells=[
            GoldCell(10, 2020, "Americas", "assets", "$9 million"),
        ])
        report = score(gold, self.bundles())
        verdict = report.primary_verdicts[0]
        assert verdict.extracted_value == ""
        assert verdict.correct is False

    def test_unknown_segment_is_incorrect(self):
        gold = GoldLabelSet(group_id="g", cells=[
            GoldCell(10, 2020, "Atlantis", "revenue", "$1 million"),
        ])
        report = score(gold, self.bundles())
        assert report.primary_verdicts[0].correct is False
        assert report.primary_accuracy == 0.0

    def test_tier_pin_prevents_cross_tier_lookup(self):
        gold = GoldLabelSet(group_id="g", cells=[
            GoldCell(10, 2020, "Consumer", "revenue", "$250 million", tier="reportable"),
        ])
        report = score(gold, self.bundles())
        assert report.primary_verdicts[0].extracted_value == ""

    def test_missing_bundle_for_filing(self):
        gold = GoldLabelSet(group_id="g",
                            filings=[GoldFiling(99, 1999, True, False)],
                            cells=[GoldCell(10, 2020, "Americas", "revenue", "$1 million")])
        with pytest.raises(CoverageError):
            score(gold, self.bundles())

    def test_missing_bundle_for_cell(self):
        gold = GoldLabelSet(group_id="g", cells=[
            GoldCell(99, 1999, "Americas", "revenue", "$1 million"),
        ])
        with pytest.raises(CoverageError):
            score(gold, self.bundles())

    def test_no_cells_rejected(self):
        gold = GoldLabelSet(group_id="g", filings=[GoldFiling(10, 2020, True, True)])
        with pytest.raises(CoverageError):
            score(gold, self.bundles())


class TestAccuracy:
    def verdicts(self, correct: int, total: int) -> list[CellVerdict]:
        return [
            CellVerdict(cik=1, fiscal_year=2000, segment="S", measure="revenue",
                        gold_value="1", extracted_value="1", correct=i < correct,
                        tier="reportable")
            for i in range(total)
        ]

    def test_published_style_percentages(self):
        assert _accuracy(self.verdicts(97, 100)) == 97.0
        assert _accuracy(self.verdicts(91, 100)) == 91.0
        assert _accuracy(self.verdicts(88, 100)) == 88.0

    def test_rounding_to_one_decimal(self):
        assert _accuracy(self.verdicts(2, 3)) == 66.7
        assert _accuracy(self.verdicts(1, 3)) == 33.3

    def test_empty_is_zero(self):
        assert _accuracy([]) == 0.0


class TestReports:
    def report(self) -> EvalReport:
        return score(TestScore().gold(), TestScore().bundles())

    def test_post_init_guards(self):
        with pytest.raises(ValueError):
            EvalReport(group_id="g", n_filings=1, n_multi_manual=0, n_multi_model=0,
                       primary_accuracy=101.0, n_nested_manual=0, n_nested_model=0,
                       nested_accuracy=0.0)
        with pytest.raises(ValueError):
            EvalReport(group_id="g", n_filings=1, n_multi_manual=2, n_multi_model=0,
                       primary_accuracy=50.0, n_nested_manual=0, n_nested_model=0,
                       nested_accuracy=0.0)

    def test_report_to_json_shape(self):
        data = report_to_json(self.report())
        assert data["group_id"] == "unit"
        assert data["primary_accuracy"] == 66.7
        assert len(data["primary_verdicts"]) == 3
        verdict = data["nested_verdicts"][0]
        assert verdict["segment"] == "Consumer"
        assert verdict["correct"] is True
        assert json.loads(json.dumps(data)) == data

    def test_render_table2_labels(self):
        text = render_table2([self.report()])
        lines = text.splitlines()
        assert set(lines[1]) == {"-"}
        labels = [line.split("  ")[0] for line in lines[2:]]
        assert labels == [
            "Num of 10-K Filings",
            "Num of Firms with Multi-Segment Disclosure",
            "Model Identified Multi-Segment Filings",
            "Primary Segment Extraction Accuracy (%)",
            "Num of Observations with Nested Disclosure",
            "Model Identified Nested Disclosure",
            "Nested Segment Extraction Accuracy (%)",
        ]
        assert "66.7%" in text
        assert "100.0%" in text
        assert text.endswith("\n")

    def test_render_table2_multiple_groups(self):
        left = self.report()
        right = score(TestScore().gold(), TestScore().bundles())
        right.group_id = "Group 2"
        text = render_table2([left, right])
        header = text.splitlines()[0]
        assert "unit" in header and "Group 2" in header
