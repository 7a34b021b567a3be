"""Comparability tests: change detection, grounded explanation, alignment.

The deterministic layers are tested against hand-built panels and the
published firm-year constants; the grounded layers are tested by replaying
scripted answers addressed by the exact context the code assembles.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import threading
import time
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filingfab
import paperdata
from segforge.comparability import (
    CHANGE_CONTEXT_QUERY,
    CHANGE_TABLE_HEADER,
    AlignmentRow,
    ChangeRow,
    RegionScheme,
    _label_ambiguous,
    _parse_mapping,
    align_regions,
    alignment_table_header,
    detect_changes,
    explain_changes,
    initialism,
    name_matches,
    normalize_segment_name,
    render_alignment_csv,
    render_change_csv,
    render_change_text,
)
from segforge.errors import ScriptMissError, ValidationError
from segforge.extraction import ExtractionPipeline, SegmentRecord
from segforge.gateway import Gateway, ScriptedBackend, ScriptStore
from segforge.retrieval import assemble_context, build_index, retrieve
from segforge.store import SegmentStore
from segforge.templates import (
    CHANGE_FORMAT_RULES,
    CHANGE_RETRY_REMINDER,
    RETRY_REMINDERS,
    AnswerShape,
    SYSTEM_PREAMBLE,
    SEGMENT_NAMES_QUESTION,
    change_explanation_question,
    measure_question,
)
from segforge.values import Money, Scale, percent_of


def record_requests(gateway: Gateway, monkeypatch) -> list:
    """The requests ``gateway.ask`` receives from now on, in order."""
    sent = []
    ask = gateway.ask
    monkeypatch.setattr(gateway, "ask", lambda request: sent.append(request) or ask(request))
    return sent


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scripted_gateway(entries: list[dict]) -> Gateway:
    return Gateway(ScriptedBackend(ScriptStore.from_entries(entries)))


class TestNameNormalization:
    def test_normalize_folds_case_space_and_conjunctions(self):
        assert normalize_segment_name("Label & Graphic  Materials") == \
            normalize_segment_name("label and graphic materials")
        assert normalize_segment_name("Office Products,") == "office products"
        assert normalize_segment_name(" U.S. Retail ") == "us retail"

    def test_initialism_drops_stopwords(self):
        assert initialism("Label and Graphic Materials") == "lgm"
        assert initialism("Retail Branding and Information Solutions") == "rbis"
        assert initialism("Industrial and Healthcare Materials") == "ihm"
        assert initialism("Pressure-sensitive Materials") == "psm"

    def test_name_matches(self):
        official = "Retail Branding and Information Solutions"
        assert name_matches("RBIS", official)
        assert name_matches("retail branding & information solutions", official)
        assert not name_matches("RBS", official)
        assert not name_matches("Solutions Group", official)


class TestDetectChanges:
    def test_avy_changed_years(self):
        panel = [(year, list(names)) for year, names in sorted(paperdata.AVY_TABLE3.items())]
        rows = detect_changes(panel)
        changed = {row.fiscal_year for row in rows if row.changed}
        assert changed == paperdata.AVY_CHANGED_YEARS
        assert rows[0].fiscal_year == 2001
        assert rows[0].changed is False

    def test_reorder_and_case_do_not_count(self):
        rows = detect_changes([
            (2000, ["Alpha", "Beta"]),
            (2001, ["beta", "ALPHA"]),
        ])
        assert [row.changed for row in rows] == [False, False]

    def test_rename_counts(self):
        rows = detect_changes([
            (2000, ["Alpha", "Beta"]),
            (2001, ["Alpha", "Gamma"]),
        ])
        assert [row.changed for row in rows] == [False, True]

    def test_unsorted_panel_is_sorted(self):
        rows = detect_changes([(2001, ["A"]), (2000, ["A", "B"])])
        assert [row.fiscal_year for row in rows] == [2000, 2001]
        assert rows[1].changed is True

    def test_gap_in_years_warning(self):
        warnings: list[str] = []
        rows = detect_changes([(2000, ["A"]), (2002, ["A"])], warnings)
        assert [row.changed for row in rows] == [False, False]
        assert len(warnings) == 1
        assert "GapInYears" in warnings[0]
        # And without a warnings list the gap is silently tolerated.
        detect_changes([(2000, ["A"]), (2002, ["B"])])

    def test_change_row_invariants(self):
        with pytest.raises(ValueError):
            ChangeRow(fiscal_year=2000, segment_names=["A"], changed=False,
                      reason="divestiture")
        with pytest.raises(ValueError):
            ChangeRow(fiscal_year=2000, segment_names=["A"], changed=True,
                      reason="gut_feeling")
        with pytest.raises(ValueError):
            ChangeRow(fiscal_year=2000, segment_names=["A"], changed=True,
                      reason="divestiture", linkage="sideways")


class TestParseMapping:
    PRIOR = ["Alpha Systems", "Beta Networks", "Delta Labs"]
    CURRENT = ["Alpha Systems", "Gamma Services"]

    def test_valid_mapping(self):
        raw = "Alpha Systems -> Alpha Systems | Beta Networks + Delta Labs -> Gamma Services"
        assert _parse_mapping(raw, self.PRIOR, self.CURRENT) == [
            (("Alpha Systems",), "Alpha Systems"),
            (("Beta Networks", "Delta Labs"), "Gamma Services"),
        ]

    def test_discontinued_target_allowed(self):
        raw = "Delta Labs -> discontinued"
        assert _parse_mapping(raw, self.PRIOR, self.CURRENT) == [(("Delta Labs",), "discontinued")]

    def test_initialisms_match_official_names(self):
        raw = "BN -> GS"
        assert _parse_mapping(raw, self.PRIOR, self.CURRENT) == [(("BN",), "GS")]

    def test_empty_mapping_is_fine(self):
        assert _parse_mapping("", self.PRIOR, self.CURRENT) == []

    def test_unknown_source_rejected(self):
        with pytest.raises(ValidationError):
            _parse_mapping("Omega -> Alpha Systems", self.PRIOR, self.CURRENT)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValidationError):
            _parse_mapping("Alpha Systems -> Omega", self.PRIOR, self.CURRENT)

    def test_malformed_entries_rejected(self):
        with pytest.raises(ValidationError):
            _parse_mapping("Alpha Systems Gamma Services", self.PRIOR, self.CURRENT)
        with pytest.raises(ValidationError):
            _parse_mapping("-> Gamma Services", self.PRIOR, self.CURRENT)


class TestExplainChangesReplay:
    def test_all_changed_years_grounded(self, avy_index, make_gateway, avy_store):
        panel = avy_store.segment_names_by_year(paperdata.AVY_CIK)
        warnings: list[str] = []
        rows = explain_changes(paperdata.AVY_CIK, panel, avy_index, make_gateway(),
                               warnings=warnings)
        assert warnings == []
        by_year = {row.fiscal_year: row for row in rows}
        assert {y for y, row in by_year.items() if row.changed} == paperdata.AVY_CHANGED_YEARS
        for year in sorted(paperdata.AVY_CHANGED_YEARS):
            row = by_year[year]
            answer = filingfab.AVY_CHANGE_ANSWERS[year]
            assert row.reason == answer["reason"], year
            assert row.linkage == answer["linkage"], year
            assert row.cites, year
            assert "[cites:" in row.reason_text
            assert row.linkage_text == answer["mapping"]

    def test_2022_mapping_parses_to_materials_group(self, avy_index, make_gateway, avy_store):
        panel = avy_store.segment_names_by_year(paperdata.AVY_CIK)
        rows = explain_changes(paperdata.AVY_CIK, panel, avy_index, make_gateway())
        row = next(r for r in rows if r.fiscal_year == 2022)
        assert row.mapping == [
            (("LGM", "IHM"), "Materials Group"),
            (("RBIS",), "Solutions Group"),
        ]

    def test_unchanged_years_are_left_alone(self, avy_index, make_gateway, avy_store):
        panel = avy_store.segment_names_by_year(paperdata.AVY_CIK)
        rows = explain_changes(paperdata.AVY_CIK, panel, avy_index, make_gateway())
        for row in rows:
            if not row.changed:
                assert row.reason is None
                assert row.linkage is None
                assert row.cites == []


CHANGE_PANEL = [
    (2000, ["Alpha Systems", "Beta Networks"]),
    (2001, ["Alpha Systems", "Gamma Services"]),
]


def change_index():
    """Two filings of CIK 31 whose retrieved context explains CHANGE_PANEL's change."""
    html_2000 = (
        "<p>Item 1. Business</p>"
        "<p>The company manages two reportable segments, Alpha Systems and "
        "Beta Networks, under its segment reporting policy.</p>"
    )
    html_2001 = (
        "<p>Item 1. Business</p>"
        "<p>The company changed its reportable segments in fiscal 2001; the "
        "new segment reporting presents Alpha Systems and Gamma Services "
        "after a reorganization of Beta Networks.</p>"
    )
    return build_index([
        filingfab.filing_with_ref(html_2000, cik=31, year=2000),
        filingfab.filing_with_ref(html_2001, cik=31, year=2001),
    ])


def change_context(index, cik=31, prior=2000, year=2001):
    results = [
        retrieve(index, CHANGE_CONTEXT_QUERY, 4, {"cik": cik, "fiscal_year": y})
        for y in (prior, year)
    ]
    return assemble_context(index, results, 12000)


class TestExplainChangesValidation:
    PANEL = CHANGE_PANEL

    @pytest.fixture()
    def small_index(self):
        return change_index()

    def context_for(self, index):
        return change_context(index)

    def gateway_with_response(self, index, lines: list[str]) -> Gateway:
        context = self.context_for(index)
        question = change_explanation_question(31, 2000, 2001, self.PANEL[0][1],
                                               self.PANEL[1][1])
        return scripted_gateway([{
            "file_hash": sha(context.text.encode("utf-8")),
            "question": question,
            "response": "\n".join(lines),
        }])

    def test_handcrafted_valid_answer(self, small_index, monkeypatch):
        context = self.context_for(small_index)
        gateway = self.gateway_with_response(small_index, [
            "reason: internal_reorganization",
            "linkage: regrouped",
            "mapping: Alpha Systems -> Alpha Systems | Beta Networks -> Gamma Services",
            f"cites: {context.chunk_ids[0]}",
            "explanation: Beta Networks was folded into Gamma Services.",
        ])
        sent = record_requests(gateway, monkeypatch)
        warnings: list[str] = []
        rows = explain_changes(31, self.PANEL, small_index, gateway, warnings=warnings)
        assert warnings == []
        assert [(r.system_preamble, r.format_rules) for r in sent] == \
            [(SYSTEM_PREAMBLE, CHANGE_FORMAT_RULES)]
        row = rows[1]
        assert row.reason == "internal_reorganization"
        assert row.linkage == "regrouped"
        assert row.mapping == [
            (("Alpha Systems",), "Alpha Systems"),
            (("Beta Networks",), "Gamma Services"),
        ]
        assert row.cites == [context.chunk_ids[0]]

    def test_bad_reason_degrades_to_unknown(self, small_index):
        context = self.context_for(small_index)
        gateway = self.gateway_with_response(small_index, [
            "reason: gut_feeling",
            "linkage: regrouped",
            f"cites: {context.chunk_ids[0]}",
        ])
        warnings: list[str] = []
        rows = explain_changes(31, self.PANEL, small_index, gateway, warnings=warnings)
        row = rows[1]
        assert row.changed is True
        assert row.reason == "unknown"
        assert row.linkage is None
        assert any("invalid" in w for w in warnings)

    def test_unknown_cites_degrade(self, small_index):
        gateway = self.gateway_with_response(small_index, [
            "reason: divestiture",
            "linkage: partial",
            "cites: 99_1999_0000",
        ])
        rows = explain_changes(31, self.PANEL, small_index, gateway)
        assert rows[1].reason == "unknown"

    def test_missing_linkage_line_degrades(self, small_index):
        context = self.context_for(small_index)
        gateway = self.gateway_with_response(small_index, [
            "reason: divestiture",
            f"cites: {context.chunk_ids[0]}",
        ])
        rows = explain_changes(31, self.PANEL, small_index, gateway)
        assert rows[1].reason == "unknown"

    def test_invalid_mapping_degrades(self, small_index):
        context = self.context_for(small_index)
        gateway = self.gateway_with_response(small_index, [
            "reason: internal_reorganization",
            "linkage: regrouped",
            "mapping: Omega Division -> Gamma Services",
            f"cites: {context.chunk_ids[0]}",
        ])
        rows = explain_changes(31, self.PANEL, small_index, gateway)
        assert rows[1].reason == "unknown"

    def test_script_miss_propagates(self, small_index):
        gateway = scripted_gateway([])
        with pytest.raises(ScriptMissError):
            explain_changes(31, self.PANEL, small_index, gateway)

    def test_no_retrieved_context_short_circuits(self, small_index):
        gateway = scripted_gateway([])
        warnings: list[str] = []
        rows = explain_changes(777, self.PANEL, small_index, gateway, warnings=warnings)
        row = rows[1]
        assert row.reason == "unknown"
        assert row.reason_text == "no retrieved context"
        assert any("RetrievalEmpty" in w for w in warnings)
        assert gateway.transcript == []


def test_change_format_rules_text_is_pinned():
    """The rules a live model gets with each change question, and the reminder its
    format retry adds, byte for byte."""
    assert CHANGE_FORMAT_RULES == (
        "Respond with exactly five lines:\n"
        "reason: one of internal_reorganization, divestiture, acquisition, new_segment_added, "
        "reporting_reclassification, renaming_only, unknown\n"
        "linkage: one of continuation, merged, split, added, discontinued, regrouped, partial\n"
        "mapping: prior segment names mapped to current names as 'Old -> New' pairs separated "
        "by ' | ' (use 'discontinued' as the target for removed segments)\n"
        "cites: semicolon-separated chunk ids from the provided context\n"
        "explanation: one sentence grounded in the cited context"
    )
    assert CHANGE_RETRY_REMINDER == (
        "Reminder: respond with only the five lines reason, linkage, mapping, cites and "
        "explanation, using the listed keywords and chunk ids from the provided context."
    )


class TestRegionScheme:
    def test_membership_is_normalized(self, asia_scheme):
        assert asia_scheme.contains("  ASIA ")
        assert asia_scheme.contains("china incl. hong kong")
        assert not asia_scheme.contains("United States")

    def test_from_json(self, tmp_path):
        path = filingfab.write_asia_scheme(tmp_path / "asia.json")
        scheme = RegionScheme.from_json(path)
        assert scheme.region_name == "Asia"
        assert scheme.contains("Japan")

    def test_empty_scheme_rejected(self):
        with pytest.raises(ValueError):
            RegionScheme.from_labels("Asia", [])

    def test_label_ambiguity_by_token_overlap(self, asia_scheme):
        assert _label_ambiguous("Asia-Pacific region", asia_scheme)
        assert _label_ambiguous("South China Sea Operations", asia_scheme)
        assert not _label_ambiguous("United States", asia_scheme)
        assert not _label_ambiguous("Pacific Northwest", asia_scheme)


class TestAlignmentReplay:
    def test_totals_and_percentages_match_published_values(self, geo_store, asia_scheme):
        rows = align_regions(paperdata.INTC_CIK, paperdata.TXN_CIK, asia_scheme,
                             (2012, 2024), geo_store)
        assert [row.fiscal_year for row in rows] == list(range(2012, 2025))
        for row in rows:
            year = row.fiscal_year
            assert row.warnings == []
            assert {n for n, _, _ in row.firm_a_components} == \
                {n for n, _ in paperdata.INTC_ASIA[year]}
            assert {n for n, _, _ in row.firm_b_components} == \
                {n for n, _ in paperdata.TXN_ASIA[year]}
            assert row.firm_a_region_total == Decimal(paperdata.INTC_ASIA_TOTAL[year])
            assert row.firm_b_region_total == Decimal(paperdata.TXN_ASIA_TOTAL[year])
            assert row.firm_a_pct_of_total == paperdata.INTC_PCT[year]
            assert row.firm_b_pct_of_total == paperdata.TXN_PCT[year]

    def test_domestic_components_never_leak_in(self, geo_store, asia_scheme):
        rows = align_regions(paperdata.INTC_CIK, paperdata.TXN_CIK, asia_scheme,
                             (2012, 2024), geo_store)
        for row in rows:
            labels = {n for n, _, _ in row.firm_a_components}
            labels |= {n for n, _, _ in row.firm_b_components}
            assert "United States" not in labels

    def test_years_without_any_bundle_are_skipped(self, geo_store, asia_scheme):
        rows = align_regions(paperdata.INTC_CIK, paperdata.TXN_CIK, asia_scheme,
                             (2008, 2024), geo_store)
        assert [row.fiscal_year for row in rows] == list(range(2012, 2025))


class TestAlignmentEdgeCases:
    def put_geo(self, store: SegmentStore, cik: int, year: int,
                components: list[tuple[str, int]], revt: int = 1000):
        bundle = filingfab.geo_bundle(cik, year, "Synth Corp", "SYN", components, revt)
        store.put(bundle)
        return bundle

    def test_empty_component_year_reports_zero_pct(self, asia_scheme):
        store = SegmentStore()
        self.put_geo(store, 31, 2020, [("United States", 700)])
        rows = align_regions(31, 32, asia_scheme, (2020, 2020), store)
        assert len(rows) == 1
        row = rows[0]
        assert row.firm_a_components == []
        assert row.firm_a_region_total == Decimal(0)
        assert row.firm_a_pct_of_total == Decimal("0.0")

    def test_missing_revt_omits_pct_with_warning(self, asia_scheme):
        store = SegmentStore()
        bundle = filingfab.geo_bundle(31, 2020, "Synth Corp", "SYN",
                                      [("Japan", 400)], 1000)
        bundle.general_fields["revt"] = "Not provided"
        store.put(bundle)
        rows = align_regions(31, 32, asia_scheme, (2020, 2020), store)
        row = rows[0]
        assert row.firm_a_pct_of_total is None
        assert any("MissingTotalRevenue" in w for w in row.warnings)

    def test_zero_revt_omits_pct_with_warning(self, asia_scheme):
        store = SegmentStore()
        bundle = filingfab.geo_bundle(31, 2020, "Synth Corp", "SYN",
                                      [("Japan", 400)], 0)
        store.put(bundle)
        rows = align_regions(31, 32, asia_scheme, (2020, 2020), store)
        assert rows[0].firm_a_pct_of_total is None
        assert any("MissingTotalRevenue" in w for w in rows[0].warnings)

    def test_nested_geographic_records_are_ignored(self, asia_scheme):
        store = SegmentStore()
        bundle = self.put_geo(store, 31, 2020, [("Asia", 100)])
        bundle.nested.append(
            SegmentRecord(name="Japan", axis="geographic",
                          parent_name="Asia",
                          measures={"revenue": Money(Decimal(40), Scale.MILLIONS)})
        )
        store.put(bundle)
        rows = align_regions(31, 32, asia_scheme, (2020, 2020), store)
        assert [n for n, _, _ in rows[0].firm_a_components] == ["Asia"]
        assert rows[0].firm_a_region_total == Decimal(100)

    def test_component_without_revenue_is_skipped(self, asia_scheme):
        store = SegmentStore()
        bundle = self.put_geo(store, 31, 2020, [("Asia", 100)])
        bundle.reportable.append(
            SegmentRecord(name="Japan", axis="geographic")
        )
        store.put(bundle)
        rows = align_regions(31, 32, asia_scheme, (2020, 2020), store)
        assert [n for n, _, _ in rows[0].firm_a_components] == ["Asia"]
        assert any("no revenue measure" in w for w in rows[0].warnings)

    def test_mixed_scales_warn(self, asia_scheme):
        store = SegmentStore()
        bundle = self.put_geo(store, 31, 2020, [("Asia", 100)])
        bundle.reportable.append(
            SegmentRecord(name="Japan", axis="geographic",
                          measures={"revenue": Money(Decimal(5), Scale.BILLIONS)})
        )
        store.put(bundle)
        rows = align_regions(31, 32, asia_scheme, (2020, 2020), store)
        assert any("mixed component scales" in w for w in rows[0].warnings)

    def test_total_and_pct_add_up_across_scales(self):
        """Europe at $100 million and Asia at $50,000 thousand, of $1,000 million."""
        store = SegmentStore()
        bundle = self.put_geo(store, 31, 2020, [("Europe", 100)])
        bundle.reportable.append(
            SegmentRecord(name="Asia", axis="geographic",
                          measures={"revenue": Money(Decimal(50000), Scale.THOUSANDS)})
        )
        store.put(bundle)
        scheme = RegionScheme.from_labels("Europe and Asia", ["Europe", "Asia"])
        [row] = align_regions(31, 32, scheme, (2020, 2020), store)
        assert row.firm_a_region_total == Decimal(150000)  # thousands
        assert row.firm_a_pct_of_total == Decimal("15.0")
        assert row.warnings == ["mixed component scales in 2020 for 31; total stated in thousands"]
        cells = render_alignment_csv([row], "SYN", "OTH", "Europe and Asia").splitlines()[1]
        assert cells == ('2020,"Asia, Europe",,"Asia, 50,000 thousands; Europe, 100 millions",,'
                         '"150,000 thousands",0 units,15.0%,0.0%')

    def test_pct_over_100_warns(self, asia_scheme):
        store = SegmentStore()
        self.put_geo(store, 31, 2020, [("Asia", 2000)], revt=1000)
        rows = align_regions(31, 32, asia_scheme, (2020, 2020), store)
        assert rows[0].firm_a_pct_of_total == Decimal("200.0")
        assert any("scale mismatch" in w for w in rows[0].warnings)

    def test_ambiguous_label_without_gateway_is_excluded(self, asia_scheme):
        store = SegmentStore()
        self.put_geo(store, 31, 2020, [("Asia-Pacific region", 500)])
        rows = align_regions(31, 32, asia_scheme, (2020, 2020), store)
        assert rows[0].firm_a_components == []
        assert any("LabelAmbiguity" in w for w in rows[0].warnings)


# Amounts as a filing states them: up to 2 decimal places, in any scale.
_AMOUNTS = st.builds(Money, st.decimals(0, 10**9, places=2), st.sampled_from(Scale))


@settings(max_examples=60, deadline=None)
@given(st.lists(_AMOUNTS, min_size=1, max_size=len(paperdata.ASIA_MEMBER_LABELS)),
       st.integers(1, 10**6))
def test_region_total_is_the_exact_sum_of_component_units(amounts, revt):
    """The total, at the finest component scale, holds the components' exact
    units, and the percentage is ``percent_of`` those units against revt."""
    store = SegmentStore()
    bundle = filingfab.geo_bundle(31, 2020, "Synth Corp", "SYN", [], revt)
    bundle.reportable = [SegmentRecord(name=label, axis="geographic", measures={"revenue": money})
                         for label, money in zip(paperdata.ASIA_MEMBER_LABELS, amounts)]
    store.put(bundle)
    scheme = RegionScheme.from_labels("Asia", paperdata.ASIA_MEMBER_LABELS)
    [row] = align_regions(31, 32, scheme, (2020, 2020), store)
    units = sum((money.units for money in amounts), Decimal(0))
    finest = min((money.scale for money in amounts), key=lambda scale: scale.multiplier)
    assert Money(row.firm_a_region_total, finest).units == units
    assert row.firm_a_pct_of_total == percent_of(units, Money(Decimal(revt), Scale.MILLIONS).units)
    mixed = any(money.scale != finest for money in amounts)
    assert any(w.startswith("mixed component scales") for w in row.warnings) == mixed


def region_index():
    return build_index([filingfab.filing_with_ref(filingfab.REGION_HTML, cik=31, year=2020)])


def region_store(components: list[tuple[str, int]]) -> SegmentStore:
    """CIK 31's 2020 panel: ``components`` beside a United States one, out of 1000."""
    store = SegmentStore()
    store.put(filingfab.geo_bundle(31, 2020, "Synth Corp", "SYN",
                                   [*components, ("United States", 300)], 1000))
    return store


class TestArbitration:
    LABEL_IN, LABEL_OUT = filingfab.REGION_LABELS

    @pytest.fixture()
    def geo_index(self):
        return region_index()

    def arbitration_entry(self, index, label: str, response: str, scheme) -> dict:
        return filingfab.region_entry(index, 31, 2020, label, scheme.region_name, response)

    def store_with_labels(self) -> SegmentStore:
        return region_store([(self.LABEL_IN, 500), (self.LABEL_OUT, 200)])

    def test_yes_and_no_arbitration(self, geo_index, asia_scheme, monkeypatch):
        gateway = scripted_gateway([
            self.arbitration_entry(geo_index, self.LABEL_IN, "Yes", asia_scheme),
            self.arbitration_entry(geo_index, self.LABEL_OUT, "No", asia_scheme),
        ])
        sent = record_requests(gateway, monkeypatch)
        rows = align_regions(31, 32, asia_scheme, (2020, 2020),
                             self.store_with_labels(), index=geo_index, gateway=gateway)
        row = rows[0]
        assert [n for n, _, _ in row.firm_a_components] == [self.LABEL_IN]
        assert row.firm_a_region_total == Decimal(500)
        assert row.firm_a_pct_of_total == Decimal("50.0")
        assert row.warnings == []
        asked = {r.request_id for r in gateway.transcript}
        assert asked == {
            "rgn-31-2020-asia-pacific_region",
            "rgn-31-2020-south_china_sea_operations",
        }
        assert {(r.system_preamble, r.format_rules) for r in sent} == \
            {(SYSTEM_PREAMBLE, 'Return exactly "Yes" or "No".')}

    def test_answers_are_read_as_extraction_reads_yes_and_no(self, geo_index, asia_scheme):
        gateway = scripted_gateway([
            self.arbitration_entry(geo_index, self.LABEL_IN, "Yes.", asia_scheme),
            self.arbitration_entry(geo_index, self.LABEL_OUT, " no ", asia_scheme),
        ])
        [row] = align_regions(31, 32, asia_scheme, (2020, 2020),
                              self.store_with_labels(), index=geo_index, gateway=gateway)
        assert [n for n, _, _ in row.firm_a_components] == [self.LABEL_IN]
        assert row.warnings == []

    def test_invalid_arbitration_answer_excludes_label(self, geo_index, asia_scheme):
        gateway = scripted_gateway([
            self.arbitration_entry(geo_index, self.LABEL_IN, "Perhaps", asia_scheme),
            self.arbitration_entry(geo_index, self.LABEL_OUT, "No", asia_scheme),
        ])
        rows = align_regions(31, 32, asia_scheme, (2020, 2020),
                             self.store_with_labels(), index=geo_index, gateway=gateway)
        assert rows[0].firm_a_components == []
        assert any("LabelAmbiguity" in w for w in rows[0].warnings)

    def test_script_miss_propagates(self, geo_index, asia_scheme):
        with pytest.raises(ScriptMissError):
            align_regions(31, 32, asia_scheme, (2020, 2020), self.store_with_labels(),
                          index=geo_index, gateway=scripted_gateway([]))


# -- one validate-and-retry path at every call site ----------------------------


@dataclass
class Site:
    """One kind of model answer: how it is scripted, asked and read back.

    ``run(gateway)`` returns the outcome the answer decides and the
    warnings; ``accepted`` is the outcome of a valid answer, ``degraded``
    and ``warnings`` what is left when no valid answer comes.
    """

    request_id: str
    file_hash: str
    question: str
    reminder: str
    others: list[dict]  # the script entries of the call's other questions
    invalid: str  # a first answer the check rejects
    valid: str  # a retry answer the check accepts
    run: Callable[[Gateway], tuple[object, list[str]]]
    accepted: object
    degraded: object
    warnings: list[str]

    @property
    def retry(self) -> str:
        return f"{self.question} {self.reminder}"

    def gateway(self, first: str | None, retry: str | None) -> Gateway:
        """A gateway that answers the question ``first`` and its retry ``retry``;
        None leaves the entry out."""
        entries = list(self.others)
        for question, response in ((self.question, first), (self.retry, retry)):
            if response is not None:
                entries.append({"file_hash": self.file_hash, "question": question,
                                "response": response})
        return scripted_gateway(entries)


def measure_site() -> Site:
    file_hash = "f" * 64
    question = measure_question("revenue", "Alpha")
    others = [{"file_hash": file_hash, "question": q, "response": r} for q, r in [
        (SEGMENT_NAMES_QUESTION, "Alpha"),
        (measure_question("profit_or_loss", "Alpha"), "Not provided"),
        (measure_question("assets", "Alpha"), "Not provided"),
    ]]

    def run(gateway: Gateway):
        warnings: list[str] = []
        handle = gateway.upload_bytes(b"doc", content_hash=file_hash)
        _, measured = ExtractionPipeline(gateway).extract_reportable(handle, 1, 2000, warnings,
                                                                     itertools.count(19))
        [record] = measured.result()
        return record.measures.get("revenue"), warnings

    reminder = RETRY_REMINDERS[AnswerShape.MONETARY]
    miss = ScriptMissError(file_hash, f"{question} {reminder}")
    return Site("1-2000-0020", file_hash, question, reminder, others,
                "around five million", "$5 million", run,
                accepted=Money(Decimal(5), Scale.MILLIONS), degraded=None,
                warnings=[f"request 1-2000-0020 invalid after retry: {miss}"])


def change_site() -> Site:
    index = change_index()
    context = change_context(index)
    cite = context.chunk_ids[0]

    def run(gateway: Gateway):
        warnings: list[str] = []
        rows = explain_changes(31, CHANGE_PANEL, index, gateway, warnings=warnings)
        return rows[1].reason_text, warnings

    reason = "reason 'gut_feeling' outside ReasonClass"
    return Site(
        "chg-31-2001-1", sha(context.text.encode("utf-8")),
        change_explanation_question(31, 2000, 2001, CHANGE_PANEL[0][1], CHANGE_PANEL[1][1]),
        CHANGE_RETRY_REMINDER, [],
        f"reason: gut_feeling\nlinkage: regrouped\ncites: {cite}",
        "\n".join(["reason: internal_reorganization", "linkage: regrouped",
                   "mapping: Beta Networks -> Gamma Services", f"cites: {cite}",
                   "explanation: Beta Networks was folded into Gamma Services."]),
        run,
        accepted=f"Beta Networks was folded into Gamma Services. [cites: {cite}]",
        degraded=f"validation failed: {reason}",
        warnings=[f"change explanation for 2001 invalid: {reason}"],
    )


def label_site() -> Site:
    index = region_index()
    label = filingfab.REGION_LABELS[0]
    scheme = RegionScheme.from_labels("Asia", paperdata.ASIA_MEMBER_LABELS)
    store = region_store([(label, 500)])
    entry = filingfab.region_entry(index, 31, 2020, label, "Asia", "")

    def run(gateway: Gateway):
        [row] = align_regions(31, 32, scheme, (2020, 2020), store, index=index, gateway=gateway)
        return [name for name, _, _ in row.firm_a_components], row.warnings

    return Site("rgn-31-2020-asia-pacific_region", entry["file_hash"], entry["question"],
                RETRY_REMINDERS[AnswerShape.YES_NO], [], "Perhaps", "Yes.", run,
                accepted=[label], degraded=[],
                warnings=[f"LabelAmbiguity: arbitration for {label!r} invalid "
                          "(expected Yes or No, got 'perhaps'); excluded"])


SITES = pytest.mark.parametrize("make_site", [measure_site, change_site, label_site],
                                ids=["measure", "change", "label"])


@SITES
def test_invalid_answer_is_retried_once_with_the_reminder(make_site):
    site = make_site()
    gateway = site.gateway(site.invalid, site.valid)
    assert site.run(gateway) == (site.accepted, [])
    asked = {r.request_id: r.question for r in gateway.transcript}
    assert asked[site.request_id] == site.question
    assert asked[f"{site.request_id}-r"] == site.retry


@SITES
def test_retry_without_a_script_entry_degrades_as_a_single_ask_did(make_site):
    site = make_site()
    gateway = site.gateway(site.invalid, None)
    assert site.run(gateway) == (site.degraded, site.warnings)
    asked = {r.request_id for r in gateway.transcript}
    assert site.request_id in asked
    assert f"{site.request_id}-r" not in asked


@SITES
def test_first_ask_script_miss_raises(make_site):
    site = make_site()
    with pytest.raises(ScriptMissError) as excinfo:
        site.run(site.gateway(None, site.valid))
    assert excinfo.value.question == site.question


class TestLatency:
    """Grounded questions go out in one batch under the gateway's budget."""

    L = 0.2

    def test_changed_years_ask_in_rounds(self, avy_index, avy_store, script_entries):
        # Six changed years on five slots: two rounds of L, where one ask at
        # a time would take six.
        lock = threading.Lock()
        active = peak = 0

        def slow(question: str) -> float:
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(self.L)
            with lock:
                active -= 1
            return 0.0

        gateway = Gateway(ScriptedBackend(ScriptStore.from_entries(script_entries),
                                          delay_fn=slow), max_in_flight=5)
        panel = avy_store.segment_names_by_year(paperdata.AVY_CIK)
        started = time.monotonic()
        rows = explain_changes(paperdata.AVY_CIK, panel, avy_index, gateway)
        elapsed = time.monotonic() - started
        assert len(gateway.transcript) == len(paperdata.AVY_CHANGED_YEARS) == 6
        assert peak == 5
        assert elapsed < 4 * self.L
        assert all(row.cites for row in rows if row.changed)

    def test_ambiguous_labels_are_in_flight_together(self, asia_scheme):
        # Each arbitration answer is held until the other label is asked too.
        index = region_index()
        both = threading.Barrier(2)
        held_too_long: list[str] = []

        def gate(question: str) -> float:
            try:
                both.wait(timeout=5)
            except threading.BrokenBarrierError:
                held_too_long.append(question)
            return 0.0

        entries = [filingfab.region_entry(index, 31, 2020, label, "Asia", answer)
                   for label, answer in zip(filingfab.REGION_LABELS, ["Yes", "No"])]
        gateway = Gateway(ScriptedBackend(ScriptStore.from_entries(entries), delay_fn=gate))
        [row] = align_regions(31, 32, asia_scheme, (2020, 2020),
                              region_store([(label, 100) for label in filingfab.REGION_LABELS]),
                              index=index, gateway=gateway)
        assert held_too_long == []
        assert [n for n, _, _ in row.firm_a_components] == [filingfab.REGION_LABELS[0]]

    def run_both(self, entries, avy_index, avy_store, asia_scheme, seed: int | None):
        """Changes over AVY and one alignment on one gateway, under seeded delays."""

        def jitter(question: str) -> float:
            if seed is None:
                return 0.0
            return random.Random(f"{seed}:{question}").choice([0, 0.001, 0.003, 0.005])

        gateway = Gateway(ScriptedBackend(ScriptStore.from_entries(entries), delay_fn=jitter),
                          max_in_flight=5)
        warnings: list[str] = []
        rows = explain_changes(paperdata.AVY_CIK,
                               avy_store.segment_names_by_year(paperdata.AVY_CIK),
                               avy_index, gateway, warnings=warnings)
        aligned = align_regions(31, 32, asia_scheme, (2020, 2020),
                                region_store([(label, 100) for label in filingfab.REGION_LABELS]),
                                index=region_index(), gateway=gateway)
        return rows, warnings, aligned, sorted(gateway.transcript, key=lambda r: r.request_id)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_outputs_do_not_depend_on_completion_order(self, seed, avy_index, avy_store,
                                                       script_entries, asia_scheme):
        # One changed year and one label are retried, and one label degrades.
        entries = [dict(entry) for entry in script_entries]
        first_year = next(e for e in entries if e["question"].startswith("The firm with CIK"))
        entries.append({**first_year, "question": f"{first_year['question']} "
                                                  f"{CHANGE_RETRY_REMINDER}"})
        first_year["response"] = "reason: gut_feeling"
        index = region_index()
        label_in, label_out = filingfab.REGION_LABELS
        retried = filingfab.region_entry(index, 31, 2020, label_in, "Asia", "Yes")
        retried["question"] += f" {RETRY_REMINDERS[AnswerShape.YES_NO]}"
        entries += [filingfab.region_entry(index, 31, 2020, label_in, "Asia", "It is."), retried,
                    filingfab.region_entry(index, 31, 2020, label_out, "Asia", "Perhaps")]
        reference = self.run_both(entries, avy_index, avy_store, asia_scheme, None)
        assert len([r for r in reference[3] if r.request_id.endswith("-r")]) == 2
        assert reference[2][0].warnings and reference[1] == []
        assert self.run_both(entries, avy_index, avy_store, asia_scheme, seed) == reference


class TestRendering:
    def rows(self) -> list[ChangeRow]:
        steady = ChangeRow(fiscal_year=2000, segment_names=["Alpha", "Beta"], changed=False)
        moved = ChangeRow(fiscal_year=2001, segment_names=["Alpha", "Gamma"], changed=True,
                          reason="divestiture", reason_text="Beta was sold. [cites: 1_2001_0000]",
                          linkage="partial", linkage_text="Beta -> discontinued",
                          cites=["1_2001_0000"])
        return [steady, moved]

    def test_change_csv(self):
        text = render_change_csv(self.rows())
        lines = text.splitlines()
        assert text == "\n".join(lines) + "\n"  # \n line ends, no \r
        assert lines[0].split(",")[0] == CHANGE_TABLE_HEADER[0]
        assert lines[1] == "2000,Alpha; Beta,No,,"
        assert "2001" in lines[2]
        assert "Yes" in lines[2]
        assert "Beta was sold." in lines[2]
        assert "Partial (Beta -> discontinued)" in lines[2]

    def test_change_text_table(self):
        text = render_change_text(self.rows())
        lines = text.splitlines()
        assert lines[0].startswith("Year")
        assert set(lines[1]) == {"-"}
        assert "divestiture" in text
        assert "partial" in text

    def test_alignment_header_strings(self):
        header = alignment_table_header("INTC", "TXN", "Asia")
        assert header == [
            "Year",
            "Segments in Asia for INTC",
            "Segments in Asia for TXN",
            "Detailed Segment Performance for INTC",
            "Detailed Segment Performance for TXN",
            "Sales for INTC in Asia",
            "Sales for TXN in Asia",
            "% Asia / Total INTC",
            "% Asia / Total TXN",
        ]

    def test_alignment_csv_row(self):
        row = AlignmentRow(
            fiscal_year=2012,
            firm_a_components=[("Japan", Decimal(900), Scale.MILLIONS)],
            firm_b_components=[],
            firm_a_region_total=Decimal(900),
            firm_b_region_total=Decimal(0),
            firm_a_pct_of_total=Decimal("64.8"),
            firm_b_pct_of_total=None,
        )
        text = render_alignment_csv([row], "INTC", "TXN", "Asia")
        lines = text.splitlines()
        assert lines[1].startswith("2012,Japan,,")
        assert '"Japan, 900"' in lines[1]
        assert "64.8%" in lines[1]
        assert lines[1].endswith(",")

    def test_firms_in_different_scales_name_them(self):
        row = AlignmentRow(
            fiscal_year=2012,
            firm_a_components=[("Japan", Decimal(900), Scale.MILLIONS)],
            firm_b_components=[("China", Decimal(5000), Scale.THOUSANDS)],
            firm_a_region_total=Decimal(900),
            firm_b_region_total=Decimal(5000),
            firm_a_pct_of_total=Decimal("64.8"),
            firm_b_pct_of_total=Decimal("0.1"),
        )
        text = render_alignment_csv([row], "INTC", "TXN", "Asia")
        assert text.splitlines()[1] == ('2012,Japan,China,"Japan, 900 millions","China, 5,000 thousands",'
                                        '900 millions,"5,000 thousands",64.8%,0.1%')
