"""Extraction workflow tests: staged pipeline, validators, serialization.

The scripted gateway replays canned answers, so every assertion here is
about pipeline mechanics (question counts, retries, invariants), not about
model quality.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass
from decimal import Decimal

import pytest

import filingfab
import paperdata
from segforge.edgar import EdgarClient
from segforge.errors import SchemaError, ScriptMissError, ValidationError
from segforge.extraction import (
    AXIS_BUSINESS,
    AXIS_CUSTOMER,
    AXIS_GEOGRAPHIC,
    AXIS_OTHER,
    AXIS_PRODUCT,
    DEFAULT_MEASURES,
    MULTI_SEGMENT,
    SINGLE_UNIT,
    ExtractionBundle,
    ExtractionPipeline,
    SegmentationClass,
    SegmentRecord,
    audit_nested_sums,
    bundle_from_json,
    bundle_to_json,
    dump_bundle,
    infer_axis,
    load_bundle,
    validate_bundle,
    validate_list,
    validate_monetary,
    validate_scalar,
    validate_yes_no,
)
from segforge.gateway import Gateway, ScriptedBackend, ScriptStore
from segforge.templates import (
    CLASSIFY_QUESTION,
    GENERAL_FIELDS,
    SEGMENT_NAMES_QUESTION,
    AnswerShape,
    measure_question,
    nested_detect_question,
    nested_measure_question,
    nested_names_question,
    retry_question,
)
from segforge.values import Money, Scale


def fetch_doc(client: EdgarClient, cik: int, year: int):
    return client.fetch(client.resolve_filing(cik, year))


def expected_question_count(n_segments: int, nested_children: list[int],
                            n_measures: int = len(DEFAULT_MEASURES)) -> int:
    """Independent count of pipeline questions for a multi-segment filing.

    classify + general fields + segment names + per-segment measures +
    per-segment nested detection + (names + per-child measures) for each
    parent with a positive detection.
    """
    count = 1 + len(GENERAL_FIELDS) + 1
    count += n_segments * n_measures + n_segments
    for children in nested_children:
        count += 1 + children * n_measures
    return count


class TestAppleReplay:
    def test_single_unit_bundle(self, edgar_client, make_gateway, edgar_fixture):
        pipeline = ExtractionPipeline(make_gateway())
        doc = fetch_doc(edgar_client, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        bundle = pipeline.run_pipeline(doc, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        assert bundle.classification.kind == SINGLE_UNIT
        assert bundle.classification.raw_response == "No"
        assert bundle.general_fields == dict(paperdata.APPENDIX_A_RESULTS)
        assert bundle.reportable == []
        assert bundle.nested == []
        assert bundle.warnings == []

    def test_no_segment_questions_for_single_unit(self, edgar_client, make_gateway,
                                                  edgar_fixture):
        _, hashes = edgar_fixture
        gateway = make_gateway()
        pipeline = ExtractionPipeline(gateway)
        doc = fetch_doc(edgar_client, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        pipeline.run_pipeline(doc, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        records = gateway.transcript_for(hashes["apple"])
        assert len(records) == 1 + len(GENERAL_FIELDS)
        questions = {r.question for r in records}
        assert CLASSIFY_QUESTION in questions
        assert SEGMENT_NAMES_QUESTION not in questions

    def test_request_ids_are_sequential(self, edgar_client, make_gateway):
        gateway = make_gateway()
        pipeline = ExtractionPipeline(gateway)
        doc = fetch_doc(edgar_client, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        pipeline.run_pipeline(doc, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        expected = {
            f"{paperdata.APPLE_CIK}-{paperdata.APPLE_FY}-{i:04d}"
            for i in range(1, 19)
        }
        assert {r.request_id for r in gateway.transcript} == expected


class TestAdobePipeline:
    @pytest.fixture()
    def adobe_run(self, edgar_client, make_gateway, edgar_fixture):
        _, hashes = edgar_fixture
        gateway = make_gateway()
        pipeline = ExtractionPipeline(gateway)
        doc = fetch_doc(edgar_client, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        bundle = pipeline.run_pipeline(doc, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        return bundle, gateway, hashes["adobe"]

    def test_reportable_segments(self, adobe_run):
        bundle, _, _ = adobe_run
        assert bundle.classification.kind == MULTI_SEGMENT
        assert [r.name for r in bundle.reportable] == list(paperdata.ADOBE_SEGMENTS)
        for record in bundle.reportable:
            assert record.axis == AXIS_BUSINESS
            assert record.parent_name is None
            expected = Money(Decimal(paperdata.ADOBE_SEGMENT_REVENUE[record.name]),
                             Scale.MILLIONS)
            assert record.measures == {"revenue": expected}

    def test_nested_records_linked_to_parent(self, adobe_run):
        bundle, _, _ = adobe_run
        assert [(r.name, r.parent_name) for r in bundle.nested] == [
            (name, paperdata.ADOBE_NESTED_PARENT) for name, _ in paperdata.ADOBE_NESTED
        ]
        for record, (_, revenue) in zip(bundle.nested, paperdata.ADOBE_NESTED):
            assert record.measures["revenue"] == Money(Decimal(revenue), Scale.MILLIONS)

    def test_question_count_matches_formula(self, adobe_run):
        _, gateway, file_hash = adobe_run
        records = gateway.transcript_for(file_hash)
        expected = expected_question_count(
            n_segments=len(paperdata.ADOBE_SEGMENTS),
            nested_children=[len(paperdata.ADOBE_NESTED)],
        )
        assert len(records) == expected == 38

    def test_nested_sum_reconciles_without_warning(self, adobe_run):
        bundle, _, _ = adobe_run
        assert bundle.warnings == []

    def test_provenance_chains_to_request_ids(self, adobe_run):
        bundle, gateway, _ = adobe_run
        known = {r.request_id for r in gateway.transcript}
        for record in bundle.reportable + bundle.nested:
            assert record.provenance
            assert set(record.provenance) <= known


class TestQuestionBudget:
    def test_avy_year_without_nested(self, edgar_client, make_gateway, edgar_fixture):
        _, hashes = edgar_fixture
        gateway = make_gateway()
        pipeline = ExtractionPipeline(gateway)
        doc = fetch_doc(edgar_client, paperdata.AVY_CIK, 2003)
        pipeline.run_pipeline(doc, paperdata.AVY_CIK, 2003)
        n = len(paperdata.AVY_TABLE3[2003])
        assert len(gateway.transcript_for(hashes["avy2003"])) == expected_question_count(
            n_segments=n, nested_children=[]
        )

    def test_configured_measure_list_shrinks_budget(self, edgar_client, make_gateway,
                                                    edgar_fixture):
        _, hashes = edgar_fixture
        gateway = make_gateway()
        pipeline = ExtractionPipeline(gateway, measures=["revenue"])
        doc = fetch_doc(edgar_client, paperdata.AVY_CIK, 2003)
        bundle = pipeline.run_pipeline(doc, paperdata.AVY_CIK, 2003)
        n = len(paperdata.AVY_TABLE3[2003])
        assert len(gateway.transcript_for(hashes["avy2003"])) == expected_question_count(
            n_segments=n, nested_children=[], n_measures=1
        )
        assert all("revenue" in r.measures for r in bundle.reportable)

    def test_empty_measure_list_falls_back_to_defaults(self, make_gateway):
        pipeline = ExtractionPipeline(make_gateway(), measures=[])
        assert pipeline.measures == DEFAULT_MEASURES


class TestRetries:
    HASH = "f" * 64

    def gateway_for(self, entries: list[dict]) -> Gateway:
        return Gateway(ScriptedBackend(ScriptStore.from_entries(entries)))

    def handle(self, gateway: Gateway):
        return gateway.upload_bytes(b"doc", content_hash=self.HASH)

    def test_format_reminder_retry_recovers(self):
        question = measure_question("revenue", "Alpha")
        entries = [
            {"file_hash": self.HASH, "question": SEGMENT_NAMES_QUESTION, "response": "Alpha"},
            {"file_hash": self.HASH, "question": question, "response": "around five million"},
            {"file_hash": self.HASH,
             "question": retry_question(question, AnswerShape.MONETARY),
             "response": "$5 million"},
        ]
        for measure in ("profit_or_loss", "assets"):
            entries.append({"file_hash": self.HASH,
                            "question": measure_question(measure, "Alpha"),
                            "response": "Not provided"})
        gateway = self.gateway_for(entries)
        pipeline = ExtractionPipeline(gateway)
        warnings: list[str] = []
        [record] = pipeline.extract_reportable(self.handle(gateway), 1, 2000, warnings)
        assert record.measures == {"revenue": Money(Decimal(5), Scale.MILLIONS)}
        assert warnings == []
        # Classify and the general fields own 0001-0018, so the names are
        # 0019; revenue's retry takes revenue's id plus "-r", not a number.
        assert record.provenance == [
            "1-2000-0019", "1-2000-0020", "1-2000-0020-r", "1-2000-0021", "1-2000-0022",
        ]
        assert sorted(r.request_id for r in gateway.transcript) == [
            "1-2000-0019", "1-2000-0020", "1-2000-0020-r", "1-2000-0021", "1-2000-0022",
        ]

    def test_missing_retry_script_reraises_original(self):
        gateway = self.gateway_for([
            {"file_hash": self.HASH, "question": CLASSIFY_QUESTION, "response": "maybe"},
        ])
        pipeline = ExtractionPipeline(gateway)
        with pytest.raises(ValidationError) as excinfo:
            pipeline.classify_segmentation(self.handle(gateway), 1, 2000)
        assert "maybe" in str(excinfo.value)

    def test_batch_retry_failure_degrades_to_warning(self):
        question = measure_question("revenue", "Alpha")
        entries = [
            {"file_hash": self.HASH, "question": SEGMENT_NAMES_QUESTION, "response": "Alpha"},
            {"file_hash": self.HASH, "question": question, "response": "no idea"},
        ]
        for measure in ("profit_or_loss", "assets"):
            entries.append({
                "file_hash": self.HASH,
                "question": measure_question(measure, "Alpha"),
                "response": "Not provided",
            })
        gateway = self.gateway_for(entries)
        pipeline = ExtractionPipeline(gateway)
        warnings: list[str] = []
        records = pipeline.extract_reportable(self.handle(gateway), 1, 2000, warnings)
        assert [r.name for r in records] == ["Alpha"]
        assert records[0].measures == {}
        assert len(warnings) == 1
        assert "invalid after retry" in warnings[0]

    def test_classify_retry_success(self):
        gateway = self.gateway_for([
            {"file_hash": self.HASH, "question": CLASSIFY_QUESTION, "response": "It does."},
            {"file_hash": self.HASH,
             "question": retry_question(CLASSIFY_QUESTION, AnswerShape.YES_NO),
             "response": "Yes"},
        ])
        pipeline = ExtractionPipeline(gateway)
        result = pipeline.classify_segmentation(self.handle(gateway), 1, 2000)
        assert result.kind == MULTI_SEGMENT

    def test_general_field_script_miss_raises(self, edgar_client, edgar_fixture):
        # A missing script entry is a fixture bug: it must not become a
        # "Not provided" field plus a warning.
        _, hashes = edgar_fixture
        dropped = GENERAL_FIELDS[3].question
        entries = [e for e in filingfab.apple_script(hashes["apple"])
                   if e["question"] != dropped]
        pipeline = ExtractionPipeline(self.gateway_for(entries))
        doc = fetch_doc(edgar_client, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        with pytest.raises(ScriptMissError) as excinfo:
            pipeline.run_pipeline(doc, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        assert excinfo.value.question == dropped


class TestTierDifferences:
    """Reportable and nested records share one fan-out; these are its two differences."""

    HASH = "e" * 64

    def test_scale_warning_and_axis_question(self):
        answers = {
            SEGMENT_NAMES_QUESTION: "Alpha",
            nested_names_question("Americas"): "Widgets",
        }
        for measure in DEFAULT_MEASURES:
            revenue = measure == "revenue"
            answers[measure_question(measure, "Alpha")] = "5" if revenue else "Not provided"
            answers[nested_measure_question(measure, "Widgets", "Americas")] = (
                "7" if revenue else "Not provided"
            )
        gateway = Gateway(ScriptedBackend(ScriptStore.from_entries([
            {"file_hash": self.HASH, "question": q, "response": r} for q, r in answers.items()
        ])))
        handle = gateway.upload_bytes(b"doc", content_hash=self.HASH)
        pipeline = ExtractionPipeline(gateway)

        warnings: list[str] = []
        [segment] = pipeline.extract_reportable(handle, 1, 2000, warnings)
        assert segment.measures == {"revenue": Money(Decimal(5), Scale.UNITS, False)}
        assert warnings == ["measure revenue for 'Alpha' has no scale word; taking value as-is"]
        assert segment.axis == AXIS_BUSINESS

        warnings = []
        parent = SegmentRecord(cik=1, fiscal_year=2000, name="Americas")
        [component] = pipeline.extract_nested(handle, [parent], 1, 2000, warnings)
        assert component.measures == {"revenue": Money(Decimal(7), Scale.UNITS, False)}
        assert warnings == []
        assert component.parent_name == "Americas"
        # The name alone reads as "other"; the parent in the names question
        # makes the component geographic.
        assert infer_axis("Widgets", nested=True) == AXIS_OTHER
        assert component.axis == AXIS_GEOGRAPHIC


@dataclass
class StubDoc:
    """Just enough of a CachedDocument for run_pipeline: bytes, hash and name."""

    data: bytes

    @property
    def content_hash(self) -> str:
        return hashlib.sha256(self.data).hexdigest()

    class ref:
        primary_document = "stub.htm"

    def read_bytes(self) -> bytes:
        return self.data


def replace_response(entries: list[dict], question: str, response: str,
                     retry: str | None = None, shape: AnswerShape = AnswerShape.MONETARY) -> None:
    """Give one question a new answer and, when ``retry`` is given, a retry answer."""
    entry = next(e for e in entries if e["question"] == question)
    entry["response"] = response
    if retry is not None:
        entries.append({"file_hash": entry["file_hash"],
                        "question": retry_question(question, shape), "response": retry})


def two_parent_script(file_hash: str) -> list[dict]:
    """A nested filing with two flagged parents, format retries and warnings in both groups."""
    fields = filingfab.general_responses({"conm": "Stub Holdings", "revt": "$6,000 million"})
    entries = filingfab.filing_script(
        file_hash, "Yes", fields,
        [("Alpha Group", 1000), ("Beta Group", 2000), ("Gamma Group", 3000)],
        nested={"Alpha Group": [("Alpha Cloud", 600), ("Alpha Devices", 400)],
                "Gamma Group": [("Gamma Cloud", 1000), ("Gamma Services", 2000)]},
    )
    # A format retry that recovers, on a reportable and on a nested measure.
    replace_response(entries, measure_question("revenue", "Beta Group"),
                     "approximately 2,000 (in millions)", "$2,000 million")
    replace_response(entries, nested_measure_question("revenue", "Gamma Cloud", "Gamma Group"),
                     "about 1,000 (in millions)", "$1,000 million")
    # Warnings: a general field and a measure still invalid after their
    # retries, and a reportable revenue without a scale word.
    replace_response(entries, GENERAL_FIELDS[2].question, "two\nlines", "still\ntwo",
                     AnswerShape.SCALAR)
    replace_response(entries, measure_question("assets", "Beta Group"), "no idea", "still none")
    replace_response(entries, measure_question("revenue", "Alpha Group"), "1000")
    return entries


class TestScheduling:
    """run_pipeline overlaps the stages under the gateway's one budget."""

    def test_measures_wait_while_detection_and_nested_names_go_out(
            self, edgar_client, script_entries):
        # Every reportable measure answer is held until the nested-names
        # question is asked, which needs detection answered first: only a
        # pipeline with detection in flight beside the measures finishes.
        nested_asked = threading.Event()
        measures = {measure_question(m, s) for m in DEFAULT_MEASURES
                    for s in paperdata.ADOBE_SEGMENTS}
        asked: list[str] = []
        held_too_long: list[str] = []

        def gate(question: str) -> float:
            asked.append(question)
            if question == nested_names_question(paperdata.ADOBE_NESTED_PARENT):
                nested_asked.set()
            elif question in measures and not nested_asked.wait(timeout=5):
                held_too_long.append(question)
            return 0.0

        gateway = Gateway(ScriptedBackend(ScriptStore.from_entries(script_entries),
                                          delay_fn=gate), max_in_flight=16)
        doc = fetch_doc(edgar_client, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        bundle = ExtractionPipeline(gateway).run_pipeline(doc, paperdata.ADOBE_CIK,
                                                          paperdata.ADOBE_FY)
        assert held_too_long == []
        detections = [asked.index(nested_detect_question(s)) for s in paperdata.ADOBE_SEGMENTS]
        assert max(detections) < asked.index(
            nested_names_question(paperdata.ADOBE_NESTED_PARENT))
        assert [r.name for r in bundle.nested] == [n for n, _ in paperdata.ADOBE_NESTED]

    def test_retry_goes_out_before_its_batch_settles(self):
        # The profit answer is held until revenue's retry is asked, so the
        # retry must not wait for the rest of the measure batch.
        revenue = measure_question("revenue", "Alpha")
        retry = retry_question(revenue, AnswerShape.MONETARY)
        profit = measure_question("profit_or_loss", "Alpha")
        retry_asked = threading.Event()
        held_too_long: list[str] = []

        def gate(question: str) -> float:
            if question == retry:
                retry_asked.set()
            elif question == profit and not retry_asked.wait(timeout=5):
                held_too_long.append(question)
            return 0.0

        file_hash = "d" * 64
        answers = {SEGMENT_NAMES_QUESTION: "Alpha", revenue: "around five million",
                   retry: "$5 million", profit: "$1 million",
                   measure_question("assets", "Alpha"): "Not provided"}
        gateway = Gateway(ScriptedBackend(ScriptStore.from_entries(
            [{"file_hash": file_hash, "question": q, "response": r} for q, r in answers.items()]
        ), delay_fn=gate))
        handle = gateway.upload_bytes(b"doc", content_hash=file_hash)
        [record] = ExtractionPipeline(gateway).extract_reportable(handle, 1, 2000, [])
        assert held_too_long == []
        assert record.measures["revenue"] == Money(Decimal(5), Scale.MILLIONS)

    def run_jittered(self, doc, entries: list[dict], cik: int, fy: int, seed: int | None,
                     tmp_path) -> tuple[str, bytes, int]:
        """Bundle JSON, sorted transcript bytes and peak in-flight under seeded delays."""
        lock = threading.Lock()
        active = peak = 0

        def jitter(question: str) -> float:
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            if seed is not None:
                time.sleep(random.Random(f"{seed}:{question}").choice([0, 0.0005, 0.001, 0.003]))
            with lock:
                active -= 1
            return 0.0

        gateway = Gateway(ScriptedBackend(ScriptStore.from_entries(entries), delay_fn=jitter),
                          max_in_flight=5)
        bundle = ExtractionPipeline(gateway).run_pipeline(doc, cik, fy)
        path = tmp_path / f"transcript_{cik}_{seed}.jsonl"
        gateway.dump_transcript(path)
        return json.dumps(bundle_to_json(bundle), sort_keys=True), path.read_bytes(), peak

    def test_outputs_do_not_depend_on_completion_order(self, edgar_client, edgar_fixture,
                                                       tmp_path):
        _, hashes = edgar_fixture
        adobe = fetch_doc(edgar_client, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        stub = StubDoc(b"a nested filing with two flagged parents")
        filings = [
            (adobe, filingfab.adobe_script(hashes["adobe"]), paperdata.ADOBE_CIK,
             paperdata.ADOBE_FY),
            (stub, two_parent_script(stub.content_hash), 7, 2020),
        ]
        for doc, entries, cik, fy in filings:
            reference, transcript, _ = self.run_jittered(doc, entries, cik, fy, None, tmp_path)
            for seed in range(5):
                got, got_transcript, peak = self.run_jittered(doc, entries, cik, fy, seed,
                                                              tmp_path)
                assert got == reference, (cik, seed)
                assert got_transcript == transcript, (cik, seed)
                assert 1 < peak <= 5

        bundle = json.loads(reference)
        ids = [json.loads(line)["request_id"] for line in transcript.decode().splitlines()]
        # classify and the 17 general fields are 0001-0018 and the names
        # 0019; each retry is its original's id plus "-r".
        retried = [i for i in ids if i.endswith("-r")]
        firsts = [i for i in ids if i not in retried]
        assert firsts == [f"7-2020-{seq:04d}" for seq in range(1, len(firsts) + 1)]
        assert len(retried) == 4 and all(i[:-2] in firsts for i in retried)
        assert [(r["parent_name"], r["name"]) for r in bundle["nested"]] == [
            ("Alpha Group", "Alpha Cloud"), ("Alpha Group", "Alpha Devices"),
            ("Gamma Group", "Gamma Cloud"), ("Gamma Group", "Gamma Services"),
        ]
        gamma_cloud = bundle["nested"][2]
        assert gamma_cloud["measures"]["revenue"]["value"] == "1000"
        assert gamma_cloud["provenance"][2].endswith("-r")
        # General-field warnings first, then the chain's, each in plan order.
        assert bundle["warnings"] == [
            "request 7-2020-0004 invalid after retry: scalar answer spans multiple lines: "
            "'still\\ntwo'",
            "request 7-2020-0025 invalid after retry: not a monetary amount: 'still none'",
            "measure revenue for 'Alpha Group' has no scale word; taking value as-is",
        ]

    def test_general_field_failure_surfaces(self, edgar_client, edgar_fixture):
        # The filler stage runs on its own thread; its script miss must still
        # raise from run_pipeline, after the multi-segment chain has run.
        _, hashes = edgar_fixture
        dropped = GENERAL_FIELDS[-1].question
        entries = [e for e in filingfab.adobe_script(hashes["adobe"])
                   if e["question"] != dropped]
        pipeline = ExtractionPipeline(Gateway(ScriptedBackend(ScriptStore.from_entries(entries))))
        doc = fetch_doc(edgar_client, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        with pytest.raises(ScriptMissError) as excinfo:
            pipeline.run_pipeline(doc, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        assert excinfo.value.question == dropped

    def test_nested_names_failure_surfaces(self, edgar_client, edgar_fixture):
        # Nested names are required and are asked on the detection thread.
        _, hashes = edgar_fixture
        entries = filingfab.adobe_script(hashes["adobe"])
        replace_response(entries, nested_names_question(paperdata.ADOBE_NESTED_PARENT), " ")
        pipeline = ExtractionPipeline(Gateway(ScriptedBackend(ScriptStore.from_entries(entries))))
        doc = fetch_doc(edgar_client, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        with pytest.raises(ValidationError, match="empty list answer"):
            pipeline.run_pipeline(doc, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)


class TestValidators:
    def test_yes_no(self):
        assert validate_yes_no("Yes") is True
        assert validate_yes_no(" no. ") is False
        with pytest.raises(ValidationError):
            validate_yes_no("maybe")

    def test_scalar(self):
        assert validate_scalar("  3571 ") == "3571"
        with pytest.raises(ValidationError):
            validate_scalar("   ")
        with pytest.raises(ValidationError):
            validate_scalar("two\nlines")

    def test_list_splits_and_warns(self):
        names, warnings = validate_list("A; B; C")
        assert names == ["A", "B", "C"]
        assert warnings == []
        names, warnings = validate_list("A; B;")
        assert names == ["A", "B"]
        assert any("trailing" in w for w in warnings)
        names, warnings = validate_list("A; A; B")
        assert names == ["A", "B"]
        assert any("duplicate" in w for w in warnings)

    def test_list_not_provided_and_empty(self):
        assert validate_list("Not provided") == ([], [])
        with pytest.raises(ValidationError):
            validate_list("  ")
        with pytest.raises(ValidationError):
            validate_list(" ; ; ")

    def test_monetary(self):
        assert validate_monetary("Not provided") is None
        assert validate_monetary("$21,500 million") == Money(Decimal(21500), Scale.MILLIONS)
        with pytest.raises(ValidationError):
            validate_monetary("roughly half")


class TestInferAxis:
    def test_geographic_names(self):
        for name in ("Americas", "Greater China", "Japan", "Rest of Asia Pacific",
                     "U.S. operations", "EMEA"):
            assert infer_axis(name, nested=False) == AXIS_GEOGRAPHIC, name

    def test_customer_names(self):
        assert infer_axis("Large Customers", nested=False) == AXIS_CUSTOMER
        assert infer_axis("End Markets", nested=False) == AXIS_CUSTOMER

    def test_business_default_for_top_level(self):
        assert infer_axis("Digital Media", nested=False) == AXIS_BUSINESS
        assert infer_axis("Pressure-sensitive Materials", nested=False) == AXIS_BUSINESS

    def test_nested_product_and_other(self):
        assert infer_axis("Creative Cloud", nested=True) == AXIS_PRODUCT
        assert infer_axis("Licensing", nested=True) == AXIS_PRODUCT
        assert infer_axis("Institutional", nested=True) == AXIS_OTHER

    def test_question_text_contributes(self):
        question = "Which geographic areas, such as Europe, are disclosed?"
        assert infer_axis("Northern region", nested=True, question=question) == AXIS_GEOGRAPHIC


class TestAuditNestedSums:
    def build(self, parent_revenue: int | None, children: list[int | None],
              child_scale: Scale = Scale.MILLIONS) -> ExtractionBundle:
        parent = SegmentRecord(cik=1, fiscal_year=2000, name="P")
        if parent_revenue is not None:
            parent.measures["revenue"] = Money(Decimal(parent_revenue), Scale.MILLIONS)
        nested = []
        for i, value in enumerate(children):
            child = SegmentRecord(cik=1, fiscal_year=2000, name=f"c{i}", parent_name="P",
                                  axis=AXIS_OTHER)
            if value is not None:
                child.measures["revenue"] = Money(Decimal(value), child_scale)
            nested.append(child)
        return ExtractionBundle(
            cik=1,
            fiscal_year=2000,
            classification=SegmentationClass(kind=MULTI_SEGMENT, raw_response="Yes"),
            general_fields={},
            reportable=[parent],
            nested=nested,
        )

    def test_mismatch_appends_warning(self):
        bundle = self.build(100, [60, 30])
        audit_nested_sums(bundle)
        assert len(bundle.warnings) == 1
        assert "nested_sum_mismatch" in bundle.warnings[0]
        assert "difference=10" in bundle.warnings[0]

    def test_exact_sum_is_silent(self):
        bundle = self.build(90, [60, 30])
        audit_nested_sums(bundle)
        assert bundle.warnings == []

    def test_missing_values_skip_the_check(self):
        for bundle in (self.build(None, [60, 30]), self.build(100, [60, None])):
            audit_nested_sums(bundle)
            assert bundle.warnings == []

    def test_scale_mismatch_skips_the_check(self):
        bundle = self.build(100, [60, 30], child_scale=Scale.THOUSANDS)
        audit_nested_sums(bundle)
        assert bundle.warnings == []


class TestBundleInvariants:
    def general_fields(self) -> dict[str, str]:
        return {spec.field_name: "Not provided" for spec in GENERAL_FIELDS}

    def single_unit(self) -> ExtractionBundle:
        return ExtractionBundle(
            cik=1,
            fiscal_year=2000,
            classification=SegmentationClass(kind=SINGLE_UNIT, raw_response="No"),
            general_fields=self.general_fields(),
        )

    def test_valid_single_unit_passes(self):
        validate_bundle(self.single_unit())

    def test_single_unit_with_segments_rejected(self):
        bundle = self.single_unit()
        bundle.reportable.append(SegmentRecord(cik=1, fiscal_year=2000, name="X"))
        with pytest.raises(SchemaError):
            validate_bundle(bundle)

    def test_general_field_keys_must_match_exactly(self):
        bundle = self.single_unit()
        del bundle.general_fields["gvkey"]
        with pytest.raises(SchemaError):
            validate_bundle(bundle)
        bundle = self.single_unit()
        bundle.general_fields["bonus"] = "x"
        with pytest.raises(SchemaError):
            validate_bundle(bundle)

    def test_orphan_nested_parent_rejected(self):
        bundle = self.single_unit()
        bundle.classification = SegmentationClass(kind=MULTI_SEGMENT, raw_response="Yes")
        bundle.reportable.append(SegmentRecord(cik=1, fiscal_year=2000, name="P"))
        bundle.nested.append(
            SegmentRecord(cik=1, fiscal_year=2000, name="c", parent_name="Q")
        )
        with pytest.raises(SchemaError):
            validate_bundle(bundle)

    def test_foreign_firm_year_rejected(self):
        bundle = self.single_unit()
        bundle.classification = SegmentationClass(kind=MULTI_SEGMENT, raw_response="Yes")
        bundle.reportable.append(SegmentRecord(cik=2, fiscal_year=2000, name="X"))
        with pytest.raises(SchemaError):
            validate_bundle(bundle)

    def test_bad_dataclass_values_rejected(self):
        with pytest.raises(ValueError):
            SegmentationClass(kind="mystery", raw_response="?")
        with pytest.raises(ValueError):
            SegmentRecord(cik=1, fiscal_year=2000, name="   ")
        with pytest.raises(ValueError):
            SegmentRecord(cik=1, fiscal_year=2000, name="X", axis="sideways")


class TestSerialization:
    def test_adobe_roundtrip(self, edgar_client, make_gateway):
        pipeline = ExtractionPipeline(make_gateway())
        doc = fetch_doc(edgar_client, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        bundle = pipeline.run_pipeline(doc, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        assert bundle_from_json(bundle_to_json(bundle)) == bundle

    def test_dump_and_load(self, tmp_path):
        bundle = filingfab.intc_bundle(2012)
        path = dump_bundle(bundle, tmp_path)
        assert path.name == "50863_2012.bundle.json"
        assert load_bundle(path) == bundle

    def test_loaded_bundles_are_validated(self, tmp_path):
        bundle = filingfab.intc_bundle(2012)
        data = bundle_to_json(bundle)
        data["reportable"][0]["name"] = "renamed"
        data["nested"] = [
            {"name": "orphan", "axis": AXIS_OTHER, "measures": {},
             "parent_name": "gone", "provenance": []}
        ]
        with pytest.raises(SchemaError):
            bundle_from_json(data)

    def test_money_exactness_survives(self):
        bundle = filingfab.intc_bundle(2016)
        restored = bundle_from_json(bundle_to_json(bundle))
        record = next(r for r in restored.reportable if r.name == "Singapore")
        money = record.measures["revenue"]
        assert money.value == Decimal(dict(paperdata.INTC_ASIA[2016])["Singapore"])
        assert money.scale == Scale.MILLIONS
