"""End-to-end CLI tests.

Every command is driven through main() against the fixture transport and
scripted gateway, with run directories under tmp_path so nothing leaks
into the working tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

import filingfab
import paperdata
from segforge import cli
from segforge.cli import main
from segforge.config import env_var_name
from segforge.extraction import dump_bundle, load_bundle
from segforge.parsing import load_json
from segforge.retrieval import ChunkIndex, save_index
from segforge.store import SegmentStore


def invoke(capsys, argv: list[str]):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def run_dir(tmp_path):
    return tmp_path / "run"


@pytest.fixture()
def base(config_path, run_dir):
    return ["--config", str(config_path), "--run-dir", str(run_dir)]


def read_manifest(run_dir) -> dict[str, str]:
    data = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    return {item["path"]: item["sha256"] for item in data["artifacts"]}


def write_panel(run_dir, bundles) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    store = SegmentStore(run_dir / "panel.jsonl")
    for bundle in bundles:
        store.put(bundle)


def snapshot(run_dir) -> dict[str, bytes | None]:
    """Every file's bytes and every directory (None) under run_dir."""
    return {path.relative_to(run_dir).as_posix(): path.read_bytes() if path.is_file() else None
            for path in sorted(run_dir.rglob("*"))}


def write_gold(path, group_id: str):
    """Gold labels for the INTC 2012 bundle alone."""
    path.write_text(json.dumps({
        "group_id": group_id,
        "filings": [{"cik": paperdata.INTC_CIK, "fiscal_year": 2012,
                     "is_multi_segment": True, "has_nested": False}],
        "cells": [{"cik": paperdata.INTC_CIK, "fiscal_year": 2012, "segment": "United States",
                   "measure": "revenue", "gold_value": "1 million"}],
    }), encoding="utf-8")
    return path


def fail_replace(src, dst):
    raise OSError("disk full")


class TestFetchAndParse:
    def test_fetch_reports_cached_document(self, capsys, base, edgar_fixture):
        _, hashes = edgar_fixture
        code, out, err = invoke(capsys, ["fetch", *base, "--cik", "320193",
                                         "--year", "2024"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["cik"] == paperdata.APPLE_CIK
        assert payload["fiscal_year"] == 2024
        assert payload["media_kind"] == "html"
        assert payload["content_hash"] == hashes["apple"]

    def test_fetch_unknown_firm_exits_1_with_json_error(self, capsys, base):
        code, out, err = invoke(capsys, ["fetch", *base, "--cik", "999999",
                                         "--year", "2024"])
        assert code == 1
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "NotFoundError"
        assert "999999" in error["message"]

    def test_parse_writes_artifact_and_manifest(self, capsys, base, run_dir):
        code, out, _ = invoke(capsys, ["parse", *base, "--cik", str(paperdata.AVY_CIK),
                                       "--year", "2022"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload["items"]) >= {"1", "1A", "7", "8"}
        artifact = run_dir / "parsed" / f"{paperdata.AVY_CIK}_2022.json"
        assert artifact.exists()
        parsed = load_json(artifact.read_text(encoding="utf-8"))
        assert parsed.ref.cik == paperdata.AVY_CIK
        manifest = read_manifest(run_dir)
        rel = f"parsed/{paperdata.AVY_CIK}_2022.json"
        assert manifest[rel] == hashlib.sha256(artifact.read_bytes()).hexdigest()


class TestExtract:
    def test_extract_apple_single_unit(self, capsys, base, run_dir):
        code, out, _ = invoke(capsys, ["extract", *base, "--cik", "320193",
                                       "--year", "2024"])
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "single_unit"
        assert payload["reportable"] == []
        assert payload["warnings"] == []
        bundle = load_bundle(run_dir / "320193_2024.bundle.json")
        assert bundle.general_fields == dict(paperdata.APPENDIX_A_RESULTS)
        transcript = (run_dir / "transcript.jsonl").read_text(encoding="utf-8")
        assert len(transcript.splitlines()) == 18
        assert (run_dir / "panel.jsonl").exists()
        manifest = read_manifest(run_dir)
        assert "320193_2024.bundle.json" in manifest
        assert "transcript.jsonl" in manifest

    def test_extract_adobe_nested(self, capsys, base, run_dir):
        code, out, _ = invoke(capsys, ["extract", *base, "--cik",
                                       str(paperdata.ADOBE_CIK), "--year", "2024"])
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"] == "multi_segment"
        assert payload["reportable"] == paperdata.ADOBE_SEGMENTS
        assert payload["nested"] == [name for name, _ in paperdata.ADOBE_NESTED]


class TestIndex:
    def test_index_builds_from_parsed_corpus(self, capsys, base, run_dir):
        for year in (2022, 2023):
            invoke(capsys, ["parse", *base, "--cik", str(paperdata.AVY_CIK),
                            "--year", str(year)])
        code, out, _ = invoke(capsys, ["index", *base, "--corpus",
                                       str(run_dir / "parsed")])
        assert code == 0
        payload = json.loads(out)
        assert payload["filings"] == 2
        assert payload["chunks"] > 0
        manifest = read_manifest(run_dir)
        # Manifest keeps entries from earlier commands and adds the index files.
        assert {f"parsed/{paperdata.AVY_CIK}_2022.json",
                f"parsed/{paperdata.AVY_CIK}_2023.json",
                "index/index.meta.json", "index/index.bin",
                f"index/{paperdata.AVY_CIK}_2022.chunks.json",
                f"index/{paperdata.AVY_CIK}_2023.chunks.json"} <= set(manifest)
        for rel, digest in manifest.items():
            assert hashlib.sha256((run_dir / rel).read_bytes()).hexdigest() == digest
        # Indexing one filing removes the other's chunk file and its manifest entry.
        (run_dir / "parsed" / f"{paperdata.AVY_CIK}_2022.json").unlink()
        code, out, _ = invoke(capsys, ["index", *base, "--corpus", str(run_dir / "parsed")])
        assert (code, json.loads(out)["filings"]) == (0, 1)
        assert sorted(p.name for p in (run_dir / "index").iterdir()) == \
            [f"{paperdata.AVY_CIK}_2023.chunks.json", "index.bin", "index.meta.json"]
        assert {rel for rel in read_manifest(run_dir) if rel.startswith("index/")} == \
            {f"index/{p.name}" for p in (run_dir / "index").iterdir()}

    def test_empty_corpus_directory_builds_empty_index(self, capsys, base, run_dir, tmp_path):
        (tmp_path / "empty").mkdir()
        code, out, _ = invoke(capsys, ["index", *base, "--corpus", str(tmp_path / "empty")])
        assert (code, json.loads(out)["chunks"]) == (0, 0)
        assert sorted(p.name for p in (run_dir / "index").iterdir()) == \
            ["index.bin", "index.meta.json"]

    def test_malformed_parsed_file_exits_1(self, capsys, base, run_dir):
        invoke(capsys, ["parse", *base, "--cik", str(paperdata.AVY_CIK), "--year", "2022"])
        path = run_dir / "parsed" / f"{paperdata.AVY_CIK}_2022.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["items"]["7"]["item"]["number"] = "17"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, ["index", *base, "--corpus", str(run_dir / "parsed")])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        assert path.name in error["message"]
        assert not (run_dir / "index").exists()


class TestGaps:
    def test_gap_report_artifact(self, capsys, base, run_dir, tmp_path):
        write_panel(run_dir, [filingfab.intc_bundle(y) for y in (2012, 2013, 2014)]
                    + [filingfab.txn_bundle(2012)])
        roster = filingfab.write_roster(tmp_path / "roster.csv", [
            (paperdata.INTC_CIK, 2012),
            (paperdata.INTC_CIK, 2015),
            (paperdata.TXN_CIK, 2012),
        ])
        code, out, _ = invoke(capsys, ["gaps", *base, "--roster", str(roster)])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"missing": {"2015": [paperdata.INTC_CIK]}, "total_missing": 1}
        assert json.loads((run_dir / "gaps.json").read_text(encoding="utf-8")) == payload

    def test_bad_roster_exits_1(self, capsys, base, run_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("company,year\nx,2012\n", encoding="utf-8")
        code, _, err = invoke(capsys, ["gaps", *base, "--roster", str(bad)])
        assert code == 1
        assert json.loads(err)["error"] == "SchemaError"


class TestChanges:
    def test_detect_only(self, capsys, base, run_dir, avy_bundles):
        write_panel(run_dir, [avy_bundles[y] for y in sorted(avy_bundles)])
        code, out, err = invoke(capsys, ["changes", *base, "--cik", str(paperdata.AVY_CIK),
                                         "--from", "2001", "--to", "2024"])
        assert (code, err) == (0, "")
        assert out.startswith("Year")
        csv_text = (run_dir / f"changes_{paperdata.AVY_CIK}.csv").read_text(encoding="utf-8")
        yes_years = {int(line.split(",")[0]) for line in csv_text.splitlines()[1:]
                     if ",Yes," in line}
        assert yes_years == paperdata.AVY_CHANGED_YEARS
        assert not (run_dir / "transcript.jsonl").exists()

    def test_gap_in_years_warns_on_stderr(self, capsys, base, run_dir, avy_bundles):
        years = sorted(avy_bundles)
        write_panel(run_dir, [avy_bundles[y] for y in years if y != years[2]])
        code, _, err = invoke(capsys, ["changes", *base, "--cik", str(paperdata.AVY_CIK),
                                       "--from", "2001", "--to", "2024"])
        assert code == 0
        assert err == f"GapInYears: no data between {years[1]} and {years[3]}\n"

    def test_grounded_explanations(self, capsys, base, run_dir, avy_bundles,
                                   avy_index_dir):
        write_panel(run_dir, [avy_bundles[y] for y in sorted(avy_bundles)])
        code, out, _ = invoke(capsys, ["changes", *base, "--cik", str(paperdata.AVY_CIK),
                                       "--from", "2001", "--to", "2024",
                                       "--index", str(avy_index_dir)])
        assert code == 0
        for year, answer in filingfab.AVY_CHANGE_ANSWERS.items():
            assert answer["reason"] in out, year
        transcript = (run_dir / "transcript.jsonl").read_text(encoding="utf-8")
        assert len(transcript.splitlines()) == len(paperdata.AVY_CHANGED_YEARS)
        manifest = read_manifest(run_dir)
        assert f"changes_{paperdata.AVY_CIK}.csv" in manifest
        assert "transcript.jsonl" in manifest


class TestUnreadableIndex:
    def query(self, command: str, tmp_path, index_dir) -> list[str]:
        if command == "changes":
            return ["changes", "--cik", str(paperdata.AVY_CIK), "--from", "2001",
                    "--to", "2024", "--index", str(index_dir)]
        scheme = filingfab.write_asia_scheme(tmp_path / "asia.json")
        return ["align", "--firm-a", str(paperdata.INTC_CIK), "--firm-b", str(paperdata.TXN_CIK),
                "--region", str(scheme), "--from", "2012", "--to", "2013",
                "--index", str(index_dir)]

    def test_empty_index_answers_unknown(self, capsys, base, run_dir, tmp_path, avy_bundles):
        """A catalog that lists no filing loads; no year finds context."""
        write_panel(run_dir, [avy_bundles[y] for y in sorted(avy_bundles)])
        save_index(ChunkIndex(chunks=[], doc_freq={}), tmp_path / "index")
        assert (tmp_path / "index" / "index.meta.json").read_text() == '{"filings": []}\n'
        code, out, err = invoke(capsys, [*self.query("changes", tmp_path, tmp_path / "index"),
                                         *base])
        assert code == 0
        assert "unknown" in out
        assert err.splitlines() == [f"RetrievalEmpty: no context for {paperdata.AVY_CIK} {year}"
                                    for year in sorted(paperdata.AVY_CHANGED_YEARS)]

    def test_bad_chunk_file_exits_1(self, capsys, base, run_dir, tmp_path, avy_bundles,
                                    avy_index):
        """A chunk file that does not hold what the catalog lists fails when read."""
        write_panel(run_dir, [avy_bundles[y] for y in sorted(avy_bundles)])
        save_index(avy_index, tmp_path / "index")
        year = min(paperdata.AVY_CHANGED_YEARS)
        path = tmp_path / "index" / f"{paperdata.AVY_CIK}_{year}.chunks.json"
        path.write_text("[]", encoding="utf-8")
        code, out, err = invoke(capsys, [*self.query("changes", tmp_path, tmp_path / "index"),
                                         *base])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        assert str(path) in error["message"]

    @pytest.mark.parametrize("command", ["changes", "align"])
    @pytest.mark.parametrize("name,content", [
        ("index.meta.json", "{}"),  # no chunk table
        ("index.bin", '{"chunk_len": []}'),  # no doc_freq
        ("index.meta.json", '{"chunks": ['),
        ("index.bin", "not json"),
        ("index.bin", '{"doc_freq": []}'),
        ("index.meta.json", '{"filings": [{"cik": "8818", "fiscal_year": 2012, "chunk_count": 0}]}'),
        ("index.meta.json", '{"filings": [{"cik": 8818, "fiscal_year": 2012, "chunk_count": true}]}'),
    ])
    def test_unreadable_index_exits_1(self, capsys, base, tmp_path, command, name, content):
        index_dir = tmp_path / "index"
        save_index(ChunkIndex(chunks=[], doc_freq={}), index_dir)
        (index_dir / name).write_text(content, encoding="utf-8")
        code, out, err = invoke(capsys, [*self.query(command, tmp_path, index_dir), *base])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        assert str(index_dir / name) in error["message"]


class TestBadPanelRow:
    """A panel row with a bad shape fails only the commands that read it."""

    def test_other_firms_answer_and_readers_of_the_row_exit_1(self, capsys, base, run_dir,
                                                               tmp_path, avy_bundles):
        write_panel(run_dir, [
            filingfab.geo_bundle(55, 2020, "Firm 55", "F55", [("Asia", 10)], 20),
            filingfab.intc_bundle(2012), filingfab.txn_bundle(2012),
            *(avy_bundles[y] for y in sorted(avy_bundles))])
        panel = run_dir / "panel.jsonl"
        lines = panel.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[0])
        row["bundle"]["reportable"] = "Asia"
        lines[0] = json.dumps(row, sort_keys=True) + "\n"
        panel.write_text("".join(lines), encoding="utf-8")

        code, out, err = invoke(capsys, ["changes", *base, "--cik", str(paperdata.AVY_CIK),
                                         "--from", "2001", "--to", "2024"])
        assert (code, err) == (0, "")
        scheme = filingfab.write_asia_scheme(tmp_path / "asia.json")
        code, out, err = invoke(capsys, [
            "align", *base, "--firm-a", str(paperdata.INTC_CIK),
            "--firm-b", str(paperdata.TXN_CIK), "--region", str(scheme),
            "--from", "2012", "--to", "2012"])
        assert (code, err) == (0, "")
        roster = filingfab.write_roster(tmp_path / "roster.csv", [(55, 2020)])
        for argv in (["gaps", "--roster", str(roster)], ["export"]):
            code, out, err = invoke(capsys, [argv[0], *base, *argv[1:]])
            assert (code, out) == (1, ""), argv[0]
            error = json.loads(err)
            assert error["error"] == "SchemaError"
            assert f"{panel}:1: bad panel row" in error["message"]


class TestUnreadableInput:
    """A missing or malformed input file exits 1 with a JSON error that names
    it, and the run directory gets no artifact and no manifest."""

    def argv(self, command: str, path) -> list[str]:
        return {
            "changes": ["changes", "--cik", str(paperdata.AVY_CIK), "--from", "2001",
                        "--to", "2024", "--index", str(path)],
            "gaps": ["gaps", "--roster", str(path)],
            "align": ["align", "--firm-a", str(paperdata.INTC_CIK),
                      "--firm-b", str(paperdata.TXN_CIK), "--region", str(path),
                      "--from", "2012", "--to", "2013"],
            "eval": ["eval", "--gold", str(path)],
            "index": ["index", "--corpus", str(path)],
        }[command]

    def fails(self, capsys, argv, run_dir, error: str, path) -> None:
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == error
        assert str(path) in payload["message"]
        assert list(run_dir.iterdir()) == []

    @pytest.mark.parametrize("command,name", [("changes", "nope"), ("gaps", "nope.csv"),
                                              ("align", "nope.json")])
    def test_missing_path_exits_1(self, capsys, base, run_dir, tmp_path, command, name):
        path = tmp_path / name
        self.fails(capsys, [*self.argv(command, path), *base], run_dir,
                   "FileNotFoundError", path)

    def test_missing_corpus_directory_exits_1(self, capsys, base, run_dir, tmp_path):
        """No index and no manifest entry, not an empty index."""
        path = tmp_path / "nope"
        self.fails(capsys, [*self.argv("index", path), *base], run_dir,
                   "FileNotFoundError", path)

    @pytest.mark.parametrize("command,content,where", [
        ("gaps", "cik,fiscal_year\n1,2012\nabc,2013\n", ":3: "),
        ("eval", '{"filings": [{"cik": 1}]}', ": KeyError: "),
        ("eval", "not json", ": JSONDecodeError: "),
    ], ids=["roster_cik", "gold_missing_key", "gold_not_json"])
    def test_bad_roster_or_gold_exits_1(self, capsys, base, run_dir, tmp_path, command,
                                        content, where):
        path = tmp_path / "input"
        path.write_text(content, encoding="utf-8")
        self.fails(capsys, [*self.argv(command, path), *base], run_dir, "SchemaError",
                   f"{path}{where}")

    @pytest.mark.parametrize("content", [
        "not json",
        '{"region_name": "Asia"}',  # no member labels
        '{"region_name": "Asia", "member_labels": []}',
        "[]",
    ])
    def test_bad_region_scheme_exits_1(self, capsys, base, run_dir, tmp_path, content):
        path = tmp_path / "scheme.json"
        path.write_text(content, encoding="utf-8")
        self.fails(capsys, [*self.argv("align", path), *base], run_dir, "SchemaError", path)


class TestConfigFile:
    @pytest.mark.parametrize("line", ["this is not an assignment", "llm.max_inflight = 3",
                                      "retrieval.k1 = 1.2"])
    def test_bad_config_line_exits_1(self, capsys, run_dir, tmp_path, config_path, line):
        config = tmp_path / "bad.conf"
        config.write_text(config_path.read_text(encoding="utf-8") + line + "\n",
                          encoding="utf-8")
        roster = filingfab.write_roster(tmp_path / "roster.csv", [(paperdata.INTC_CIK, 2012)])
        code, out, err = invoke(capsys, ["gaps", "--config", str(config), "--run-dir",
                                         str(run_dir), "--roster", str(roster)])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        lineno = len(config.read_text(encoding="utf-8").splitlines())
        assert error["message"].startswith(f"{config}:{lineno}: ")


    @pytest.mark.parametrize("source", ["file", "env"])
    def test_non_numeric_value_exits_1(self, capsys, run_dir, tmp_path, config_path,
                                       avy_index_dir, monkeypatch, source):
        config = tmp_path / "segforge.conf"
        text = config_path.read_text(encoding="utf-8")
        if source == "file":
            text += "llm.max_in_flight = abc\n"
        else:
            monkeypatch.setenv(env_var_name("llm.max_in_flight"), "abc")
        config.write_text(text, encoding="utf-8")
        code, out, err = invoke(capsys, [
            "changes", "--config", str(config), "--run-dir", str(run_dir),
            "--cik", str(paperdata.AVY_CIK), "--from", "2001", "--to", "2024",
            "--index", str(avy_index_dir)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "SchemaError",
                                   "message": "llm.max_in_flight = 'abc' is not a valid int"}
        assert list(run_dir.iterdir()) == []

    @pytest.mark.parametrize("content", ["{torn", "[]"])
    def test_malformed_fixture_index_exits_1(self, capsys, run_dir, tmp_path, config_path,
                                             content):
        fixture = tmp_path / "edgar"
        fixture.mkdir()
        (fixture / "index.json").write_text(content, encoding="utf-8")
        config = tmp_path / "segforge.conf"
        config.write_text(config_path.read_text(encoding="utf-8")
                          + f"edgar.fixture_dir = {fixture}\n", encoding="utf-8")
        code, out, err = invoke(capsys, ["parse", "--config", str(config), "--run-dir",
                                         str(run_dir), "--cik", "320193", "--year", "2024"])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        assert error["message"].startswith(f"{fixture / 'index.json'}: ")
        assert list(run_dir.iterdir()) == []


class TestAlign:
    def test_alignment_artifacts(self, capsys, base, run_dir, tmp_path):
        bundles = []
        for year in sorted(paperdata.INTC_ASIA):
            bundles += [filingfab.intc_bundle(year), filingfab.txn_bundle(year)]
        write_panel(run_dir, bundles)
        scheme = filingfab.write_asia_scheme(tmp_path / "asia.json")
        code, out, _ = invoke(capsys, [
            "align", *base,
            "--firm-a", str(paperdata.INTC_CIK), "--firm-b", str(paperdata.TXN_CIK),
            "--label-a", "INTC", "--label-b", "TXN",
            "--region", str(scheme), "--from", "2012", "--to", "2024",
        ])
        assert code == 0
        assert "% Asia / Total INTC" in out
        csv_path = run_dir / f"alignment_{paperdata.INTC_CIK}_{paperdata.TXN_CIK}.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 13
        row_2012 = next(line for line in lines if line.startswith("2012,"))
        assert f"{paperdata.INTC_PCT[2012]}%" in row_2012
        assert f"{paperdata.TXN_PCT[2012]}%" in row_2012


class TestEvalAndExport:
    def gold_payload(self) -> dict:
        return {
            "group_id": "unit",
            "filings": [
                {"cik": paperdata.APPLE_CIK, "fiscal_year": 2024,
                 "is_multi_segment": False, "has_nested": False},
                {"cik": paperdata.ADOBE_CIK, "fiscal_year": 2024,
                 "is_multi_segment": True, "has_nested": True},
            ],
            "cells": [
                {"cik": paperdata.ADOBE_CIK, "fiscal_year": 2024,
                 "segment": "Digital Media", "measure": "revenue",
                 "gold_value": "$16,200 million"},
                {"cik": paperdata.ADOBE_CIK, "fiscal_year": 2024,
                 "segment": "Creative Cloud", "measure": "revenue",
                 "gold_value": "12,900 million"},
            ],
        }

    def test_eval_scores_extracted_bundles(self, capsys, base, run_dir, tmp_path):
        for cik in (paperdata.APPLE_CIK, paperdata.ADOBE_CIK):
            invoke(capsys, ["extract", *base, "--cik", str(cik), "--year", "2024"])
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps(self.gold_payload()), encoding="utf-8")
        code, out, _ = invoke(capsys, ["eval", *base, "--gold", str(gold),
                                       "--bundles", str(run_dir)])
        assert code == 0
        assert "Model Identified Multi-Segment Filings" in out
        report = json.loads((run_dir / "eval_unit.json").read_text(encoding="utf-8"))
        assert report["n_filings"] == 2
        assert report["n_multi_model"] == 1
        assert report["n_nested_model"] == 1
        assert report["primary_accuracy"] == 100.0
        assert report["nested_accuracy"] == 100.0

    def test_eval_missing_bundle_exits_1(self, capsys, base, run_dir, tmp_path):
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps(self.gold_payload()), encoding="utf-8")
        empty = tmp_path / "bundles"
        empty.mkdir()
        code, _, err = invoke(capsys, ["eval", *base, "--gold", str(gold),
                                       "--bundles", str(empty)])
        assert code == 1
        assert json.loads(err)["error"] == "CoverageError"

    @pytest.mark.parametrize("corrupt", [
        lambda record: record["measures"]["revenue"].update(value="12 bananas"),
        lambda record: record.pop("axis"),
    ], ids=["bad_amount", "no_axis"])
    def test_eval_malformed_bundle_exits_1(self, capsys, base, tmp_path, corrupt):
        bundles = tmp_path / "bundles"
        path = dump_bundle(filingfab.intc_bundle(2012), bundles)
        data = json.loads(path.read_text(encoding="utf-8"))
        corrupt(data["reportable"][0])
        path.write_text(json.dumps(data), encoding="utf-8")
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps(self.gold_payload()), encoding="utf-8")
        code, out, err = invoke(capsys, ["eval", *base, "--gold", str(gold),
                                         "--bundles", str(bundles)])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        assert path.name in error["message"]

    def test_export_csv(self, capsys, base, run_dir):
        write_panel(run_dir, [filingfab.intc_bundle(2012)])
        code, out, _ = invoke(capsys, ["export", *base, "--out", "segments.csv"])
        assert code == 0
        payload = json.loads(out)
        text = (run_dir / "segments.csv").read_text(encoding="utf-8")
        data_lines = len(text.splitlines()) - 1
        assert data_lines > 1  # one bundle, several (record, measure) rows
        assert payload["rows"] == data_lines
        header = text.splitlines()[0]
        assert header == "cik,fiscal_year,name,axis,parent_name,measure_kind,value,scale"
        assert "Singapore" in text

    @pytest.mark.parametrize("out", ["outside", "../escape.csv"])
    def test_export_outside_run_dir_exits_1(self, capsys, base, run_dir, tmp_path, out):
        write_panel(run_dir, [filingfab.intc_bundle(2012)])
        target = tmp_path / "elsewhere" / "segments.csv" if out == "outside" else out
        code, stdout, err = invoke(capsys, ["export", *base, "--out", str(target)])
        assert (code, stdout) == (1, "")
        assert json.loads(err)["error"] == "OutputPathError"
        assert not (tmp_path / "elsewhere").exists()
        assert not (tmp_path / "escape.csv").exists()
        assert sorted(p.name for p in run_dir.iterdir()) == ["panel.jsonl"]

    def test_export_absolute_path_inside_run_dir(self, capsys, base, run_dir):
        write_panel(run_dir, [filingfab.intc_bundle(2012)])
        code, out, _ = invoke(capsys, ["export", *base, "--out",
                                       str((run_dir / "out" / "s.csv").resolve())])
        assert code == 0
        assert "out/s.csv" in read_manifest(run_dir)


class TestRefusedTargets:
    """No artifact may replace the manifest or the panel at its default name,
    or leave the run directory: the command exits 1 with the JSON error and
    writes nothing."""

    def refused(self, capsys, argv, run_dir) -> None:
        before = snapshot(run_dir)
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "OutputPathError"
        assert snapshot(run_dir) == before

    @pytest.mark.parametrize("out", ["panel.jsonl", "manifest.json", "absolute_panel"])
    def test_export_cannot_replace_panel_or_manifest(self, capsys, base, run_dir, out):
        write_panel(run_dir, [filingfab.intc_bundle(2012)])
        assert invoke(capsys, ["export", *base, "--out", "segments.csv"])[0] == 0
        if out == "absolute_panel":
            out = str((run_dir / "panel.jsonl").resolve())
        self.refused(capsys, ["export", *base, "--out", out], run_dir)
        assert invoke(capsys, ["export", *base, "--out", "again.csv"])[0] == 0
        assert set(read_manifest(run_dir)) == {"segments.csv", "again.csv"}

    @pytest.mark.parametrize("group_id", ["x/../../escaped", "x/../manifest.json",
                                          "x/../panel.jsonl"])
    def test_eval_group_id_cannot_leave_or_replace(self, capsys, base, run_dir, tmp_path,
                                                   group_id):
        write_panel(run_dir, [filingfab.intc_bundle(2012)])
        gold = write_gold(tmp_path / "gold.json", "unit")
        assert invoke(capsys, ["eval", *base, "--gold", str(gold)])[0] == 0
        (run_dir / "eval_x").mkdir()
        write_gold(gold, group_id)
        self.refused(capsys, ["eval", *base, "--gold", str(gold)], run_dir)
        assert not (tmp_path / "escaped.json").exists()


class TestAtomicArtifacts:
    """A command whose file replace fails exits 1 with the JSON error; every
    earlier artifact keeps its bytes, and no temporary file is left."""

    def args(self, command: str, tmp_path, avy_index_dir) -> list[str]:
        if command == "gaps":
            roster = [(paperdata.INTC_CIK, 2012), (paperdata.INTC_CIK, 2015)]
            return ["--roster", str(filingfab.write_roster(tmp_path / "roster.csv", roster))]
        if command == "align":
            scheme = filingfab.write_asia_scheme(tmp_path / "asia.json")
            return ["--firm-a", str(paperdata.INTC_CIK), "--firm-b", str(paperdata.TXN_CIK),
                    "--region", str(scheme), "--from", "2012", "--to", "2013"]
        if command == "eval":
            return ["--gold", str(write_gold(tmp_path / "gold.json", "unit"))]
        return {
            "parse": ["--cik", str(paperdata.AVY_CIK), "--year", "2022"],
            "extract": ["--cik", str(paperdata.APPLE_CIK), "--year", "2024"],
            "changes": ["--cik", str(paperdata.AVY_CIK), "--from", "2001", "--to", "2024",
                        "--index", str(avy_index_dir)],
            "export": ["--out", "segments.csv"],
        }[command]

    @pytest.mark.parametrize("command", ["parse", "extract", "gaps", "changes", "align",
                                         "eval", "export"])
    def test_failed_replace_keeps_earlier_artifacts(self, capsys, base, run_dir, tmp_path,
                                                    monkeypatch, avy_bundles, avy_index_dir,
                                                    command):
        write_panel(run_dir, [filingfab.intc_bundle(2012), filingfab.txn_bundle(2012),
                              filingfab.intc_bundle(2013), filingfab.txn_bundle(2013),
                              *(avy_bundles[y] for y in sorted(avy_bundles))])
        argv = [command, *base, *self.args(command, tmp_path, avy_index_dir)]
        assert invoke(capsys, argv)[0] == 0
        for rel in read_manifest(run_dir):  # earlier artifacts, unlike what the rerun writes
            (run_dir / rel).write_bytes(b"earlier\n")
        before = snapshot(run_dir)
        monkeypatch.setattr(os, "replace", fail_replace)
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        assert json.loads(err.splitlines()[-1]) == {"error": "OSError", "message": "disk full"}
        assert snapshot(run_dir) == before
        assert not list(run_dir.rglob("*.tmp"))


class TestManifest:
    def test_failed_write_keeps_previous_manifest(self, capsys, base, run_dir, monkeypatch):
        write_panel(run_dir, [filingfab.intc_bundle(2012)])
        assert invoke(capsys, ["export", *base, "--out", "a.csv"])[0] == 0
        files = sorted(p.name for p in run_dir.iterdir())
        assert files == ["a.csv", "manifest.json", "panel.jsonl"]  # no temp file left
        before = (run_dir / "manifest.json").read_bytes()

        def fail_replace(src, dst):
            assert Path(src).read_bytes() != before  # the new manifest was written
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_replace)
        (run_dir / "b.csv").write_text("x\n", encoding="utf-8")
        with pytest.raises(OSError, match="disk full"):
            cli._update_manifest(run_dir, [run_dir / "b.csv"])
        assert (run_dir / "manifest.json").read_bytes() == before
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(files + ["b.csv"])


class TestUsageErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2

    def test_missing_required_argument_exits_2(self, capsys, base):
        with pytest.raises(SystemExit) as excinfo:
            main(["fetch", *base, "--year", "2024"])
        assert excinfo.value.code == 2

    def test_console_script_installed(self):
        assert shutil.which("segforge")
        result = subprocess.run(["segforge", "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "extract" in result.stdout
