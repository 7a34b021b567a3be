"""End-to-end CLI tests.

Every command is driven through main() against the fixture transport and
scripted gateway, with run directories under tmp_path so nothing leaks
into the working tree.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import weakref
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import filingfab
import paperdata
from segforge import cli
from segforge.cli import main
from segforge.config import SETTINGS, env_var_name
from segforge.edgar import EdgarClient, FixtureTransport
from segforge.extraction import bundle_filename, bundle_json, load_bundle
from segforge.parsing import ParsedFiling, dump_json
from segforge.retrieval import ChunkIndex, build_index, save_index
from segforge.store import SegmentStore
from segforge.values import read, write_atomic


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


def write_bundle(directory, bundle) -> Path:
    """``bundle``'s file in ``directory``, named and rendered as extract writes it."""
    path = directory / bundle_filename(bundle.cik, bundle.fiscal_year)
    write_atomic(path, bundle_json(bundle))
    return path


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
        parsed = read(ParsedFiling, artifact)
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

    def test_index_holds_one_parsed_filing_at_a_time(self, capsys, base, run_dir, tmp_path,
                                                     monkeypatch):
        """The build draws each parsed file as it chunks it: while one is read,
        only the one before it may still be alive."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for cik in range(101, 107):
            parsed = filingfab.filing_with_ref(filingfab.REGION_HTML, cik, 2020)
            (corpus / f"{cik}_2020.json").write_text(dump_json(parsed), encoding="utf-8")
        alive: list[weakref.ref] = []
        most = 0

        def tracked(cls, path):
            nonlocal most
            value = read(cls, path)
            if cls is ParsedFiling:
                alive.append(weakref.ref(value))
                most = max(most, sum(ref() is not None for ref in alive))
            return value

        monkeypatch.setattr(cli, "read", tracked)
        code, out, _ = invoke(capsys, ["index", *base, "--corpus", str(corpus)])
        assert (code, json.loads(out)["filings"], len(alive)) == (0, 6, 6)
        assert most <= 2, most

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

    def test_term_of_a_chunk_missing_from_doc_freq_exits_1(self, capsys, base, run_dir,
                                                           tmp_path, avy_bundles, avy_index):
        """An index.bin that does not count a term of a scored chunk fails the query,
        naming the chunk and asking for a rebuild."""
        write_panel(run_dir, [avy_bundles[y] for y in sorted(avy_bundles)])
        save_index(avy_index, tmp_path / "index")
        stats = tmp_path / "index" / "index.bin"
        data = json.loads(stats.read_text(encoding="utf-8"))
        del data["doc_freq"]["segments"]  # a term of CHANGE_CONTEXT_QUERY
        stats.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, [*self.query("changes", tmp_path, tmp_path / "index"),
                                         *base])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        assert re.search(rf"chunk {paperdata.AVY_CIK}_\d{{4}}_\d{{4}} holds the term "
                         r"'segments'.*run `segforge index` again", error["message"])

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

    @pytest.mark.parametrize("change", ["truncate", "rewrite"])
    @pytest.mark.parametrize("command", ["gaps", "export", "changes"])
    def test_panel_changed_under_the_open_store_exits_1(self, capsys, monkeypatch, base,
                                                         run_dir, tmp_path, avy_bundles,
                                                         command, change):
        """A panel cut short or rewritten with other rows after the command opened
        it fails the command that reads a moved row, with one JSON error line."""
        years = sorted(avy_bundles)
        write_panel(run_dir, [avy_bundles[y] for y in years])
        panel = run_dir / "panel.jsonl"
        lines = panel.read_bytes().splitlines(keepends=True)
        store = cli.RunDir.store

        def open_then_change(run):
            opened = store(run)
            if change == "truncate":
                panel.write_bytes(b"".join(lines[:-1]) + lines[-1][:40])
            else:  # the same firm's rows, each a year later than the open found it
                panel.unlink()
                write_panel(run_dir, [avy_bundles[y] for y in years[1:]])
            return opened

        monkeypatch.setattr(cli.RunDir, "store", open_then_change)
        roster = filingfab.write_roster(tmp_path / "roster.csv",
                                        [(paperdata.AVY_CIK, y) for y in years])
        argv = {"gaps": ["--roster", str(roster)], "export": [],
                "changes": ["--cik", str(paperdata.AVY_CIK), "--from", str(years[0]),
                            "--to", str(years[-1])]}[command]
        code, out, err = invoke(capsys, [command, *base, *argv])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        line = len(lines) if change == "truncate" else 1
        assert f"{panel}:{line}: bad panel row" in error["message"]


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
            "extract": ["extract", "--cik", str(paperdata.AVY_CIK), "--year", "2022"],
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
        ("gaps", b"cik,fiscal_year\n1,2012\nabc,2013\n", ":3: "),
        ("eval", b'{"filings": [{"cik": 1}]}', ": SchemaError: bad list[GoldFiling]: "),
        ("eval", b"not json", ": JSONDecodeError: "),
        ("gaps", b"cik,fiscal_year\n1,2012\n\xff,2013\n", ": 'utf-8' codec can't decode byte 0xff"),
        ("eval", b'{"group_id": "\xff"}', ": UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["roster_cik", "gold_missing_key", "gold_not_json", "roster_not_utf8", "gold_not_utf8"])
    def test_bad_roster_or_gold_exits_1(self, capsys, base, run_dir, tmp_path, command,
                                        content, where):
        path = tmp_path / "input"
        path.write_bytes(content)
        self.fails(capsys, [*self.argv(command, path), *base], run_dir, "SchemaError",
                   f"{path}{where}")

    @pytest.mark.parametrize("command", ["extract", "changes"])
    def test_script_not_utf8_exits_1(self, capsys, base, run_dir, tmp_path, monkeypatch,
                                     avy_index_dir, command):
        """``llm.script_path`` is read before any filing or index."""
        path = tmp_path / "script.jsonl"
        path.write_bytes(b'{"file_hash": "\xff"}\n')
        monkeypatch.setenv(env_var_name("llm.script_path"), str(path))
        self.fails(capsys, [*self.argv(command, avy_index_dir), *base], run_dir, "SchemaError",
                   f"{path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("content", [
        "not json",
        '{"region_name": "Asia"}',  # no member labels
        '{"region_name": "Asia", "member_labels": []}',
        "[]",
        '{"region_name": "Asia", "member_labels": "Japan"}',  # not split into letters
        '{"region_name": 5, "member_labels": ["Japan"]}',
    ])
    def test_bad_region_scheme_exits_1(self, capsys, base, run_dir, tmp_path, content):
        path = tmp_path / "scheme.json"
        path.write_text(content, encoding="utf-8")
        self.fails(capsys, [*self.argv("align", path), *base], run_dir, "SchemaError", path)


def first_key(data: dict) -> str:
    return next(iter(data))


class TestWrongTypedInput:
    """Every JSON file a command reads exits 1 with the JSON SchemaError naming
    it when one of its values has the wrong type."""

    # input -> (file, change to its JSON, command); a file ending in .jsonl
    # has its first line changed.
    CHANGES = ["changes", "--cik", str(paperdata.AVY_CIK), "--from", "2001", "--to", "2024",
               "--index", "{tmp}/index"]
    CASES = {
        "bundle_file": (f"bundles/{paperdata.INTC_CIK}_2012.bundle.json",
                        lambda d: d.update(warnings=[1, None]),
                        ["eval", "--gold", "{tmp}/gold.json", "--bundles", "{tmp}/bundles"]),
        "parsed_file": ("corpus/avy2022.json", lambda d: d.update(char_count="143"),
                        ["index", "--corpus", "{tmp}/corpus"]),
        "catalog": ("index/index.meta.json",
                    lambda d: d["filings"][0].update(cik=str(paperdata.AVY_CIK)), CHANGES),
        "index_bin": ("index/index.bin",
                      lambda d: d["doc_freq"].update({first_key(d["doc_freq"]): "1"}), CHANGES),
        "chunk_file": (f"index/{paperdata.AVY_CIK}_{min(paperdata.AVY_CHANGED_YEARS)}"
                       f".chunks.json", lambda d: d[0].update(text=3), CHANGES),
        "panel_row": ("run/panel.jsonl",
                      lambda d: d["bundle"]["general_fields"].update(
                          {first_key(d["bundle"]["general_fields"]): 5}),
                      ["export"]),
        "script": ("script.jsonl", lambda d: d.update(question=5), CHANGES),
        "region": ("asia.json", lambda d: d.update(member_labels="Japan"),
                   ["align", "--firm-a", str(paperdata.INTC_CIK), "--firm-b",
                    str(paperdata.TXN_CIK), "--region", "{tmp}/asia.json", "--from", "2012",
                    "--to", "2012"]),
        "gold": ("gold.json", lambda d: d["filings"][0].update(is_multi_segment="false"),
                 ["eval", "--gold", "{tmp}/gold.json"]),
        "gold_cell": ("gold.json", lambda d: d["cells"][0].update(cik=True, segment=5),
                      ["eval", "--gold", "{tmp}/gold.json"]),
        "manifest": ("run/manifest.json", lambda d: d["artifacts"][0].update(sha256=5),
                     ["export"]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_wrong_typed_value_exits_1(self, capsys, config_path, tmp_path, run_dir,
                                       avy_bundles, avy_index, parsed_filings, script_path,
                                       name):
        write_panel(run_dir, [filingfab.intc_bundle(2012), filingfab.txn_bundle(2012),
                              *(avy_bundles[y] for y in sorted(avy_bundles))])
        (run_dir / "manifest.json").write_text(json.dumps(
            {"artifacts": [{"path": "panel.jsonl", "sha256": "0" * 64}]}), encoding="utf-8")
        write_bundle(tmp_path / "bundles", filingfab.intc_bundle(2012))
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "avy2022.json").write_text(
            dump_json(parsed_filings["avy2022"]), encoding="utf-8")
        save_index(avy_index, tmp_path / "index")
        shutil.copy(script_path, tmp_path / "script.jsonl")
        filingfab.write_asia_scheme(tmp_path / "asia.json")
        write_gold(tmp_path / "gold.json", "unit")
        config = tmp_path / "segforge.conf"
        config.write_text(config_path.read_text(encoding="utf-8")
                          + f"llm.script_path = {tmp_path / 'script.jsonl'}\n", encoding="utf-8")

        file, change, argv = self.CASES[name]
        path = tmp_path / file
        text = path.read_text(encoding="utf-8")
        first, newline, rest = text.partition("\n") if path.suffix == ".jsonl" else (text, "", "")
        data = json.loads(first)
        change(data)
        path.write_text(json.dumps(data) + newline + rest, encoding="utf-8")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, err = invoke(capsys, [argv[0], "--config", str(config),
                                         "--run-dir", str(run_dir), *argv[1:]])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        assert str(path) in error["message"]


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
        where = (f"{config}:{len(text.splitlines())}" if source == "file"
                 else env_var_name("llm.max_in_flight"))
        assert json.loads(err) == {
            "error": "SchemaError",
            "message": f"{where}: llm.max_in_flight = 'abc' is not a valid int"}
        assert not run_dir.exists()

    def test_empty_measure_list_exits_1(self, capsys, base, run_dir, monkeypatch):
        monkeypatch.setenv(env_var_name("extraction.measures"), ",")
        code, out, err = invoke(capsys, ["extract", *base, "--cik", str(paperdata.APPLE_CIK),
                                         "--year", str(paperdata.APPLE_FY)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "SchemaError",
            "message": "SEGFORGE_EXTRACTION_MEASURES: extraction.measures = ',' lists no value"}
        assert not run_dir.exists()

    def test_empty_user_agent_exits_1_before_any_request(self, capsys, base, monkeypatch):
        monkeypatch.setenv(env_var_name("edgar.fixture_dir"), "")
        monkeypatch.setenv(env_var_name("edgar.user_agent"), "")
        code, out, err = invoke(capsys, ["fetch", *base, "--allow-network",
                                         "--cik", str(paperdata.APPLE_CIK),
                                         "--year", str(paperdata.APPLE_FY)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "SchemaError",
            "message": "edgar.user_agent is empty; EDGAR access needs a descriptive user agent"}

    @pytest.mark.parametrize("command, key, value, reason", [
        pytest.param("extract", "llm.max_in_flight", "0", "must be >= 1",
                     id="llm.max_in_flight-0->= 1"),
        pytest.param("extract", "edgar.rate_limit_rps", "0", "must be >= 0.001",
                     id="edgar.rate_limit_rps-0->= 0.001"),
        pytest.param("extract", "edgar.max_retries", "-1", "must be >= 0",
                     id="edgar.max_retries--1->= 0"),
        # A bad value of a key the command never reads fails it too.
        pytest.param("fetch", "llm.max_in_flight", "abc", "is not a valid int",
                     id="fetch-llm.max_in_flight-abc"),
        # So small that 1/rate overflows time.sleep on a cold cache.
        pytest.param("fetch", "edgar.rate_limit_rps", "1e-300", "must be >= 0.001",
                     id="fetch-edgar.rate_limit_rps-1e-300"),
        pytest.param("fetch", "edgar.cache_dir", "ca\0che", "holds a NUL character",
                     id="fetch-edgar.cache_dir-nul"),
        pytest.param("export", "store.panel_path", "panel\0.jsonl", "holds a NUL character",
                     id="export-store.panel_path-nul"),
        pytest.param("extract", "llm.script_path", "script\0.jsonl", "holds a NUL character",
                     id="extract-llm.script_path-nul"),
        pytest.param("export", "store.panel_path", "", "is empty",
                     id="export-store.panel_path-empty"),
        pytest.param("extract", "extraction.measures", "revenue,revenue",
                     "names 'revenue' twice", id="extract-extraction.measures-twice"),
    ])
    def test_out_of_range_value_exits_1(self, capsys, run_dir, tmp_path, config_path,
                                        monkeypatch, command, key, value, reason):
        cache = tmp_path / "cache"  # cold: a fetch would have to wait on the rate limit
        config = tmp_path / "segforge.conf"
        text = config_path.read_text(encoding="utf-8") + f"edgar.cache_dir = {cache}\n"
        if "\0" in value:  # no environment variable can hold a NUL
            text += f"{key} = {value}\n"
            source = f"{config}:{len(text.splitlines())}"
        else:
            monkeypatch.setenv(env_var_name(key), value)
            source = env_var_name(key)
        config.write_text(text, encoding="utf-8")
        filing = ["--cik", str(paperdata.APPLE_CIK), "--year", str(paperdata.APPLE_FY)]
        code, out, err = invoke(capsys, [command, "--config", str(config), "--run-dir",
                                         str(run_dir), *(filing if command != "export" else [])])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "SchemaError",
                                   "message": f"{source}: {key} = {value!r} {reason}"}
        assert not run_dir.exists()
        assert not cache.exists()

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


# Every fixture filing, so a warm cache lets a fetch skip the rate limit.
FIXTURE_FILINGS = [(paperdata.APPLE_CIK, paperdata.APPLE_FY), (paperdata.ADOBE_CIK, paperdata.ADOBE_FY),
                   *((paperdata.AVY_CIK, year) for year in sorted(paperdata.AVY_TABLE3))]
# A relative path, without "/", stays inside the example's working directory.
_PATH_TEXT = st.text(alphabet="ab.- \0", max_size=6)
_ANY_TEXT = st.text(max_size=16)


def _few_workers(text: str) -> bool:
    """A value that starts no more than 64 gateway workers."""
    try:
        return int(text) <= 64
    except ValueError:
        return True


def _setting_values(key: str) -> st.SearchStrategy[str]:
    if key == "llm.max_in_flight":
        return st.integers(max_value=64).map(str) | _ANY_TEXT.filter(_few_workers)
    if key in ("edgar.rate_limit_rps", "edgar.max_retries"):
        return st.integers().map(str) | st.floats().map(str) | _ANY_TEXT
    if key.endswith(("_dir", "_path")):
        return _PATH_TEXT
    if key == "llm.backend":
        return st.sampled_from(["scripted", "live"]) | _ANY_TEXT
    if key == "extraction.measures":
        names = st.sampled_from(["revenue", "profit_or_loss", "assets", "", "x"])
        return st.lists(names, max_size=4).map(",".join) | _ANY_TEXT
    return _ANY_TEXT


# llm.api_base stays empty, so the live backend refuses to start instead of
# reaching the network; with one key drawn, edgar.fixture_dir is the fixture's
# whenever llm.backend is live.
_SETTINGS = st.sampled_from([key for key in SETTINGS if key != "llm.api_base"]).flatmap(
    lambda key: st.tuples(st.just(key), _setting_values(key)))
_FILINGS = st.sampled_from(FIXTURE_FILINGS) | st.tuples(st.integers(), st.integers())
_YEARS = st.sampled_from([year for _, year in FIXTURE_FILINGS]) | st.integers()


def assert_cli_contract(argv: list[str]) -> None:
    """main(argv) returns 0, returns 1 with one JSON error line on stderr, or exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1), argv
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}, (argv, lines)


@pytest.fixture(scope="module")
def warm_config(tmp_path_factory, edgar_fixture, config_path):
    """The fixture config over a cache that holds every fixture filing."""
    cache = tmp_path_factory.mktemp("warm") / "cache"
    client = EdgarClient(FixtureTransport(edgar_fixture[0]), cache_dir=cache, rate_limit_rps=10_000)
    for cik, year in FIXTURE_FILINGS:
        client.fetch(client.resolve_filing(cik, year))
    return config_path.read_text(encoding="utf-8") + f"edgar.cache_dir = {cache}\n"


class TestAnySettingAndArguments:
    # No explain phase: it traces every line each failing example runs, for minutes.
    @settings(max_examples=40, deadline=None, phases=set(Phase) - {Phase.explain})
    @given(setting=_SETTINGS, in_file=st.booleans(), filing=_FILINGS, year_from=_YEARS,
           year_to=_YEARS)
    def test_main_keeps_its_exit_contract(self, tmp_path_factory, warm_config, setting,
                                          in_file, filing, year_from, year_to):
        # A rate as low as 0.001 is legal: over the warm cache each command
        # makes one EDGAR request, which the rate limit lets through at once.
        (key, value), (cik, year) = setting, filing
        base = tmp_path_factory.mktemp("example")
        config = base / "segforge.conf"
        with pytest.MonkeyPatch.context() as patch:
            (base / "work").mkdir()
            patch.chdir(base / "work")
            if in_file or "\0" in value:  # no environment variable can hold a NUL
                config.write_text(f"{warm_config}{key} = {value}\n", encoding="utf-8")
            else:
                config.write_text(warm_config, encoding="utf-8")
                patch.setenv(env_var_name(key), value)
            common = ["--config", str(config), "--run-dir", str(base / "run")]
            firm_year = ["--cik", str(cik), "--year", str(year)]
            for argv in (["fetch", *common, *firm_year], ["extract", *common, *firm_year],
                         ["changes", *common, "--cik", str(cik), "--from", str(year_from),
                          "--to", str(year_to)], ["export", *common]):
                assert_cli_contract(argv)


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
        assert not (run_dir / "transcript.jsonl").exists()

    def test_arbitration_transcript(self, capsys, base, run_dir, tmp_path, monkeypatch):
        # The raw answers behind an in-region and an excluded label are kept.
        label_in, label_out = filingfab.REGION_LABELS
        write_panel(run_dir, [filingfab.geo_bundle(31, 2020, "Synth Corp", "SYN",
                                                   [(label_in, 500), (label_out, 200)], 1000)])
        index = build_index([filingfab.filing_with_ref(filingfab.REGION_HTML, 31, 2020)])
        save_index(index, tmp_path / "index")
        script = filingfab.write_script(tmp_path / "script.jsonl", [
            filingfab.region_entry(index, 31, 2020, label, "Asia", answer)
            for label, answer in [(label_in, "Yes"), (label_out, "No")]
        ])
        monkeypatch.setenv(env_var_name("llm.script_path"), str(script))
        code, out, _ = invoke(capsys, [
            "align", *base, "--firm-a", "31", "--firm-b", "32",
            "--region", str(filingfab.write_asia_scheme(tmp_path / "asia.json")),
            "--from", "2020", "--to", "2020", "--index", str(tmp_path / "index"),
        ])
        assert code == 0
        assert label_in in out and label_out not in out
        records = [json.loads(line) for line in
                   (run_dir / "transcript.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(r["request_id"], r["response"]) for r in records] == [
            ("rgn-31-2020-asia-pacific_region", "Yes"),
            ("rgn-31-2020-south_china_sea_operations", "No"),
        ]
        assert "transcript.jsonl" in read_manifest(run_dir)


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

    def test_eval_missing_bundle_directory_exits_1(self, capsys, base, run_dir, tmp_path):
        """A missing --bundles directory is named, not read as one holding no bundle."""
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps(self.gold_payload()), encoding="utf-8")
        missing = tmp_path / "bundles"
        code, out, err = invoke(capsys, ["eval", *base, "--gold", str(gold),
                                         "--bundles", str(missing)])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "FileNotFoundError"
        assert str(missing) in error["message"]
        assert list(run_dir.iterdir()) == []

    @pytest.mark.parametrize("corrupt", [
        lambda record: record["measures"]["revenue"].update(value="12 bananas"),
        lambda record: record.pop("axis"),
    ], ids=["bad_amount", "no_axis"])
    def test_eval_malformed_bundle_exits_1(self, capsys, base, tmp_path, corrupt):
        bundles = tmp_path / "bundles"
        path = write_bundle(bundles, filingfab.intc_bundle(2012))
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

    def test_export_rows_are_records_not_lines(self, capsys, base, run_dir):
        """The reported rows are csv.reader's data records, also when a name
        holds a comma, a quote and a line break."""
        name = 'Asia, "Pacific"\nand Japan'
        write_panel(run_dir, [filingfab.geo_bundle(9, 2020, "Firm", "F",
                                                   [(name, 5), ("Europe", 7)], 12)])
        code, out, _ = invoke(capsys, ["export", *base, "--out", "segments.csv"])
        assert code == 0
        with open(run_dir / "segments.csv", newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))[1:]
        assert [r[2] for r in records] == [name, "Europe"]
        assert json.loads(out)["rows"] == len(records) == 2
        lines = (run_dir / "segments.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 == 3

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
    """No artifact may replace the manifest or the configured panel, or leave
    the run directory: the command exits 1 with the JSON error and writes
    nothing."""

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

    def panel_at(self, config_path, tmp_path, run_dir, name: str) -> list[str]:
        """Common options for a config whose panel is ``name`` in the run directory,
        with the INTC 2012 bundle stored there."""
        config = tmp_path / "panel.conf"
        config.write_text(config_path.read_text(encoding="utf-8")
                          + f"store.panel_path = {name}\n", encoding="utf-8")
        run_dir.mkdir(parents=True)
        SegmentStore(run_dir / name).put(filingfab.intc_bundle(2012))
        return ["--config", str(config), "--run-dir", str(run_dir)]

    def test_export_cannot_replace_configured_panel(self, capsys, config_path, tmp_path,
                                                    run_dir):
        base = self.panel_at(config_path, tmp_path, run_dir, "p.jsonl")
        self.refused(capsys, ["export", *base, "--out", "p.jsonl"], run_dir)
        panel = (run_dir / "p.jsonl").read_bytes()
        # panel.jsonl is not the panel under this config, so it may be written.
        assert invoke(capsys, ["export", *base, "--out", "panel.jsonl"])[0] == 0
        assert (run_dir / "p.jsonl").read_bytes() == panel

    def test_gaps_cannot_replace_panel_named_gaps_json(self, capsys, config_path, tmp_path,
                                                       run_dir):
        base = self.panel_at(config_path, tmp_path, run_dir, "gaps.json")
        roster = filingfab.write_roster(tmp_path / "roster.csv", [(paperdata.INTC_CIK, 2012)])
        self.refused(capsys, ["gaps", *base, "--roster", str(roster)], run_dir)

    @pytest.mark.parametrize("name", ["transcript.jsonl", "320193_2024.bundle.json"])
    def test_extract_cannot_replace_panel(self, capsys, config_path, tmp_path, run_dir, name):
        base = self.panel_at(config_path, tmp_path, run_dir, name)
        self.refused(capsys, ["extract", *base, "--cik", "320193", "--year", "2024"], run_dir)

    def test_refused_transcript_stops_extract_before_its_fetch(self, capsys, config_path,
                                                               tmp_path, run_dir):
        base = self.panel_at(config_path, tmp_path, run_dir, "transcript.jsonl")
        cache = tmp_path / "cache"
        with open(tmp_path / "panel.conf", "a", encoding="utf-8") as fh:
            fh.write(f"edgar.cache_dir = {cache}\n")
        self.refused(capsys, ["extract", *base, "--cik", "320193", "--year", "2024"], run_dir)
        assert not cache.exists()

    @pytest.mark.parametrize("command", ["extract", "gaps", "export"])
    @pytest.mark.parametrize("panel", [".", "..", "absolute"])
    def test_panel_path_naming_a_directory_exits_1(self, capsys, config_path, tmp_path,
                                                   run_dir, command, panel):
        """The panel path is refused when the run directory is opened: nothing is
        fetched, and the run directory is not made."""
        if panel == "absolute":
            (tmp_path / "elsewhere").mkdir()
            panel = str(tmp_path / "elsewhere")
        config = tmp_path / "panel.conf"
        config.write_text(config_path.read_text(encoding="utf-8")
                          + f"edgar.cache_dir = {tmp_path / 'cache'}\n"
                          + f"store.panel_path = {panel}\n", encoding="utf-8")
        roster = filingfab.write_roster(tmp_path / "roster.csv", [(paperdata.INTC_CIK, 2012)])
        argv = {"extract": ["--cik", "320193", "--year", "2024"],
                "gaps": ["--roster", str(roster)], "export": []}[command]
        before = snapshot(tmp_path)
        code, out, err = invoke(capsys, [command, "--config", str(config),
                                         "--run-dir", str(run_dir), *argv])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "OutputPathError",
            "message": f"store.panel_path = {panel!r} names a directory, not a file"}
        assert snapshot(tmp_path) == before

    def test_changes_cannot_replace_panel_named_transcript(self, capsys, config_path, tmp_path,
                                                           run_dir, avy_index_dir):
        base = self.panel_at(config_path, tmp_path, run_dir, "transcript.jsonl")
        self.refused(capsys, ["changes", *base, "--cik", str(paperdata.INTC_CIK),
                              "--from", "2012", "--to", "2012", "--index", str(avy_index_dir)],
                     run_dir)

    def test_align_cannot_replace_panel_named_transcript(self, capsys, config_path, tmp_path,
                                                         run_dir, avy_index_dir):
        base = self.panel_at(config_path, tmp_path, run_dir, "transcript.jsonl")
        scheme = filingfab.write_asia_scheme(tmp_path / "asia.json")
        self.refused(capsys, ["align", *base, "--firm-a", str(paperdata.INTC_CIK),
                              "--firm-b", str(paperdata.TXN_CIK), "--region", str(scheme),
                              "--from", "2012", "--to", "2012", "--index", str(avy_index_dir)],
                     run_dir)

    @pytest.mark.parametrize("name", ["index", "index/p.jsonl", "index/index.bin"])
    def test_index_cannot_replace_or_remove_panel(self, capsys, config_path, tmp_path, run_dir,
                                                   name):
        base = self.panel_at(config_path, tmp_path, run_dir, name)
        (tmp_path / "corpus").mkdir()
        self.refused(capsys, ["index", *base, "--corpus", str(tmp_path / "corpus")], run_dir)


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

    @pytest.mark.parametrize("content", ["{", "{}"], ids=["not_json", "no_artifacts"])
    def test_bad_manifest_exits_1(self, capsys, base, run_dir, content):
        write_panel(run_dir, [filingfab.intc_bundle(2012)])
        (run_dir / "manifest.json").write_text(content, encoding="utf-8")
        code, out, err = invoke(capsys, ["export", *base, "--out", "a.csv"])
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "SchemaError"
        assert "manifest.json" in error["message"]
        assert (run_dir / "manifest.json").read_text(encoding="utf-8") == content
        assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "panel.jsonl"]


class TestUsageErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2

    def test_missing_required_argument_exits_2(self, capsys, base):
        with pytest.raises(SystemExit) as excinfo:
            main(["fetch", *base, "--year", "2024"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["fetch", "--cik", "0", "--year", "2024"],
        ["extract", "--cik", "-5", "--year", "2024"],
        ["changes", "--cik", "0", "--from", "2000", "--to", "2010"],
        ["align", "--firm-a", "0", "--firm-b", "1", "--region", "r.json",
         "--from", "2000", "--to", "2010"],
        ["align", "--firm-a", "1", "--firm-b", "-1", "--region", "r.json",
         "--from", "2000", "--to", "2010"],
    ], ids=["fetch_cik", "extract_cik", "changes_cik", "align_firm_a", "align_firm_b"])
    def test_non_positive_cik_exits_2(self, capsys, base, run_dir, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *base])
        assert excinfo.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err
        assert not run_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["changes", "--cik", "1"],
        ["align", "--firm-a", "1", "--firm-b", "2", "--region", "r.json"],
    ], ids=["changes", "align"])
    def test_from_later_than_to_exits_2(self, capsys, base, run_dir, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *base, "--from", "2010", "--to", "2000"])
        assert excinfo.value.code == 2
        assert "--from 2010 is later than --to 2000" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_console_script_installed(self):
        assert shutil.which("segforge")
        result = subprocess.run(["segforge", "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "extract" in result.stdout
