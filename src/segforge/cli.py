"""segforge command-line interface.

Subcommands: fetch, parse, extract, index, gaps, changes, align, eval,
export. Outputs land in a run directory together with a manifest listing
every artifact and its sha256. Failures print a machine-readable JSON
error to stderr and exit 1; usage errors exit 2. No subcommand touches
the network unless --allow-network (or --backend live) is given.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from .comparability import (
    RegionScheme,
    align_regions,
    detect_changes,
    explain_changes,
    render_alignment_csv,
    render_alignment_text,
    render_change_csv,
    render_change_text,
)
from .config import Config
from .edgar import EdgarClient
from .errors import OutputPathError, SchemaError, SegforgeError
from .evaluation import GoldLabelSet, render_table2, report_to_json, score
from .extraction import ExtractionPipeline, dump_bundle, load_bundle
from .gateway import Gateway
from .parsing import dump_json, load_json, parse
from .retrieval import build_index, load_index, save_index
from .store import FundamentalsRoster, SegmentStore, gap_report_to_json
from .values import write_atomic


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key-value config file")
    common.add_argument("--backend", choices=["scripted", "live"], default=None,
                        help="override llm.backend")
    common.add_argument("--allow-network", action="store_true",
                        help="permit live EDGAR requests")
    common.add_argument("--run-dir", default="run", help="output directory")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(prog="segforge",
                                     description="Segment disclosure extraction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", parents=[common], help="resolve and cache a 10-K")
    p.add_argument("--cik", type=int, required=True)
    p.add_argument("--year", type=int, required=True)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("parse", parents=[common], help="parse a cached 10-K")
    p.add_argument("--cik", type=int, required=True)
    p.add_argument("--year", type=int, required=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("extract", parents=[common], help="run the extraction pipeline")
    p.add_argument("--cik", type=int, required=True)
    p.add_argument("--year", type=int, required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("index", parents=[common], help="build the retrieval index")
    p.add_argument("--corpus", required=True, help="directory of parsed-filing JSON files")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("gaps", parents=[common], help="coverage gaps vs a roster")
    p.add_argument("--roster", required=True, help="CSV with cik,fiscal_year columns")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("changes", parents=[common], help="segment changes for one firm")
    p.add_argument("--cik", type=int, required=True)
    p.add_argument("--from", dest="year_from", type=int, required=True)
    p.add_argument("--to", dest="year_to", type=int, required=True)
    p.add_argument("--index", dest="index_dir", default=None,
                   help="retrieval index directory (enables grounded explanations)")
    p.set_defaults(func=cmd_changes)

    p = sub.add_parser("align", parents=[common], help="cross-firm regional alignment")
    p.add_argument("--firm-a", type=int, required=True)
    p.add_argument("--firm-b", type=int, required=True)
    p.add_argument("--label-a", default=None, help="display name for firm A")
    p.add_argument("--label-b", default=None, help="display name for firm B")
    p.add_argument("--region", required=True, help="region scheme JSON file")
    p.add_argument("--from", dest="year_from", type=int, required=True)
    p.add_argument("--to", dest="year_to", type=int, required=True)
    p.add_argument("--index", dest="index_dir", default=None,
                   help="retrieval index directory (enables label arbitration)")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval", parents=[common], help="score bundles against gold labels")
    p.add_argument("--gold", required=True, help="gold label JSON file")
    p.add_argument("--group", default=None, help="override group id")
    p.add_argument("--bundles", default=None, help="directory of *.bundle.json files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", parents=[common], help="export the panel as CSV")
    p.add_argument("--out", default="segments.csv")
    p.set_defaults(func=cmd_export)

    return parser


# -- shared helpers ----------------------------------------------------------


def _load_config(args) -> Config:
    config = Config.load(args.config)
    if args.backend:
        config.set("llm.backend", args.backend)
    return config


def _run_dir(args) -> Path:
    path = Path(args.run_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _artifact_path(run_dir: Path, path: str) -> Path:
    """``path`` taken from the run directory; an artifact outside it is refused."""
    try:
        return run_dir / (run_dir / path).resolve().relative_to(run_dir.resolve())
    except ValueError:
        raise OutputPathError(f"{path} is outside the run directory {run_dir}") from None


def _update_manifest(run_dir: Path, new_paths: list[Path]) -> None:
    """Add new_paths' digests to manifest.json, replacing the file atomically.

    Entries for artifacts no longer in the run directory, such as the chunk
    files of filings a new index leaves out, are dropped.
    """
    manifest_path = run_dir / "manifest.json"
    entries: dict[str, str] = {}
    if manifest_path.exists():
        for item in json.loads(manifest_path.read_text(encoding="utf-8"))["artifacts"]:
            if (run_dir / item["path"]).exists():
                entries[item["path"]] = item["sha256"]
    for path in new_paths:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        entries[path.relative_to(run_dir).as_posix()] = digest
    artifacts = [{"path": rel, "sha256": entries[rel]} for rel in sorted(entries)]
    write_atomic(manifest_path,
                 json.dumps({"artifacts": artifacts}, indent=2, sort_keys=True) + "\n")


def _store(config: Config, run_dir: Path) -> SegmentStore:
    panel = Path(config.get("store.panel_path"))
    if not panel.is_absolute():
        panel = run_dir / panel
    return SegmentStore(panel)


def _gateway(config: Config) -> Gateway:
    return Gateway.from_config(config)


def _fetch_document(args, config: Config):
    allow = args.allow_network or config.get("llm.backend") == "live"
    client = EdgarClient.from_config(config, allow_network=allow)
    ref = client.resolve_filing(args.cik, args.year)
    return client.fetch(ref)


# -- subcommands --------------------------------------------------------------


def cmd_fetch(args) -> int:
    config = _load_config(args)
    doc = _fetch_document(args, config)
    print(json.dumps({
        "cik": doc.ref.cik,
        "fiscal_year": doc.ref.fiscal_year,
        "accession_number": doc.ref.accession_number,
        "amended": doc.ref.amended,
        "media_kind": doc.media_kind,
        "path": str(doc.path),
        "content_hash": doc.content_hash,
    }, indent=2, sort_keys=True))
    return 0


def cmd_parse(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(args)
    doc = _fetch_document(args, config)
    parsed = parse(doc)
    out = run_dir / "parsed" / f"{args.cik}_{args.year}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(dump_json(parsed), encoding="utf-8")
    _update_manifest(run_dir, [out])
    print(json.dumps({
        "items": list(parsed.items),
        "tables": len(parsed.tables),
        "chars": parsed.char_count,
        "path": str(out),
    }, indent=2, sort_keys=True))
    return 0


def cmd_extract(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(args)
    doc = _fetch_document(args, config)
    gateway = _gateway(config)
    pipeline = ExtractionPipeline.from_config(gateway, config)
    bundle = pipeline.run_pipeline(doc, args.cik, args.year)
    out = dump_bundle(bundle, run_dir)
    store = _store(config, run_dir)
    store.put(bundle)
    transcript = run_dir / "transcript.jsonl"
    gateway.dump_transcript(transcript)
    _update_manifest(run_dir, [out, transcript])
    print(json.dumps({
        "bundle": str(out),
        "classification": bundle.classification.kind,
        "reportable": [r.name for r in bundle.reportable],
        "nested": [r.name for r in bundle.nested],
        "warnings": bundle.warnings,
    }, indent=2, sort_keys=True))
    return 0


def cmd_index(args) -> int:
    _load_config(args)  # only checked: the index reads no setting
    run_dir = _run_dir(args)
    filings = []
    # iterdir, not glob: a missing corpus directory raises instead of indexing nothing.
    for path in sorted(p for p in Path(args.corpus).iterdir() if p.suffix == ".json"):
        try:
            filings.append(load_json(path.read_text(encoding="utf-8")))
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    index = build_index(filings)
    index_dir = run_dir / "index"
    save_index(index, index_dir)
    _update_manifest(run_dir, [index_dir / "index.meta.json", index_dir / "index.bin",
                               *sorted(index_dir.glob("*.chunks.json"))])
    print(json.dumps({
        "filings": len(filings),
        "chunks": len(index),
        "index_dir": str(index_dir),
    }, indent=2, sort_keys=True))
    return 0


def cmd_gaps(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(args)
    store = _store(config, run_dir)
    roster = FundamentalsRoster.from_csv(args.roster)
    report = store.gap_report(roster)
    payload = json.dumps(gap_report_to_json(report), indent=2, sort_keys=True) + "\n"
    out = run_dir / "gaps.json"
    out.write_text(payload, encoding="utf-8")
    _update_manifest(run_dir, [out])
    print(payload, end="")
    return 0


def cmd_changes(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(args)
    store = _store(config, run_dir)
    panel = store.segment_names_by_year(args.cik, (args.year_from, args.year_to))
    warnings: list[str] = []
    if args.index_dir:
        index = load_index(args.index_dir)
        gateway = _gateway(config)
        rows = explain_changes(args.cik, panel, index, gateway, warnings)
        transcript = run_dir / "transcript.jsonl"
        gateway.dump_transcript(transcript)
        extra = [transcript]
    else:
        rows = detect_changes(panel, warnings)
        extra = []
    for warning in warnings:
        print(warning, file=sys.stderr)
    csv_path = run_dir / f"changes_{args.cik}.csv"
    txt_path = run_dir / f"changes_{args.cik}.txt"
    csv_path.write_text(render_change_csv(rows), encoding="utf-8")
    text = render_change_text(rows)
    txt_path.write_text(text, encoding="utf-8")
    _update_manifest(run_dir, [csv_path, txt_path] + extra)
    print(text, end="")
    return 0


def cmd_align(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(args)
    store = _store(config, run_dir)
    scheme = RegionScheme.from_json(args.region)
    index = load_index(args.index_dir) if args.index_dir else None
    gateway = _gateway(config) if args.index_dir else None
    rows = align_regions(args.firm_a, args.firm_b, scheme,
                         (args.year_from, args.year_to), store, index, gateway)
    label_a = args.label_a or str(args.firm_a)
    label_b = args.label_b or str(args.firm_b)
    csv_path = run_dir / f"alignment_{args.firm_a}_{args.firm_b}.csv"
    txt_path = run_dir / f"alignment_{args.firm_a}_{args.firm_b}.txt"
    csv_path.write_text(
        render_alignment_csv(rows, label_a, label_b, scheme.region_name), encoding="utf-8"
    )
    text = render_alignment_text(rows, label_a, label_b, scheme.region_name)
    txt_path.write_text(text, encoding="utf-8")
    _update_manifest(run_dir, [csv_path, txt_path])
    print(text, end="")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(args)
    gold = GoldLabelSet.from_json(args.gold)
    if args.group:
        gold.group_id = args.group
    if args.bundles:
        bundles = [load_bundle(p) for p in sorted(Path(args.bundles).glob("*.bundle.json"))]
    else:
        store = _store(config, run_dir)
        bundles = [store.get(cik, year) for cik, year in store.keys()]
    report = score(gold, bundles)
    out = run_dir / f"eval_{report.group_id}.json"
    out.write_text(json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    _update_manifest(run_dir, [out])
    print(render_table2([report]), end="")
    return 0


def cmd_export(args) -> int:
    config = _load_config(args)
    run_dir = _run_dir(args)
    out = _artifact_path(run_dir, args.out)
    store = _store(config, run_dir)
    with store.export_csv(out).open(newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1  # data rows, not the header
    _update_manifest(run_dir, [out])
    print(json.dumps({"rows": rows, "path": str(out)}, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SegforgeError, OSError) as exc:  # OSError: a missing or unreadable input file
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
