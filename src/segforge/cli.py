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
from dataclasses import dataclass
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
from .errors import OutputPathError, SegforgeError
from .evaluation import GoldLabelSet, render_table2, report_to_json, score
from .extraction import ExtractionPipeline, bundle_filename, bundle_json, load_bundle
from .gateway import Gateway
from .parsing import ParsedFiling, dump_json, parse
from .retrieval import build_index, load_index, save_index
from .store import FundamentalsRoster, SegmentStore, gap_report_to_json
from .values import read, write_atomic


def _cik(text: str) -> int:
    """A CIK argument: a positive integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


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
    p.add_argument("--cik", type=_cik, required=True)
    p.add_argument("--year", type=int, required=True)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("parse", parents=[common], help="parse a cached 10-K")
    p.add_argument("--cik", type=_cik, required=True)
    p.add_argument("--year", type=int, required=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("extract", parents=[common], help="run the extraction pipeline")
    p.add_argument("--cik", type=_cik, required=True)
    p.add_argument("--year", type=int, required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("index", parents=[common], help="build the retrieval index")
    p.add_argument("--corpus", required=True, help="directory of parsed-filing JSON files")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("gaps", parents=[common], help="coverage gaps vs a roster")
    p.add_argument("--roster", required=True, help="CSV with cik,fiscal_year columns")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("changes", parents=[common], help="segment changes for one firm")
    p.add_argument("--cik", type=_cik, required=True)
    p.add_argument("--from", dest="year_from", type=int, required=True)
    p.add_argument("--to", dest="year_to", type=int, required=True)
    p.add_argument("--index", dest="index_dir", default=None,
                   help="retrieval index directory (enables grounded explanations)")
    p.set_defaults(func=cmd_changes)

    p = sub.add_parser("align", parents=[common], help="cross-firm regional alignment")
    p.add_argument("--firm-a", type=_cik, required=True)
    p.add_argument("--firm-b", type=_cik, required=True)
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


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class RunDir:
    """One command's run directory, the only way it checks, writes and records an
    artifact. Opening it loads the config, refuses a panel path that names a
    directory, makes the directory and reads its manifest, so a bad one stops
    the command before it fetches or writes anything."""

    def __init__(self, args):
        self.config = _load_config(args)
        self.root = Path(args.run_dir)
        value = self.config.get("store.panel_path")
        self.panel = self.root / value  # an absolute value replaces the root
        if self.panel.is_dir() or self.root.resolve().is_relative_to(self.panel.resolve()):
            raise OutputPathError(f"store.panel_path = {value!r} names a directory, not a file")
        self.root.mkdir(parents=True, exist_ok=True)
        _read_manifest(self.root)
        self._written: list[Path] = []
        self._gateway: Gateway | None = None

    def path(self, name: str) -> Path:
        """``name`` in the run directory; one that leaves it (also through ``..``), names
        the manifest, or names the configured panel or a directory holding it is refused."""
        root, target = self.root.resolve(), (self.root / name).resolve()
        if ".." in Path(name).parts or not target.is_relative_to(root):
            raise OutputPathError(f"{name} is outside the run directory {self.root}")
        if target == root / "manifest.json" or self.panel.resolve().is_relative_to(target):
            raise OutputPathError(f"{name} would replace the run directory's manifest or panel")
        return self.root / target.relative_to(root)

    def write(self, name: str, text: str) -> Path:
        """Replace the artifact ``name`` whole; ``publish`` records it."""
        path = self.path(name)
        write_atomic(path, text)
        self._written.append(path)
        return path

    def store(self) -> SegmentStore:
        return SegmentStore(self.panel)

    def gateway(self) -> Gateway:
        """The command's gateway, made after its transcript path is checked."""
        self.path("transcript.jsonl")
        self._gateway = Gateway.from_config(self.config)
        return self._gateway

    def publish(self, report: str, *written: Path) -> int:
        """Write the gateway's transcript, record it, every ``write`` and the other
        ``written`` paths in the manifest, then print the command's report."""
        if self._gateway:
            self.write("transcript.jsonl", self._gateway.transcript_jsonl())
        _update_manifest(self.root, [*self._written, *written])
        print(report, end="")
        return 0


@dataclass(frozen=True)
class _Artifact:
    path: str  # relative to the run directory
    sha256: str


@dataclass(frozen=True)
class _Manifest:
    artifacts: list[_Artifact]


def _read_manifest(run_dir: Path) -> dict[str, str]:
    """manifest.json's {path: sha256} entries, none when there is no manifest.

    A manifest that is not JSON or not an ``artifacts`` list of
    ``{path, sha256}`` raises SchemaError naming the file.
    """
    path = run_dir / "manifest.json"
    if not path.exists():
        return {}
    return {item.path: item.sha256 for item in read(_Manifest, path).artifacts}


def _update_manifest(run_dir: Path, new_paths: list[Path]) -> None:
    """Add new_paths' digests to manifest.json, replacing the file atomically.

    Entries for artifacts no longer in the run directory, such as the chunk
    files of filings a new index leaves out, are dropped.
    """
    entries = {rel: digest for rel, digest in _read_manifest(run_dir).items()
               if (run_dir / rel).exists()}
    for path in new_paths:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        entries[path.relative_to(run_dir).as_posix()] = digest
    artifacts = [{"path": rel, "sha256": entries[rel]} for rel in sorted(entries)]
    write_atomic(run_dir / "manifest.json", _json({"artifacts": artifacts}))


def _fetch_document(args, config: Config):
    allow = args.allow_network or config.get("llm.backend") == "live"
    client = EdgarClient.from_config(config, allow_network=allow)
    ref = client.resolve_filing(args.cik, args.year)
    return client.fetch(ref)


# -- subcommands --------------------------------------------------------------
# Each command opens its run directory, computes its results, writes its
# artifacts, then publishes them.


def cmd_fetch(args) -> int:
    config = _load_config(args)
    doc = _fetch_document(args, config)
    print(_json({
        "cik": doc.ref.cik,
        "fiscal_year": doc.ref.fiscal_year,
        "accession_number": doc.ref.accession_number,
        "amended": doc.ref.amended,
        "media_kind": doc.media_kind,
        "path": str(doc.path),
        "content_hash": doc.content_hash,
    }), end="")
    return 0


def cmd_parse(args) -> int:
    run = RunDir(args)
    parsed = parse(_fetch_document(args, run.config))
    out = run.write(f"parsed/{args.cik}_{args.year}.json", dump_json(parsed))
    return run.publish(_json({
        "items": list(parsed.items),
        "tables": len(parsed.tables),
        "chars": parsed.char_count,
        "path": str(out),
    }))


def cmd_extract(args) -> int:
    run = RunDir(args)
    name = bundle_filename(args.cik, args.year)
    run.path(name)  # refused up front, as the transcript is by run.gateway()
    pipeline = ExtractionPipeline.from_config(run.gateway(), run.config)
    bundle = pipeline.run_pipeline(_fetch_document(args, run.config), args.cik, args.year)
    out = run.write(name, bundle_json(bundle))
    run.store().put(bundle)
    return run.publish(_json({
        "bundle": str(out),
        "classification": bundle.classification.kind,
        "reportable": [r.name for r in bundle.reportable],
        "nested": [r.name for r in bundle.nested],
        "warnings": bundle.warnings,
    }))


def cmd_index(args) -> int:
    run = RunDir(args)
    index_dir = run.path("index")
    # iterdir, not glob: a missing corpus directory raises instead of indexing nothing.
    paths = [p for p in sorted(Path(args.corpus).iterdir()) if p.suffix == ".json"]
    # A generator: the build holds one parsed filing at a time, not the corpus.
    index = build_index(read(ParsedFiling, p) for p in paths)
    return run.publish(_json({
        "filings": len(paths),
        "chunks": len(index),
        "index_dir": str(index_dir),
    }), *save_index(index, index_dir))


def cmd_gaps(args) -> int:
    run = RunDir(args)
    report = run.store().gap_report(FundamentalsRoster.from_csv(args.roster))
    payload = _json(gap_report_to_json(report))
    run.write("gaps.json", payload)
    return run.publish(payload)


def cmd_changes(args) -> int:
    run = RunDir(args)
    panel = run.store().segment_names_by_year(args.cik, (args.year_from, args.year_to))
    warnings: list[str] = []
    if args.index_dir:
        gateway = run.gateway()
        rows = explain_changes(args.cik, panel, load_index(args.index_dir), gateway, warnings)
    else:
        rows = detect_changes(panel, warnings)
    for warning in warnings:
        print(warning, file=sys.stderr)
    text = render_change_text(rows)
    run.write(f"changes_{args.cik}.csv", render_change_csv(rows))
    run.write(f"changes_{args.cik}.txt", text)
    return run.publish(text)


def cmd_align(args) -> int:
    run = RunDir(args)
    store = run.store()
    scheme = RegionScheme.from_json(args.region)
    gateway = run.gateway() if args.index_dir else None
    index = load_index(args.index_dir) if args.index_dir else None
    rows = align_regions(args.firm_a, args.firm_b, scheme,
                         (args.year_from, args.year_to), store, index, gateway)
    table = (rows, args.label_a or str(args.firm_a), args.label_b or str(args.firm_b),
             scheme.region_name)
    name = f"alignment_{args.firm_a}_{args.firm_b}"
    text = render_alignment_text(*table)
    run.write(f"{name}.csv", render_alignment_csv(*table))
    run.write(f"{name}.txt", text)
    return run.publish(text)


def cmd_eval(args) -> int:
    run = RunDir(args)
    gold = GoldLabelSet.from_json(args.gold)
    if args.group:
        gold.group_id = args.group
    if args.bundles:
        # iterdir, not glob: a missing bundle directory raises instead of scoring nothing.
        bundles = [load_bundle(p) for p in sorted(Path(args.bundles).iterdir())
                   if p.name.endswith(".bundle.json")]
    else:
        bundles = run.store().bundles()
    report = score(gold, bundles)
    run.write(f"eval_{report.group_id}.json", _json(report_to_json(report)))
    return run.publish(render_table2([report]))


def cmd_export(args) -> int:
    run = RunDir(args)
    out = run.path(args.out)
    with run.store().export_csv(out).open(newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1  # data rows, not the header
    return run.publish(_json({"rows": rows, "path": str(out)}), out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "year_from", 0) > getattr(args, "year_to", 0):
        parser.error(f"{args.command}: --from {args.year_from} is later than --to {args.year_to}")
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
