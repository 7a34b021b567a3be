"""Per-layer metrics derived from the spans of the traced run.

Each metric has a home workload (see README.md for the map from layer
metric to the end-to-end metric it should move). Times are means per call
unless the name says p50; ``*_per_mb`` divides by the filing bytes the
ops handled; ``*_exponent`` is the least-squares slope of log(time) on
log(filing size) over the ingest size mix, where 1 is linear.
"""

from __future__ import annotations

import math
import statistics

from workloads import PROMPT_LATENCY_S

LAYERS = ["edgar", "parsing", "retrieval", "gateway", "extraction", "store",
          "comparability", "cli"]


def _slope(points: list[tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def layer_metrics(tracer, ops: dict[str, dict], active: dict,
                  overhead: tuple[float, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; ``overhead`` is the tracing overhead in ms and as a fraction."""
    def spans(name: str, workload: str) -> list:
        return [s for s in tracer.spans
                if s.name == name and s.op in ops and ops[s.op]["workload"] == workload]

    def mean_ms(name: str, workload: str) -> float:
        return statistics.fmean(s.ms for s in spans(name, workload))

    def p50_ms(name: str, workload: str) -> float:
        return statistics.median(s.ms for s in spans(name, workload))

    def per_mb(name: str, workload: str) -> float:
        found = spans(name, workload)
        return sum(s.ms for s in found) / sum(ops[s.op]["size_mb"] for s in found)

    def exponent(name: str, workload: str) -> float:
        return _slope([(ops[s.op]["size_mb"], s.ms) for s in spans(name, workload)])

    extract_ops = [s for s in tracer.spans if s.name.startswith("bench.extract.")]
    asks = spans("gateway.ask", "extract")
    query = active["query"]
    index_bytes = sum(p.stat().st_size for p in (query.dest / "index").iterdir())
    panel = query.dest / "panel.jsonl"
    panel_bundles = len(panel.read_text(encoding="utf-8").splitlines())
    metrics = {
        "edgar.resolve_ms": (mean_ms("edgar.resolve", "ingest"), "ms"),
        "edgar.fetch_miss_ms": (mean_ms("edgar.fetch", "ingest"), "ms"),
        "edgar.fetch_hit_ms": (mean_ms("edgar.fetch", "extract"), "ms"),
        "parsing.parse_ms_per_mb": (per_mb("parsing.parse", "ingest"), "ms/MB"),
        "parsing.size_exponent": (exponent("parsing.parse", "ingest"), "slope"),
        "parsing.locate_regions_ms_per_mb": (per_mb("parsing.locate_segment_regions", "ingest"),
                                             "ms/MB"),
        "retrieval.build_index_ms_per_mb": (per_mb("retrieval.build_index", "ingest"), "ms/MB"),
        "retrieval.build_size_exponent": (exponent("retrieval.build_index", "ingest"), "slope"),
        "retrieval.chunks": (float(len(active["ingest"].index)), "count"),
        "retrieval.save_index_ms": (mean_ms("retrieval.save_index", "ingest"), "ms"),
        "retrieval.load_index_ms": (mean_ms("retrieval.load_index", "query"), "ms"),
        "retrieval.index_bytes_per_chunk": (index_bytes / query.index_chunks, "B"),
        "retrieval.retrieve_ms_p50": (p50_ms("retrieval.retrieve", "query"), "ms"),
        "retrieval.assemble_context_ms_p50": (p50_ms("retrieval.assemble_context", "query"),
                                              "ms"),
        "gateway.prompts_per_filing": (len(asks) / len(extract_ops), "count"),
        "gateway.rounds_per_filing": (
            statistics.fmean(s.ms for s in extract_ops) / (PROMPT_LATENCY_S * 1000), "count"),
        "gateway.format_retries": (
            sum(1 for s in asks if s.attrs.get("retry")) / len(extract_ops), "count"),
        "gateway.upload_ms": (mean_ms("gateway.upload", "extract"), "ms"),
    }
    for stage in ("classify", "general_fields", "reportable", "detect_nested", "nested"):
        metrics[f"extraction.{stage}_ms"] = (mean_ms(f"extraction.{stage}", "extract"), "ms")
    metrics.update({
        "store.put_ms_p50": (p50_ms("store.put", "extract"), "ms"),
        "store.open_ms": (mean_ms("store.open", "query"), "ms"),
        "store.panel_bytes_per_bundle": (panel.stat().st_size / panel_bundles, "B"),
        "store.gap_report_ms": (mean_ms("store.gap_report", "query"), "ms"),
        "comparability.explain_changes_ms": (mean_ms("comparability.explain_changes", "query"),
                                             "ms"),
        "comparability.align_regions_ms": (mean_ms("comparability.align_regions", "query"), "ms"),
        "comparability.detect_changes_ms": (mean_ms("comparability.detect_changes", "query"),
                                            "ms"),
    })
    for command in ("changes", "align", "gaps", "export"):
        metrics[f"cli.{command}_ms"] = (mean_ms(f"cli.{command}", "query"), "ms")
    self_ms = tracer.self_ms([s for s in tracer.spans if s.op in ops])
    for layer in ("bench", *LAYERS):
        metrics[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0), "ms")
    metrics["trace.overhead_ms"] = (overhead[0], "ms")
    metrics["trace.overhead_frac"] = (overhead[1], "fraction")
    return metrics



# Which end-to-end metric, on which workload, each layer metric should move.
# Recorded in baseline.json; README.md explains it.
METRIC_MAP = [
    {"layer": "edgar", "metrics": ["edgar.resolve_ms", "edgar.fetch_miss_ms"],
     "workload": "ingest", "moves": "ingest op_ms_p50"},
    {"layer": "edgar", "metrics": ["edgar.fetch_hit_ms"],
     "workload": "extract", "moves": "a small share of extract op_ms_*"},
    {"layer": "parsing", "metrics": ["parsing.parse_ms_per_mb", "parsing.size_exponent",
                                     "parsing.locate_regions_ms_per_mb"],
     "workload": "ingest", "moves": "ingest op_ms_p90 and ops_per_s; on query only setup_s"},
    {"layer": "retrieval (build)",
     "metrics": ["retrieval.build_index_ms_per_mb", "retrieval.build_size_exponent",
                 "retrieval.chunks", "retrieval.save_index_ms"],
     "workload": "ingest", "moves": "ingest ops_per_s"},
    {"layer": "retrieval (read)",
     "metrics": ["retrieval.load_index_ms", "retrieval.index_bytes_per_chunk",
                 "retrieval.retrieve_ms_p50", "retrieval.assemble_context_ms_p50"],
     "workload": "query", "moves": "query op_ms_p50 and op_ms_p90"},
    {"layer": "gateway", "metrics": ["gateway.prompts_per_filing", "gateway.rounds_per_filing",
                                     "gateway.format_retries", "gateway.upload_ms"],
     "workload": "extract", "moves": "extract op_ms_p50 and ops_per_s"},
    {"layer": "extraction",
     "metrics": [f"extraction.{s}_ms" for s in
                 ("classify", "general_fields", "reportable", "detect_nested", "nested")],
     "workload": "extract", "moves": "extract op_ms_p90; nested filings set the tail"},
    {"layer": "store", "metrics": ["store.put_ms_p50"], "workload": "extract",
     "moves": "under 1% of an extract op: little end-to-end movement"},
    {"layer": "store", "metrics": ["store.open_ms", "store.panel_bytes_per_bundle",
                                   "store.gap_report_ms"],
     "workload": "query", "moves": "query op_ms_*"},
    {"layer": "comparability",
     "metrics": ["comparability.explain_changes_ms", "comparability.align_regions_ms",
                 "comparability.detect_changes_ms"],
     "workload": "query", "moves": "query op_ms_p90"},
    {"layer": "cli", "metrics": [f"cli.{c}_ms" for c in ("changes", "align", "gaps", "export")],
     "workload": "query", "moves": "query op_ms_*, by command"},
]
