"""Deterministic fixture factory: synthetic filings, scripts, and bundles.

Everything built here is a pure function of the constants in paperdata, so
repeated test runs see byte-identical fixture files. Filing text is
synthetic but shaped like real 10-K prose: item headings at line starts,
a segment note in Item 8, and revenue tables with an "in millions" hint.
"""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal
from pathlib import Path

import paperdata
from segforge.config import default
from segforge.edgar import FilingRef
from segforge.extraction import (
    AXIS_GEOGRAPHIC,
    MULTI_SEGMENT,
    ExtractionBundle,
    SegmentationClass,
    SegmentRecord,
)
from segforge.parsing import ParsedFiling, parse_text
from segforge.retrieval import assemble_context, retrieve
from segforge.templates import (
    CLASSIFY_QUESTION,
    GENERAL_FIELDS,
    SEGMENT_NAMES_QUESTION,
    change_explanation_question,
    measure_question,
    nested_detect_question,
    nested_measure_question,
    nested_names_question,
    region_membership_question,
)
from segforge.values import Money, Scale

DEFAULT_MEASURES = default("extraction.measures")  # what a pipeline asks by default
CHANGE_K = 4
CHANGE_BUDGET = 12000
REGION_K = 4
REGION_BUDGET = 8000

# Two geographic labels that share a word with the Asia scheme's members
# without being members, so alignment has to arbitrate both.
REGION_LABELS = ("Asia-Pacific region", "South China Sea Operations")
REGION_HTML = (
    "<p>Item 1. Business</p>"
    "<p>Revenue by geographic area: the Asia-Pacific region generated "
    "$500 million of revenue, while the South China Sea Operations "
    "unit contributed $200 million of revenue in the same period.</p>"
)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def money_text(amount: int) -> str:
    return f"${amount:,} million"


# -- filing HTML ----------------------------------------------------------------


def _front_matter(company: str, period_text: str, file_number: str) -> str:
    return (
        "<p>UNITED STATES SECURITIES AND EXCHANGE COMMISSION</p>\n"
        "<p>Washington, D.C. 20549</p>\n"
        "<p>FORM 10-K</p>\n"
        "<p>Annual Report Pursuant to Section 13 or 15(d) of the Securities "
        "Exchange Act of 1934</p>\n"
        f"<p>For the fiscal year ended {period_text}</p>\n"
        f"<p>Commission file number {file_number}</p>\n"
        f"<p>{company}</p>\n"
    )


def _risk_factors() -> str:
    return (
        "<p>Item 1A. Risk Factors</p>\n"
        "<p>The company faces competition in each of its markets, and demand "
        "for its products depends on general economic conditions, raw material "
        "costs, currency movements, and the purchasing behavior of large "
        "customers. Disruptions in manufacturing or distribution, cybersecurity "
        "incidents, and changes in trade policy could each materially affect "
        "results of operations.</p>\n"
        "<p>The company is also subject to environmental regulation in the "
        "jurisdictions where it operates, and compliance costs may rise. "
        "Litigation, tax examinations, and the loss of key personnel present "
        "additional uncertainties that are difficult to quantify in advance.</p>\n"
    )


def _segment_table(rows: list[tuple[str, int]], total_label: str) -> str:
    body = "".join(
        f"<tr><td>{name}</td><td>{amount:,}</td></tr>\n" for name, amount in rows
    )
    total = sum(amount for _, amount in rows)
    return (
        "<table>\n"
        "<tr><th>Segment</th><th>Net sales</th></tr>\n"
        f"{body}"
        f"<tr><td>{total_label}</td><td>{total:,}</td></tr>\n"
        "</table>\n"
    )


def avy_revenues(year: int) -> list[tuple[str, int]]:
    names = paperdata.AVY_TABLE3[year]
    return [(name, 1500 + 37 * (year - 2000) + 211 * i) for i, name in enumerate(names)]


_AVY_CHANGE_PROSE = {
    2004: (
        "Effective at the beginning of fiscal 2004, the company reorganized "
        "its reportable segments, splitting the former two segments into four "
        "to reflect a change in how management reviews the business."
    ),
    2005: (
        "In fiscal 2005 the company changed its segment reporting and "
        "combined the Office Products segment with Other Converted Products "
        "and Services to form the Office and Consumer Products segment."
    ),
    2012: (
        "Following the divestiture of the Office and Consumer Products "
        "business in 2012, the company changed its reportable segments and "
        "now reports two segments."
    ),
    2014: (
        "Beginning in fiscal 2014 the company added Vancive Medical "
        "Technologies as a new reportable segment, a change from the prior "
        "two-segment presentation."
    ),
    2016: (
        "In 2016 the company changed its segment reporting, renaming and "
        "regrouping its businesses into Label and Graphic Materials, Retail "
        "Branding and Information Solutions, and Industrial and Healthcare "
        "Materials."
    ),
    2022: (
        "Effective fiscal 2022 the company changed its reportable segments, "
        "combining the Label and Graphic Materials and Industrial and "
        "Healthcare Materials businesses into Materials Group and renaming "
        "Retail Branding and Information Solutions to Solutions Group."
    ),
}


def avy_10k_html(year: int) -> str:
    names = paperdata.AVY_TABLE3[year]
    revenues = avy_revenues(year)
    total = sum(r for _, r in revenues)
    name_list = ", ".join(names[:-1]) + f" and {names[-1]}" if len(names) > 1 else names[0]
    per_segment = " ".join(
        f"The {name} segment reported net revenue of {money_text(rev)}."
        for name, rev in revenues
    )
    change_para = (
        f"<p>{_AVY_CHANGE_PROSE[year]}</p>\n" if year in _AVY_CHANGE_PROSE else ""
    )
    return (
        "<html><head><title>Annual Report</title></head><body>\n"
        + _front_matter("AVERY DENNISON CORPORATION", f"December 31, {year}", "1-7685")
        + "<p>Item 1. Business</p>\n"
        f"<p>Avery Dennison Corporation is a materials science and digital "
        f"identification solutions company. For fiscal {year} the company "
        f"managed its operations in {len(names)} reportable segments: "
        f"{name_list}. The company designs and manufactures labeling and "
        f"functional materials, serving customers in over fifty countries "
        f"through a network of plants and distribution centers.</p>\n"
        "<p>The company's largest businesses supply pressure-sensitive "
        "materials, apparel branding elements, and radio-frequency "
        "identification inlays to packaging, retail, and logistics customers. "
        "Raw materials include paper, film, and specialty chemicals purchased "
        "from a broad supplier base.</p>\n"
        + _risk_factors()
        + "<p>Item 7. Management's Discussion and Analysis of Financial "
        "Condition and Results of Operations</p>\n"
        f"<p>Net sales for fiscal {year} were {money_text(total)}. "
        f"{per_segment} Management evaluates the performance of its "
        f"reportable segments on the basis of segment revenue and adjusted "
        f"operating income.</p>\n"
        + change_para
        + "<p>Cash flows from operations funded capital expenditures and "
        "returns to shareholders. The company maintains committed credit "
        "facilities that it considers adequate for its working capital "
        "needs over the next twelve months.</p>\n"
        "<p>Item 8. Financial Statements and Supplementary Data</p>\n"
        "<p>Note 14. Segment Information</p>\n"
        f"<p>The company's reportable segments for fiscal {year} were: "
        f"{'; '.join(names)}. Segment reporting follows the management "
        f"approach, and segment revenue presented in millions below is the "
        f"measure reviewed by the chief operating decision maker. Financial "
        f"information by reportable segment follows (in millions).</p>\n"
        + _segment_table(revenues, "Total net sales")
        + "</body></html>\n"
    )


def apple_10k_html() -> str:
    rows = paperdata.APPLE_GEO_SALES
    region_list = ", ".join(name for name, _ in rows)
    return (
        "<html><head><title>Annual Report</title></head><body>\n"
        + _front_matter("Apple Inc.", "September 28, 2024", "001-36743")
        + "<p>Item 1. Business</p>\n"
        "<p>Apple Inc. designs, manufactures and markets smartphones, "
        "personal computers, tablets, wearables and accessories, and sells a "
        "variety of related services. The company manages its business "
        "primarily on a geographic basis, with reportable segments consisting "
        f"of {region_list}.</p>\n"
        "<p>The company's products include iPhone, Mac, iPad, and a portfolio "
        "of wearables, home and accessories. Services revenue arises from "
        "advertising, cloud services, digital content and payment services "
        "offered across the installed base.</p>\n"
        + _risk_factors()
        + "<p>Item 7. Management's Discussion and Analysis of Financial "
        "Condition and Results of Operations</p>\n"
        "<p>Total net sales for fiscal 2024 were $391,035 million. Segment "
        "operating performance is discussed below, with net sales by "
        "reportable segment driven by iPhone demand and continued growth in "
        "services revenue across all geographic segments.</p>\n"
        "<p>The company's effective tax rate and capital return program are "
        "discussed in the liquidity section. Currency movements relative to "
        "the U.S. dollar affected reported net sales in several segments.</p>\n"
        "<p>Item 8. Financial Statements and Supplementary Data</p>\n"
        "<p>Segment Information and Geographic Data</p>\n"
        "<p>The company reports segment information based on the management "
        "approach. Net sales of reportable segments, presented in millions, "
        "follow (in millions).</p>\n"
        + _segment_table(list(rows), "Total net sales")
        + "</body></html>\n"
    )


def adobe_10k_html() -> str:
    segments = [(name, paperdata.ADOBE_SEGMENT_REVENUE[name]) for name in paperdata.ADOBE_SEGMENTS]
    nested_bits = " and ".join(
        f"{name} ({money_text(rev)})" for name, rev in paperdata.ADOBE_NESTED
    )
    return (
        "<html><head><title>Annual Report</title></head><body>\n"
        + _front_matter("ADOBE INC.", "November 29, 2024", "0-15175")
        + "<p>Item 1. Business</p>\n"
        "<p>Adobe is a global technology company with a mission to change the "
        "world through personalized digital experiences. The company operates "
        "three reportable segments: Digital Media, Digital Experience, and "
        "Publishing and Advertising.</p>\n"
        "<p>The Digital Media segment provides creative and document "
        "productivity offerings on a subscription basis; Digital Experience "
        "provides an integrated platform for customer experience management; "
        "Publishing and Advertising contains legacy products and services.</p>\n"
        + _risk_factors()
        + "<p>Item 7. Management's Discussion and Analysis of Financial "
        "Condition and Results of Operations</p>\n"
        f"<p>Revenue for fiscal 2024 was {money_text(paperdata.ADOBE_REVT)}, "
        "with growth in subscription revenue across both of the company's "
        "largest reportable segments. Remaining performance obligations grew "
        "year over year.</p>\n"
        "<p>Item 8. Financial Statements and Supplementary Data</p>\n"
        "<p>Note 17. Segment Information</p>\n"
        "<p>The company's reportable segments are Digital Media, Digital "
        "Experience, and Publishing and Advertising. Segment revenue, "
        "presented in millions, is the measure of segment performance "
        "reviewed by the chief operating decision maker (in millions).</p>\n"
        + _segment_table(segments, "Total revenue")
        + "<p>Within the Digital Media reportable segment, the company "
        f"discloses subscription revenue disaggregated between {nested_bits}, "
        "a product-level breakdown inside the segment.</p>\n"
        "</body></html>\n"
    )


# -- EDGAR fixture directory ------------------------------------------------------


def avy_accession(year: int) -> str:
    return f"0000008818-{(year + 1) % 100:02d}-{100000 + year:06d}"


APPLE_ACCESSION = "0000320193-24-000123"
APPLE_DOC = "aapl-20240928.htm"
ADOBE_ACCESSION = "0000796343-25-000004"
ADOBE_DOC = "adbe-20241129.htm"


def avy_doc(year: int) -> str:
    return f"avy-{year}1231.htm"


def build_edgar_fixture(root: Path) -> dict[str, str]:
    """Write index.json plus every filing document; return name -> sha256."""
    root.mkdir(parents=True, exist_ok=True)
    hashes: dict[str, str] = {}

    def put(doc_name: str, html: str, key: str) -> None:
        data = html.encode("utf-8")
        (root / doc_name).write_bytes(data)
        hashes[key] = sha256_hex(data)

    put(APPLE_DOC, apple_10k_html(), "apple")
    put(ADOBE_DOC, adobe_10k_html(), "adobe")
    for year in sorted(paperdata.AVY_TABLE3):
        put(avy_doc(year), avy_10k_html(year), f"avy{year}")

    index = {
        str(paperdata.APPLE_CIK): {
            "filings": [
                {
                    "form": "10-K",
                    "accession_number": APPLE_ACCESSION,
                    "period_of_report": "2024-09-28",
                    "primary_document": APPLE_DOC,
                    "filing_date": "2024-11-01",
                }
            ]
        },
        str(paperdata.ADOBE_CIK): {
            "filings": [
                {
                    "form": "10-K",
                    "accession_number": ADOBE_ACCESSION,
                    "period_of_report": "2024-11-29",
                    "primary_document": ADOBE_DOC,
                    "filing_date": "2025-01-13",
                }
            ]
        },
        str(paperdata.AVY_CIK): {
            "filings": [
                {
                    "form": "10-K",
                    "accession_number": avy_accession(year),
                    "period_of_report": f"{year}-12-31",
                    "primary_document": avy_doc(year),
                    "filing_date": f"{year + 1}-02-25",
                }
                for year in sorted(paperdata.AVY_TABLE3)
            ]
        },
    }
    (root / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True),
                                     encoding="utf-8")
    return hashes


# -- scripted responses ------------------------------------------------------------


def general_responses(overrides: dict[str, str]) -> dict[str, str]:
    """Response per general field: defaults plus firm-specific overrides."""
    responses = {}
    for spec in GENERAL_FIELDS:
        default = "No" if spec.field_name == "sics1" else "Not provided"
        responses[spec.field_name] = overrides.get(spec.field_name, default)
    return responses


def filing_script(file_hash: str, classify: str, fields: dict[str, str],
                  segments: list[tuple[str, int | None]] | None = None,
                  nested: dict[str, list[tuple[str, int]]] | None = None) -> list[dict]:
    """Script entries covering one full pipeline run against one filing.

    Measure responses cover every default measure so the same script works
    whichever measure list the pipeline under test is configured with:
    revenue gets the fixture amount, the other measures get "Not provided".
    """
    entries = [{"file_hash": file_hash, "question": CLASSIFY_QUESTION, "response": classify}]
    for spec in GENERAL_FIELDS:
        entries.append({
            "file_hash": file_hash,
            "question": spec.question,
            "response": fields[spec.field_name],
        })
    if segments is None:
        return entries
    names = [name for name, _ in segments]
    entries.append({
        "file_hash": file_hash,
        "question": SEGMENT_NAMES_QUESTION,
        "response": "; ".join(names),
    })
    nested = nested or {}
    for name, revenue in segments:
        for measure in DEFAULT_MEASURES:
            response = money_text(revenue) if measure == "revenue" and revenue is not None \
                else "Not provided"
            entries.append({
                "file_hash": file_hash,
                "question": measure_question(measure, name),
                "response": response,
            })
    for name, _ in segments:
        entries.append({
            "file_hash": file_hash,
            "question": nested_detect_question(name),
            "response": "Yes" if name in nested else "No",
        })
    for parent, components in nested.items():
        entries.append({
            "file_hash": file_hash,
            "question": nested_names_question(parent),
            "response": "; ".join(comp for comp, _ in components),
        })
        for comp, revenue in components:
            for measure in DEFAULT_MEASURES:
                response = money_text(revenue) if measure == "revenue" else "Not provided"
                entries.append({
                    "file_hash": file_hash,
                    "question": nested_measure_question(measure, comp, parent),
                    "response": response,
                })
    return entries


def apple_script(file_hash: str) -> list[dict]:
    return filing_script(file_hash, "No", general_responses(paperdata.APPENDIX_A_RESULTS))


def adobe_script(file_hash: str) -> list[dict]:
    fields = general_responses({
        "conm": "Adobe Inc.",
        "tic": "ADBE",
        "cik": str(paperdata.ADOBE_CIK),
        "srcs": "Form 10-K",
        "curcds": "U.S. dollars",
        "isosrc": "U.S. dollar",
        "revt": money_text(paperdata.ADOBE_REVT),
    })
    segments = [(name, paperdata.ADOBE_SEGMENT_REVENUE[name]) for name in paperdata.ADOBE_SEGMENTS]
    return filing_script(
        file_hash, "Yes", fields, segments,
        nested={paperdata.ADOBE_NESTED_PARENT: list(paperdata.ADOBE_NESTED)},
    )


def avy_script(file_hash: str, year: int) -> list[dict]:
    revenues = avy_revenues(year)
    total = sum(r for _, r in revenues)
    fields = general_responses({
        "gvkey": "1913",
        "conm": "Avery Dennison Corporation",
        "tic": "AVY",
        "cik": str(paperdata.AVY_CIK),
        "sic": "2672",
        "naics": "322220",
        "srcs": "Form 10-K",
        "curcds": "U.S. dollars",
        "isosrc": "U.S. dollar",
        "revt": money_text(total),
    })
    return filing_script(file_hash, "Yes", fields, list(revenues))


def base_script_entries(hashes: dict[str, str]) -> list[dict]:
    entries = apple_script(hashes["apple"]) + adobe_script(hashes["adobe"])
    for year in sorted(paperdata.AVY_TABLE3):
        entries.extend(avy_script(hashes[f"avy{year}"], year))
    return entries


# -- grounded change explanations ---------------------------------------------------

AVY_CHANGE_ANSWERS = {
    2004: {
        "reason": "internal_reorganization",
        "linkage": "split",
        "mapping": (
            "Pressure-sensitive Adhesives and Materials -> Pressure-sensitive Materials"
            " | Consumer and Converted Products -> Office Products"
            " | Consumer and Converted Products -> Other Converted Products and Services"
            " | Consumer and Converted Products -> Retail Information Services"
        ),
        "explanation": (
            "The company reorganized its two business segments into four "
            "reportable segments effective fiscal 2004."
        ),
    },
    2005: {
        "reason": "reporting_reclassification",
        "linkage": "regrouped",
        "mapping": (
            "Pressure-sensitive Materials -> Pressure-sensitive Materials"
            " | Office Products + Other Converted Products and Services -> Office and Consumer Products"
            " | Retail Information Services -> Retail Information Services"
        ),
        "explanation": (
            "Office Products and Other Converted Products and Services were "
            "combined into the Office and Consumer Products segment."
        ),
    },
    2012: {
        "reason": "divestiture",
        "linkage": "partial",
        "mapping": (
            "Pressure-sensitive Materials -> Pressure-sensitive Materials"
            " | Retail Information Services -> Retail Branding and Information Solutions"
            " | Office and Consumer Products -> discontinued"
        ),
        "explanation": (
            "The Office and Consumer Products business was divested and the "
            "remaining operations were reported in two segments."
        ),
    },
    2014: {
        "reason": "new_segment_added",
        "linkage": "added",
        "mapping": (
            "Pressure-sensitive Materials -> Pressure-sensitive Materials"
            " | Retail Branding and Information Solutions -> Retail Branding and Information Solutions"
        ),
        "explanation": (
            "Vancive Medical Technologies was broken out as a new reportable "
            "segment in fiscal 2014."
        ),
    },
    2016: {
        "reason": "internal_reorganization",
        "linkage": "regrouped",
        "mapping": (
            "Pressure-sensitive Materials -> Label and Graphic Materials"
            " | Retail Branding and Information Solutions -> RBIS"
            " | Vancive Medical Technologies -> Industrial and Healthcare Materials"
        ),
        "explanation": (
            "The segments were renamed and regrouped, with Vancive operations "
            "folded into Industrial and Healthcare Materials."
        ),
    },
    2022: {
        "reason": "internal_reorganization",
        "linkage": "partial",
        "mapping": "LGM + IHM -> Materials Group | RBIS -> Solutions Group",
        "explanation": (
            "Label and Graphic Materials combined with Industrial and "
            "Healthcare Materials to form Materials Group, while RBIS became "
            "Solutions Group."
        ),
    },
}


def change_script_entries(index, cik: int = paperdata.AVY_CIK,
                          query: str = "reportable segments segment reporting change") -> list[dict]:
    """Entries keyed on the sha256 of each changed year's assembled context.

    The context is replayed with the same retrieval parameters the grounded
    layer uses, so the scripted lookup hits; the graded content (reason,
    linkage, mapping) stays frozen in AVY_CHANGE_ANSWERS.
    """
    entries = []
    for year in sorted(paperdata.AVY_CHANGED_YEARS):
        prior = year - 1
        results = [
            retrieve(index, query, CHANGE_K, {"cik": cik, "fiscal_year": y})
            for y in (prior, year)
        ]
        context = assemble_context(index, results, CHANGE_BUDGET)
        answer = AVY_CHANGE_ANSWERS[year]
        response = "\n".join([
            f"reason: {answer['reason']}",
            f"linkage: {answer['linkage']}",
            f"mapping: {answer['mapping']}",
            f"cites: {context.chunk_ids[0]}",
            f"explanation: {answer['explanation']}",
        ])
        entries.append({
            "file_hash": sha256_hex(context.text.encode("utf-8")),
            "question": change_explanation_question(
                cik, prior, year, paperdata.AVY_TABLE3[prior], paperdata.AVY_TABLE3[year]
            ),
            "response": response,
        })
    return entries


# -- prebuilt bundles (Intel / Texas Instruments) -------------------------------------


def geo_bundle(cik: int, year: int, conm: str, tic: str,
               components: list[tuple[str, int]], revt: int) -> ExtractionBundle:
    """Multi-segment bundle whose reportable records are geographic components."""
    fields = general_responses({
        "conm": conm,
        "tic": tic,
        "cik": str(cik),
        "srcs": "Form 10-K",
        "curcds": "U.S. dollars",
        "isosrc": "U.S. dollar",
        "revt": money_text(revt),
    })
    records = [
        SegmentRecord(
            name=name,
            axis=AXIS_GEOGRAPHIC,
            measures={"revenue": Money(Decimal(amount), Scale.MILLIONS)},
            provenance=["fixture"],
        )
        for name, amount in components
    ]
    return ExtractionBundle(
        cik=cik,
        fiscal_year=year,
        classification=SegmentationClass(kind=MULTI_SEGMENT, raw_response="Yes"),
        general_fields=fields,
        reportable=records,
    )


def intc_bundle(year: int) -> ExtractionBundle:
    asia = list(paperdata.INTC_ASIA[year])
    domestic = paperdata.INTC_REVT[year] - paperdata.INTC_ASIA_TOTAL[year]
    return geo_bundle(paperdata.INTC_CIK, year, "Intel Corporation", "INTC",
                      [("United States", domestic)] + asia, paperdata.INTC_REVT[year])


def txn_bundle(year: int) -> ExtractionBundle:
    asia = list(paperdata.TXN_ASIA[year])
    domestic = paperdata.TXN_REVT[year] - paperdata.TXN_ASIA_TOTAL[year]
    return geo_bundle(paperdata.TXN_CIK, year, "Texas Instruments Incorporated", "TXN",
                      [("United States", domestic)] + asia, paperdata.TXN_REVT[year])


def filing_with_ref(html: str, cik: int, year: int) -> ParsedFiling:
    """``html`` parsed as the filing of (cik, year), for indexing."""
    parsed = parse_text(html)
    parsed.ref = FilingRef(
        cik=cik,
        fiscal_year=year,
        accession_number=f"{cik:010d}-{year % 100:02d}-000001",
        document_url="fixture",
        primary_document="doc.htm",
    )
    return parsed


def region_entry(index, cik: int, year: int, label: str, region: str, response: str) -> dict:
    """The script entry answering the arbitration of ``label``, keyed on the
    context the alignment assembles for it."""
    result = retrieve(index, f"{label} geographic revenue", REGION_K,
                      {"cik": cik, "fiscal_year": year})
    context = assemble_context(index, [result], REGION_BUDGET)
    return {
        "file_hash": sha256_hex(context.text.encode("utf-8")),
        "question": region_membership_question(label, region, year),
        "response": response,
    }


def write_asia_scheme(path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {"region_name": "Asia", "member_labels": paperdata.ASIA_MEMBER_LABELS},
            indent=2,
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    return path


def write_roster(path: Path, rows: list[tuple[int, int]]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["cik,fiscal_year"] + [f"{cik},{year}" for cik, year in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_script(path: Path, entries: list[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return path
