"""Prompt templates for the extraction and comparability workflows.

All question text lives here so scripted fixtures and the pipeline render
the exact same strings. Templates are versioned; the version is recorded
in every extraction bundle. Prompts use a neutral tone and instruct the
model to return bare values with delimiter-standardized lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

TEMPLATE_VERSION = "1.0.0"

SYSTEM_PREAMBLE = (
    "You are given one Form 10-K filing. Answer each question using only "
    "the contents of that filing."
)

NOT_PROVIDED = "Not provided"


class AnswerShape(Enum):
    SCALAR = "scalar"
    DELIMITED_LIST = "delimited_list"
    YES_NO = "yes_no"
    MONETARY = "monetary"


FORMAT_RULES = {
    AnswerShape.SCALAR: (
        "Return only the requested value with no surrounding sentence. "
        f'If the filing does not provide it, return exactly "{NOT_PROVIDED}".'
    ),
    AnswerShape.DELIMITED_LIST: (
        "Return only the names, separated by semicolons, with no numbering "
        f'or commentary. If none are disclosed, return exactly "{NOT_PROVIDED}".'
    ),
    AnswerShape.YES_NO: 'Return exactly "Yes" or "No".',
    AnswerShape.MONETARY: (
        "Return only the amount with its currency symbol and scale, for "
        'example "$391,035 million". If the filing does not provide it, '
        f'return exactly "{NOT_PROVIDED}".'
    ),
}

RETRY_REMINDERS = {
    AnswerShape.SCALAR: f'Reminder: return the bare value only, or "{NOT_PROVIDED}".',
    AnswerShape.DELIMITED_LIST: "Reminder: return only a semicolon-separated list of names.",
    AnswerShape.YES_NO: 'Reminder: return exactly "Yes" or "No" and nothing else.',
    AnswerShape.MONETARY: (
        'Reminder: return only the amount with currency symbol and scale, or "Not provided".'
    ),
}


@dataclass(frozen=True)
class FieldSpec:
    field_name: str
    question: str
    answer_shape: AnswerShape


# The general-variable catalog: one query per field, issued against the
# uploaded filing. Phrasing is deliberately frozen; scripted fixtures match
# on the exact question text.
GENERAL_FIELDS: list[FieldSpec] = [
    FieldSpec("gvkey", "What is the GVKEY for the firm in this year?", AnswerShape.SCALAR),
    FieldSpec("conm", "What is the exact legal name of the firm for this year?", AnswerShape.SCALAR),
    FieldSpec("tic", "What stock ticker is associated with the firm for this year?", AnswerShape.SCALAR),
    FieldSpec("cik", "What SEC CIK number is associated with the firm in this year?", AnswerShape.SCALAR),
    FieldSpec(
        "sic",
        "What is the primary SIC code for the geographic segment of the firm in this year?",
        AnswerShape.SCALAR,
    ),
    FieldSpec(
        "sics1",
        "Does the geographic segment have a different SIC or industry code from the "
        "consolidated firm in this year?",
        AnswerShape.YES_NO,
    ),
    FieldSpec(
        "sics2",
        "What additional SIC classification is reported for the geographic segment in this year?",
        AnswerShape.SCALAR,
    ),
    FieldSpec("naics", "What is the primary NAICS code for the firm in this year?", AnswerShape.SCALAR),
    FieldSpec(
        "naicsh",
        "What NAICS hierarchy or description is provided for the firm in this year?",
        AnswerShape.SCALAR,
    ),
    FieldSpec("naicss1", "What NAICS code is associated with the firm in this year?", AnswerShape.SCALAR),
    FieldSpec(
        "naicss2",
        "What additional NAICS classification is reported for the firm in this year?",
        AnswerShape.SCALAR,
    ),
    FieldSpec("gind", "What GICS industry does the firm belong to in this year?", AnswerShape.SCALAR),
    FieldSpec("gsubind", "What GICS sub-industry does the firm belong to in this year?", AnswerShape.SCALAR),
    FieldSpec(
        "curcds",
        "In what currency are the segment amounts for the firm in this year presented?",
        AnswerShape.SCALAR,
    ),
    FieldSpec(
        "isosrc",
        "What is the ISO currency source or reference associated with the segment "
        "disclosures for this year?",
        AnswerShape.SCALAR,
    ),
    FieldSpec("srcs", "What is the source document used for the firm?", AnswerShape.SCALAR),
    FieldSpec(
        "revt",
        "What is the consolidated total revenue of the firm in this year?",
        AnswerShape.MONETARY,
    ),
]

GENERAL_FIELD_NAMES = [spec.field_name for spec in GENERAL_FIELDS]


# -- stage prompts -----------------------------------------------------------

CLASSIFY_QUESTION = (
    "Does the firm report multiple operating segments in this filing, or does "
    "it operate as a single reporting unit? Answer Yes if it reports multiple "
    "operating segments and No if it operates as a single reporting unit."
)

SEGMENT_NAMES_QUESTION = (
    "List the names of the reportable segments disclosed by the firm in this year."
)

_MEASURE_PHRASES = {
    "revenue": "total revenue",
    "profit_or_loss": "profit or loss measure",
    "assets": "total assets",
}


def measure_question(measure: str, segment: str) -> str:
    phrase = _MEASURE_PHRASES.get(measure, measure)
    return f"What is the {phrase} reported for the {segment} segment in this year?"


def nested_detect_question(segment: str) -> str:
    return (
        f"Within the {segment} reportable segment, does the filing disclose "
        "additional disaggregation in this year, such as product-level, "
        "geographic, or revenue-type breakdowns? Answer Yes or No."
    )


def nested_names_question(segment: str) -> str:
    return (
        f"List the names of the components disclosed within the {segment} "
        "reportable segment in this year."
    )


def nested_measure_question(measure: str, component: str, parent: str) -> str:
    phrase = _MEASURE_PHRASES.get(measure, measure)
    return (
        f"What is the {phrase} reported for the {component} component within "
        f"the {parent} reportable segment in this year?"
    )


def retry_question(question: str, shape: AnswerShape) -> str:
    return f"{question} {RETRY_REMINDERS[shape]}"


# -- comparability prompts ---------------------------------------------------

REASON_CLASSES = (
    "internal_reorganization", "divestiture", "acquisition", "new_segment_added",
    "reporting_reclassification", "renaming_only", "unknown",
)
LINKAGE_CLASSES = (
    "continuation", "merged", "split", "added", "discontinued", "regrouped", "partial",
)

CHANGE_FORMAT_RULES = (
    "Respond with exactly five lines:\n"
    f"reason: one of {', '.join(REASON_CLASSES)}\n"
    f"linkage: one of {', '.join(LINKAGE_CLASSES)}\n"
    "mapping: prior segment names mapped to current names as "
    "'Old -> New' pairs separated by ' | ' (use 'discontinued' as the target "
    "for removed segments)\n"
    "cites: semicolon-separated chunk ids from the provided context\n"
    "explanation: one sentence grounded in the cited context"
)

CHANGE_RETRY_REMINDER = (
    "Reminder: respond with only the five lines reason, linkage, mapping, cites and "
    "explanation, using the listed keywords and chunk ids from the provided context."
)


def change_explanation_question(cik: int, prior_year: int, year: int,
                                prior_names: list[str], names: list[str]) -> str:
    return (
        f"The firm with CIK {cik} reported the segments [{'; '.join(prior_names)}] "
        f"for fiscal year {prior_year} and [{'; '.join(names)}] for fiscal year "
        f"{year}. Using only the attached context excerpts, explain the change "
        "in reportable segments between the two years."
    )


def region_membership_question(label: str, region_name: str, fiscal_year: int) -> str:
    return (
        f'Based on the attached context, is the geographic area "{label}" '
        f"disclosed for fiscal year {fiscal_year} part of the {region_name} "
        "region? Answer Yes or No."
    )
