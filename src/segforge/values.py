"""Monetary and numeric value handling shared by parsing, extraction, and scoring.

Financial-table conventions: thousands separators, a leading ``$``,
parenthesized negatives, and scale words (thousand/million/billion).
Values are kept as :class:`decimal.Decimal` so sums and round-trips are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from enum import Enum

NOT_PROVIDED = "Not provided"


class Scale(Enum):
    UNITS = "units"
    THOUSANDS = "thousands"
    MILLIONS = "millions"
    BILLIONS = "billions"

    @property
    def multiplier(self) -> Decimal:
        return _MULTIPLIERS[self]


_MULTIPLIERS = {
    Scale.UNITS: Decimal(1),
    Scale.THOUSANDS: Decimal(1_000),
    Scale.MILLIONS: Decimal(1_000_000),
    Scale.BILLIONS: Decimal(1_000_000_000),
}

_SCALE_WORDS = {
    "thousand": Scale.THOUSANDS,
    "thousands": Scale.THOUSANDS,
    "million": Scale.MILLIONS,
    "millions": Scale.MILLIONS,
    "billion": Scale.BILLIONS,
    "billions": Scale.BILLIONS,
}

_MONEY_RE = re.compile(
    r"""^
    (?P<open>\()?\s*
    (?:US\$|USD\s*|\$)?\s*
    (?P<sign>-)?
    (?P<digits>\d{1,3}(?:,\d{3})*(?:\.\d+)?|\d+(?:\.\d+)?)
    \s*(?P<close>\))?
    (?:\s*(?P<scale>[A-Za-z]+))?
    \s*(?:USD|dollars?)?
    \s*(?P<close_late>\))?
    $""",
    re.VERBOSE | re.IGNORECASE,
)


@dataclass(frozen=True)
class Money:
    value: Decimal
    scale: Scale
    scale_explicit: bool = True

    @property
    def units(self) -> Decimal:
        return self.value * self.scale.multiplier


def parse_monetary(text: str) -> Money:
    """Parse a monetary answer like ``"$391,035 million"`` or ``"(1,234)"``.

    Returns the numeric value plus its scale; when no scale word is present
    the value is taken at face value (``Scale.UNITS``) with
    ``scale_explicit=False`` so callers can warn instead of guessing silently.

    Raises ``ValueError`` when the text is not a monetary amount.
    """
    match = _MONEY_RE.match(text.strip())
    if not match:
        raise ValueError(f"not a monetary amount: {text!r}")
    scale = Scale.UNITS
    explicit = False
    word = match.group("scale")
    if word:
        key = word.lower()
        if key not in _SCALE_WORDS:
            raise ValueError(f"unknown scale word {word!r} in {text!r}")
        scale = _SCALE_WORDS[key]
        explicit = True
    digits = match.group("digits").replace(",", "")
    try:
        value = Decimal(digits)
    except InvalidOperation as exc:  # pragma: no cover - regex prevents this
        raise ValueError(f"bad digits in {text!r}") from exc
    negative = bool(match.group("sign"))
    closes = sum(1 for name in ("close", "close_late") if match.group(name))
    if (1 if match.group("open") else 0) != closes:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if match.group("open"):
        negative = not negative if negative else True
    if negative:
        value = -value
    return Money(value=value, scale=scale, scale_explicit=explicit)


_CELL_RE = re.compile(
    r"""^
    (?P<open>\()?\s*\$?\s*
    (?P<sign>-)?
    (?P<digits>\d{1,3}(?:,\d{3})*(?:\.\d+)?|\d+(?:\.\d+)?)
    \s*(?P<close>\))?
    $""",
    re.VERBOSE,
)


def parse_table_cell(text: str) -> Decimal | None:
    """Parse a table cell as a number, or return None for non-numeric cells.

    Percent cells and footnote markers are deliberately not numbers here;
    only plain amounts with optional ``$``, separators, and parens qualify.
    """
    match = _CELL_RE.match(text.strip())
    if not match:
        return None
    if bool(match.group("open")) != bool(match.group("close")):
        return None
    value = Decimal(match.group("digits").replace(",", ""))
    if match.group("sign") or match.group("open"):
        value = -value
    return value


def render_amount(value: Decimal) -> str:
    """Render a Decimal with thousands separators and parenthesized negatives."""
    text = f"{abs(value):,}"
    return f"({text})" if value < 0 else text


def normalized_value_equal(extracted: str, gold: str) -> bool:
    """Compare two answer strings, preferring monetary normalization.

    Both parse as money -> compare exact unit amounts.  Otherwise fall back
    to case-folded, whitespace-collapsed string equality.
    """
    try:
        a = parse_monetary(extracted)
        b = parse_monetary(gold)
        return a.units == b.units
    except ValueError:
        pass
    return collapse_ws(extracted).casefold() == collapse_ws(gold).casefold()


def collapse_ws(text: str) -> str:
    return " ".join(text.split())


def percent_of(part_units: Decimal, total_units: Decimal) -> Decimal:
    """Percentage at one decimal place, rounded half-up."""
    return (part_units / total_units * 100).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


def render_fixed_width(table: list[list[str]], right_justify_values: bool = False) -> str:
    """Fixed-width text table: two-space gutters and a dash rule under the header row.

    Cells are left-justified; with ``right_justify_values`` every column
    after the first is right-justified. Trailing spaces are stripped.
    """
    widths = [max(len(line[col]) for line in table) for col in range(len(table[0]))]
    lines = [
        "  ".join(cell.rjust(widths[i]) if right_justify_values and i else cell.ljust(widths[i])
                  for i, cell in enumerate(line)).rstrip()
        for line in table
    ]
    lines.insert(1, "-" * max(len(line) for line in lines))
    return "\n".join(lines) + "\n"
