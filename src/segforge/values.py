"""Monetary and numeric value handling shared by parsing, extraction, and scoring.

Financial-table conventions: thousands separators, a leading ``$``,
parenthesized negatives, and scale words (thousand/million/billion).
Values are kept as :class:`decimal.Decimal` so sums and round-trips are exact.

Also the one JSON codec for every persisted record: ``encode`` writes a
dataclass tree and ``load`` reads it back; ``write_atomic``, the one
file writer, replaces a file whole.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass, fields, is_dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from enum import Enum
from functools import cache, partial
from pathlib import Path
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .errors import SchemaError


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
    """Render a Decimal in fixed point with thousands separators and parenthesized negatives."""
    text = f"{abs(value):,f}"
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


def render_csv(table: list[list]) -> str:
    """A table as CSV records ending in ``\\n``."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(table)
    return buffer.getvalue()


# -- persistence codec ---------------------------------------------------------


def encode(obj):
    """The ``json.dumps(default=encode)`` hook that writes every persisted record.

    A dataclass becomes an object of its fields in declaration order, a
    Decimal its exact string and an Enum its value. ``load`` reverses it.
    """
    if isinstance(obj, Decimal):
        return str(obj)
    if isinstance(obj, Enum):
        return obj.value
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def write_atomic(path: Path, data: str | bytes) -> None:
    """Write ``data`` to a temporary file, then move it over ``path``.

    Text is encoded as UTF-8, with no newline translation. A reader sees
    the old file or the new one, never part of one. The temporary file is
    removed when the write or the move fails. Every file segforge writes,
    except the panel's appends, goes through here.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load(cls, data):
    """Build a ``cls`` from decoded JSON written through ``encode``.

    ``cls`` is a dataclass, or a list, dict, tuple or optional of one. A
    dataclass needs every one of its fields as a key and no other key. A
    field whose type is a dataclass, Decimal, Enum or tuple, or a container
    of these, is converted; any other value is used as it is, so the result
    shares plain lists and dicts with ``data``. The dataclasses' own checks
    run. Any failure raises SchemaError.
    """
    try:
        convert = _converter(cls)
        return data if convert is None else convert(data)
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        name = getattr(cls, "__name__", cls)
        raise SchemaError(f"bad {name}: {type(exc).__name__}: {exc}") from exc


@cache
def _field_names(cls) -> tuple[str, ...]:
    """The dataclass's field names; TypeError for any other class."""
    return tuple(f.name for f in fields(cls))


@cache
def _converter(hint):
    """A function turning JSON into ``hint``, or None when the JSON value is already it.

    Compiled once per type, so a load resolves no type hints.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is None:  # a plain class; Python 3.10 also calls ``list[int]`` a type
        if hint is Decimal or isinstance(hint, type) and issubclass(hint, Enum):
            return hint
        return _dataclass_converter(hint) if is_dataclass(hint) else None
    if origin in (Union, UnionType):
        [inner] = [arg for arg in args if arg is not NoneType]
        convert = _converter(inner)
        return None if convert is None else lambda v: None if v is None else convert(v)
    if origin is tuple:  # of one element type, like ``tuple[int, int]``
        convert = _converter(args[0])
        return tuple if convert is None else lambda v: tuple(map(convert, v))
    if origin is list:
        convert = _converter(args[0])
        return None if convert is None else lambda v: list(map(convert, v))
    if origin is dict:
        convert = _converter(args[1])
        return None if convert is None else lambda v: dict(zip(v, map(convert, v.values())))
    raise TypeError(f"cannot load {hint}")


def _dataclass_converter(cls):
    """Compile ``cls(name=data["name"], ...)``, converting the fields whose type needs it.

    With the key count equal to the field count, a missing key means an
    unexpected one, so the generated lookups reject both.
    """
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls) if f.init]
    env = {"cls": cls, "wrong_keys": partial(_wrong_keys, cls, frozenset(names))}
    args = []
    for name in names:
        value = f"data[{name!r}]"
        if (convert := _converter(hints[name])) is not None:
            env[f"convert_{name}"] = convert
            value = f"convert_{name}({value})"
        args.append(f"{name}={value}")
    exec(f"def convert(data):\n"
         f"    if len(data) != {len(names)}:\n"
         f"        wrong_keys(data)\n"
         f"    return cls({', '.join(args)})\n", env)
    return env["convert"]


def _wrong_keys(cls, names: frozenset, data: dict):
    raise ValueError(f"{cls.__name__} keys: missing {sorted(names - data.keys())}, "
                     f"unexpected {sorted(data.keys() - names)}")
