"""Monetary and numeric value handling shared by parsing, extraction, and scoring.

Financial-table conventions: thousands separators, a leading ``$``,
parenthesized negatives, and scale words (thousand/million/billion).
Values are kept as :class:`decimal.Decimal` so sums and round-trips are exact.

Also the one JSON codec for every persisted record: ``encode`` writes a
dataclass tree, ``load`` reads it back and checks the type of every
value, and ``read`` loads a JSON file through it; ``write_atomic``, the
one file writer, replaces a file whole.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from collections.abc import Iterable
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

# "thousand" and "thousands", and so on; a bare amount is in units.
_SCALE_WORDS = {word: scale for scale in Scale if scale is not Scale.UNITS
                for word in (scale.value[:-1], scale.value)}

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


def money_sum(amounts: Iterable[Money]) -> Money:
    """The exact sum of ``amounts``, stated at the finest scale among them (units
    for none): each value is restated at that scale, so amounts that share one
    scale add as their plain ``value``s."""
    amounts = list(amounts)
    scale = min((amount.scale for amount in amounts), key=_MULTIPLIERS.get, default=Scale.UNITS)
    return Money(sum((amount.value * (amount.scale.multiplier / scale.multiplier)
                      for amount in amounts), Decimal(0)), scale)


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


def render_amount(value: Decimal, scale: Scale | None = None) -> str:
    """Render a Decimal in fixed point with thousands separators and parenthesized
    negatives, followed by ``scale``'s word when one is given."""
    text = f"{abs(value):,f}"
    text = f"({text})" if value < 0 else text
    return text if scale is None else f"{text} {scale.value}"


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


def write_atomic(path: Path, data: str | bytes | Iterable[str]) -> None:
    """Write ``data`` to a temporary file, then move it over ``path``, making
    ``path``'s parent directory first if it is missing.

    Text is encoded as UTF-8, with no newline translation; an iterable of
    text is written one piece at a time, as it is produced. A reader sees
    the old file or the new one, never part of one. The temporary file is
    removed when the write, the iterable or the move fails. Every file
    segforge writes, except the panel's appends, goes through here.
    """
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        if isinstance(data, (str, bytes)):
            tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        else:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load(cls, data):
    """Build a ``cls`` from JSON that ``encode`` wrote: a dataclass, Decimal, Path,
    Enum, bool, int, str or dict, or a list, dict, tuple or optional of one.

    Every value is checked: an int is exactly an int, not a bool; a Decimal or
    Path is built from a string, a tuple from a list of its length; a dataclass
    needs its fields as keys and no other key, and its own checks run. Plain
    lists and dicts are checked in place. Any failure raises SchemaError.
    """
    try:
        return _converter(cls)(data)
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {_name(cls)}: {type(exc).__name__}: {exc}") from exc


def read(cls, path: str | Path):
    """``load(cls, ...)`` of a JSON file; a bad one raises SchemaError naming ``path``."""
    try:  # an OSError passes through
        return load(cls, json.loads(Path(path).read_text(encoding="utf-8")))
    except (SchemaError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise SchemaError(f"{path}: {exc}") from exc


@cache
def _field_names(cls) -> tuple[str, ...]:
    """The dataclass's field names; TypeError for any other class."""
    return tuple(f.name for f in fields(cls))


def _name(hint) -> str:
    """``hint`` as an annotation writes it: ``int``, ``list[Chunk]``."""
    return hint.__name__ if get_origin(hint) is None else re.sub(r"\w+\.", "", str(hint))


_PLAIN = (bool, int, str, dict)  # JSON values used as they are


def _source(hint, v: str, env: dict) -> tuple[str | None, str]:
    """Source of a test of the JSON value named ``v`` (None when a converter
    tests it) and of the ``hint`` built from it; what they call goes into ``env``."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _PLAIN:
        return f"type({v}) is {hint.__name__}", v
    if hint in (Decimal, Path):
        env[hint.__name__] = hint
        return f"type({v}) is str", f"{hint.__name__}({v})"
    if origin in (Union, UnionType):
        [inner] = [arg for arg in args if arg is not NoneType]
        check, value = _source(inner, v, env)
        return check and f"({v} is None or {check})", f"None if {v} is None else {value}"
    if origin in (list, tuple, dict):  # a tuple has one item type, like ``tuple[int, int]``
        item, items = (args[1], f"{v}.values()") if origin is dict else (args[0], v)
        test = f"type({v}) is {'dict' if origin is dict else 'list'}"
        test += f" and len({v}) == {len(args)}" if origin is tuple else ""
        check, value = _source(item, f"{v}_", env)
        if check is None or value != f"{v}_":  # items built by a converter that tests them
            env[name := f"convert{len(env)}"] = _converter(item)
            built = f"map({name}, {items})"
            return test, f"dict(zip({v}, {built}))" if origin is dict else f"{origin.__name__}({built})"
        test += f" and set(map(type, {items})) <= {{{item.__name__}}}" if item in _PLAIN else \
            f" and all({check} for {v}_ in {items})"
        return test, f"tuple({v})" if origin is tuple else v
    if origin is None and (is_dataclass(hint) or issubclass(hint, Enum)):
        env[name := f"convert{len(env)}"] = _converter(hint) if is_dataclass(hint) else hint
        return None, f"{name}({v})"
    raise TypeError(f"cannot load {hint}")


@cache
def _converter(hint):
    """One function, compiled once per type, turning JSON into ``hint``.

    For a dataclass it is ``cls(name=data["name"], ...)``; with the key count
    equal to the field count, the lookups reject a missing or unexpected key.
    """
    if hint in _PLAIN:  # one test: nothing to compile
        return partial(_exactly, hint)
    record = get_origin(hint) is None and is_dataclass(hint)
    env, lines, parts = {"cls": hint}, [], [("value", hint, "data", "")]
    if record:
        hints, names = get_type_hints(hint), [f.name for f in fields(hint) if f.init]
        env["wrong_keys"] = partial(_wrong_keys, hint, frozenset(names))
        lines.append(f"if type(data) is not dict or len(data) != {len(names)}: wrong_keys(data)")
        parts = [(f"{hint.__name__}.{name}", hints[name], f"data[{name!r}]", f"{name}=")
                 for name in names]
    values = []
    for i, (where, part, source, keyword) in enumerate(parts):
        check, value = _source(part, f"v{i}", env)
        lines.append(f"v{i} = {source}")
        if check:
            lines.append(f"if not ({check}): "
                         f"raise TypeError(f'{where} is {{v{i}!r:.80}}, not {_name(part)}')")
        values.append(keyword + value)
    lines.append(f"return cls({', '.join(values)})" if record else f"return {values[0]}")
    exec("def convert(data):\n" + "".join(f"    {line}\n" for line in lines), env)
    return env["convert"]


def _exactly(cls, value):
    if type(value) is not cls:
        raise TypeError(f"{value!r:.80} is not a {cls.__name__}")
    return value


def _wrong_keys(cls, names: frozenset, data):
    _exactly(dict, data)
    raise ValueError(f"{cls.__name__} keys: missing {sorted(names - data.keys())}, "
                     f"unexpected {sorted(data.keys() - names)}")
