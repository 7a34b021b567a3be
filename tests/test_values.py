"""Unit tests for monetary parsing, rendering, and comparison, and the file writer."""

from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segforge.values import (
    Money,
    Scale,
    collapse_ws,
    normalized_value_equal,
    parse_monetary,
    parse_table_cell,
    percent_of,
    render_amount,
    write_atomic,
)


class TestParseMonetary:
    def test_appendix_style_amount(self):
        money = parse_monetary("$391,035 million")
        assert money.value == Decimal("391035")
        assert money.scale is Scale.MILLIONS
        assert money.scale_explicit
        assert money.units == Decimal("391035000000")

    def test_plain_number_has_no_explicit_scale(self):
        money = parse_monetary("1,234")
        assert money.value == Decimal("1234")
        assert money.scale is Scale.UNITS
        assert not money.scale_explicit

    def test_parenthesized_negative(self):
        assert parse_monetary("(1,234)").value == Decimal("-1234")
        assert parse_monetary("($27 million)").value == Decimal("-27")

    def test_scale_words(self):
        assert parse_monetary("2 thousand").scale is Scale.THOUSANDS
        assert parse_monetary("$3.5 billion").scale is Scale.BILLIONS
        assert parse_monetary("7 Millions").scale is Scale.MILLIONS

    def test_decimal_amounts_are_exact(self):
        assert parse_monetary("$3.5 billion").units == Decimal("3500000000")

    @pytest.mark.parametrize("bad", [
        "", "Not provided", "approximately $5 million", "12 bananas",
        "(12", "12)", "1,23,4", "--5",
    ])
    def test_rejects_non_monetary(self, bad):
        with pytest.raises(ValueError):
            parse_monetary(bad)


class TestParseTableCell:
    def test_plain_and_dollar(self):
        assert parse_table_cell("1,652") == Decimal("1652")
        assert parse_table_cell("$ 12") == Decimal("12")

    def test_paren_negative(self):
        assert parse_table_cell("(34)") == Decimal("-34")

    @pytest.mark.parametrize("cell", ["", "—", "n/a", "12%", "(1", "Total"])
    def test_non_numeric_returns_none(self, cell):
        assert parse_table_cell(cell) is None


class TestRenderAmount:
    def test_thousands_separators(self):
        assert render_amount(Decimal("34551")) == "34,551"

    def test_negative_parenthesized(self):
        assert render_amount(Decimal("-1234")) == "(1,234)"

    def test_roundtrip_with_parser(self):
        for value in (Decimal("0"), Decimal("7"), Decimal("391035"), Decimal("-12")):
            assert parse_monetary(render_amount(value)).value == value

    def test_fixed_point_never_exponent(self):
        assert render_amount(Decimal("1E+3")) == "1,000"
        assert render_amount(Decimal("1E-7")) == "0.0000001"
        assert render_amount(Decimal("-1E+1")) == "(10)"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-6, 12).flatmap(lambda places: st.builds(
        lambda n: Decimal(n).scaleb(-places),
        st.integers(-10**(15 + places), 10**(15 + places)))))
    @example(Decimal("1E+3"))
    @example(Decimal("1E-7"))
    @example(Decimal("-5E-12"))
    def test_roundtrip_property(self, value):
        """Up to 12 decimal places, or a positive exponent, in +-10**15."""
        text = render_amount(value)
        assert parse_table_cell(text) == value
        assert parse_monetary(text).value == value


class TestNormalizedEqual:
    def test_monetary_equality_across_formats(self):
        assert normalized_value_equal("$391,035 million", "391,035 million")
        assert normalized_value_equal("3,500 million", "$3.5 billion")

    def test_monetary_inequality(self):
        assert not normalized_value_equal("$391,035 million", "$391,036 million")

    def test_string_fallback_casefold(self):
        assert normalized_value_equal("Apple   Inc.", "apple inc.")
        assert not normalized_value_equal("AAPL", "MSFT")


class TestPercentOf:
    def test_table4_cell(self):
        # INTC 2012: 34,551 / 53,341 -> 64.8 (one decimal, half-up)
        assert percent_of(Decimal(34551), Decimal(53341)) == Decimal("64.8")

    def test_half_up_rounding(self):
        assert percent_of(Decimal("645"), Decimal("1000")) == Decimal("64.5")
        assert percent_of(Decimal("6455"), Decimal("10000")) == Decimal("64.6")


def test_collapse_ws():
    assert collapse_ws("  a \n b\t c ") == "a b c"


def test_money_units_multiplier():
    assert Money(Decimal("2"), Scale.THOUSANDS).units == Decimal("2000")
    assert Money(Decimal("2"), Scale.BILLIONS).units == Decimal("2000000000")


class TestWriteAtomic:
    @pytest.mark.parametrize("data,expected", [
        ("a\r\nb\n", b"a\r\nb\n"),  # no newline translation
        ("Zürich\n", "Zürich\n".encode("utf-8")),
        (b"\x00\r\n\xff", b"\x00\r\n\xff"),
        ("", b""),
    ], ids=["crlf_text", "utf8_text", "bytes", "empty"])
    def test_writes_exact_bytes(self, tmp_path, data, expected):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        write_atomic(path, data)
        assert path.read_bytes() == expected
        assert list(tmp_path.iterdir()) == [path]
