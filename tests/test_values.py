"""Unit tests for monetary parsing, rendering, and comparison, and the file writer."""

from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segforge.values import (
    Money,
    Scale,
    collapse_ws,
    money_sum,
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

    def test_scale_word_follows_the_amount(self):
        assert render_amount(Decimal("150000"), Scale.THOUSANDS) == "150,000 thousands"
        assert render_amount(Decimal("-7"), Scale.MILLIONS) == "(7) millions"

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


# Amounts as a filing states them: up to 2 decimal places, in any scale.
_AMOUNTS = st.builds(Money, st.decimals(-10**9, 10**9, places=2), st.sampled_from(Scale))


class TestMoneySum:
    def test_mixed_scales_sum_at_the_finest(self):
        total = money_sum([Money(Decimal(100), Scale.MILLIONS),
                           Money(Decimal(50000), Scale.THOUSANDS)])
        assert (total.value, total.scale) == (Decimal(150000), Scale.THOUSANDS)

    def test_one_scale_adds_plain_values(self):
        total = money_sum([Money(Decimal("1.5"), Scale.MILLIONS),
                           Money(Decimal("2.50"), Scale.MILLIONS)])
        assert (str(total.value), total.scale) == ("4.00", Scale.MILLIONS)

    def test_no_amounts_sum_to_zero_units(self):
        assert money_sum([]).units == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_AMOUNTS, max_size=6))
    def test_units_are_the_exact_sum_of_units(self, amounts):
        total = money_sum(amounts)
        assert total.units == sum((amount.units for amount in amounts), Decimal(0))
        if amounts:
            assert total.scale == min((a.scale for a in amounts), key=lambda s: s.multiplier)
        if len({amount.scale for amount in amounts}) == 1:
            assert str(total.value) == str(sum((a.value for a in amounts), Decimal(0)))


class TestWriteAtomic:
    @pytest.mark.parametrize("data,expected", [
        ("a\r\nb\n", b"a\r\nb\n"),  # no newline translation
        ("Zürich\n", "Zürich\n".encode("utf-8")),
        (b"\x00\r\n\xff", b"\x00\r\n\xff"),
        ("", b""),
        (["a\r\n", "Zürich", "", "\n"], "a\r\nZürich\n".encode("utf-8")),
        ([], b""),
    ], ids=["crlf_text", "utf8_text", "bytes", "empty", "text_pieces", "no_pieces"])
    def test_writes_exact_bytes(self, tmp_path, data, expected):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        write_atomic(path, data)
        assert path.read_bytes() == expected
        assert list(tmp_path.iterdir()) == [path]

    def test_failing_pieces_keep_the_old_file(self, tmp_path):
        def pieces():
            yield "new\n"
            raise RuntimeError("bad row")

        path = tmp_path / "out"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="bad row"):
            write_atomic(path, pieces())
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]

    def test_makes_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out"
        write_atomic(path, "x\n")
        assert path.read_bytes() == b"x\n"
        assert list(path.parent.iterdir()) == [path]
