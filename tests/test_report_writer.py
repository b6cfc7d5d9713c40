"""The table writer against a plain reference: the same text for every cell type.

The reference renders cells with isinstance checks, rounds shares with
`decimal`, and encodes each JSON line with its own json.dumps call.
"""

import csv
import decimal
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oametrics import cli
from oametrics.cli import format_pct
from oametrics.models import Table


def _reference_format_pct(value):
    """The percent to one decimal, a tie rounded toward +infinity, from `decimal`'s own text."""
    if value is None:
        return ""
    n, d = Fraction(value).as_integer_ratio()
    with decimal.localcontext() as ctx:
        # Enough digits that a quotient off a tie by 1/(20d) or more does not round onto it.
        ctx.prec = len(str(abs(n))) + len(str(d)) + 10
        pct = decimal.Decimal(100 * n) / d
        rounding = decimal.ROUND_HALF_UP if pct >= 0 else decimal.ROUND_HALF_DOWN
        pct = pct.quantize(decimal.Decimal("0.1"), rounding=rounding)
    return str(abs(pct) if pct == 0 else pct)


def _reference_csv_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return _reference_format_pct(value)
    return str(value)


def _reference_jsonl_value(value):
    if isinstance(value, Fraction):
        return float(_reference_format_pct(value))
    return value


def _reference_write_table(fh, table, report_format):
    if report_format == "csv":
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_reference_csv_value(v) for v in row])
    else:
        for row in table.rows:
            record = {col: _reference_jsonl_value(v) for col, v in zip(table.columns, row)}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


#: Shares whose percent lies exactly halfway between two tenths.
_TIES = [Fraction(1, 800), Fraction(1, 2000), Fraction(3, 2000), Fraction(-1, 2000), Fraction(999, 1000)]

_SHARES = st.one_of(st.sampled_from(_TIES), st.fractions(), st.fractions(min_value=0, max_value=1))

_TEXT = st.one_of(st.text(), st.text(st.sampled_from('a,;"\'\n\r\t\x00\x1f\x7f é€😀 ')))

_CELLS = st.one_of(_TEXT, st.none(), st.booleans(), st.integers(), st.floats(), _SHARES)


@st.composite
def _tables(draw):
    columns = tuple(draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True)))
    rows = draw(st.lists(st.tuples(*[_CELLS] * len(columns)), max_size=6))
    return Table("t", columns, tuple(rows))


def _written(write, table, report_format) -> bytes:
    buffer = io.StringIO(newline="")
    write(buffer, table, report_format)
    return buffer.getvalue().encode("utf-8")


@given(_tables())
@example(Table("t", ("share", "flag", "n", "name"), ((Fraction(1, 800), True, 3, 'a "b",\nc'),)))
@example(Table("t", ("share", "none", "yes", "no", "text"), ((Fraction(2, 3), None, True, False, "Üni 日本 😀"),)))
@example(Table("t", ("share", "n"), ((Fraction(1, 2000), 1), (None, 0), (Fraction(-1, 2000), 2))))  # shares and None
def test_write_table_matches_reference(table):
    for report_format in ("csv", "jsonl"):
        assert _written(cli._write_table, table, report_format) == _written(
            _reference_write_table, table, report_format
        ), report_format


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j])
def test_a_cell_json_has_no_form_for_raises_type_error(value):
    table = Table("t", ("share", "value"), ((Fraction(1, 2), value),))
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _written(cli._write_table, table, "jsonl")


@given(st.one_of(_SHARES, st.integers(), st.booleans()))
@example(Fraction(-7, 1000))
@example(Fraction(-49, 1000))
@example(Fraction(-1, 2000))
def test_format_pct_matches_reference(value):
    assert format_pct(value) == _reference_format_pct(value)


def test_columns_whose_types_change_between_batches_match_reference():
    """Each batch renders a column by the types it holds there; the text is that of the reference."""
    size = cli._WRITE_BATCH
    columns = ("100%", "{name}", 'say "hi"', "line\nbreak", "Üni 日本 😀", "%s")

    def row(k):
        batch = k // size  # 0, 1, 2, 3: the types of most columns change with it
        return (
            f"t{k}" if batch % 2 == 0 else None,
            Fraction(k, 7) if batch == 0 else None,
            k if batch < 2 else k % 2 == 0,
            f"t{k}" if k % 3 else None,  # text and nulls in every batch
            [k, "x"] if batch == 3 else 0.5 * k,
            Fraction(1, 800) if batch == 1 else f"é{k}",
        )

    table = Table("t", columns, tuple(map(row, range(3 * size + size // 2))))
    for report_format in ("csv", "jsonl"):
        assert _written(cli._write_table, table, report_format) == _written(
            _reference_write_table, table, report_format
        ), report_format


def test_a_table_without_columns_matches_reference():
    for rows in ((), ((),) * 3, ((),) * (2 * cli._WRITE_BATCH + 1)):
        table = Table("t", (), rows)
        for report_format in ("csv", "jsonl"):
            assert _written(cli._write_table, table, report_format) == _written(
                _reference_write_table, table, report_format
            ), report_format
