"""What a live column index must equal: a fresh build over the live rows."""

from repro.rdbms.storage import HeapTable
from repro.rdbms.types import NUMERIC_TYPES


def _indexable(value, sql_type) -> bool:
    """The values a literal of the column's type can compare TRUE with."""
    if sql_type in NUMERIC_TYPES:
        return type(value) in (int, float) and value == value
    return type(value) is str


def assert_indexes_exact(table: HeapTable, typed: bool = False) -> None:
    """Every live index of ``table`` is
    ``sorted((row[c], rid) for live rows with an indexable row[c])``.

    ``typed`` tables (Sinew collections) hold only values of the column's
    own type, so there every non-NULL value is indexable.
    """
    rows = list(table.scan())
    for column, index in table._indexes.items():
        position = table.schema.position_of(column)
        sql_type = table.schema.column(column).sql_type
        assert index.position == position, column
        expected = sorted(
            (row[position], rid)
            for rid, row in rows
            if (row[position] is not None if typed else _indexable(row[position], sql_type))
        )
        assert index.entries == expected, f"index on {table.name}.{column} out of step"
