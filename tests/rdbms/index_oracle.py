"""What a live index must equal: a fresh build over the live rows."""

from repro.rdbms.storage import HeapTable, IndexExpression
from repro.rdbms.types import NUMERIC_TYPES


def _indexable(value, sql_type) -> bool:
    """The values a literal of the column's type can compare TRUE with."""
    if sql_type in NUMERIC_TYPES:
        return type(value) in (int, float) and value == value
    return type(value) is str


def assert_indexes_exact(table: HeapTable, typed: bool = False) -> None:
    """Every live column index of ``table`` is
    ``sorted((row[c], rid) for live rows with an indexable row[c])``, and
    every live expression index ``f(c, *args)`` is
    ``sorted((f(row[c], *args), rid) for live rows where that is not NULL)``
    -- ``f`` called directly, not through the batch kernel the index uses.

    ``typed`` tables (Sinew collections) hold only values of the column's
    own type, so there every non-NULL value is indexable.
    """
    rows = list(table.scan())
    for target, index in table._indexes.items():
        if isinstance(target, IndexExpression):
            position = table.schema.position_of(target.column)
            function = target.function
            keys = [(function.fn(row[position], *target.args), rid) for rid, row in rows]
            expected = sorted((key, rid) for key, rid in keys if key is not None)
        else:
            position = table.schema.position_of(target)
            sql_type = table.schema.column(target).sql_type
            expected = sorted(
                (row[position], rid)
                for rid, row in rows
                if (row[position] is not None if typed else _indexable(row[position], sql_type))
            )
        assert index.position == position, target
        assert index.entries == expected, f"index on {table.name}.{target} out of step"
