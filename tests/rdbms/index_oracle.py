"""What a live index must equal: a fresh build over the live rows."""

from repro.core.serializer import unpack_ids
from repro.rdbms.storage import HeapTable, IndexExpression, ShapeTarget, TextTarget
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

    A live shape index ``shapes(c)`` must map each group ``g`` some live
    row has -- its ``c`` value's group, here its attr-id run decoded
    directly -- to the sorted rids of the rows in it, and list for each
    member of a group every live group that holds it (a group with no
    rows left may still be listed).

    A live text index must list under each ``(field, term)`` pair
    exactly the live rows whose terms hold it.
    """
    rows = list(table.scan())
    for target, index in table._indexes.items():
        if isinstance(target, TextTarget):
            positions = [table.schema.position_of(column) for column in target.columns]
            postings: dict = {}
            for rid, row in rows:
                for field, term in target.terms(tuple(row[p] for p in positions), target.args):
                    postings.setdefault(field, {}).setdefault(term, set()).add(rid)
            assert index.entries == postings, f"{target} on {table.name} out of step"
            continue
        if isinstance(target, ShapeTarget):
            position = table.schema.position_of(target.column)
            expected_runs: dict = {}
            for rid, row in rows:
                if row[position] is not None:
                    expected_runs.setdefault(unpack_ids(row[position]), []).append(rid)
            assert index.position == position, target
            assert index.entries == expected_runs, f"{target} on {table.name} out of step"
            holding: dict = {}
            for group in expected_runs:
                for member in group:
                    holding.setdefault(member, set()).add(group)
            live = {
                member: {group for group in groups if group in expected_runs}
                for member, groups in index.holding.items()
            }
            live = {member: groups for member, groups in live.items() if groups}
            assert live == holding, f"{target} on {table.name}: members out of step"
            continue
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
