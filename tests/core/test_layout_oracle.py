"""Exhaustive small-domain layout oracle (paper sections 3.1.2 and 3.1.4).

A query's answer must not depend on where each value of a key is stored:
in the column reservoir, in a physical column, or on either side of a
materializer move.  This oracle crosses three axes over a six-row
collection whose key ``k`` holds one or two types:

* type mixes: each scalar type, each pair of scalar types, each scalar
  type paired with an array or an object, and all four scalar types;
* layouts: all-virtual; each observed type materialized and left dirty
  at every cursor, then settled, then dematerialized and left mid-move
  near either end; each set of several types settled at once, and left
  dirty mid-move while it is not every type;
* statements: one per context -- a typed comparison per type,
  arithmetic, ``||``/LIKE, IS [NOT] NULL, IN/BETWEEN, ORDER BY,
  GROUP BY, MIN/MAX/count, a bare projection, ``SELECT *``, and UPDATE
  then read.

The reference is the all-virtual answer.  Values compare by ``repr`` so
that ``True``, ``1`` and ``1.0`` stay apart; an error compares by its
class name.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core import SinewDB
from repro.rdbms.errors import DatabaseError
from repro.rdbms.sql.parser import parse
from repro.rdbms.types import SqlType

SCALARS = (SqlType.INTEGER, SqlType.REAL, SqlType.TEXT, SqlType.BOOLEAN)
MIXES = (
    [(t,) for t in SCALARS]
    + list(combinations(SCALARS, 2))
    + [(t, c) for t in SCALARS for c in (SqlType.ARRAY, SqlType.BYTEA)]
    + [SCALARS]
)
#: rows a = 0..4 hold ``k``; row 5 does not
ROWS = 6

READS = (
    # typed comparison, one per type
    "SELECT a FROM t WHERE k = 1 ORDER BY a",
    "SELECT a FROM t WHERE k = 1.5 ORDER BY a",
    "SELECT a FROM t WHERE k > 1 ORDER BY a",
    "SELECT a FROM t WHERE k = '1' ORDER BY a",
    "SELECT a FROM t WHERE k >= '2' ORDER BY a",
    "SELECT a FROM t WHERE k = true ORDER BY a",
    "SELECT a FROM t WHERE 1 = ANY(k) ORDER BY a",
    'SELECT a FROM t WHERE "k.x" = 1 ORDER BY a',
    # arithmetic
    "SELECT a, k + 1 FROM t ORDER BY a",
    # || and LIKE
    "SELECT count(*) FROM t WHERE k || 'y' = '1y'",
    "SELECT a FROM t WHERE k LIKE '1%' ORDER BY a",
    # IS [NOT] NULL
    "SELECT a FROM t WHERE k IS NULL ORDER BY a",
    "SELECT a FROM t WHERE k IS NOT NULL ORDER BY a",
    # IN / BETWEEN
    "SELECT a FROM t WHERE k IN (1, 3) ORDER BY a",
    "SELECT a FROM t WHERE k IN (4, 1.5) ORDER BY a",
    "SELECT a FROM t WHERE k IN ('1', '3') ORDER BY a",
    "SELECT a FROM t WHERE k BETWEEN 1 AND 3 ORDER BY a",
    # ORDER BY, GROUP BY, aggregates, bare projection
    "SELECT a FROM t ORDER BY k, a",
    "SELECT k, count(*) FROM t GROUP BY k",
    "SELECT min(k), max(k), count(k) FROM t",
    "SELECT a, k FROM t ORDER BY a",
    "SELECT * FROM t ORDER BY a",
)
UPDATES = (
    "UPDATE t SET k = 7 WHERE a = 1",
    "UPDATE t SET k = 'z' WHERE a = 2",
    "UPDATE t SET k = 9 WHERE k = 3",
)
READS_AFTER_UPDATE = (
    "SELECT a, k FROM t ORDER BY a",
    "SELECT a FROM t WHERE k = 7 OR k = 9 ORDER BY a",
    "SELECT a FROM t WHERE k = 'z' ORDER BY a",
    "SELECT * FROM t ORDER BY a",
)


#: each statement parsed once; every layout runs the same parsed form
PARSED = {sql: parse(sql) for sql in READS + UPDATES + READS_AFTER_UPDATE}


def value(key_type: SqlType, a: int):
    return {
        SqlType.INTEGER: a,
        SqlType.REAL: a + 0.5,
        SqlType.TEXT: str(a),
        SqlType.BOOLEAN: a % 2 == 1,
        SqlType.ARRAY: [a, "x"],
        SqlType.BYTEA: {"x": a},
    }[key_type]


def documents(mix: tuple[SqlType, ...]) -> list[dict]:
    docs = [{"a": a, "k": value(mix[a % len(mix)], a)} for a in range(ROWS - 1)]
    return docs + [{"a": ROWS - 1}]


def layouts(mix: tuple[SqlType, ...]) -> list[tuple[str, list[tuple]]]:
    """``(name, steps)`` of every non-virtual layout of a mix."""
    out = []
    for key_type in mix:
        pin = [("materialize", key_type)]
        settle = pin + [("run", None)]
        for cursor in range(ROWS):
            out.append((f"{key_type.value} dirty @{cursor}", pin + [("step", cursor)]))
        out.append((f"{key_type.value} settled", settle))
        for cursor in (1, ROWS - 2):
            steps = settle + [("dematerialize", key_type), ("step", cursor)]
            out.append((f"{key_type.value} dematerializing @{cursor}", steps))
    for size in range(2, len(mix) + 1):
        for types in combinations(mix, size):
            pins = [("materialize", t) for t in types]
            name = "+".join(t.value for t in types)
            if size < len(mix):
                # a multi-typed key whose types move one after another
                out += [(f"{name} dirty @{c}", pins + [("step", c)]) for c in (1, 3)]
            out.append((f"{name} settled", pins + [("run", None)]))
    return out


def answer(sdb: SinewDB, sql: str):
    try:
        rows = [tuple(repr(v) for v in row) for row in sdb.execute_statement(PARSED[sql]).rows]
    except DatabaseError as exc:
        return type(exc).__name__
    return sorted(rows) if "GROUP BY" in sql else rows


def answers(mix: tuple[SqlType, ...], steps: list[tuple]) -> dict[str, object]:
    sdb = SinewDB("oracle")
    sdb.create_collection("t")
    sdb.load("t", documents(mix))
    for op, arg in steps:
        if op == "materialize":
            sdb.materialize("t", "k", arg)
        elif op == "dematerialize":
            sdb.dematerialize("t", "k", arg)
        elif op == "step":
            if arg:
                sdb.materializer_step("t", max_rows=arg)
        else:
            sdb.run_materializer("t")
    out = {sql: answer(sdb, sql) for sql in READS}
    for sql in UPDATES:
        try:
            sdb.execute_statement(PARSED[sql])
        except DatabaseError as exc:
            out[sql] = type(exc).__name__
    out.update({f"after UPDATE: {sql}": answer(sdb, sql) for sql in READS_AFTER_UPDATE})
    sdb.close()
    return out


@pytest.mark.parametrize("mix", MIXES, ids=lambda mix: "+".join(t.value for t in mix))
def test_every_layout_answers_as_the_virtual_one(mix):
    reference = answers(mix, [])
    differences = [
        (name, sql, reference[sql], actual)
        for name, steps in layouts(mix)
        for sql, actual in answers(mix, steps).items()
        if actual != reference[sql]
    ]
    assert differences == []


def test_the_reference_reads_each_type_as_its_context_asks():
    """Spot-check the virtual answers the oracle compares against."""
    # rows 0, 2, 4 hold the integers 0, 2, 4; rows 1, 3 the texts '1', '3'
    mixed = answers((SqlType.INTEGER, SqlType.TEXT), [])
    assert mixed["SELECT a FROM t WHERE k = 1 ORDER BY a"] == []
    assert mixed["SELECT a FROM t WHERE k > 1 ORDER BY a"] == [("2",), ("4",)]
    assert mixed["SELECT a FROM t WHERE k = '1' ORDER BY a"] == [("1",)]
    assert mixed["SELECT count(*) FROM t WHERE k || 'y' = '1y'"] == [("1",)]
    assert mixed["SELECT a, k FROM t ORDER BY a"][:2] == [("0", "'0'"), ("1", "'1'")]
    flags = answers((SqlType.BOOLEAN,), [])
    assert flags["SELECT a, k + 1 FROM t ORDER BY a"] == [(repr(a), "None") for a in range(ROWS)]
    assert flags["SELECT a FROM t WHERE k = true ORDER BY a"] == [("1",), ("3",)]
