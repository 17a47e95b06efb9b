"""Expression indexes on virtual keys, differentially.

An ``IndexScan`` over ``extract_key_<type>(data, 'k')`` and a ``SeqScan``
+ ``Filter`` with the same condition, both built as plan nodes over one
Sinew collection, must return the same rows in the same order for every
predicate of the corpus: a key holding ints, strings and booleans side by
side, a key holding ints and reals, ``'5'`` against ``5``, nested keys, a
key the catalog learns only after its index was built.  Shapes the index
cannot answer are left to the scan.  Every live index is compared with a
fresh evaluation of its expression after each step.
"""

import random

import pytest

from repro.core import SinewConfig, SinewDB
from repro.rdbms.expressions import Literal
from repro.rdbms.plan_nodes import Filter, IndexScan, SeqScan, fuse
from repro.rdbms.planner import _index_condition
from repro.rdbms.sql.parser import parse
from repro.rdbms.storage import IndexExpression
from repro.rdbms.types import SqlType

from ..rdbms.index_oracle import assert_indexes_exact

#: conditions an expression index answers
SARGABLE = [
    "extract_key_num(data, 'dyn1') = 7",
    "extract_key_num(data, 'dyn1') = 7.0",
    "7 = extract_key_num(data, 'dyn1')",
    "extract_key_num(data, 'dyn1') BETWEEN 10 AND 20",
    "extract_key_num(data, 'dyn1') BETWEEN 20 AND 10",
    "extract_key_num(data, 'dyn1') < 5",
    "30 <= extract_key_num(data, 'dyn1')",
    "extract_key_num(data, 'dyn1') > -1",
    "extract_key_num(data, 'dyn1') IN (1, 2, 3, 99)",
    "extract_key_num(t.data, 'dyn1') >= 50",
    "extract_key_text(data, 'dyn1') = '5'",
    "extract_key_text(data, 'dyn1') >= 'b'",
    "extract_key_text(data, 'dyn1') IN ('a', 'x5', '')",
    "extract_key_num(data, 'mix') = 3",
    "extract_key_num(data, 'mix') = 3.5",
    "extract_key_num(data, 'mix') BETWEEN 2 AND 4",
    "extract_key_int(data, 'mix') > 4",
    "extract_key_real(data, 'mix') <= 2.5",
    "extract_key_text(data, 'nested_obj.str') = 'b'",
    "extract_key_num(data, 'nested_obj.num') BETWEEN 3 AND 6",
    "extract_key_num(data, 'never') = 3",
]

#: conditions that must be left to the scan
NOT_SARGABLE = [
    "extract_key_num(data, 'dyn1') = '5'",  # text literal, numeric index
    "extract_key_text(data, 'dyn1') = 5",
    "extract_key_num(data, 'dyn1') = NULL",
    "extract_key_num(data, 'dyn1') BETWEEN NULL AND 5",
    "extract_key_num(data, 'dyn1') NOT BETWEEN 1 AND 5",
    "extract_key_num(data, 'dyn1') NOT IN (1, 2)",
    "extract_key_num(data, 'dyn1') <> 5",
    "extract_key_bool(data, 'dyn1') = true",  # no ordered type
    "extract_key_num(data, 'dyn1') + 0 = 5",
    "extract_key_num(data, 'dyn1') = extract_key_num(data, 'mix')",
    "COALESCE(extract_key_num(data, 'dyn1'), 0) = 5",
    "extract_key_text(data, 'dyn1') LIKE '5%'",
    "extract_key_num(data, 'dyn1') = 1 OR extract_key_num(data, 'dyn1') = 2",
    "sinew_to_json(data) = '{}'",  # no specializer hook
    "sinew_exists(data, 'dyn1')",
]


def document(rng: random.Random, i: int) -> dict:
    doc = {"n": i}
    kind = rng.randrange(4)
    if kind == 0:
        doc["dyn1"] = rng.randrange(-2, 60)
    elif kind == 1:
        doc["dyn1"] = rng.choice(["5", "a", "b", "x5", ""])
    elif kind == 2:
        doc["dyn1"] = rng.choice([True, False])
    if rng.random() < 0.8:
        doc["mix"] = rng.choice([rng.randrange(8), rng.randrange(8) + 0.5])
    if rng.random() < 0.5:
        doc["nested_obj"] = {"str": rng.choice("abc"), "num": rng.randrange(9)}
    return doc


def new_collection(name: str) -> tuple[SinewDB, random.Random]:
    rng = random.Random(22)
    sdb = SinewDB(name, SinewConfig())
    sdb.create_collection("t")
    sdb.load("t", [document(rng, i) for i in range(600)])
    return sdb, rng


@pytest.fixture(scope="module")
def collection() -> SinewDB:
    sdb, _rng = new_collection("exprix")
    yield sdb
    sdb.close()


def where_of(text: str):
    return parse(f"SELECT * FROM t WHERE {text}").where


def both_ways(sdb: SinewDB, where) -> tuple[list, list]:
    """The rows of an IndexScan and of a filtered SeqScan for ``where``."""
    table = sdb.db.table("t")
    target, ranges = _index_condition(where, table, "t", sdb.db.functions)
    assert isinstance(target, IndexExpression)
    context = sdb.db.execution_context
    by_index = fuse(IndexScan(table, "t", target, ranges, where, 0.1)).batches(context())
    by_scan = fuse(Filter(SeqScan(table, "t"), where, 0.1)).batches(context())
    return [row for batch in by_index for row in batch], [row for batch in by_scan for row in batch]


@pytest.mark.parametrize("text", SARGABLE)
def test_expression_index_scan_equals_filtered_seq_scan(collection, text):
    by_index, by_scan = both_ways(collection, where_of(text))
    assert by_index == by_scan, text
    assert_indexes_exact(collection.db.table("t"), typed=True)


@pytest.mark.parametrize("text", NOT_SARGABLE)
def test_left_to_the_scan(collection, text):
    table = collection.db.table("t")
    where = where_of(text)
    assert _index_condition(where, table, "t", collection.db.functions) is None, text
    assert "Index Scan" not in collection.db.explain(f"SELECT * FROM t WHERE {text}")


def test_nan_literal_is_left_to_the_scan(collection):
    where = where_of("extract_key_num(data, 'mix') = 1")
    where = type(where)(where.op, where.left, Literal(float("nan")))
    table = collection.db.table("t")
    assert _index_condition(where, table, "t", collection.db.functions) is None


def test_mixed_types_are_split_by_the_extraction():
    """One key, three value types: the numeric index holds the ints only,
    the text index the strings only, and the booleans neither."""
    sdb, _rng = new_collection("exprix_types")
    table = sdb.db.table("t")
    for text in ("extract_key_num(data, 'dyn1') > -100", "extract_key_text(data, 'dyn1') >= ''"):
        both_ways(sdb, where_of(text))
    extract = sdb.extractor.extract_any
    values = [extract(row[1], "dyn1") for _rid, row in table.scan()]
    kinds = {
        target.function.name: {type(key) for key, _rid in index.entries}
        for target, index in table._indexes.items()
    }
    assert kinds == {"extract_key_num": {int}, "extract_key_text": {str}}
    listed = sum(len(index.entries) for index in table._indexes.values())
    assert listed == sum(value not in (None, "true", "false") for value in values)
    sdb.close()


def test_index_follows_later_loads_and_materializer_moves():
    """Indexes built before a key exists, or over a key the materializer
    then moves out of the reservoir and back, stay equal to a fresh
    evaluation of their expression -- and to the scan -- at every step."""
    sdb, rng = new_collection("exprix_moves")
    table = sdb.db.table("t")
    probes = [
        "extract_key_num(data, 'late') BETWEEN 0 AND 5",
        "extract_key_text(data, 'late_text') = 'y'",
        "extract_key_num(data, 'mix') BETWEEN 2 AND 4",
        "extract_key_num(data, 'nested_obj.num') = 4",
    ]

    def check() -> None:
        for text in probes:
            by_index, by_scan = both_ways(sdb, where_of(text))
            assert by_index == by_scan, text
        assert_indexes_exact(table, typed=True)

    check()  # builds all four; 'late' and 'late_text' are unknown keys
    assert len(table._indexes) == 4
    assert all(not table._indexes[target].entries for target in list(table._indexes)[:2])
    late = [{**document(rng, i), "late": i % 9, "late_text": "xy"[i % 2]} for i in range(40)]
    sdb.load("t", late)
    check()
    assert table._indexes[next(iter(table._indexes))].entries  # the new key arrived
    sdb.materialize("t", "mix", SqlType.REAL)  # ADD COLUMN: the indexes go
    assert not table._indexes
    check()
    sdb.materializer_step("t", 150)  # dirty: moves rewrite `data`
    check()
    sdb.run_materializer("t")
    check()
    sdb.dematerialize("t", "mix", SqlType.REAL)
    sdb.materializer_step("t", 200)
    check()
    sdb.run_materializer("t")
    check()
    sdb.execute("UPDATE t SET late = 4 WHERE n < 20")
    sdb.execute("DELETE FROM t WHERE n BETWEEN 100 AND 140")
    check()
    sdb.close()
