"""``matches()`` read from the text index.

Over seeded queries -- exact, prefix, fuzzy and regex terms, field lists,
conjunctions -- an ``Index Scan ... using text(...)`` returns exactly the
rows of a Seq Scan + Filter of the same ``sinew_matches`` call (the two
built directly as plan nodes over one table), and both equal an oracle
that applies the terms function to every document of ``documents()``.
The collection is searched all virtual and with keys materialized, where
a row's terms come from its physical columns too.
"""

import random

import pytest

from repro.core import SinewDB
from repro.core.text_index import document_terms, parse_query
from repro.rdbms.plan_nodes import Filter, IndexScan, SeqScan, fuse
from repro.rdbms.planner import _search_access
from repro.rdbms.sql.parser import parse
from repro.rdbms.storage import TextTarget
from repro.rdbms.types import SqlType

from ..rdbms.index_oracle import assert_indexes_exact

WORDS = ["apple", "apply", "ample", "pear", "peach", "plum", "lime", "lemon", "melon"]
FIELDS = ["*", "title", "body", "tags", "nested.deep", "title,body", "flag", "nested", "none"]


def _document(rng: random.Random, n: int) -> dict:
    document = {"n": n, "title": " ".join(rng.sample(WORDS, 2))}
    if rng.random() < 0.5:
        document["body"] = " ".join(rng.choices(WORDS, k=3)).upper()
    if rng.random() < 0.4:
        document["tags"] = rng.sample(WORDS, 2)
    if rng.random() < 0.3:
        document["nested"] = {"deep": rng.choice(WORDS)}
    if rng.random() < 0.2:
        document["flag"] = rng.random() < 0.5
    return document


def _term(rng: random.Random) -> str:
    word = rng.choice(WORDS + ["true", "false"])
    kind = rng.randrange(4)
    if kind == 0:
        return word
    if kind == 1:
        return word[: rng.randint(1, 4)] + "*"
    if kind == 2:
        at = rng.randrange(len(word))
        return word[:at] + "q" + word[at + 1 :] + "~"
    return f"/^{word[:2]}/"


def _queries(seed: int = 7, n: int = 60) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [
        (rng.choice(FIELDS), " ".join(_term(rng) for _ in range(1 + (rng.random() < 0.3))))
        for _ in range(n)
    ]


def _load(name: str, layout: str = "virtual") -> SinewDB:
    sdb = SinewDB(name)
    sdb.create_collection("t")
    rng = random.Random(11)
    sdb.load("t", [_document(rng, n) for n in range(300)])
    if layout == "settled":
        sdb.materialize("t", "title", SqlType.TEXT)
        sdb.materialize("t", "tags", SqlType.ARRAY)
        sdb.materialize("t", "nested", SqlType.BYTEA)
        sdb.run_materializer("t")
    return sdb


@pytest.fixture(scope="module", params=["virtual", "settled"])
def collection(request):
    return _load("text_scan", request.param)


def _plans(sdb: SinewDB, keys: str, query: str) -> tuple[IndexScan, Filter]:
    table = sdb.db.table("t")
    statement = parse(f"SELECT * FROM t WHERE matches('{keys}', '{query}')")
    where = sdb._rewriter().rewrite_select(statement).where
    target, probe, _listed = _search_access(where, table, "t", sdb.db.functions)
    return (
        IndexScan(table, "t", target, probe, where, 0.1),
        Filter(SeqScan(table, "t"), where, 0.1),
    )


def _ids(sdb: SinewDB, plan) -> list[int]:
    position = sdb.db.table("t").schema.position_of("_id")
    batches = fuse(plan).batches(sdb.db.execution_context())
    return [row[position] for batch in batches for row in batch]


def _oracle(sdb: SinewDB, keys: str, query: str) -> list[int]:
    text_query = parse_query(keys, query)
    return sorted(
        doc_id
        for doc_id, document in sdb.documents("t")
        if text_query.holds(document_terms(document))
    )


@pytest.mark.parametrize("keys, query", _queries())
def test_index_scan_equals_filtered_seq_scan(collection, keys, query):
    expected = _oracle(collection, keys, query)
    index_scan, seq_scan = _plans(collection, keys, query)
    assert _ids(collection, index_scan) == expected
    assert _ids(collection, seq_scan) == expected


def test_the_index_reads_the_reservoir_and_every_physical_column(collection):
    index_scan, _seq_scan = _plans(collection, "*", "apple")
    assert _ids(collection, index_scan) == _oracle(collection, "*", "apple")
    table = collection.db.table("t")
    (target,) = [t for t in table._indexes if isinstance(t, TextTarget)]
    assert set(target.columns) == set(table.schema.names()) - {"_id"}
    assert_indexes_exact(table, typed=True)


def test_planner_reads_a_selective_search_from_the_index():
    sdb = _load("text_plan")
    sql = "SELECT n FROM t WHERE matches('nested.deep', 'lemon')"
    assert "Index Scan on t using text(data)" in sdb.explain(sql)
    expected = _oracle(sdb, "nested.deep", "lemon")
    assert sorted(n for (n,) in sdb.query(sql).rows) == expected
    builds = sdb.db.counters.index_builds
    assert sorted(n for (n,) in sdb.query(sql).rows) == expected
    other = "SELECT n FROM t WHERE matches('nested.deep', 'pl*')"
    assert "using text(data)" in sdb.explain(other)
    assert sorted(n for (n,) in sdb.query(other).rows) == _oracle(sdb, "nested.deep", "pl*")
    assert sdb.db.counters.index_builds == builds
    # every row holds a title: the scan is cheaper than the index
    assert "Seq Scan on t" in sdb.explain("SELECT n FROM t WHERE matches('*', 'p*')")


def test_recheck_drops_a_row_changed_after_the_probe():
    sdb = _load("text_recheck")
    sdb.execute("UPDATE t SET title = 'needle' WHERE n = 17")
    table = sdb.db.table("t")
    index_scan, _seq_scan = _plans(sdb, "title", "needle")
    rows = (row for batch in fuse(index_scan).batches(sdb.db.execution_context()) for row in batch)
    data = table.schema.position_of("data")
    original_fetch = table.fetch

    def fetch_after_a_writer(rid):
        row = original_fetch(rid)
        moved = sdb.extractor.set_path(row[data], "title", SqlType.TEXT, "moved")
        table.update(rid, row[:data] + (moved,) + row[data + 1 :])
        return original_fetch(rid)

    table.fetch = fetch_after_a_writer
    try:
        assert list(rows) == []
    finally:
        del table.fetch
    assert sdb.query("SELECT n FROM t WHERE matches('title', 'moved')").rows == [(17,)]
    assert_indexes_exact(table, typed=True)
