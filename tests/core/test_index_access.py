"""Indexes under the Sinew layer: which logical columns can use one, and
that materializer moves, transactions and crash recovery keep every live
index exact -- column indexes on physical keys, expression indexes
(``extract_key_<type>(data, 'k')``) on virtual ones and the shape index on
the reservoir alike.

The model below drives one durable instance through loads, updates,
deletes, rollbacks, (de)materialization, plain-table DDL and crash-reopen;
after every step each live index must equal a fresh build -- an
expression index ``sorted((f(data), rid))`` over the live rows where that
is not NULL, a shape index each attr-id run's rids -- and every lookup
must return what the documents say,
whether its key is virtual, dirty or physical at that moment; while a
key is dirty, the union probe of its COALESCE bridge must return what a
scan with the same filter does.  A seeded
walk runs in tier 1, a hypothesis state machine over the same steps in
the slow lane.
"""

import random

import pytest

from repro.core import SinewConfig, SinewDB
from repro.nobench.generator import NoBenchGenerator
from repro.rdbms.plan_nodes import Filter, IndexScan, SeqScan, fuse
from repro.rdbms.planner import _index_condition, _shape_access
from repro.rdbms.sql.parser import parse
from repro.rdbms.expressions import Coalesce
from repro.rdbms.storage import IndexExpression, UnionTarget
from repro.rdbms.types import SqlType

from ..rdbms.index_oracle import assert_indexes_exact

KEYS = {"num": SqlType.INTEGER, "tag": SqlType.TEXT, "score": SqlType.REAL}


def config() -> SinewConfig:
    return SinewConfig()


def document(i: int) -> dict:
    doc = {"num": i, "tag": f"t{i % 40}", "note": f"n{i}"}
    if i % 3:
        doc["score"] = (i % 17) / 2
    return doc


class TestEligibility:
    def build(self) -> SinewDB:
        sdb = SinewDB("elig", config())
        sdb.create_collection("t")
        sdb.load("t", [document(i) for i in range(1500)])
        sdb.materialize("t", "num", SqlType.INTEGER)
        sdb.run_materializer("t")
        return sdb

    def test_clean_physical_column_probes(self):
        sdb = self.build()
        assert "Index Scan on t using num" in sdb.explain("SELECT * FROM t WHERE num = 7")
        assert sdb.query("SELECT note FROM t WHERE num = 7").rows == [("n7",)]

    def test_virtual_column_scans(self):
        """On wide rows the scan wins: an unbuilt expression index is
        costed at the 200-row default, more page fetches than the scan
        reads, so no index is built."""
        sdb = SinewDB("wide", config())
        sdb.create_collection("t")
        sdb.load("t", [{**document(i), "pad": "x" * 400} for i in range(1500)])
        sql = "SELECT note FROM t WHERE tag = 't7'"
        assert "Index Scan" not in sdb.explain(sql)
        assert len(sdb.query(sql).rows) == len(range(7, 1500, 40))
        assert not sdb.db.table("t")._indexes

    def test_virtual_column_probes_an_expression_index(self):
        sdb = self.build()  # narrow rows: the same 200-row default wins
        sql = "SELECT note FROM t WHERE tag = 't7'"
        plan = sdb.explain(sql)
        assert "Index Scan on t using extract_key_text(data, 'tag')" in plan
        assert "Index Cond: (extract_key_text(t.data, 'tag') = 't7')" in plan
        expected = sorted((f"n{i}",) for i in range(7, 1500, 40))
        before = sdb.db.counters.snapshot()
        assert sorted(sdb.query(sql).rows) == expected
        assert sorted(sdb.query(sql).rows) == expected
        delta = sdb.db.counters.diff(before)
        assert delta["index_builds"] == 1 and delta["index_probes"] == 2
        # one scan to build, then the listed rows only
        assert delta["tuples_scanned"] == 1500 + 2 * len(expected)
        assert_indexes_exact(sdb.db.table("t"), typed=True)

    def test_dirty_column_probes_the_union_of_its_two_indexes(self):
        """While ``num`` is dirty its COALESCE bridge is read from the
        column index on ``num`` and the expression index on the
        reservoir's ``num`` together; once clean, from the first alone."""
        sdb = self.build()
        sdb.load("t", [document(5000)])  # num is dirty again
        sql = "SELECT note FROM t WHERE num = 5000"
        plan = sdb.explain(sql)
        assert "Index Scan on t using num | extract_key_num(data, 'num')" in plan
        assert "Index Cond: (COALESCE(t.num, extract_key_num(t.data, 'num')) = 5000)" in plan
        before = sdb.db.counters.snapshot()
        assert sdb.query(sql).rows == [("n5000",)]
        delta = sdb.db.counters.diff(before)
        # one scan per member to build, then the one row listed
        assert delta["index_builds"] == 2 and delta["index_probes"] == 1
        assert delta["tuples_scanned"] == 2 * 1501 + 1
        before = sdb.db.counters.snapshot()
        assert sdb.query("SELECT note FROM t WHERE num BETWEEN 4999 AND 5001").rows == [("n5000",)]
        assert sdb.execute("UPDATE t SET note = 'x' WHERE num = 5000").rowcount == 1
        delta = sdb.db.counters.diff(before)
        assert delta["index_builds"] == 0 and delta["index_probes"] == 2
        # the listed row once per probe, and once more for the UPDATE's write
        assert delta["tuples_scanned"] == 3
        assert_indexes_exact(sdb.db.table("t"), typed=True)
        sdb.run_materializer("t")  # the move re-keys the row in both indexes
        assert_indexes_exact(sdb.db.table("t"), typed=True)
        plan = sdb.explain(sql)
        assert "Index Scan on t using num  " in plan and "COALESCE" not in plan
        before = sdb.db.counters.snapshot()
        assert sdb.query(sql).rows == [("x",)]
        delta = sdb.db.counters.diff(before)
        assert delta["index_builds"] == 0 and delta["index_probes"] == 1

    def test_update_on_a_clean_column_stops_scanning(self):
        sdb = self.build()
        sdb.query("SELECT note FROM t WHERE num = 1")  # the index exists
        before = sdb.db.counters.snapshot()
        assert sdb.execute("UPDATE t SET note = 'x' WHERE num = 9").rowcount == 1
        assert sdb.execute("DELETE FROM t WHERE num IN (10, 11)").rowcount == 2
        delta = sdb.db.counters.diff(before)
        assert delta["index_probes"] == 2
        assert delta["tuples_scanned"] < 10
        assert sdb.query("SELECT note FROM t WHERE num = 9").rows == [("x",)]
        assert sdb.query("SELECT count(*) FROM t").scalar() == 1498
        assert_indexes_exact(sdb.db.table("t"), typed=True)

    def test_update_and_delete_on_a_virtual_key_probe_its_expression_index(self):
        sdb = self.build()
        sdb.query("SELECT note FROM t WHERE tag = 't1'")  # the index exists
        before = sdb.db.counters.snapshot()
        assert sdb.execute("UPDATE t SET note = 'x' WHERE tag = 't7'").rowcount == 38
        assert sdb.execute("DELETE FROM t WHERE tag IN ('t8', 't9')").rowcount == 76
        delta = sdb.db.counters.diff(before)
        assert delta["index_probes"] == 2 and delta["index_builds"] == 0
        assert delta["tuples_scanned"] < 500
        assert sdb.query("SELECT count(*) FROM t WHERE note = 'x'").scalar() == 38
        assert sdb.query("SELECT count(*) FROM t WHERE tag = 't8'").scalar() == 0
        assert_indexes_exact(sdb.db.table("t"), typed=True)

    def test_counters_are_on_the_status_surface(self):
        sdb = self.build()
        sdb.query("SELECT note FROM t WHERE num = 1")
        counters = sdb.status()["counters"]
        assert counters["index_builds"] == 1 and counters["index_probes"] == 1


def presence_document(i: int) -> dict:
    """About NoBench's row width; ``rare`` on 1 % of rows, ``third`` on a
    third, as a NoBench sparse key and one type of ``dyn1`` are."""
    doc = {"num": i, "tag": f"t{i % 40}", "pad": "x" * 120}
    if i % 100 == 7:
        doc["rare"] = f"r{i % 3}"
    if i % 3 == 0:
        doc["third"] = f"h{i % 30}"
    return doc


class TestShapePath:
    """Virtual-key predicates answered from the reservoir's shapes."""

    N = 2000

    def build(self) -> SinewDB:
        sdb = SinewDB("shapes", config())
        sdb.create_collection("t")
        sdb.load("t", [presence_document(i) for i in range(self.N)])
        return sdb

    def test_chosen_at_one_percent_presence_not_at_a_third(self):
        sdb = self.build()
        plan = sdb.explain("SELECT num FROM t WHERE rare = 'r1'")
        assert "Index Scan on t using shapes(data)  (rows=20)" in plan
        assert "Index Cond: (extract_key_text(t.data, 'rare') = 'r1')" in plan
        # a third of the rows: the 200-row guess of an expression index wins
        plan = sdb.explain("SELECT num FROM t WHERE third = 'h3'")
        assert "Index Scan on t using extract_key_text(data, 'third')" in plan

    def test_reads_only_the_rows_holding_the_key(self):
        sdb = self.build()
        sql = "SELECT num FROM t WHERE rare IN ('r1', 'r2')"
        expected = sorted((i,) for i in range(7, self.N, 100) if i % 3 in (1, 2))
        before = sdb.db.counters.snapshot()
        assert sorted(sdb.query(sql).rows) == expected
        delta = sdb.db.counters.diff(before)
        # one scan to build, then the 20 rows holding the key
        assert delta["index_builds"] == 1 and delta["tuples_scanned"] == self.N + 20
        before = sdb.db.counters.snapshot()
        result = sdb.query(sql)
        assert sorted(result.rows) == expected
        delta = sdb.db.counters.diff(before)
        assert delta["index_builds"] == 0 and delta["tuples_scanned"] == 20
        assert result.exec_stats["header_decodes"] <= 20 + len(expected)
        assert_indexes_exact(sdb.db.table("t"), typed=True)

    def test_estimate_is_the_catalog_count_then_the_exact_count(self):
        sdb = self.build()
        sdb.execute("DELETE FROM t WHERE num < 500")
        sql = "SELECT num FROM t WHERE rare < 'r2'"
        # the catalog counts occurrences loaded; the built index counts rows
        assert "shapes(data)  (rows=20)" in sdb.explain(sql)
        sdb.query(sql)
        assert "shapes(data)  (rows=15)" in sdb.explain(sql)

    def test_update_and_delete_probe_it(self):
        sdb = self.build()
        sdb.query("SELECT num FROM t WHERE rare = 'r0'")  # the index exists
        before = sdb.db.counters.snapshot()
        assert sdb.execute("UPDATE t SET tag = 'x' WHERE rare = 'r1'").rowcount == 7
        assert sdb.execute("DELETE FROM t WHERE rare BETWEEN 'r2' AND 'r9'").rowcount == 7
        delta = sdb.db.counters.diff(before)
        assert delta["index_probes"] == 2 and delta["index_builds"] == 0
        assert delta["tuples_scanned"] < 60
        assert sdb.query("SELECT count(*) FROM t WHERE tag = 'x'").scalar() == 7
        assert sdb.query("SELECT count(*) FROM t WHERE rare = 'r2'").scalar() == 0
        assert_indexes_exact(sdb.db.table("t"), typed=True)

    def test_a_key_unknown_at_plan_time_is_found_at_probe_time(self):
        sdb = self.build()
        db, table = sdb.db, sdb.db.table("t")
        plan = db._plan(parse(
            "SELECT extract_key_num(data, 'num') FROM t WHERE extract_key_text(data, 'late') = 'y'"
        ))
        assert "using shapes(data)" in plan.explain()
        assert run_plan(db, plan) == []
        sdb.load("t", [{"num": -i, "late": "y"} for i in range(3)])
        assert sorted(row for (row,) in run_plan(db, plan)) == [-2, -1, 0]
        assert_indexes_exact(table, typed=True)

    def test_offered_only_for_a_top_level_key_of_the_reservoir(self):
        sdb = self.build()
        db, table = sdb.db, sdb.db.table("t")
        for text, offered in [
            ("extract_key_text(data, 'rare') = 'r1'", True),
            ("extract_key_num(data, 'num') BETWEEN 1 AND 2", True),
            ("extract_key_any(data, 'rare') = 'r1'", True),
            ("extract_key_text(data, 'a.rare') = 'r1'", False),
            ("num = 3", False),
        ]:
            where = parse(f"SELECT * FROM t WHERE {text}").where
            sargable = _index_condition(where, table, "t", db.functions)
            offers = sargable is not None and _shape_access(sargable[0], table) is not None
            assert offers is offered, text
        plain = SinewDB("plain", config()).db
        plain.execute("CREATE TABLE p (data bytea)")
        where = parse("SELECT * FROM p WHERE extract_key_text(data, 'rare') = 'r1'").where
        sargable = _index_condition(where, plain.table("p"), "p", plain.functions)
        assert _shape_access(sargable[0], plain.table("p")) is None  # no collection


def test_lookups_agree_across_layouts():
    """The same lookups over the same documents return the same rows
    whether their keys are virtual (an expression index or a scan), dirty
    (the COALESCE bridge) or physical (a column index)."""
    docs = [document(i) for i in range(1200)]
    lookups = [
        "SELECT num FROM t WHERE tag = 't7'",
        "SELECT num FROM t WHERE tag IN ('t1', 't39', 'zz')",
        "SELECT num FROM t WHERE num BETWEEN 100 AND 104",
        "SELECT num FROM t WHERE score BETWEEN 2 AND 3",
        "SELECT num FROM t WHERE score < 0.5 AND tag >= 't3'",
        "SELECT note FROM t WHERE num = 77",
    ]
    answers = {}
    for layout in ("virtual", "dirty", "physical"):
        sdb = SinewDB(f"layout_{layout}", config())
        sdb.create_collection("t")
        sdb.load("t", docs)
        if layout != "virtual":
            for key, sql_type in KEYS.items():
                sdb.materialize("t", key, sql_type)
            if layout == "dirty":
                sdb.materializer_step("t", 500)
                assert sdb.catalog.table("t").dirty_columns()
            else:
                sdb.run_materializer("t")
        answers[layout] = [sorted(sdb.query(sql).rows) for sql in lookups]
        if layout == "virtual":
            targets = {str(target) for target in sdb.db.table("t")._indexes}
            assert "extract_key_text(data, 'tag')" in targets
        assert_indexes_exact(sdb.db.table("t"), typed=True)
        sdb.close()
    assert answers["virtual"] == answers["dirty"] == answers["physical"]
    assert all(answers["virtual"][:4])


#: NoBench keys the second collection of the model moves, per key of ``KEYS``
NB_KEYS = {"num": ("dyn1", SqlType.INTEGER), "tag": ("dyn2", SqlType.TEXT),
           "score": ("thousandth", SqlType.INTEGER)}

#: top-level NoBench keys with an ordered type; ``late`` is a key no document
#: holds when the model starts, and a later load adds to one in 25
SHAPE_KEYS = ["sparse", "dyn1", "dyn2", "late", "str1", "str2", "num", "thousandth"]
SHAPE_OPS = ["=", "<", "BETWEEN", "IN"]


def nb_document(generator: NoBenchGenerator, record: int) -> dict:
    doc = generator.record(record)
    if record >= 300 and record % 25 == 0:
        doc["late"] = f"L{record % 3}"
    return doc


def shape_predicate(doc: dict, key: str, op: str, other: dict) -> str:
    """A predicate on the value ``doc`` holds for ``key`` (a number or a
    string, whose literal picks the typed extraction), by ``op``; ``other``
    gives a second literal of the same type where ``op`` takes two."""
    def literal(value) -> str:
        return repr(value) if isinstance(value, str) else str(value)

    value = doc[key]
    second = other.get(key)
    if type(second) is not type(value):
        second = value
    low, high = sorted([value, second])
    if op == "=":
        return f"{key} = {literal(value)}"
    if op == "<":
        return f"{key} < {literal(high)}"
    if op == "BETWEEN":
        return f"{key} BETWEEN {literal(low)} AND {literal(high)}"
    return f"{key} IN ({literal(value)}, {literal(second)})"


def extraction_predicate(predicate: str, key: str, value) -> str:
    """``predicate`` over the reservoir extraction of ``key`` the rewriter
    emits for a literal like ``value``, whatever the key's layout."""
    function = "extract_key_text" if isinstance(value, str) else "extract_key_num"
    return predicate.replace(key, f"{function}(data, '{key}')", 1)


def shape_rows(db, table, where, binding: str) -> list[tuple] | None:
    """The rows the shape path returns for ``where``, or None where the
    planner would not offer it (a literal of no ordered type)."""
    sargable = _index_condition(where, table, binding, db.functions)
    shapes = None if sargable is None else _shape_access(sargable[0], table)
    if shapes is None:
        return None
    target, keys, listed = shapes
    return run_plan(db, IndexScan(table, binding, target, keys, where, listed))


def run_plan(db, plan) -> list[tuple]:
    return [row for batch in fuse(plan).batches(db.execution_context()) for row in batch]


class IndexModel:
    """One durable instance, the documents it should hold, and the steps.

    Beside ``t`` the model keeps ``nb``, NoBench documents whose every step
    mirrors ``t``'s, and checks the shape path on it: for each top-level
    key (sparse, multi-typed, dense, one no document holds at first) and
    each sargable operator, a probe of the shape index returns exactly the
    rows of a Seq Scan + Filter over the same predicate.
    """

    def __init__(self, root):
        self.root = root
        self.sdb = SinewDB.open(root, "ixmodel", config())
        self.sdb.create_collection("t")
        self.sdb.create_collection("nb")
        self.sdb.db.execute("CREATE TABLE side (k integer, v text)")
        self.docs: dict[int, dict] = {}
        self.nb_docs: dict[int, dict] = {}
        self.generator = NoBenchGenerator(1 << 12, seed=5)
        self.next_record = 0
        self.side: list[tuple] = []
        self.next_num = 0
        #: expression indexes seen live by a check (the walk must build some)
        self.expression_indexes: set[str] = set()
        #: (key, operator) pairs the shape path was checked on with rows
        self.shape_checks: set[tuple[str, str]] = set()
        #: (key, operator) pairs a dirty key's union probe was checked on
        #: with rows
        self.bridge_checks: set[tuple[str, str]] = set()
        self.checks = 0
        self.load(400)
        for key in ("num", "tag"):
            self.materialize(key)
        self.settle()

    # -- steps ------------------------------------------------------------

    def load(self, count: int) -> None:
        docs = [document(self.next_num + i) for i in range(count)]
        self.next_num += count
        self.sdb.load("t", docs)
        self.docs.update((doc["num"], doc) for doc in docs)
        count = min(count, (1 << 12) - self.next_record)
        nb = [nb_document(self.generator, self.next_record + i) for i in range(count)]
        self.next_record += count
        self.sdb.load("nb", nb)
        self.nb_docs.update((doc["num"], doc) for doc in nb)

    def _nb_num(self, num: int) -> int:
        """The ``nb`` document a step on ``t``'s ``num`` also touches."""
        return self.generator.num_of(num % (1 << 12))

    def update(self, num: int, note: str) -> None:
        hit = self.sdb.execute(f"UPDATE t SET note = '{note}' WHERE num = {num}").rowcount
        assert hit == (num in self.docs)
        if num in self.docs:
            self.docs[num] = {**self.docs[num], "note": note}
        # a sparse key the document may not hold: its shape changes
        nb_num, key = self._nb_num(num), f"sparse_{num % 1000:03d}"
        hit = self.sdb.execute(f"UPDATE nb SET {key} = '{note}' WHERE num = {nb_num}").rowcount
        assert hit == (nb_num in self.nb_docs)
        if nb_num in self.nb_docs:
            self.nb_docs[nb_num] = {**self.nb_docs[nb_num], key: note}

    def retag(self, num: int, tag: str) -> None:
        """An UPDATE of a column that can itself be indexed, in whatever
        layout the walk left it: virtual, dirty or physical."""
        self.sdb.execute(f"UPDATE t SET tag = '{tag}' WHERE num = {num}")
        if num in self.docs:
            self.docs[num] = {**self.docs[num], "tag": tag}
        # a new value under a key the document holds: the shape stays
        nb_num = self._nb_num(num)
        self.sdb.execute(f"UPDATE nb SET str2 = '{tag}' WHERE num = {nb_num}")
        if nb_num in self.nb_docs:
            self.nb_docs[nb_num] = {**self.nb_docs[nb_num], "str2": tag}

    def delete(self, low: int, width: int) -> None:
        self.sdb.execute(f"DELETE FROM t WHERE num BETWEEN {low} AND {low + width}")
        for num in range(low, low + width + 1):
            self.docs.pop(num, None)
        self.sdb.execute(f"DELETE FROM nb WHERE num BETWEEN {low} AND {low + width}")
        for num in range(low, low + width + 1):
            self.nb_docs.pop(num, None)

    def rollback(self, num: int) -> None:
        session = self.sdb.create_session("model")
        self.sdb.execute("BEGIN", session=session)
        self.sdb.execute(f"UPDATE t SET tag = 'gone' WHERE num = {num}", session=session)
        self.sdb.execute(f"DELETE FROM t WHERE num = {num + 1}", session=session)
        self.sdb.execute(f"UPDATE nb SET sparse_999 = 'gone' WHERE num = {num}", session=session)
        self.sdb.execute(f"DELETE FROM nb WHERE num = {num + 1}", session=session)
        self.check_indexes()
        self.sdb.execute("ROLLBACK", session=session)

    def materialize(self, key: str) -> None:
        self.sdb.materialize("t", key, KEYS[key])
        self.sdb.materialize("nb", *NB_KEYS[key])

    def dematerialize(self, key: str) -> None:
        self.sdb.dematerialize("t", key, KEYS[key])
        self.sdb.dematerialize("nb", *NB_KEYS[key])

    def move_some(self, rows: int) -> None:
        self.sdb.materializer_step("t", rows)
        self.sdb.materializer_step("nb", rows)

    def settle(self) -> None:
        self.sdb.run_materializer("t")
        self.sdb.run_materializer("nb")

    def side_insert(self, k: int) -> None:
        self.sdb.db.execute(f"INSERT INTO side (k, v) VALUES ({k}, 'v{k}')")
        self.side.append((k, f"v{k}"))

    def side_ddl(self, step: str) -> None:
        db, table = self.sdb.db, self.sdb.db.table("side")
        if step == "add" and "extra" not in table.schema:
            db.execute("ALTER TABLE side ADD COLUMN extra integer")
        elif step == "drop" and "extra" in table.schema:
            db.execute("ALTER TABLE side DROP COLUMN extra")
        elif step == "truncate":
            db.truncate_table("side")
            self.side.clear()
        else:
            return
        assert not table._indexes

    def crash_reopen(self) -> None:
        self.sdb.db.wal.close()  # no checkpoint: recovery replays the log
        self.sdb = SinewDB.open(self.root, "ixmodel", config())
        assert not self.sdb.db.table("t")._indexes  # rebuilt on demand
        assert not self.sdb.db.table("nb")._indexes

    def close(self) -> None:
        self.sdb.close()

    # -- what must hold after every step ------------------------------------

    def check_indexes(self) -> None:
        table = self.sdb.db.table("t")
        assert_indexes_exact(table, typed=True)
        assert_indexes_exact(self.sdb.db.table("nb"), typed=True)
        assert_indexes_exact(self.sdb.db.table("side"))
        self.expression_indexes.update(
            str(target) for target in table._indexes if isinstance(target, IndexExpression)
        )

    def check_shapes(self, probe: int) -> None:
        """One key and one operator per check, in turn: the shape path
        equals Seq Scan + Filter, and the planner's answer equals the
        documents' for a sparse key."""
        if not self.nb_docs:
            return
        db, table = self.sdb.db, self.sdb.db.table("nb")
        key = SHAPE_KEYS[self.checks % len(SHAPE_KEYS)]
        op = SHAPE_OPS[self.checks // len(SHAPE_KEYS) % len(SHAPE_OPS)]
        self.checks += 1
        docs = list(self.nb_docs.values())
        if key == "sparse":
            key = sorted(k for k in docs[probe % len(docs)] if k.startswith("sparse_"))[probe % 10]
        holders = [doc for doc in docs if key in doc]
        if not holders:
            holders = [{key: "L0"}]  # the late key before any load added it
        doc, other = holders[probe % len(holders)], holders[(probe // 7) % len(holders)]
        predicate = shape_predicate(doc, key, op, other)
        where = parse(
            f"SELECT * FROM nb WHERE {extraction_predicate(predicate, key, doc[key])}"
        ).where
        by_shapes = shape_rows(db, table, where, "nb")
        by_scan = run_plan(db, Filter(SeqScan(table, "nb"), where, 1.0))
        if by_shapes is not None:
            assert [repr(row) for row in by_shapes] == [repr(row) for row in by_scan], predicate
            if by_scan:
                self.shape_checks.add((key if key in SHAPE_KEYS else "sparse", op))
        if key.startswith("sparse_") and op == "=":
            got = self.sdb.query(f"SELECT num FROM nb WHERE {predicate}").rows
            assert sorted(n for (n,) in got) == sorted(
                d["num"] for d in docs if d.get(key) == doc[key]
            ), predicate
            plan = self.sdb.explain(f"SELECT num FROM nb WHERE {predicate}")
            assert "Index Scan on nb using shapes(data)" in plan, predicate

    def check_bridge(self, probe: int) -> None:
        """For each key of ``t`` that is dirty now, one operator in turn:
        the union probe of its COALESCE bridge returns exactly the rows of
        a Seq Scan + Filter over the same predicate."""
        if not self.docs:
            return
        db, table = self.sdb.db, self.sdb.db.table("t")
        rewriter = self.sdb._rewriter()
        docs = list(self.docs.values())
        for key in KEYS:
            holders = [doc for doc in docs if key in doc]
            doc, other = holders[probe % len(holders)], holders[(probe // 7) % len(holders)]
            op = SHAPE_OPS[(probe + len(key)) % len(SHAPE_OPS)]
            predicate = shape_predicate(doc, key, op, other)
            where = rewriter.rewrite_where(parse(f"SELECT * FROM t WHERE {predicate}"))
            if not any(isinstance(node, Coalesce) for node in where.children()):
                continue  # not dirty now
            sargable = _index_condition(where, table, "t", db.functions)
            assert sargable is not None and isinstance(sargable[0], UnionTarget), predicate
            by_union = run_plan(db, IndexScan(table, "t", *sargable, where, 1.0))
            by_scan = run_plan(db, Filter(SeqScan(table, "t"), where, 1.0))
            assert [repr(row) for row in by_union] == [repr(row) for row in by_scan], predicate
            if by_scan:
                self.bridge_checks.add((key, op))

    def check(self, probe: int) -> None:
        """Lookups through whatever path the planner picks now (an index
        where the column is clean, the bridge where it is dirty) agree
        with the documents; then every live index is exact."""
        sdb = self.sdb
        low = probe % max(1, self.next_num)
        expected = sorted(n for n in self.docs if low <= n <= low + 3)
        got = sdb.query(f"SELECT num FROM t WHERE num BETWEEN {low} AND {low + 3}").rows
        assert sorted(n for (n,) in got) == expected
        assert sdb.query(f"SELECT num FROM t WHERE _id = {low}").rows in ([], [(low,)])
        tag = f"t{probe % 40}"
        got = sdb.query(f"SELECT num FROM t WHERE tag = '{tag}'").rows
        assert sorted(n for (n,) in got) == sorted(
            n for n, doc in self.docs.items() if doc["tag"] == tag
        )
        score = probe % 9
        got = sdb.query(f"SELECT num FROM t WHERE score BETWEEN {score} AND {score + 0.5}").rows
        assert sorted(n for (n,) in got) == sorted(
            n for n, doc in self.docs.items() if score <= doc.get("score", -1) <= score + 0.5
        )
        if self.side:
            k = self.side[probe % len(self.side)][0]
            rows = sdb.db.execute(f"SELECT k, v FROM side WHERE k = {k}").rows
            assert sorted(rows) == sorted(row for row in self.side if row[0] == k)
        self.check_shapes(probe)
        self.check_bridge(probe)
        self.check_indexes()


def test_seeded_walk_keeps_indexes_exact(tmp_path):
    rng = random.Random(11)
    model = IndexModel(tmp_path / "db")
    steps = {
        "load": lambda: model.load(rng.randrange(1, 30)),
        "update": lambda: model.update(rng.randrange(model.next_num), f"u{rng.randrange(9)}"),
        "retag": lambda: model.retag(rng.randrange(model.next_num), f"t{rng.randrange(40)}"),
        "delete": lambda: model.delete(rng.randrange(model.next_num), rng.randrange(3)),
        "rollback": lambda: model.rollback(rng.randrange(model.next_num)),
        "materialize": lambda: model.materialize(rng.choice(list(KEYS))),
        "dematerialize": lambda: model.dematerialize(rng.choice(list(KEYS))),
        "move_some": lambda: model.move_some(rng.randrange(1, 200)),
        "settle": model.settle,
        "side_insert": lambda: model.side_insert(rng.randrange(50)),
        "side_ddl": lambda: model.side_ddl(rng.choice(["add", "drop", "truncate"])),
        "crash_reopen": model.crash_reopen,
    }
    names = sorted(steps)
    walk = [rng.choice(names) for _ in range(150)] + names + ["settle"]
    try:
        for name in walk:
            steps[name]()
            model.check(rng.randrange(10_000))
        # the walk must have exercised the probe path, not only the bridge,
        # on virtual keys too
        assert model.sdb.db.counters.index_probes > 0
        assert "Index Scan" in model.sdb.explain("SELECT num FROM t WHERE _id = 3")
        assert {
            "extract_key_text(data, 'tag')",
            "extract_key_num(data, 'score')",
        } <= model.expression_indexes
        # and the shape path on every key and operator, with rows to return
        assert model.shape_checks == {(key, op) for key in SHAPE_KEYS for op in SHAPE_OPS}
        # and the union probe on every key and operator while it was dirty
        assert model.bridge_checks == {(key, op) for key in KEYS for op in SHAPE_OPS}
    finally:
        model.close()


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)


class IndexMachine(RuleBasedStateMachine):
    """The same steps, chosen and shrunk by hypothesis."""

    tmp_factory = None  # set by the test below

    @initialize()
    def open(self):
        self.model = IndexModel(self.tmp_factory.mktemp("ixm") / "db")
        self.probe = 0

    nums = st.integers(min_value=0, max_value=600)

    @rule(count=st.integers(min_value=1, max_value=25))
    def load(self, count):
        self.model.load(count)

    @rule(num=nums, note=st.sampled_from(["a", "b", "c"]))
    def update(self, num, note):
        self.model.update(num, note)

    @rule(num=nums, tag=st.sampled_from(["t1", "t2", "zz"]))
    def retag(self, num, tag):
        self.model.retag(num, tag)

    @rule(low=nums, width=st.integers(min_value=0, max_value=3))
    def delete(self, low, width):
        self.model.delete(low, width)

    @rule(num=nums)
    def rollback(self, num):
        self.model.rollback(num)

    @rule(key=st.sampled_from(sorted(KEYS)))
    def materialize(self, key):
        self.model.materialize(key)

    @rule(key=st.sampled_from(sorted(KEYS)))
    def dematerialize(self, key):
        self.model.dematerialize(key)

    @rule(rows=st.integers(min_value=1, max_value=300))
    def move_some(self, rows):
        self.model.move_some(rows)

    @rule()
    def settle(self):
        self.model.settle()

    @rule(k=st.integers(min_value=0, max_value=20))
    def side_insert(self, k):
        self.model.side_insert(k)

    @rule(step=st.sampled_from(["add", "drop", "truncate"]))
    def side_ddl(self, step):
        self.model.side_ddl(step)

    @rule()
    def crash_reopen(self):
        self.model.crash_reopen()

    @invariant()
    def lookups_and_indexes_agree_with_the_documents(self):
        if hasattr(self, "model"):
            self.probe += 7
            self.model.check(self.probe)

    def teardown(self):
        if hasattr(self, "model"):
            self.model.close()


@pytest.mark.slow
def test_index_state_machine(tmp_path_factory):
    IndexMachine.tmp_factory = tmp_path_factory
    machine = IndexMachine.TestCase
    machine.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)
    machine().runTest()
