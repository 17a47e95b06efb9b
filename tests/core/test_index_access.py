"""Indexes under the Sinew layer: which logical columns can use one, and
that materializer moves, transactions and crash recovery keep every live
index exact -- column indexes on physical keys and expression indexes
(``extract_key_<type>(data, 'k')``) on virtual ones alike.

The model below drives one durable instance through loads, updates,
deletes, rollbacks, (de)materialization, plain-table DDL and crash-reopen;
after every step each live index must equal a fresh build -- an
expression index ``sorted((f(data), rid))`` over the live rows where that
is not NULL -- and every lookup must return what the documents say,
whether its key is virtual, dirty or physical at that moment.  A seeded
walk runs in tier 1, a hypothesis state machine over the same steps in
the slow lane.
"""

import random

import pytest

from repro.core import SinewConfig, SinewDB
from repro.rdbms.storage import IndexExpression
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

    def test_dirty_column_keeps_the_coalesce_scan_until_it_is_clean(self):
        sdb = self.build()
        sdb.load("t", [document(5000)])  # num is dirty again
        sql = "SELECT note FROM t WHERE num = 5000"
        plan = sdb.explain(sql)
        assert "COALESCE" in plan and "Index Scan" not in plan
        assert sdb.query(sql).rows == [("n5000",)]
        sdb.run_materializer("t")
        assert "Index Scan" in sdb.explain(sql)
        assert sdb.query(sql).rows == [("n5000",)]
        assert_indexes_exact(sdb.db.table("t"), typed=True)

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


class IndexModel:
    """One durable instance, the documents it should hold, and the steps."""

    def __init__(self, root):
        self.root = root
        self.sdb = SinewDB.open(root, "ixmodel", config())
        self.sdb.create_collection("t")
        self.sdb.db.execute("CREATE TABLE side (k integer, v text)")
        self.docs: dict[int, dict] = {}
        self.side: list[tuple] = []
        self.next_num = 0
        #: expression indexes seen live by a check (the walk must build some)
        self.expression_indexes: set[str] = set()
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

    def update(self, num: int, note: str) -> None:
        hit = self.sdb.execute(f"UPDATE t SET note = '{note}' WHERE num = {num}").rowcount
        assert hit == (num in self.docs)
        if num in self.docs:
            self.docs[num] = {**self.docs[num], "note": note}

    def retag(self, num: int, tag: str) -> None:
        """An UPDATE of a column that can itself be indexed, in whatever
        layout the walk left it: virtual, dirty or physical."""
        self.sdb.execute(f"UPDATE t SET tag = '{tag}' WHERE num = {num}")
        if num in self.docs:
            self.docs[num] = {**self.docs[num], "tag": tag}

    def delete(self, low: int, width: int) -> None:
        self.sdb.execute(f"DELETE FROM t WHERE num BETWEEN {low} AND {low + width}")
        for num in range(low, low + width + 1):
            self.docs.pop(num, None)

    def rollback(self, num: int) -> None:
        session = self.sdb.create_session("model")
        self.sdb.execute("BEGIN", session=session)
        self.sdb.execute(f"UPDATE t SET tag = 'gone' WHERE num = {num}", session=session)
        self.sdb.execute(f"DELETE FROM t WHERE num = {num + 1}", session=session)
        self.check_indexes()
        self.sdb.execute("ROLLBACK", session=session)

    def materialize(self, key: str) -> None:
        self.sdb.materialize("t", key, KEYS[key])

    def dematerialize(self, key: str) -> None:
        self.sdb.dematerialize("t", key, KEYS[key])

    def move_some(self, rows: int) -> None:
        self.sdb.materializer_step("t", rows)

    def settle(self) -> None:
        self.sdb.run_materializer("t")

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

    def close(self) -> None:
        self.sdb.close()

    # -- what must hold after every step ------------------------------------

    def check_indexes(self) -> None:
        table = self.sdb.db.table("t")
        assert_indexes_exact(table, typed=True)
        assert_indexes_exact(self.sdb.db.table("side"))
        self.expression_indexes.update(
            str(target) for target in table._indexes if isinstance(target, IndexExpression)
        )

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
