"""Unit tests for the query rewriter (logical -> physical SQL)."""

import pytest

from repro.core import SinewDB
from repro.core.rewriter import QueryRewriter
from repro.rdbms.errors import PlanningError
from repro.rdbms.expressions import (
    Between,
    BinaryOp,
    Coalesce,
    ColumnRef,
    FunctionCall,
    Literal,
)
from repro.rdbms.sql.parser import parse
from repro.rdbms.types import SqlType


@pytest.fixture()
def sdb():
    instance = SinewDB("rw")
    instance.create_collection("t")
    instance.load(
        "t",
        [
            {
                "phys": f"p{i}",
                "virt": f"v{i}",
                "n": i,
                "dyn": i if i % 2 else f"s{i}",
                "user": {"lang": "en"},
                "tags": ["a", "b"],
                "flag": True,
            }
            for i in range(300)
        ],
    )
    instance.materialize("t", "phys", SqlType.TEXT)
    instance.run_materializer("t")
    return instance


def rewritten_items(sdb, sql):
    statement = parse(sql)
    return sdb._rewriter().rewrite_select(statement).items


def rewritten_where(sdb, sql):
    statement = parse(sql)
    return sdb._rewriter().rewrite_select(statement).where


class TestColumnResolution:
    def test_clean_physical_passes_through(self, sdb):
        items = rewritten_items(sdb, "SELECT phys FROM t")
        assert items[0].expr == ColumnRef("t", "phys")

    def test_virtual_becomes_extraction(self, sdb):
        items = rewritten_items(sdb, "SELECT virt FROM t")
        expr = items[0].expr
        assert isinstance(expr, FunctionCall)
        assert expr.name == "extract_key_text"
        assert expr.args == (ColumnRef("t", "data"), Literal("virt"))
        # output keeps the logical name
        assert items[0].alias == "virt"

    def test_dirty_column_coalesces(self, sdb):
        sdb.materialize("t", "virt", SqlType.TEXT)
        sdb.materializer_step("t", max_rows=10)
        items = rewritten_items(sdb, "SELECT virt FROM t")
        expr = items[0].expr
        assert isinstance(expr, Coalesce)
        assert isinstance(expr.args[0], ColumnRef)
        assert isinstance(expr.args[1], FunctionCall)

    def test_id_and_data_are_direct(self, sdb):
        items = rewritten_items(sdb, "SELECT _id FROM t")
        assert items[0].expr == ColumnRef("t", "_id")

    def test_unknown_key_still_extracts(self, sdb):
        items = rewritten_items(sdb, "SELECT never_seen FROM t")
        assert isinstance(items[0].expr, FunctionCall)

    def test_qualified_reference(self, sdb):
        items = rewritten_items(sdb, "SELECT x.virt FROM t x")
        expr = items[0].expr
        assert expr.args[0] == ColumnRef("x", "data")


class TestTypeContexts:
    def test_numeric_literal_selects_numeric_extraction(self, sdb):
        where = rewritten_where(sdb, "SELECT _id FROM t WHERE dyn > 5")
        assert isinstance(where, BinaryOp)
        assert where.left.name == "extract_key_num"

    def test_string_literal_selects_text_extraction(self, sdb):
        where = rewritten_where(sdb, "SELECT _id FROM t WHERE dyn = 'x'")
        assert where.left.name == "extract_key_text"

    def test_between_numeric(self, sdb):
        where = rewritten_where(sdb, "SELECT _id FROM t WHERE dyn BETWEEN 1 AND 5")
        assert isinstance(where, Between)
        assert where.operand.name == "extract_key_num"

    def test_like_selects_text(self, sdb):
        where = rewritten_where(sdb, "SELECT _id FROM t WHERE dyn LIKE 'a%'")
        assert where.operand.name == "extract_key_text"

    def test_single_typed_key_uses_dominant_type(self, sdb):
        items = rewritten_items(sdb, "SELECT n FROM t")
        assert items[0].expr.name == "extract_key_num"

    def test_multi_typed_key_projection_downcasts(self, sdb):
        items = rewritten_items(sdb, "SELECT dyn FROM t")
        assert items[0].expr.name == "extract_key_any"

    def test_any_predicate_array_extraction(self, sdb):
        where = rewritten_where(sdb, "SELECT _id FROM t WHERE 'a' = ANY(tags)")
        assert where.haystack.name == "extract_key_array"

    def test_aggregate_argument_numeric(self, sdb):
        items = rewritten_items(sdb, "SELECT sum(n) FROM t")
        call = items[0].expr
        assert call.args[0].name == "extract_key_num"

    def test_boolean_dominant_type(self, sdb):
        items = rewritten_items(sdb, "SELECT flag FROM t")
        assert items[0].expr.name == "extract_key_bool"


class TestNestedRouting:
    def test_dotted_key_from_reservoir(self, sdb):
        items = rewritten_items(sdb, 'SELECT "user.lang" FROM t')
        expr = items[0].expr
        assert expr.args[0] == ColumnRef("t", "data")
        assert expr.args[1] == Literal("user.lang")

    def test_dotted_key_from_materialized_parent(self, sdb):
        sdb.materialize("t", "user", SqlType.BYTEA)
        sdb.run_materializer("t")
        items = rewritten_items(sdb, 'SELECT "user.lang" FROM t')
        expr = items[0].expr
        assert expr.args[0] == ColumnRef("t", "user")

    def test_dotted_key_dirty_parent_coalesces(self, sdb):
        sdb.materialize("t", "user", SqlType.BYTEA)
        sdb.materializer_step("t", max_rows=5)
        items = rewritten_items(sdb, 'SELECT "user.lang" FROM t')
        assert isinstance(items[0].expr, Coalesce)


class TestJoinsAndMatches:
    def test_join_of_two_sinew_tables(self, sdb):
        sdb.create_collection("u")
        sdb.load("u", [{"virt": f"v{i}"} for i in range(10)])
        statement = parse("SELECT a._id FROM t a, u b WHERE a.virt = b.virt")
        rewritten = sdb._rewriter().rewrite_select(statement)
        left = rewritten.where.left
        right = rewritten.where.right
        assert left.args[0] == ColumnRef("a", "data")
        assert right.args[0] == ColumnRef("b", "data")

    def test_matches_rewrites_to_index_probe(self, sdb):
        statement = parse("SELECT _id FROM t WHERE matches('*', 'hello')")
        rewritten = sdb._rewriter().rewrite_select(statement)
        call = rewritten.where
        assert call.name == "sinew_matches"
        assert call.args[0] == ColumnRef("t", "_id")

    def test_matches_arity_checked(self, sdb):
        statement = parse("SELECT _id FROM t WHERE matches('x')")
        with pytest.raises(PlanningError):
            sdb._rewriter().rewrite_select(statement)

    def test_ambiguous_unqualified_key(self, sdb):
        sdb.create_collection("u")
        sdb.load("u", [{"virt": "x"}])
        statement = parse("SELECT virt FROM t, u")
        with pytest.raises(PlanningError, match="ambiguous"):
            sdb._rewriter().rewrite_select(statement)


class TestOtherStatements:
    def test_update_where_rewritten(self, sdb):
        statement = parse("UPDATE t SET virt = 'z' WHERE n = 3")
        where = sdb._rewriter().rewrite_where(statement)
        assert where.left.name == "extract_key_num"

    def test_group_by_and_order_by_rewritten(self, sdb):
        statement = parse(
            "SELECT virt, count(*) FROM t GROUP BY virt ORDER BY virt"
        )
        rewritten = sdb._rewriter().rewrite_select(statement)
        assert isinstance(rewritten.group_by[0], FunctionCall)
        assert isinstance(rewritten.order_by[0].expr, FunctionCall)


class TestMultiTypedNullSemantics:
    """Execution-level NULL behaviour of multi-typed keys (section 3.2.2).

    ``dyn`` holds an integer on odd ``_id`` rows and a string on even
    ones: a typed extraction returns NULL for rows of the other type, so
    predicates silently select only the type-compatible subset -- the
    behaviour the Postgres JSON baseline cannot express.
    """

    def test_numeric_context_selects_only_numeric_rows(self, sdb):
        # dyn is an integer exactly on odd n
        rows = sdb.query("SELECT n FROM t WHERE dyn >= 0").rows
        assert len(rows) == 150
        assert all(value % 2 == 1 for (value,) in rows)

    def test_text_context_selects_only_text_rows(self, sdb):
        rows = sdb.query("SELECT dyn FROM t WHERE dyn LIKE 's%'").rows
        assert len(rows) == 150
        assert all(isinstance(value, str) for (value,) in rows)

    def test_text_equality_finds_single_row(self, sdb):
        rows = sdb.query("SELECT n FROM t WHERE dyn = 's2'").rows
        assert rows == [(2,)]

    def test_numeric_and_text_subsets_partition_the_table(self, sdb):
        numeric = sdb.query("SELECT _id FROM t WHERE dyn >= 0").rows
        text = sdb.query("SELECT _id FROM t WHERE dyn LIKE '%'").rows
        assert len(numeric) + len(text) == 300
        assert not set(numeric) & set(text)

    def test_is_null_sees_extract_key_any(self, sdb):
        # every row has *some* dyn value, so the untyped extraction is
        # never NULL even though each typed extraction is NULL somewhere
        rows = sdb.query("SELECT _id FROM t WHERE dyn IS NULL").rows
        assert rows == []

    def test_bare_projection_downcasts_to_text(self, sdb):
        values = sdb.query("SELECT dyn FROM t").column(0)
        assert len(values) == 300
        assert all(isinstance(value, str) for value in values)

    def test_dominant_type_is_per_table_not_global(self, sdb):
        # the global dictionary knows k as both int and text (one per
        # collection), but each table's dominant type only counts its own
        # occurrences, so neither projection falls back to extract_key_any
        sdb.create_collection("mono")
        sdb.load("mono", [{"k": 1}, {"k": 2}])
        sdb.create_collection("other")
        sdb.load("other", [{"k": "text"}])
        items = rewritten_items(sdb, "SELECT k FROM mono")
        assert items[0].expr.name == "extract_key_num"
        items = rewritten_items(sdb, "SELECT k FROM other")
        assert items[0].expr.name == "extract_key_text"
        # text context on the all-integer table extracts NULL on every row
        assert sdb.query("SELECT k FROM mono WHERE k LIKE '%'").rows == []


class TestMangledPhysicalNames:
    """Both types of a multi-typed key materialized: the second type's
    physical column gets a mangled name (``k__text``), and spelling that
    name reads the column -- through the COALESCE bridge while it is
    dirty, directly once it is clean."""

    @pytest.fixture()
    def mangled(self):
        instance = SinewDB("mangled")
        instance.create_collection("t")
        instance.load("t", [{"a": 1, "k": 1}, {"a": 2, "k": "x"}, {"a": 3, "k": 3}])
        instance.materialize("t", "k", SqlType.INTEGER)
        instance.materialize("t", "k", SqlType.TEXT)
        assert "k__text" in instance.db.table("t").schema
        return instance

    def test_projection_reads_the_mangled_column(self, mangled):
        sql = "SELECT k__text FROM t ORDER BY a"
        assert mangled.query(sql).rows == [(None,), ("x",), (None,)]
        mangled.run_materializer("t")
        assert mangled.query(sql).rows == [(None,), ("x",), (None,)]

    def test_predicate_reads_the_mangled_column(self, mangled):
        sql = "SELECT a FROM t WHERE k__text = 'x'"
        assert mangled.query(sql).rows == [(2,)]
        mangled.run_materializer("t")
        assert mangled.query(sql).rows == [(2,)]


class TestMultiTypedBareProjection:
    """A bare projection of a key stored under several types reads as
    ``extract_key_any`` -- each value downcast to text -- in every layout,
    not as whichever type's physical column exists (the layout oracle,
    ``test_layout_oracle.py``, compares the answers over more layouts)."""

    DOCS = [
        {"a": 1, "k": 1},
        {"a": 2, "k": "x"},
        {"a": 3, "k": 3},
        {"a": 4, "k": 2.5},
        {"a": 5, "k": True},
        {"a": 6},
    ]
    SQL = [
        "SELECT k FROM t ORDER BY a",
        "SELECT a FROM t WHERE k IS NULL ORDER BY a",
        "SELECT k, count(*) FROM t GROUP BY k ORDER BY k",
    ]

    def answers(self, pins, rows_moved):
        sdb = SinewDB("multi")
        sdb.create_collection("t")
        sdb.load("t", self.DOCS)
        for key_type in pins:
            sdb.materialize("t", "k", key_type)
        if rows_moved is None:
            sdb.run_materializer("t")
        else:
            sdb.materializer_step("t", max_rows=rows_moved)
        answers = [sdb.query(sql).rows for sql in self.SQL]
        sdb.close()
        return answers

    def test_three_layouts_agree(self):
        virtual = self.answers([], None)
        assert virtual[0] == [("1",), ("x",), ("3",), ("2.5",), ("true",), (None,)]
        layouts = {
            "dirty": self.answers([SqlType.INTEGER], 2),
            "settled": self.answers([SqlType.INTEGER], None),
            "two types settled": self.answers([SqlType.INTEGER, SqlType.TEXT], None),
            "three types dirty": self.answers(
                [SqlType.INTEGER, SqlType.REAL, SqlType.BOOLEAN], 3
            ),
        }
        assert {name: answer for name, answer in layouts.items() if answer != virtual} == {}

    def test_every_physical_type_is_read_as_text(self, sdb):
        sdb.materialize("t", "dyn", SqlType.INTEGER)
        sdb.materializer_step("t", max_rows=10)
        expr = rewritten_items(sdb, "SELECT dyn FROM t")[0].expr
        assert str(expr) == "COALESCE(CAST(t.dyn AS text), extract_key_any(t.data, 'dyn'))"
        typed = rewritten_items(sdb, "SELECT dyn + 1 FROM t")[0].expr
        assert "CAST" not in str(typed)


class TestMultiTypedTypedRead:
    """A context that asks for one type of a multi-typed key reads that
    type's values wherever they are stored -- the reservoir, or the type's
    own physical column -- not the primary type's physical column (the
    layout oracle compares the answers over more layouts)."""

    DOCS = [{"a": 1, "k": 1}, {"a": 2, "k": "x"}, {"a": 3, "k": 3}, {"a": 4, "k": 2.5}]
    SQL = [
        "SELECT a FROM t WHERE k = 'x'",
        "SELECT a FROM t WHERE k >= 'a' ORDER BY a",
        "SELECT a FROM t WHERE k > 2 ORDER BY a",
        "SELECT a FROM t WHERE k IN (1, 2.5) ORDER BY a",
    ]

    def answers(self, pins, rows_moved):
        sdb = SinewDB("typed")
        sdb.create_collection("t")
        sdb.load("t", self.DOCS)
        for key_type in pins:
            sdb.materialize("t", "k", key_type)
        if rows_moved is None:
            sdb.run_materializer("t")
        else:
            sdb.materializer_step("t", max_rows=rows_moved)
        answers = [sdb.query(sql).rows for sql in self.SQL]
        sdb.close()
        return answers

    def test_three_layouts_agree(self):
        virtual = self.answers([], None)
        assert virtual == [[(2,)], [(2,)], [(3,), (4,)], [(1,), (4,)]]
        layouts = {
            "dirty": self.answers([SqlType.INTEGER], 2),
            "settled": self.answers([SqlType.INTEGER], None),
            "two types settled": self.answers([SqlType.INTEGER, SqlType.TEXT], None),
            "two numeric types dirty": self.answers([SqlType.INTEGER, SqlType.REAL], 1),
        }
        assert {name: answer for name, answer in layouts.items() if answer != virtual} == {}

    def test_text_context_reads_the_reservoir_past_the_integer_column(self):
        sdb = SinewDB("typed_read")
        sdb.create_collection("t")
        sdb.load("t", self.DOCS)
        sdb.materialize("t", "k", SqlType.INTEGER)
        sdb.run_materializer("t")
        where = sdb._rewriter().rewrite_where(parse("SELECT a FROM t WHERE k = 'x'"))
        assert str(where) == "(extract_key_text(t.data, 'k') = 'x')"
        where = sdb._rewriter().rewrite_where(parse("SELECT a FROM t WHERE k > 2"))
        assert str(where) == "(COALESCE(t.k, extract_key_num(t.data, 'k')) > 2)"


class TestReadTable:
    """A physical column is read only in a context of its own type; any
    other context reads the reservoir's extraction, NULL on every row the
    column holds, as the all-virtual layout reads it."""

    def test_text_context_skips_an_integer_column(self, sdb):
        sdb.materialize("t", "n", SqlType.INTEGER)
        sdb.run_materializer("t")
        where = rewritten_where(sdb, "SELECT _id FROM t WHERE n || 'y' = '1y'")
        assert str(where) == "((extract_key_text(t.data, 'n') || 'y') = '1y')"

    def test_numeric_context_skips_text_and_boolean_columns(self, sdb):
        sdb.materialize("t", "flag", SqlType.BOOLEAN)
        sdb.materializer_step("t", max_rows=10)
        items = rewritten_items(sdb, "SELECT phys + 1, flag + 1, flag FROM t")
        assert [str(item.expr) for item in items] == [
            "(extract_key_num(t.data, 'phys') + 1)",
            "(extract_key_num(t.data, 'flag') + 1)",
            "COALESCE(t.flag, extract_key_bool(t.data, 'flag'))",
        ]

    def test_document_column_is_downcast_like_the_reservoir(self):
        sdb = SinewDB("downcast")
        sdb.create_collection("t")
        sdb.load("t", [{"a": 1, "k": {"x": 1}}, {"a": 2, "k": 2}])
        virtual = sdb.query("SELECT k FROM t ORDER BY a").rows
        sdb.materialize("t", "k", SqlType.BYTEA)
        sdb.run_materializer("t")
        expr = rewritten_items(sdb, "SELECT k FROM t")[0].expr
        assert str(expr) == "COALESCE(sinew_downcast(t.k, 'k'), extract_key_any(t.data, 'k'))"
        assert sdb.query("SELECT k FROM t ORDER BY a").rows == virtual == [('{"x": 1}',), ("2",)]
