"""End-to-end tests of the SinewDB facade."""

import re

import pytest

from repro.core import SinewConfig, SinewDB
from repro.rdbms.errors import CatalogError, PlanningError
from repro.rdbms.types import SqlType

DOCS = [
    {"url": "www.sample-site.com", "hits": 22, "avg_site_visit": 128.5, "country": "pl"},
    {
        "url": "www.sample-site2.com",
        "hits": 15,
        "date": "8/19/13",
        "ip": "123.45.67.89",
        "owner": "John P. Smith",
    },
]


@pytest.fixture()
def sdb():
    instance = SinewDB("facade")
    instance.create_collection("webrequests")
    instance.load("webrequests", DOCS)
    return instance


class TestCollections:
    def test_create_duplicate_rejected(self, sdb):
        with pytest.raises(CatalogError):
            sdb.create_collection("webrequests")

    def test_unknown_collection_rejected(self, sdb):
        with pytest.raises(CatalogError):
            sdb.load("ghost", [{}])

    def test_drop_collection(self, sdb):
        sdb.drop_collection("webrequests")
        assert "webrequests" not in sdb.collections()


class TestPaperRunningExample:
    """The webrequests example of Figures 2-3 and section 3.2.2."""

    def test_figure_3_projection(self, sdb):
        result = sdb.query("SELECT url FROM webrequests WHERE hits > 20")
        assert result.rows == [("www.sample-site.com",)]

    def test_section_322_rewrite_example(self, sdb):
        result = sdb.query(
            "SELECT url, owner FROM webrequests WHERE ip IS NOT NULL"
        )
        assert result.rows == [("www.sample-site2.com", "John P. Smith")]

    def test_missing_keys_are_null(self, sdb):
        result = sdb.query("SELECT owner FROM webrequests WHERE hits = 22")
        assert result.rows == [(None,)]

    def test_logical_schema_lists_all_keys(self, sdb):
        keys = {key for key, _t, _s in sdb.logical_schema("webrequests")}
        assert keys == {
            "url", "hits", "avg_site_visit", "country", "date", "ip", "owner"
        }


class TestStarQueries:
    def test_star_reconstructs_documents(self, sdb):
        result = sdb.query("SELECT * FROM webrequests WHERE hits > 20")
        assert result.columns == ["document"]
        assert result.rows[0][0] == DOCS[0]

    def test_star_after_materialization(self, sdb):
        sdb.materialize("webrequests", "url", SqlType.TEXT)
        sdb.run_materializer("webrequests")
        result = sdb.query("SELECT * FROM webrequests WHERE hits > 20")
        assert result.rows[0][0] == DOCS[0]

    def test_star_join_two_documents(self, sdb):
        sdb.create_collection("owners")
        sdb.load("owners", [{"name": "John P. Smith", "age": 44}])
        result = sdb.query(
            "SELECT * FROM webrequests w, owners o WHERE w.owner = o.name"
        )
        assert result.columns == ["w", "o"]
        assert result.rows[0][0]["url"] == "www.sample-site2.com"
        assert result.rows[0][1]["age"] == 44

    def test_mixed_star_and_expression(self, sdb):
        result = sdb.query("SELECT hits, * FROM webrequests WHERE hits = 15")
        assert result.columns[0] == "hits"
        assert result.rows[0][0] == 15
        assert result.rows[0][1]["owner"] == "John P. Smith"


class TestUpdates:
    def test_update_virtual_column(self, sdb):
        result = sdb.execute(
            "UPDATE webrequests SET owner = 'New Owner' WHERE hits = 22"
        )
        assert result.rowcount == 1
        assert sdb.query("SELECT owner FROM webrequests WHERE hits = 22").rows == [
            ("New Owner",)
        ]

    def test_update_physical_column(self, sdb):
        sdb.materialize("webrequests", "url", SqlType.TEXT)
        sdb.run_materializer("webrequests")
        sdb.execute("UPDATE webrequests SET url = 'changed' WHERE hits = 22")
        assert sdb.query("SELECT url FROM webrequests WHERE hits = 22").rows == [
            ("changed",)
        ]

    def test_update_creates_new_attribute(self, sdb):
        sdb.execute("UPDATE webrequests SET brand_new = 'x' WHERE hits = 15")
        assert sdb.query(
            "SELECT brand_new FROM webrequests WHERE hits = 15"
        ).rows == [("x",)]
        keys = {key for key, _t, _s in sdb.logical_schema("webrequests")}
        assert "brand_new" in keys

    def test_delete(self, sdb):
        result = sdb.execute("DELETE FROM webrequests WHERE hits = 15")
        assert result.rowcount == 1
        assert sdb.query("SELECT count(*) FROM webrequests").scalar() == 1

    def test_nobench_style_sparse_update(self, sdb):
        sdb.load("webrequests", [{"sparse_589": "MAGIC", "n": 1}])
        result = sdb.execute(
            "UPDATE webrequests SET sparse_588 = 'DUMMY' "
            "WHERE sparse_589 = 'MAGIC'"
        )
        assert result.rowcount == 1
        check = sdb.query(
            "SELECT sparse_588 FROM webrequests WHERE sparse_589 = 'MAGIC'"
        )
        assert check.rows == [("DUMMY",)]


class TestDocumentsIterator:
    def test_roundtrip(self, sdb):
        documents = dict(sdb.documents("webrequests"))
        assert documents[0] == DOCS[0]
        assert documents[1] == DOCS[1]

    def test_includes_materialized_values(self, sdb):
        sdb.materialize("webrequests", "hits", SqlType.INTEGER)
        sdb.run_materializer("webrequests")
        documents = dict(sdb.documents("webrequests"))
        assert documents[0]["hits"] == 22


class TestTextSearch:
    def make_indexed(self):
        sdb = SinewDB("txt", SinewConfig(enable_text_index=True))
        sdb.create_collection("posts")
        sdb.load(
            "posts",
            [
                {"title": "sinew is a sql system", "votes": 5},
                {"title": "mongodb and friends", "votes": 2},
                {"body": "sql databases forever", "votes": 9},
            ],
        )
        return sdb

    def test_matches_in_where_clause(self):
        sdb = self.make_indexed()
        result = sdb.query("SELECT votes FROM posts WHERE matches('*', 'sql')")
        assert sorted(result.column(0)) == [5, 9]

    def test_matches_with_field_restriction(self):
        sdb = self.make_indexed()
        result = sdb.query(
            "SELECT votes FROM posts WHERE matches('title', 'sql')"
        )
        assert result.column(0) == [5]

    def test_matches_combined_with_predicate(self):
        sdb = self.make_indexed()
        result = sdb.query(
            "SELECT votes FROM posts WHERE matches('*', 'sql') AND votes > 6"
        )
        assert result.column(0) == [9]

    def test_matches_without_index_raises(self, sdb):
        with pytest.raises(PlanningError, match="text index"):
            sdb.query("SELECT url FROM webrequests WHERE matches('*', 'x')")

    def test_index_follows_updates(self):
        sdb = self.make_indexed()
        sdb.execute("UPDATE posts SET title = 'renamed entirely' WHERE votes = 5")
        result = sdb.query("SELECT votes FROM posts WHERE matches('title', 'renamed')")
        assert result.column(0) == [5]


class TestExplain:
    def test_explain_shows_rewritten_plan(self, sdb):
        plan = sdb.explain("SELECT url FROM webrequests WHERE hits > 20")
        assert "extract_key" in plan
        assert "Seq Scan on webrequests" in plan

    def test_explain_star(self, sdb):
        plan = sdb.explain("SELECT * FROM webrequests")
        assert "sinew_to_json" in plan

    def test_explain_sql_plans_the_sinew_prepare(self, sdb):
        select = "SELECT url FROM webrequests WHERE hits > 20"
        assert sdb.query(f"EXPLAIN {select}").plan_text == sdb.explain(select)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM webrequests WHERE hits > 20",
            "SELECT url FROM webrequests WHERE nosuchkey = 3",
        ],
    )
    def test_explain_is_the_plan_that_runs(self, sdb, sql):
        sdb.materialize("webrequests", "hits", SqlType.INTEGER)
        sdb.run_materializer("webrequests")
        analyzed = sdb.query(sql, explain_analyze=True).plan_text
        # EXPLAIN ANALYZE is the same tree with actuals and a summary added
        planned = [
            re.sub(r"  \(actual [^)]*\)$", "", line)
            for line in analyzed.splitlines()
            if not line.startswith(("Extraction", "Execution time"))
        ]
        assert sdb.explain(sql) == "\n".join(planned)


class TestCatalogSync:
    def test_sync_catalog_queryable(self, sdb):
        sdb.sync_catalog()
        result = sdb.db.execute(
            "SELECT key_name FROM _sinew_attributes ORDER BY key_name"
        )
        assert ("url",) in result.rows
