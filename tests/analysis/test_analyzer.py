"""Tests for the semantic analyzer and catalog-aware query linter."""

import pytest

from repro.analysis import Severity, analyze, render_diagnostic
from repro.core import SinewDB
from repro.rdbms.errors import PlanningError, SemanticError
from repro.rdbms.types import SqlType


@pytest.fixture()
def sdb():
    instance = SinewDB("an")
    instance.create_collection("t")
    instance.load(
        "t",
        [
            {"url": "a.com", "hits": 22, "dyn": 5, "flag": True},
            {"url": "b.com", "hits": 7, "dyn": "five"},
            {"url": "c.com", "hits": 15, "dyn": 9},
        ],
    )
    instance.db.create_table("plain", [("x", SqlType.INTEGER)])
    return instance


def run(sdb, sql):
    return analyze(
        sql, catalog=sdb.catalog, collections=set(sdb.collections()), db=sdb.db
    )


def codes(result):
    return [d.code for d in result.diagnostics]


def fragment(sql, diagnostic):
    assert diagnostic.span is not None, diagnostic
    start, end = diagnostic.span
    return sql[start:end]


class TestSemanticErrors:
    def test_unknown_table_snw101(self, sdb):
        sql = "SELECT x FROM missing"
        result = run(sdb, sql)
        assert codes(result) == ["SNW101"]
        assert fragment(sql, result.errors[0]) == "missing"

    def test_unknown_table_alias_snw101(self, sdb):
        sql = "SELECT q.url FROM t"
        result = run(sdb, sql)
        assert codes(result) == ["SNW101"]
        assert fragment(sql, result.errors[0]) == "q.url"

    def test_unknown_plain_column_snw102(self, sdb):
        sql = "SELECT nope FROM plain"
        result = run(sdb, sql)
        assert codes(result) == ["SNW102"]
        assert fragment(sql, result.errors[0]) == "nope"

    def test_ambiguous_column_snw103(self, sdb):
        sdb.create_collection("u")
        sdb.load("u", [{"url": "x.org"}])
        sql = "SELECT url FROM t, u"
        result = run(sdb, sql)
        assert codes(result) == ["SNW103"]
        assert fragment(sql, result.errors[0]) == "url"
        assert result.errors[0].hint is not None

    def test_unknown_function_snw104(self, sdb):
        sql = "SELECT frobnicate(url) FROM t"
        result = run(sdb, sql)
        assert codes(result) == ["SNW104"]
        assert fragment(sql, result.errors[0]) == "frobnicate(url)"

    def test_aggregate_in_where_snw105(self, sdb):
        sql = "SELECT url FROM t WHERE count(*) > 1"
        result = run(sdb, sql)
        assert "SNW105" in codes(result)
        diagnostic = next(d for d in result.errors if d.code == "SNW105")
        assert fragment(sql, diagnostic) == "count(*)"

    def test_nested_aggregate_snw106(self, sdb):
        sql = "SELECT sum(count(hits)) FROM t"
        result = run(sdb, sql)
        assert "SNW106" in codes(result)

    def test_ungrouped_column_snw107(self, sdb):
        sql = "SELECT url, count(*) FROM t"
        result = run(sdb, sql)
        assert codes(result) == ["SNW107"]
        assert fragment(sql, result.errors[0]) == "url"

    def test_non_numeric_arithmetic_snw108(self, sdb):
        sql = "SELECT url FROM t WHERE hits + 'x' > 1"
        result = run(sdb, sql)
        assert "SNW108" in codes(result)
        diagnostic = next(d for d in result.errors if d.code == "SNW108")
        assert fragment(sql, diagnostic) == "'x'"

    def test_wrong_arg_count_snw109(self, sdb):
        sql = "SELECT length(url, hits) FROM t"
        result = run(sdb, sql)
        assert codes(result) == ["SNW109"]


class TestCatalogLintWarnings:
    def test_unknown_key_warns_snw201(self, sdb):
        sql = "SELECT never_seen FROM t"
        result = run(sdb, sql)
        assert codes(result) == ["SNW201"]
        assert result.ok  # warning, not error
        assert fragment(sql, result.warnings[0]) == "never_seen"

    def test_provably_null_numeric_on_text_key_snw202(self, sdb):
        sql = "SELECT url FROM t WHERE url > 5"
        result = run(sdb, sql)
        assert codes(result) == ["SNW202"]
        assert len(result.null_predicates) == 1

    def test_provably_null_like_on_numeric_key(self, sdb):
        sql = "SELECT url FROM t WHERE hits LIKE 'a%'"
        result = run(sdb, sql)
        assert codes(result) == ["SNW202"]
        assert len(result.null_predicates) == 1

    def test_compatible_comparison_not_flagged(self, sdb):
        # dyn holds both integers and text: numeric comparison can match
        result = run(sdb, "SELECT url FROM t WHERE dyn > 3")
        assert codes(result) == []
        assert not result.null_predicates

    def test_is_null_never_pruned(self, sdb):
        # IS NULL on an always-NULL extraction is TRUE, not NULL; pruning
        # it would be wrong, so it must never be in null_predicates
        result = run(sdb, "SELECT url FROM t WHERE never_seen IS NULL")
        assert not result.null_predicates

    def test_materialized_key_not_pruned(self, sdb):
        sdb.materialize("t", "url", SqlType.TEXT)
        sdb.run_materializer("t")
        result = run(sdb, "SELECT url FROM t WHERE url > 5")
        assert not result.null_predicates

    def test_multi_typed_projection_snw203(self, sdb):
        sql = "SELECT dyn FROM t"
        result = run(sdb, sql)
        assert codes(result) == ["SNW203"]
        assert fragment(sql, result.warnings[0]) == "dyn"

    def test_incompatible_literal_comparison_snw204(self, sdb):
        result = run(sdb, "SELECT url FROM t WHERE 1 = 'x'")
        assert codes(result) == ["SNW204"]


class TestCleanQueries:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT url, hits FROM t WHERE hits > 10",
            "SELECT url, count(*) FROM t GROUP BY url",
            "SELECT t.url AS u FROM t ORDER BY u",
            "SELECT upper(url) FROM t WHERE hits BETWEEN 5 AND 30",
            "SELECT url FROM t, plain WHERE plain.x = hits",
            "SELECT count(*) FROM t HAVING count(*) > 0",
            "SELECT hits, count(*) FROM t GROUP BY hits",
            # alias-qualified group key matches unqualified select spelling
            "SELECT t.url, count(*) FROM t GROUP BY url",
        ],
    )
    def test_no_diagnostics(self, sdb, sql):
        result = run(sdb, sql)
        assert result.diagnostics == (), [str(d) for d in result.diagnostics]


class TestExecutionWiring:
    def test_semantic_error_blocks_execution(self, sdb):
        with pytest.raises(SemanticError) as excinfo:
            sdb.query("SELECT frobnicate(url) FROM t")
        assert "SNW104" in str(excinfo.value)
        # still a PlanningError for existing except-clauses
        assert isinstance(excinfo.value, PlanningError)

    def test_error_carries_position(self, sdb):
        with pytest.raises(SemanticError) as excinfo:
            sdb.query("SELECT frobnicate(url) FROM t")
        assert excinfo.value.position == 7

    def test_warnings_attach_to_result(self, sdb):
        result = sdb.query("SELECT never_seen FROM t")
        assert [d.code for d in result.diagnostics] == ["SNW201"]
        assert len(result.rows) == 3

    def test_update_unknown_target_still_allowed(self, sdb):
        result = sdb.execute("UPDATE t SET brand_new = 5 WHERE hits > 20")
        assert result.rowcount == 1
        assert sdb.query("SELECT brand_new FROM t WHERE hits > 20").rows == [(5,)]

    def test_delete_with_warning(self, sdb):
        result = sdb.execute("DELETE FROM t WHERE never_seen = 1")
        assert result.rowcount == 0
        assert [d.code for d in result.diagnostics] == ["SNW201"]
        assert len(sdb.query("SELECT url FROM t").rows) == 3


class TestPredicatePruning:
    def test_pruned_query_is_equivalent_and_cheaper(self, sdb):
        # catalog-provably-NULL predicate: url is 100% text, compared
        # numerically; OR-combined so the query still returns rows
        sql = "SELECT url FROM t WHERE hits > 10 OR url > 5"

        analysis = run(sdb, sql)
        assert [d.code for d in analysis.warnings] == ["SNW202"]

        sdb.db.counters.reset()
        pruned_rows = sorted(sdb.query(sql).rows)
        pruned_udf_calls = sdb.db.counters.udf_calls

        # the pruned predicate costs no extraction: the query does the
        # work of the surviving disjunct alone
        sdb.db.counters.reset()
        surviving_rows = sorted(sdb.query("SELECT url FROM t WHERE hits > 10").rows)
        surviving_udf_calls = sdb.db.counters.udf_calls

        assert pruned_rows == surviving_rows
        assert pruned_rows == [("a.com",), ("c.com",)]
        assert pruned_udf_calls == surviving_udf_calls

    def test_pruning_exact_under_negation(self, sdb):
        # NOT(NULL) is NULL: rows where the comparison is NULL stay
        # excluded either way
        sql = "SELECT url FROM t WHERE NOT (url > 5)"
        assert sdb.query(sql).rows == []

    def test_unknown_key_comparison_pruned(self, sdb):
        sql = "SELECT url FROM t WHERE never_seen = 3"
        analysis = run(sdb, sql)
        assert len(analysis.null_predicates) == 1
        assert sdb.query(sql).rows == []


class TestRendering:
    def test_caret_underline(self, sdb):
        sql = "SELECT frobnicate(url) FROM t"
        result = run(sdb, sql)
        rendered = render_diagnostic(result.errors[0], sql)
        lines = rendered.splitlines()
        assert lines[1].strip() == sql
        assert lines[2].strip() == "^" * len("frobnicate(url)")

    def test_severity_accessors(self, sdb):
        result = run(sdb, "SELECT never_seen FROM t")
        (diagnostic,) = result.diagnostics
        assert diagnostic.severity is Severity.WARNING
        assert diagnostic.is_warning and not diagnostic.is_error
