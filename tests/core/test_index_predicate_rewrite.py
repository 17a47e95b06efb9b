"""Tests for automatic index prefiltering of virtual-column predicates
(section 4.3: "rewriting predicates over virtual columns into queries of
the text index")."""

import pytest

from repro.core import SinewConfig, SinewDB
from repro.rdbms.types import SqlType


def indexed_sdb(prefilter=True):
    config = SinewConfig(
        enable_text_index=True, rewrite_predicates_with_index=prefilter
    )
    sdb = SinewDB("idxrw", config)
    sdb.create_collection("t")
    documents = []
    for index in range(400):
        # wide enough rows that a scan beats an expression index on `rare`,
        # and `rare` on half of them, so a scan beats its shape index too:
        # without the prefilter every row is extracted from
        document = {"n": index, "color": ["red", "green", "blue"][index % 3], "pad": "x" * 200}
        if index % 2 == 0:
            document["rare"] = "needle" if index % 100 == 0 else "hay"
        documents.append(document)
    sdb.load("t", documents)
    return sdb


class TestPrefilterPlan:
    def test_equality_on_virtual_text_gets_index_probe(self):
        sdb = indexed_sdb()
        plan = sdb.explain("SELECT n FROM t WHERE rare = 'needle'")
        assert "sinew_matches" in plan
        assert "extract_key_text" in plan  # the exactness recheck stays

    def test_disabled_without_option(self):
        sdb = indexed_sdb(prefilter=False)
        plan = sdb.explain("SELECT n FROM t WHERE rare = 'needle'")
        assert "sinew_matches" not in plan

    def test_numeric_equality_untouched(self):
        sdb = indexed_sdb()
        plan = sdb.explain("SELECT n FROM t WHERE n = 5")
        assert "sinew_matches" not in plan

    def test_multi_token_literal_untouched(self):
        sdb = indexed_sdb()
        plan = sdb.explain("SELECT n FROM t WHERE rare = 'two words'")
        assert "sinew_matches" not in plan

    def test_physical_column_untouched(self):
        sdb = indexed_sdb()
        sdb.materialize("t", "color", SqlType.TEXT)
        sdb.run_materializer("t")
        plan = sdb.explain("SELECT n FROM t WHERE color = 'red'")
        assert "sinew_matches" not in plan

    def test_range_predicates_untouched(self):
        sdb = indexed_sdb()
        plan = sdb.explain("SELECT n FROM t WHERE rare > 'a'")
        assert "sinew_matches" not in plan


class TestPrefilterResults:
    def test_results_identical_with_and_without(self):
        with_index = indexed_sdb(prefilter=True)
        without = indexed_sdb(prefilter=False)
        sql = "SELECT n FROM t WHERE rare = 'needle'"
        assert sorted(with_index.query(sql).column(0)) == sorted(
            without.query(sql).column(0)
        )
        assert with_index.query(sql).rows  # non-empty

    def test_recheck_filters_token_collisions(self):
        # two values sharing a token must not cross-match under equality
        config = SinewConfig(enable_text_index=True, rewrite_predicates_with_index=True)
        sdb = SinewDB("collide", config)
        sdb.create_collection("t")
        sdb.load("t", [{"k": "alpha", "n": 1}, {"k": "ALPHA", "n": 2}])
        result = sdb.query("SELECT n FROM t WHERE k = 'alpha'")
        # tokenization lowercases both, but the recheck enforces exact equality
        assert result.column(0) == [1]

    def test_prefilter_reduces_extraction_calls(self):
        sdb = indexed_sdb(prefilter=True)
        sdb.db.counters.reset()
        sdb.query("SELECT n FROM t WHERE rare = 'needle'")
        with_index_calls = sdb.db.counters.udf_calls

        plain = indexed_sdb(prefilter=False)
        plain.db.counters.reset()
        plain.query("SELECT n FROM t WHERE rare = 'needle'")
        without_calls = plain.db.counters.udf_calls
        # extraction ran only on the index candidates (4 docs), not all 400
        assert with_index_calls < without_calls / 4
