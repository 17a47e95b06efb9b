"""The per-query decode cache: correctness, counters, and EXPLAIN ANALYZE.

The cache must be *observationally invisible*: every query returns the
same rows with the cache on and off, across all three physical layouts
(fully virtual, fully settled, dirty mid-move) and while the background
materializer is actively replacing rows underneath the query (delay
faults stretch the move window so queries interleave with it).
"""

import time

import pytest

from repro.core import SinewConfig, SinewDB
from repro.core.extraction_context import ExtractionContext
from repro.core.loader import SinewLoader
from repro.core.catalog import SinewCatalog
from repro.core.extractors import ReservoirExtractor
from repro.rdbms.cost import ExtractionStats
from repro.rdbms.database import Database
from repro.rdbms.errors import PlanningError
from repro.rdbms.types import SqlType
from repro.testing.faults import FaultInjector


DOCS = [
    {
        "k": i,
        "name": f"n{i}",
        "score": None if i % 4 == 0 else i * 10,
        "flag": i % 2 == 0,
        "nested": {"inner": i + 100},
    }
    for i in range(24)
]
# a few rows miss "score" entirely (absent, not JSON null)
for doc in DOCS[::5]:
    doc.pop("score")

MULTIKEY = 'SELECT k, name, flag, "nested.inner" FROM t ORDER BY k'


def build(layout: str) -> SinewDB:
    sdb = SinewDB(f"cache_{layout}")
    sdb.create_collection("t")
    sdb.load("t", DOCS)
    if layout in ("settled", "dirty"):
        sdb.materialize("t", "k", SqlType.INTEGER)
        sdb.materialize("t", "name", SqlType.TEXT)
        if layout == "settled":
            sdb.run_materializer("t")
        else:
            sdb.materializer_step("t", max_rows=len(DOCS) // 2)
    sdb.analyze()
    return sdb


@pytest.fixture(params=["virtual", "settled", "dirty"])
def layout_sdb(request):
    return request.param, build(request.param)


# ----------------------------------------------------------------------
# unit: the context itself
# ----------------------------------------------------------------------


class TestContextUnit:
    def setup_method(self):
        db = Database("ctx")
        self.loader = SinewLoader(db, SinewCatalog())

    def serialize(self, doc):
        return self.loader.serialize_document(doc)

    def shared_context(self, stats=None, **options):
        # a memo is only kept when more than one extraction site is bound
        context = ExtractionContext(stats, **options)
        context.sites = 2
        return context

    def test_id_run_unpacked_once_per_object(self):
        stats = ExtractionStats()
        context = self.shared_context(stats)
        data = self.serialize({"a": 1, "b": 2})
        first = context.ids(data)
        assert context.ids(data) is first
        assert stats.header_decodes == 1
        assert stats.header_cache_hits == 1

    def test_equal_but_distinct_bytes_miss(self):
        # identity keying: equal content in a different object is a miss
        stats = ExtractionStats()
        context = self.shared_context(stats)
        data = self.serialize({"a": 1})
        clone = bytes(bytearray(data))
        assert clone == data and clone is not data
        context.ids(data)
        context.ids(clone)
        assert stats.header_decodes == 2
        assert stats.header_cache_hits == 0

    def test_disabled_context_always_decodes(self):
        stats = ExtractionStats()
        context = self.shared_context(stats, enabled=False)
        data = self.serialize({"a": 1})
        context.ids(data)
        context.ids(data)
        context.ids_of([data, None, data])
        context.repeat(2)
        assert stats.header_decodes == 6
        assert stats.header_cache_hits == 0

    def test_single_site_keeps_nothing(self):
        # nobody else can ask again, so nothing is remembered -- or pinned
        stats = ExtractionStats()
        context = ExtractionContext(stats)
        context.sites = 1
        data = self.serialize({"a": 1})
        context.ids(data)
        context.ids_of([data])
        assert not context._headers
        assert (stats.header_decodes, stats.header_cache_hits) == (2, 0)

    def test_fifo_eviction_bounds_memory(self):
        context = self.shared_context(capacity=4)
        buffers = [self.serialize({"a": i}) for i in range(10)]
        for data in buffers:
            context.ids(data)
        assert len(context._headers) == 4
        context.ids_of([self.serialize({"b": i}) for i in range(10)])
        assert len(context._headers) == 4

    def test_batch_pass_shares_with_single_accesses(self):
        stats = ExtractionStats()
        context = self.shared_context(stats)
        blobs = [self.serialize({"a": i}) for i in range(3)] + [None]
        runs, live = context.ids_of(blobs)
        assert live == 3 and runs[3] is None
        assert context.ids(blobs[1]) is runs[1]
        again, _live = context.ids_of(blobs[:2])
        assert again[0] is runs[0]
        assert (stats.header_decodes, stats.header_cache_hits) == (3, 3)

    def test_subdocument_cached_by_identity(self):
        stats = ExtractionStats()
        context = self.shared_context(stats)
        data = self.serialize({"parent": {"child": 7}})
        ids = context.ids(data)
        parent_id = self.loader.catalog.attribute_id("parent", SqlType.BYTEA)
        position = ids.index(parent_id)
        first, first_ids = context.sub(data, len(ids), position, parent_id)
        again, again_ids = context.sub(data, len(ids), position, parent_id)
        assert again is first and again_ids is first_ids
        assert stats.subdoc_decodes == 1
        assert stats.subdoc_cache_hits == 1
        # the nested document's header is the other half of each access
        assert (stats.header_decodes, stats.header_cache_hits) == (2, 1)


# ----------------------------------------------------------------------
# the dotted-key shadowing matrix (satellite S1)
# ----------------------------------------------------------------------


class TestDottedKeyShadowing:
    """Descent tries prefixes longest-first and keeps going on a miss."""

    CASES = {
        "nested_only": ({"a": {"b": {"c": 1}}}, 1),
        "literal_only": ({"a.b.c": 5}, 5),
        "shadow_in_shorter_prefix": ({"a": {"b": {"d": 0}, "b.c": 5}}, 5),
        "longest_prefix_wins": ({"a": {"b": {"c": 1}, "b.c": 5}}, 1),
        "top_level_literal_beats_nothing": ({"a": {"b": {}}, "a.b.c": 9}, 9),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matrix_via_extractor(self, case):
        document, expected = self.CASES[case]
        db = Database(f"shadow_{case}")
        catalog = SinewCatalog()
        loader = SinewLoader(db, catalog)
        extractor = ReservoirExtractor(catalog)
        data = loader.serialize_document(document)
        assert extractor.extract_int(data, "a.b.c") == expected
        assert extractor.exists(data, "a.b.c") is True

    @pytest.mark.parametrize("case", list(CASES))
    def test_matrix_via_sql(self, case):
        document, expected = self.CASES[case]
        sdb = SinewDB(f"shadow_sql_{case}")
        sdb.create_collection("t")
        sdb.load("t", [document])
        assert sdb.query('SELECT "a.b.c" FROM t').scalar() == expected

    def test_false_value_is_found_by_exists(self):
        # exists() must treat a stored False as present (found=bool, not
        # found=is-not-None confusion)
        db = Database("shadow_false")
        catalog = SinewCatalog()
        loader = SinewLoader(db, catalog)
        extractor = ReservoirExtractor(catalog)
        data = loader.serialize_document({"a": {"b.c": False}})
        assert extractor.exists(data, "a.b.c") is True
        assert extractor.extract_bool(data, "a.b.c") is False


# ----------------------------------------------------------------------
# ORDER BY DESC with NULLs over virtual and dirty columns (satellite S2)
# ----------------------------------------------------------------------


class TestDescNulls:
    def expected_scores(self):
        present = sorted(
            (doc["score"] for doc in DOCS if doc.get("score") is not None),
            reverse=True,
        )
        n_null = len(DOCS) - len(present)
        return [None] * n_null + present

    def test_desc_nulls_first_every_layout(self, layout_sdb):
        _layout, sdb = layout_sdb
        result = sdb.query("SELECT score FROM t ORDER BY score DESC")
        assert result.column(0) == self.expected_scores()

    def test_asc_nulls_last_every_layout(self, layout_sdb):
        _layout, sdb = layout_sdb
        result = sdb.query("SELECT score FROM t ORDER BY score")
        assert result.column(0) == list(reversed(self.expected_scores()))

    def test_desc_on_dirty_sort_key(self):
        # sort directly on a half-moved column: NULLs first, then values
        sdb = SinewDB("desc_dirty_key")
        sdb.create_collection("t")
        sdb.load("t", DOCS)
        sdb.materialize("t", "score", SqlType.INTEGER)
        sdb.materializer_step("t", max_rows=len(DOCS) // 2)
        result = sdb.query("SELECT score FROM t ORDER BY score DESC")
        assert result.column(0) == self.expected_scores()


# ----------------------------------------------------------------------
# cache correctness: cached == uncached on every layout (satellite S4)
# ----------------------------------------------------------------------


class TestCacheCorrectness:
    def test_cached_matches_uncached(self, layout_sdb):
        layout, sdb = layout_sdb
        cached = sdb.query(MULTIKEY)
        uncached = sdb.query(MULTIKEY, use_extraction_cache=False)
        assert cached.rows == uncached.rows
        assert uncached.exec_stats["header_cache_hits"] == 0
        if layout != "settled":
            # at least one virtual column -> the cache actually engaged
            assert cached.exec_stats["header_cache_hits"] > 0
            assert (
                cached.exec_stats["header_decodes"]
                < uncached.exec_stats["header_decodes"]
            )

    def test_total_header_accesses_are_layout_invariant(self, layout_sdb):
        _layout, sdb = layout_sdb
        cached = sdb.query(MULTIKEY)
        uncached = sdb.query(MULTIKEY, use_extraction_cache=False)
        assert (
            cached.exec_stats["header_decodes"]
            + cached.exec_stats["header_cache_hits"]
            == uncached.exec_stats["header_decodes"]
        )

    def test_config_default_can_disable_cache(self):
        sdb = SinewDB("cfg_off", SinewConfig(enable_extraction_cache=False))
        sdb.create_collection("t")
        sdb.load("t", DOCS)
        result = sdb.query("SELECT k, name FROM t")
        assert result.exec_stats["header_cache_hits"] == 0
        assert result.exec_stats["header_decodes"] > 0

    def test_queries_interleaved_with_materializer_moves(self):
        """Delay faults stretch every row move; repeated cached queries run
        *while* rows are being replaced and must stay correct throughout."""
        sdb = SinewDB(
            "interleave",
            SinewConfig(daemon_step_rows=3, daemon_idle_sleep=0.001),
        )
        sdb.create_collection("t")
        sdb.load("t", DOCS)
        truth = sdb.query(MULTIKEY, use_extraction_cache=False).rows

        injector = FaultInjector()
        injector.plan(
            "materializer.after_row_move",
            "delay",
            at=1,
            count=None,
            delay=0.002,
        )
        sdb.attach_faults(injector)
        sdb.materialize("t", "k", SqlType.INTEGER)
        sdb.materialize("t", "name", SqlType.TEXT)
        sdb.daemon.start()
        try:
            deadline = time.monotonic() + 10.0
            observed_moves = 0
            while time.monotonic() < deadline:
                assert sdb.query(MULTIKEY).rows == truth
                observed_moves = injector.hits.get(
                    "materializer.after_row_move", 0
                )
                # a slice rewrites each row once for both columns
                if observed_moves >= len(DOCS):
                    break
        finally:
            sdb.daemon.stop()
        assert observed_moves >= len(DOCS)
        # and after the dust settles the answer is still the same
        assert sdb.query(MULTIKEY).rows == truth
        assert sdb.query(MULTIKEY, use_extraction_cache=False).rows == truth


class TestMoveWindowPlans:
    """Plans must bridge the physical/reservoir split at every move stage."""

    def test_marked_column_bridges_before_first_move(self):
        # materialize() allocates the physical column eagerly, so a query
        # planned before any row moves already carries the COALESCE bridge
        # (previously the daemon allocated it lazily and a query planned in
        # the gap could lose a concurrently-moved value)
        sdb = SinewDB("premark")
        sdb.create_collection("t")
        sdb.load("t", DOCS)
        sdb.materialize("t", "name", SqlType.TEXT)
        state, = [
            s
            for s in sdb.catalog.table("t").columns.values()
            if sdb.catalog.attribute(s.attr_id).key_name == "name"
        ]
        assert state.physical_name
        assert state.physical_name in sdb.db.table("t").schema
        assert "COALESCE" in sdb.explain("SELECT name FROM t")

    def test_dematerializing_column_bridges_and_stays_correct(self):
        # mid-dematerialization, unmoved rows hold the value only in the
        # physical cell; the rewrite must consult both sides
        sdb = SinewDB("demat_bridge")
        sdb.create_collection("t")
        sdb.load("t", DOCS)
        sdb.materialize("t", "name", SqlType.TEXT)
        sdb.run_materializer("t")
        truth = sorted(sdb.query("SELECT k, name FROM t").rows)
        sdb.dematerialize("t", "name", SqlType.TEXT)
        sdb.materializer_step("t", max_rows=len(DOCS) // 2)
        assert "COALESCE" in sdb.explain("SELECT name FROM t")
        assert sorted(sdb.query("SELECT k, name FROM t").rows) == truth
        assert (
            sorted(sdb.query("SELECT k, name FROM t", use_extraction_cache=False).rows)
            == truth
        )
        # completing the move drops the bridge again
        sdb.run_materializer("t")
        assert "COALESCE" not in sdb.explain("SELECT name FROM t")
        assert sorted(sdb.query("SELECT k, name FROM t").rows) == truth


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE surface (tentpole)
# ----------------------------------------------------------------------


class TestExplainAnalyze:
    def test_plan_text_has_nodes_counters_and_time(self):
        sdb = build("dirty")
        result = sdb.query(MULTIKEY, explain_analyze=True)
        text = result.plan_text
        assert "actual rows=" in text
        assert "loops=" in text
        assert "header_decodes=" in text
        assert "Extraction keys per row:" in text  # multi-key query tagged
        assert "Execution time:" in text
        # analyzed queries still return their rows
        assert len(result.rows) == len(DOCS)

    def test_exec_stats_on_every_query(self):
        sdb = build("virtual")
        stats = sdb.query(MULTIKEY).exec_stats
        for key in (
            "udf_calls",
            "header_decodes",
            "header_cache_hits",
            "subdoc_decodes",
            "subdoc_cache_hits",
            "execution_seconds",
            "rows",
        ):
            assert key in stats
        assert stats["rows"] == len(DOCS)
        assert stats["udf_calls"] > 0

    def test_explain_analyze_helper_rejects_non_select(self):
        sdb = build("virtual")
        with pytest.raises(PlanningError):
            sdb.explain_analyze("DELETE FROM t")
