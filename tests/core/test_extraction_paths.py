"""Resolved extraction paths: ``ReservoirExtractor.bind`` / ``BoundPaths``.

The specialised form of the extraction UDFs must be the plain call in
every observable respect: the same values and the same extraction
accounting, whether the calls run per batch (``columns``), per row
(``one``) or through the UDF itself -- over multi-typed keys, nested and
literal dotted keys, keys the dictionary learns about later, and NULL
reservoirs.
"""

import pytest

from repro.core import SinewDB
from repro.core.catalog import SinewCatalog
from repro.core.extractors import EXTRACTION_UDFS, ReservoirExtractor
from repro.core.loader import SinewLoader
from repro.rdbms.cost import ExtractionStats
from repro.rdbms.database import Database
from repro.rdbms.expressions import SchemaResolver, compile_expr
from repro.rdbms.sql.parser import parse

#: every extractor method that takes ``(data, key)``
METHODS = [method for method, _type in EXTRACTION_UDFS.values() if method != "to_json"]

DOCUMENTS = [
    {"dyn1": 7, "s": "x", "a": {"b": {"c": 1}, "b.c": 5}, "u": {"lang": "en", "id": 3}},
    {"dyn1": "seven", "s": "y", "a": {"b": {"d": 0}, "b.c": 6}, "u": {"lang": "de"}},
    {"dyn1": 7.5, "a.b.c": 9, "a": {"b": {}}, "flag": False},
    {"dyn1": True, "s": "z", "a": {"x": 1}, "arr": [1, "two"]},
    {"other": 1},
]
KEYS = ["dyn1", "s", "a.b.c", "a.b", "a", "u.lang", "u.id", "flag", "arr", "missing", "a.q.r"]


class Scope:
    """What ``begin_query`` reads off an execution context."""

    def __init__(self, use_extraction_cache: bool = True):
        self.extract_stats = ExtractionStats()
        self.use_extraction_cache = use_extraction_cache


@pytest.fixture()
def setup():
    catalog = SinewCatalog()
    loader = SinewLoader(Database("paths"), catalog)
    extractor = ReservoirExtractor(catalog)
    blobs = [loader.serialize_document(doc) for doc in DOCUMENTS] + [None]
    return extractor, loader, blobs


def signature(stats: ExtractionStats) -> tuple[int, int]:
    return (
        stats.header_decodes + stats.header_cache_hits,
        stats.subdoc_decodes + stats.subdoc_cache_hits,
    )


def run(extractor, scope, work):
    extractor.begin_query(scope)
    try:
        return work()
    finally:
        extractor.end_query(scope)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("method", METHODS)
def test_batch_row_and_plain_call_agree(setup, method, enabled):
    extractor, _loader, blobs = setup
    requests = [(method, (key,)) for key in KEYS]

    plain_scope = Scope(enabled)
    plain = run(
        extractor,
        plain_scope,
        lambda: [[getattr(extractor, method)(blob, key) for blob in blobs] for key in KEYS],
    )

    batch_scope = Scope(enabled)
    batch = run(extractor, batch_scope, lambda: extractor.bind(requests).columns(blobs))

    row_scope = Scope(enabled)

    def by_row():
        bound = [extractor.bind([request]) for request in requests]
        return [[one.one(blob) for blob in blobs] for one in bound]

    rows = run(extractor, row_scope, by_row)

    assert batch == plain
    assert rows == plain
    assert signature(batch_scope.extract_stats) == signature(plain_scope.extract_stats)
    assert signature(row_scope.extract_stats) == signature(plain_scope.extract_stats)
    if enabled:
        # one pass unpacks each top-level header once for all eleven keys
        assert batch_scope.extract_stats.header_decodes <= (
            plain_scope.extract_stats.header_decodes
        )
    else:
        assert batch_scope.extract_stats.header_cache_hits == 0
        assert row_scope.extract_stats.header_cache_hits == 0


def test_multi_typed_key_is_extracted_by_type(setup):
    extractor, _loader, blobs = setup
    bound = extractor.bind(
        [("extract_num", ("dyn1",)), ("extract_text", ("dyn1",)), ("extract_bool", ("dyn1",)),
         ("extract_any", ("dyn1",)), ("exists", ("dyn1",))]
    )
    assert bound.columns(blobs) == [
        [7, None, 7.5, None, None, None],
        [None, "seven", None, None, None, None],
        [None, None, None, True, None, None],
        ["7", "seven", "7.5", "true", None, None],
        [True, True, True, True, False, False],
    ]


def test_extract_num_charges_its_second_attempt(setup):
    extractor, _loader, blobs = setup
    scope = Scope()
    run(extractor, scope, lambda: extractor.bind([("extract_num", ("dyn1",))]).columns(blobs))
    # five documents; the INTEGER attempt misses in four of them
    assert signature(scope.extract_stats) == (5 + 4, 0)
    assert scope.extract_stats.header_decodes == 5


def test_dotted_key_shadowing_matrix(setup):
    extractor, _loader, blobs = setup
    ints, exists = extractor.bind(
        [("extract_int", ("a.b.c",)), ("exists", ("a.b.c",))]
    ).columns(blobs)
    # longest nested prefix wins; a miss inside it falls back to the literal
    # "b.c" in the shallower document, then to the top-level literal key
    assert ints == [1, 6, 9, None, None, None]
    assert exists == [True, True, True, False, False, False]


def test_parent_present_leaf_absent(setup):
    extractor, _loader, blobs = setup
    scope = Scope()
    values = run(
        extractor, scope, lambda: extractor.bind([("extract_text", ("u.id",))]).columns(blobs)
    )
    assert values == [[None] * 6]  # u.id is an integer where it exists at all
    # "u" is entered where present (two documents): one sub-document and one
    # nested header each, on top of the five top-level headers
    assert signature(scope.extract_stats) == (5 + 2, 2)


def test_key_registered_after_binding(setup):
    extractor, loader, blobs = setup
    bound = extractor.bind([("extract_text", ("late",)), ("extract_int", ("late.n",))])
    assert bound.columns(blobs) == [[None] * 6, [None] * 6]
    one = extractor.bind([("exists", ("late",))])
    assert one.one(blobs[0]) is False
    # a load running beside the query introduces the keys
    later = loader.serialize_document({"late": "now", "late.n": 4})
    nested = loader.serialize_document({"late": {"n": 5}})
    assert bound.columns([later, nested, None]) == [["now", None, None], [4, 5, None]]
    assert one.one(later) is True and one.one(nested) is True


def test_null_reservoir(setup):
    extractor, _loader, _blobs = setup
    requests = [("extract_text", ("s",)), ("exists", ("s",)), ("extract_any", ("s",))]
    scope = Scope()
    assert run(extractor, scope, lambda: extractor.bind(requests).columns([None, None])) == [
        [None, None], [False, False], [None, None],
    ]
    assert extractor.bind([("exists", ("s",))]).one(None) is False
    assert signature(scope.extract_stats) == (0, 0)


def test_sql_and_specialised_form_agree_on_every_lane():
    """The rewritten statement runs through the hook in the batch pipeline;
    its predicate and each select item, compiled in the row form and
    called per heap row (the form DML uses), give the same rows and the
    same accounting."""
    sdb = SinewDB("paths_lanes")
    try:
        sdb.create_collection("t")
        sdb.load("t", DOCUMENTS * 40)
        sql = 'SELECT dyn1, s, "a.b.c", "u.lang" FROM t WHERE "u.id" IS NULL'
        batch = sdb.query(sql)
        statement = sdb._prepare_select(parse(sql), sdb.catalog.plan_token()).statement
        database = sdb.db
        table = database.table("t")
        resolver = SchemaResolver([("t", c.name) for c in table.schema], database.functions)
        context = database.execution_context()
        udf_calls = database.counters.udf_calls
        database.functions.begin_query(context)
        try:
            keep = compile_expr(statement.where, resolver)
            items = [compile_expr(item.expr, resolver) for item in statement.items]
            rows = [
                tuple(fn(row) for fn in items)
                for _rid, row in table.scan()
                if keep(row) is True
            ]
        finally:
            database.functions.end_query(context)
        stats = context.extract_stats.as_dict()
        stats["udf_calls"] = database.counters.udf_calls - udf_calls
    finally:
        sdb.close()
    assert len(batch.rows) == 4 * 40
    assert batch.rows == rows
    assert batch.exec_stats["udf_calls"] == stats["udf_calls"]
    assert signature_of(batch.exec_stats) == signature_of(stats)


def signature_of(exec_stats: dict) -> tuple[int, int]:
    return (
        exec_stats["header_decodes"] + exec_stats["header_cache_hits"],
        exec_stats["subdoc_decodes"] + exec_stats["subdoc_cache_hits"],
    )



def test_unsettled_path_is_looked_up_again_only_when_the_dictionary_grows(setup):
    """``extract_num`` of a key held only as an integer has a REAL path
    that never settles; it is looked up again when a load adds to the
    dictionary, not on every row."""
    extractor, loader, blobs = setup
    catalog = extractor.catalog
    lookups = []
    lookup_id = catalog.lookup_id
    catalog.lookup_id = lambda *args: lookups.append(args) or lookup_id(*args)
    row = extractor.bind([("extract_num", ("other",))])
    batch = extractor.bind([("extract_num", ("other",))])
    assert len(lookups) == 4  # INTEGER and REAL, once per instance
    for _ in range(500):
        assert [row.one(blob) for blob in blobs] == [None] * 4 + [1, None]
        assert batch.columns(blobs) == [[None] * 4 + [1, None]]
    assert len(lookups) == 4
    later = loader.serialize_document({"other": 2.5})  # REAL "other" is new
    assert row.one(later) == 2.5 and batch.columns([later]) == [[2.5]]
    assert len(lookups) == 6  # the REAL path, once per instance
    for _ in range(500):
        row.one(later)
        batch.columns([later])
    assert len(lookups) == 6
