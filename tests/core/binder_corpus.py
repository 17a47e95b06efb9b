"""Golden corpus for the prepare phase: diagnostics + prepared statements.

Every statement runs under three layouts of its environment -- all
virtual, dirty (mid-materialization) and settled -- and each run is
recorded as the ordered diagnostics ``(code, message, span, hint)`` of
``SinewDB.lint`` plus the ``repr`` of what the prepare phase hands the
RDBMS (the rewritten, star-expanded SELECT with its extraction hint and
document program; the rewritten WHERE of an UPDATE/DELETE) or of the
error that stops it.

``tests/core/test_binder_corpus.py`` asserts that the engine reproduces
every record.  Regenerate the records (only when a change to them is
intended, and list the changed ones in that test) with::

    PYTHONPATH=src python -m tests.core.binder_corpus
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Callable

from repro.core import SinewDB
from repro.nobench.generator import NoBenchGenerator
from repro.nobench.queries import TABLE, SinewNoBench
from repro.rdbms.errors import DatabaseError
from repro.rdbms.sql.ast import SelectStatement
from repro.rdbms.sql.parser import parse
from repro.rdbms.types import SqlType
from repro.workloads import (
    APPENDIX_B_QUERIES,
    TABLE1_QUERIES,
    TABLE2_PHYSICAL_ATTRIBUTES,
    TwitterGenerator,
)

HERE = Path(__file__).resolve().parent
TESTS = HERE.parent
RECORDS = HERE / "binder_corpus.json"
LAYOUTS = ("virtual", "dirty", "settled")


def sql_strings(path: Path) -> list[str]:
    """Every SELECT/UPDATE/DELETE string literal in one test module."""
    found: list[str] = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            head = node.value.lstrip().split(" ", 1)[0].upper()
            if head in ("SELECT", "UPDATE", "DELETE") and node.value not in found:
                found.append(node.value)
    return found


def _settle_to(sdb: SinewDB, layout: str, tables, pins) -> None:
    """Pin ``(table, key, type)`` columns, then stop dirty or settle."""
    if layout == "virtual":
        return
    for table, key, key_type in pins:
        sdb.materialize(table, key, key_type)
    for table in tables:
        if layout == "dirty":
            sdb.materializer_step(table, max_rows=2)
        else:
            sdb.run_materializer(table)


def rewriter_env(layout: str) -> SinewDB:
    """The data of ``tests/core/test_rewriter.py`` plus its side tables."""
    sdb = SinewDB("corpus_rw")
    for name in ("t", "u", "mono", "other"):
        sdb.create_collection(name)
    sdb.load(
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
    sdb.load("u", [{"virt": f"v{i}"} for i in range(10)])
    sdb.load("mono", [{"k": 1}, {"k": 2}])
    sdb.load("other", [{"k": "text"}])
    pins = [
        ("t", "phys", SqlType.TEXT),
        ("t", "virt", SqlType.TEXT),
        ("t", "user", SqlType.BYTEA),
        ("t", "dyn", SqlType.INTEGER),
        ("t", "dyn", SqlType.TEXT),
        ("u", "virt", SqlType.TEXT),
    ]
    _settle_to(sdb, layout, ("t", "u"), pins)
    return sdb


def analyzer_env(layout: str) -> SinewDB:
    """The data of ``tests/analysis/test_analyzer.py`` plus its side tables."""
    sdb = SinewDB("corpus_an")
    sdb.create_collection("t")
    sdb.create_collection("u")
    sdb.load(
        "t",
        [
            {"url": "a.com", "hits": 22, "dyn": 5, "flag": True},
            {"url": "b.com", "hits": 7, "dyn": "five"},
            {"url": "c.com", "hits": 15, "dyn": 9},
        ],
    )
    sdb.load("u", [{"url": "x.org"}])
    sdb.db.create_table("plain", [("x", SqlType.INTEGER)])
    pins = [
        ("t", "url", SqlType.TEXT),
        ("t", "hits", SqlType.INTEGER),
        ("t", "dyn", SqlType.INTEGER),
        ("t", "dyn", SqlType.TEXT),
    ]
    _settle_to(sdb, layout, ("t",), pins)
    return sdb


def mangled_env(layout: str) -> SinewDB:
    """A multi-typed key whose second type gets a mangled physical name."""
    sdb = SinewDB("corpus_mangled")
    sdb.create_collection("t")
    sdb.load("t", [{"a": 1, "k": 1}, {"a": 2, "k": "x"}, {"a": 3, "k": 3}])
    pins = [("t", "k", SqlType.INTEGER), ("t", "k", SqlType.TEXT)]
    if layout == "dirty":
        for table, key, key_type in pins:
            sdb.materialize(table, key, key_type)
    else:
        _settle_to(sdb, layout, ("t",), pins)
    return sdb


NOBENCH = NoBenchGenerator(400, seed=3)


def nobench_env(layout: str) -> SinewDB:
    """NoBench under the paper's policy; dirty = a load after settling."""
    sdb = SinewDB("corpus_nobench")
    sdb.create_collection(TABLE)
    documents = list(NOBENCH.documents())
    sdb.load(TABLE, documents[:360])
    if layout != "virtual":
        sdb.settle(TABLE)
        sdb.load(TABLE, documents[360:])
        if layout == "settled":
            sdb.settle(TABLE)
    return sdb


def nobench_statements() -> list[str]:
    params = NOBENCH.params()
    adapter = SinewNoBench.__new__(SinewNoBench)
    adapter.params = params
    statements = [adapter.sql_for(query_id) for query_id in (
        "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10", "q11"
    )]
    statements.append(
        f"UPDATE {TABLE} SET {params.update_set_key} = 'DUMMY' "
        f"WHERE {params.update_where_key} = '{params.update_where_value}'"
    )
    return statements


def twitter_env(layout: str) -> SinewDB:
    """Tweets + delete records; the Table 2 attributes are the pins."""
    generator = TwitterGenerator(240)
    sdb = SinewDB("corpus_twitter")
    sdb.create_collection("tweets")
    sdb.create_collection("deletes")
    sdb.load("tweets", generator.tweets())
    sdb.load("deletes", generator.deletes(80))
    pins = [
        ("deletes" if key.startswith("delete.") else "tweets", key, SqlType(type_name))
        for key, type_name in TABLE2_PHYSICAL_ATTRIBUTES
    ]
    _settle_to(sdb, layout, ("tweets", "deletes"), pins)
    return sdb


ENVIRONMENTS: dict[str, tuple[Callable[[str], SinewDB], Callable[[], list[str]]]] = {
    "rewriter": (rewriter_env, lambda: sql_strings(HERE / "test_rewriter.py")),
    "analyzer": (
        analyzer_env,
        lambda: sql_strings(TESTS / "analysis" / "test_analyzer.py"),
    ),
    "mangled": (
        mangled_env,
        lambda: [
            "SELECT k FROM t ORDER BY a",
            "SELECT k__text FROM t ORDER BY a",
            "SELECT a FROM t WHERE k__text = 'x'",
        ],
    ),
    "nobench": (nobench_env, nobench_statements),
    "twitter": (
        twitter_env,
        lambda: list(TABLE1_QUERIES.values()) + list(APPENDIX_B_QUERIES.values()),
    ),
}


def prepared_repr(sdb: SinewDB, sql: str) -> str:
    """What the prepare phase hands the RDBMS, or the error that stops it."""
    try:
        statement = parse(sql)
        if isinstance(statement, SelectStatement):
            with sdb.catalog.query_scope():
                prepared = sdb._prepare_select(statement, sdb.catalog.plan_token())
            return repr(
                (prepared.statement, prepared.extraction_hint, prepared.program)
            )
        if statement.table not in sdb.collections():
            return "not a collection"
        return repr(sdb._rewriter().rewrite_where(sdb._bind(statement)))
    except DatabaseError as exc:
        return f"{type(exc).__name__}: {exc}"


def record(sdb: SinewDB, sql: str) -> dict:
    try:
        diagnostics = [
            [d.code, d.message, list(d.span) if d.span else None, d.hint]
            for d in sdb.lint(sql).diagnostics
        ]
    except DatabaseError as exc:
        diagnostics = f"{type(exc).__name__}: {exc}"
    return {"diagnostics": diagnostics, "prepared": prepared_repr(sdb, sql)}


def build_records() -> list[dict]:
    records = []
    for env_name, (make_env, statements) in ENVIRONMENTS.items():
        sqls = statements()
        for layout in LAYOUTS:
            sdb = make_env(layout)
            for sql in sqls:
                records.append(
                    {"env": env_name, "layout": layout, "sql": sql, **record(sdb, sql)}
                )
    return records


if __name__ == "__main__":
    records = build_records()
    RECORDS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {RECORDS}")
