"""The golden corpus: every statement x layout prepares exactly as recorded.

Each record holds the ordered diagnostics and the prepared statement of
one statement under one layout (see ``tests/core/binder_corpus.py``).
``CHANGED`` lists the records this engine is meant to differ on; each of
them must differ, and every other record must match exactly.
"""

import json
from collections import defaultdict

import pytest

from . import binder_corpus

#: (env, layout, sql) of records that intentionally no longer match: a
#: mangled physical column name (``k__text``) now reads that column --
#: through the COALESCE bridge while it is dirty -- where the records
#: show an extraction of a key named ``k__text``, NULL on every row; and a
#: bare reference to a key of several types once one type has a physical
#: column, now each type's column as text before ``extract_key_any``
#: where the records read the most frequent type's column alone; and a
#: numeric predicate on a key whose most frequent type is text, now the
#: key's numeric column where the records compare the text column with a
#: number; and a comparison whose type the key never holds, which the
#: records prune as provably NULL (SNW202) only while no type of the key
#: has a physical column, and now prune in every layout, since the
#: rewrite reads a key only in the type its context asks for
CHANGED: frozenset[tuple[str, str, str]] = frozenset(
    (env, layout, sql)
    for env in ("mangled",)
    for layout in ("dirty", "settled")
    for sql in ("SELECT k__text FROM t ORDER BY a", "SELECT a FROM t WHERE k__text = 'x'")
) | frozenset(
    (env, layout, sql)
    for layout in ("dirty", "settled")
    for env, sql in (
        ("analyzer", "SELECT dyn FROM t"),
        ("mangled", "SELECT k FROM t ORDER BY a"),
        ("rewriter", "SELECT dyn FROM t"),
        ("rewriter", "SELECT dyn FROM t WHERE dyn LIKE 's%'"),
        ("rewriter", "SELECT _id FROM t WHERE dyn IS NULL"),
        ("rewriter", "SELECT _id FROM t WHERE dyn > 5"),
        ("rewriter", "SELECT _id FROM t WHERE dyn BETWEEN 1 AND 5"),
        ("rewriter", "SELECT n FROM t WHERE dyn >= 0"),
        ("rewriter", "SELECT _id FROM t WHERE dyn >= 0"),
        ("analyzer", "SELECT url FROM t WHERE url > 5"),
        ("analyzer", "SELECT url FROM t WHERE hits LIKE 'a%'"),
        ("analyzer", "SELECT url FROM t WHERE hits > 10 OR url > 5"),
        ("analyzer", "SELECT url FROM t WHERE NOT (url > 5)"),
    )
)

_BY_LAYOUT: dict[tuple[str, str], list[dict]] = defaultdict(list)
for _record in json.loads(binder_corpus.RECORDS.read_text()):
    _BY_LAYOUT[(_record["env"], _record["layout"])].append(_record)


@pytest.mark.parametrize(
    "env, layout", sorted(_BY_LAYOUT), ids=lambda value: str(value)
)
def test_corpus_reproduces(env, layout):
    make_env, _statements = binder_corpus.ENVIRONMENTS[env]
    sdb = make_env(layout)
    mismatched = []
    for expected in _BY_LAYOUT[(env, layout)]:
        sql = expected["sql"]
        actual = binder_corpus.record(sdb, sql)
        same = actual == {
            "diagnostics": expected["diagnostics"],
            "prepared": expected["prepared"],
        }
        if same == ((env, layout, sql) in CHANGED):
            mismatched.append((sql, expected, actual))
    assert not mismatched, mismatched
