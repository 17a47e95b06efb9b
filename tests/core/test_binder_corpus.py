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
#: show an extraction of a key named ``k__text``, NULL on every row
CHANGED: frozenset[tuple[str, str, str]] = frozenset(
    (env, layout, sql)
    for env in ("mangled",)
    for layout in ("dirty", "settled")
    for sql in ("SELECT k__text FROM t ORDER BY a", "SELECT a FROM t WHERE k__text = 'x'")
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
