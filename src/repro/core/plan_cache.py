"""Prepared-statement / plan cache keyed on normalized SQL.

The expensive, correctness-sensitive half of running a Sinew query is
everything *before* physical planning: binding (with its
occurrence-count-driven provably-NULL pruning) and the catalog-flag-driven
rewrite (bare physical read vs. COALESCE bridge vs. pure extraction).
This cache memoizes that half as a :class:`PreparedSelect`.

Correctness hinges on invalidation: a rewritten statement bakes in the
catalog state it observed, so every entry is stamped with the catalog's
:meth:`~repro.core.catalog.SinewCatalog.plan_token` at prepare time and
is only served while the live token still matches.  A materializer
direction flip bumps the schema epoch; loads, logical DML, collection
DDL, and the materializer finish path (which may drop a physical column)
bump the data epoch -- either mismatch is a *stale* miss that evicts the
entry and forces a re-prepare (DESIGN.md section 12).

Keys are whitespace/comment/case-insensitive: :func:`normalize_sql` runs
the real SQL lexer and joins the token stream, so two spellings of the
same statement share an entry while differing string literals never do.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from ..rdbms.sql.ast import SelectStatement
from ..rdbms.sql.lexer import tokenize

__all__ = ["PlanCache", "PreparedSelect", "normalize_sql"]

DEFAULT_PLAN_CACHE_SIZE = 256


def _escape_token(value: str) -> str:
    """Make a token value separator-free so the key join stays injective.

    String literals can contain the ``\\x1f``/``\\x1e`` separator bytes;
    unescaped, a single literal embedding them could normalize to the
    same key as a different statement whose token boundaries fall at
    those bytes -- and serve it the wrong cached plan.
    """
    return (
        value.replace("\\", "\\\\")
        .replace("\x1f", "\\u")
        .replace("\x1e", "\\r")
    )


def normalize_sql(sql: str) -> str | None:
    """Lexer-normalized cache key for one statement, or None on bad SQL.

    Token *values* keep their semantics (string literals are compared by
    content, identifiers arrive already case-folded from the lexer), and
    the token *type* is folded in so ``'x'`` the string never collides
    with ``x`` the identifier.
    """
    try:
        tokens = tokenize(sql)
    except Exception:
        return None
    return "\x1f".join(
        f"{token.type.value[0]}\x1e{_escape_token(str(token.value))}"
        for token in tokens
    )


@dataclass
class PreparedSelect:
    """The reusable prepare-phase output of one SELECT.

    Physical planning still happens per execution (optimizer statistics
    may move between runs); what is cached is the bind + rewrite +
    star-expansion pipeline.  Execution, EXPLAIN and EXPLAIN ANALYZE all
    plan ``statement``.
    """

    #: the exact statement the RDBMS plans (rewritten, stars expanded)
    statement: SelectStatement
    #: the bound statement (its warnings re-attach on every execution)
    analysis: Any
    #: multi-key extraction hint for the single-decode cache (>1 only)
    extraction_hint: int | None
    #: document-assembly program for ``*`` over Sinew tables, or None
    program: list[tuple] | None
    #: catalog plan token observed at prepare time
    token: tuple[int, int]


class PlanCache:
    """Thread-safe LRU of :class:`PreparedSelect` entries.

    Shared by every session of one service (and usable in-process via
    ``SinewConfig.plan_cache_size``); all counters are cumulative and
    surface through ``SinewDB.status()["plan_cache"]``.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, PreparedSelect] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: capacity evictions (LRU fell off the end)
        self.evictions = 0
        #: validity evictions (schema/data epoch moved under the entry)
        self.stale_evictions = 0

    def lookup(self, key: str, token: tuple[int, int]) -> PreparedSelect | None:
        """Serve a valid entry or record a miss (evicting a stale hit)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.token != token:
                del self._entries[key]
                self.stale_evictions += 1
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: str, prepared: PreparedSelect) -> None:
        with self._lock:
            self._entries[key] = prepared
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "stale_evictions": self.stale_evictions,
            }
