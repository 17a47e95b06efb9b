"""Per-execution header memo for reservoir extraction.

Sinew's serialization (section 4.1) makes a *single* key lookup cheap: the
id run is unpacked, binary-searched, and one offset pair leads to the
value.  What a query must not do is unpack the same row's id run once per
key, per pipeline stage and per ``COALESCE`` bridge.  Two mechanisms
prevent that, and the :class:`ExtractionContext` is the second:

* the extraction calls of one pipeline stage that read the same reservoir
  column are compiled into one pass (:class:`repro.core.extractors.BoundPaths`)
  that unpacks each row's id run once for all of its keys;
* *across* stages -- a filter and the projection after it, a lazily
  evaluated bridge argument, the separately compiled closures of the row
  operators, nested sub-documents reached by several dotted keys -- the
  context remembers id runs by the *identity* of the bytes object.

One context lives for one execution (a query on the calling thread, a
morsel on a worker), installed through the function registry's
query-listener hooks, and owns that execution's decode/hit counters.

Identity keying is what makes invalidation trivial: every entry pins its
``bytes`` object with a strong reference, so an ``id()`` can never be
reused while the entry is alive, and any concurrent row mutation (the
background materializer replaces the whole tuple, and serialized documents
are immutable ``bytes``) produces a *new* object that simply misses.
Stale data can therefore never be served; at worst a replaced row costs
one extra decode.  See DESIGN.md section 8.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from ..rdbms.cost import ExtractionStats
from .serializer import unpack_ids, value_at

#: Streaming pipelines touch one row at a time, so a handful of entries
#: suffices; the bound keeps memory flat on joins that interleave many
#: rows.  Batch pipelines ask for a few batches' worth (see
#: ``_WorkerQueryScope`` in repro.rdbms.plan_nodes).
DEFAULT_CACHE_CAPACITY = 256

IdRun = tuple


class ExtractionContext:
    """Execution-scoped memo of unpacked id runs and sub-document slices."""

    def __init__(
        self,
        stats: ExtractionStats | None = None,
        enabled: bool = True,
        capacity: int = DEFAULT_CACHE_CAPACITY,
    ):
        self.stats = stats if stats is not None else ExtractionStats()
        self.enabled = enabled
        self.capacity = max(1, capacity)
        #: extraction sites bound under this context so far.  With a single
        #: site nobody else can ask for an id run again, so none is kept.
        self.sites = 0
        # id(bytes) -> (the bytes object, its id run); the stored bytes
        # reference pins the id against reuse, and dict insertion order
        # gives FIFO eviction
        self._headers: dict[int, tuple[bytes, IdRun]] = {}
        # (id(parent bytes), child attr id) -> (parent, child bytes, child id run)
        self._subdocs: dict[tuple[int, int], tuple[bytes, bytes, IdRun]] = {}

    # -- one document ---------------------------------------------------------

    def ids(self, data: bytes) -> IdRun:
        """The id run of ``data``, unpacked at most once per object."""
        stats = self.stats
        if not self.enabled or self.sites <= 1:
            stats.header_decodes += 1
            return unpack_ids(data)
        headers = self._headers
        key = id(data)
        entry = headers.get(key)
        if entry is not None and entry[0] is data:
            stats.header_cache_hits += 1
            return entry[1]
        stats.header_decodes += 1
        ids = unpack_ids(data)
        if len(headers) >= self.capacity:
            del headers[next(iter(headers))]
        headers[key] = (data, ids)
        return ids

    def repeat(self, count: int = 1) -> None:
        """Charge ``count`` more accesses to id runs the caller already
        holds: the further keys of a fused pass, ``extract_num``'s second
        typed attempt.  Hits, unless sharing is switched off."""
        if self.enabled:
            self.stats.header_cache_hits += count
        else:
            self.stats.header_decodes += count

    # -- a batch of documents -------------------------------------------------

    def ids_of(
        self, blobs: Sequence[bytes | None]
    ) -> tuple[list[IdRun | None], int]:
        """Id runs for a batch of reservoir values (NULL stays ``None``)
        and how many are not NULL; one access per non-NULL value."""
        out: list[IdRun | None] = []
        append = out.append
        nulls = 0
        hits = 0
        headers = self._headers
        if headers and self.enabled:
            get = headers.get
            for data in blobs:
                if data is None:
                    nulls += 1
                    append(None)
                    continue
                entry = get(id(data))
                if entry is not None and entry[0] is data:
                    hits += 1
                    append(entry[1])
                else:
                    append(unpack_ids(data))
        else:
            for data in blobs:
                if data is None:
                    nulls += 1
                    append(None)
                else:
                    append(unpack_ids(data))
        live = len(out) - nulls
        self.stats.header_cache_hits += hits
        self.stats.header_decodes += live - hits
        if self.enabled and self.sites > 1:
            # re-inserting a known key keeps its place in the FIFO order
            headers.update(zip(map(id, blobs), zip(blobs, out)))
            headers.pop(id(None), None)
            overflow = len(headers) - self.capacity
            if overflow > 0:
                for key in list(islice(headers, overflow)):
                    del headers[key]
        return out, live

    # -- nested documents -----------------------------------------------------

    def sub(
        self, data: bytes, n: int, position: int, parent_id: int
    ) -> tuple[bytes, IdRun]:
        """The nested document at ``position`` of ``data``, with its id run.

        Sliced and unpacked once per (document, parent) pair, so several
        dotted keys under one parent descend into the *same* bytes object.
        Counts one sub-document access and one header access (the nested
        document's), both decodes or both hits.
        """
        stats = self.stats
        if not self.enabled:
            stats.subdoc_decodes += 1
            stats.header_decodes += 1
            child = value_at(data, n, position)
            return child, unpack_ids(child)
        subdocs = self._subdocs
        key = (id(data), parent_id)
        entry = subdocs.get(key)
        if entry is not None and entry[0] is data:
            stats.subdoc_cache_hits += 1
            stats.header_cache_hits += 1
            return entry[1], entry[2]
        stats.subdoc_decodes += 1
        stats.header_decodes += 1
        child = value_at(data, n, position)
        ids = unpack_ids(child)
        if len(subdocs) >= self.capacity:
            del subdocs[next(iter(subdocs))]
        subdocs[key] = (data, child, ids)
        return child, ids
