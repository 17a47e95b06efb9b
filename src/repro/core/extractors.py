"""Key-extraction functions over the column reservoir.

These are the UDFs the query rewriter substitutes for virtual-column
references (paper section 3.2.2)::

    SELECT url, extract_key_text(data, 'owner') FROM webrequests ...

Each function takes the serialized reservoir value and a (possibly dotted)
key, resolves the key against the global catalog dictionary, and performs
the O(log n) random-access extraction of section 4.1.  Type handling
follows the paper:

* the extraction is *typed*: ``extract_key_num`` applied to a key that maps
  to both integers and strings returns the numeric values and NULL for the
  strings -- "rather than throwing an exception for type mismatches ... it
  will instead selectively extract the integer values and return NULL";
* with no type context (a bare projection) ``extract_key_any`` returns the
  value "downcast to a string type".

Dotted keys navigate nested sub-documents: the serializer stores every
level's attributes under their *full* dotted names, so navigation extracts
the longest nested-document prefix and recurses.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any, Callable, Sequence

from ..rdbms.functions import FunctionRegistry
from ..rdbms.types import SqlType
from . import serializer
from .catalog import SinewCatalog
from .extraction_context import DEFAULT_CACHE_CAPACITY, ExtractionContext
from .loader import RESERVOIR_COLUMN
from .serializer import DECODERS, unpack_ids, unpack_span, value_at

#: extractor method -> the SQL types it tries, in order (``extract_num`` is
#: INTEGER first, then REAL).  ``exists`` and ``extract_any`` are untyped:
#: they accept every attribute that carries the key's name.
TYPED_METHODS: dict[str, tuple[SqlType, ...]] = {
    "extract_text": (SqlType.TEXT,),
    "extract_int": (SqlType.INTEGER,),
    "extract_real": (SqlType.REAL,),
    "extract_num": (SqlType.INTEGER, SqlType.REAL),
    "extract_bool": (SqlType.BOOLEAN,),
    "extract_array": (SqlType.ARRAY,),
    "extract_doc": (SqlType.BYTEA,),
}


class _Path:
    """One key resolved against the catalog dictionary.

    ``parents`` are the attr ids of the key's nested-document prefixes,
    longest first (prefixes the dictionary does not know are left out).
    A typed path has one leaf (``leaf_id``, -1 while the dictionary does
    not know the key, and its ``decode``); an untyped path accepts any of
    ``named`` -- every ``(attr_id, type)`` carrying the key's name -- and
    looks at its own level *before* descending.
    """

    __slots__ = ("key", "sql_type", "parents", "leaf_id", "decode", "named", "settled")

    def __init__(self, key: str, sql_type: SqlType | None):
        self.key = key
        self.sql_type = sql_type
        self.parents: tuple[int, ...] = ()
        self.leaf_id = -1
        self.decode = DECODERS.get(sql_type)
        self.named: tuple[tuple[int, SqlType], ...] | None = None
        #: every id this path can use is known; an unsettled path is
        #: resolved again before each use (a load may have added its key)
        self.settled = False


class ReservoirExtractor:
    """Catalog-aware extraction over serialized reservoir values."""

    def __init__(self, catalog: SinewCatalog):
        self.catalog = catalog
        # per-thread stack of execution-scoped contexts: queries on the
        # main thread never share state with the materializer daemon, and
        # nested query execution (UDFs issuing queries) stays balanced
        self._local = threading.local()
        # what calls outside any query (materializer, UPDATE, direct use)
        # run under: nothing shared, counters nobody reads
        self._detached = ExtractionContext(enabled=False)
        # key -> its nested-document prefixes, longest first; pure string
        # derivation, so sharing across threads/queries is safe
        self._prefixes: dict[str, tuple[str, ...]] = {}

    # -- execution-scoped contexts (FunctionRegistry listener hooks) ---------

    def begin_query(self, execution_context: Any) -> None:
        """Install a fresh :class:`ExtractionContext` for one execution.

        A scope may request a larger memo through an
        ``extraction_cache_capacity`` attribute: the batch pipeline runs a
        whole batch through one stage before the next, so the memo must
        hold a batch of id runs for a later stage to find them.
        """
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        capacity = getattr(execution_context, "extraction_cache_capacity", None)
        stack.append(
            ExtractionContext(
                stats=getattr(execution_context, "extract_stats", None),
                enabled=getattr(execution_context, "use_extraction_cache", True),
                capacity=capacity or DEFAULT_CACHE_CAPACITY,
            )
        )
        # mirror of stack[-1]: one getattr per lookup instead of two
        local.top = stack[-1]

    def end_query(self, execution_context: Any) -> None:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack:
            stack.pop()
        local.top = stack[-1] if stack else None

    def _context(self) -> ExtractionContext:
        return getattr(self._local, "top", None) or self._detached

    # -- resolved paths -------------------------------------------------------

    def _resolve(self, path: _Path) -> None:
        """Bind ``path`` to the live dictionary (ids are never reassigned,
        so a settled path stays valid)."""
        catalog = self.catalog
        key = path.key
        settled = True
        if "." in key:
            prefixes = self._prefixes.get(key)
            if prefixes is None:
                parts = key.split(".")
                prefixes = self._prefixes[key] = tuple(
                    ".".join(parts[:split]) for split in range(len(parts) - 1, 0, -1)
                )
            found = [catalog.lookup_id(prefix, SqlType.BYTEA) for prefix in prefixes]
            path.parents = tuple(parent for parent in found if parent is not None)
            settled = len(path.parents) == len(prefixes)
        if path.sql_type is None:
            # a further type of the same key may still appear: never settled
            path.named = tuple(
                (attribute.attr_id, attribute.key_type)
                for attribute in catalog.attributes_named(key)
            )
            settled = False
        else:
            leaf_id = catalog.lookup_id(key, path.sql_type)
            if leaf_id is None:
                settled = False
            else:
                path.leaf_id = leaf_id
        path.settled = settled

    def bind(self, requests: Sequence[tuple[str, tuple]]) -> "BoundPaths":
        """The ``ScalarFunction.specializer`` hook: resolve extraction
        calls whose key is a literal, once for the running execution.

        ``requests`` are ``(method, (key,))`` pairs, all applied to the
        *same* reservoir value; see :class:`BoundPaths`.
        """
        return BoundPaths(self, self._context(), requests)

    def _walk(self, path: _Path, data: bytes, ids: tuple, context: ExtractionContext) -> Any:
        """Look ``path`` up in one document whose id run is ``ids``.

        Nested-document prefixes are tried longest first, and a miss
        inside one keeps trying *shorter* ones: the key may live directly
        in a shallower cell -- a literal ``"b.c"`` key inside ``a``'s
        document beside a materialized ``a.b`` sub-document -- so the
        longest prefix must not short-circuit navigation.  A stored value
        is never NULL (absence is encoded by omission), so ``None`` means
        "not at this level".
        """
        n = len(ids)
        named = path.named
        if named is not None:
            for attr_id, sql_type in named:
                position = bisect_left(ids, attr_id)
                if position < n and ids[position] == attr_id:
                    return sql_type, value_at(data, n, position)
        for parent_id in path.parents:
            position = bisect_left(ids, parent_id)
            if position < n and ids[position] == parent_id:
                child, child_ids = context.sub(data, n, position, parent_id)
                value = self._walk(path, child, child_ids, context)
                if value is not None:
                    return value
        if named is None:
            leaf_id = path.leaf_id
            position = bisect_left(ids, leaf_id)
            if position < n and ids[position] == leaf_id:
                return path.decode(value_at(data, n, position))
        return None

    # -- shapes: which rows can hold a key -----------------------------------

    def shape_of(self, blobs: Sequence[bytes | None]) -> list[tuple | None]:
        """Each reservoir value's shape, its attr-id run (None for NULL):
        what a shape index groups rows by.  One header decode per value."""
        shapes = [None if data is None else unpack_ids(data) for data in blobs]
        self._context().stats.header_decodes += len(shapes) - shapes.count(None)
        return shapes

    def shapes(self, method: str, args: tuple, column: str) -> "KeyShapes | None":
        """The specializer hook a shape index answers ``method(column,
        *args)`` through, or None where it cannot: anything but a typed
        or untyped extraction of one top-level key from the reservoir.
        Such a call is NULL on every row whose shape holds none of the
        key's attr ids, so the rows it can be non-NULL for are the union
        of the runs of the shapes that hold one."""
        if column != RESERVOIR_COLUMN or len(args) != 1:
            return None
        key = args[0]
        if not isinstance(key, str) or "." in key:
            return None
        if method == "extract_any":
            return KeyShapes(self, key, (None,))
        if method in TYPED_METHODS:
            return KeyShapes(self, key, TYPED_METHODS[method])
        return None

    # -- per-call entry points (non-literal keys, engine internals) ----------

    def _lookup(self, data: bytes, key: str, sql_type: SqlType | None) -> Any:
        path = _Path(key, sql_type)
        self._resolve(path)
        context = self._context()
        return self._walk(path, data, context.ids(data), context)

    def extract_typed(self, data: bytes | None, key: str, sql_type: SqlType) -> Any:
        """Extract ``key`` as ``sql_type``; None when absent or mistyped."""
        if data is None:
            return None
        return self._lookup(data, key, sql_type)

    def exists(self, data: bytes | None, key: str) -> bool:
        """Key-existence check (any type) without decoding the value."""
        return data is not None and self._lookup(data, key, None) is not None

    def extract_text(self, data: bytes | None, key: str) -> str | None:
        return self.extract_typed(data, key, SqlType.TEXT)

    def extract_int(self, data: bytes | None, key: str) -> int | None:
        return self.extract_typed(data, key, SqlType.INTEGER)

    def extract_real(self, data: bytes | None, key: str) -> float | None:
        return self.extract_typed(data, key, SqlType.REAL)

    def extract_num(self, data: bytes | None, key: str) -> int | float | None:
        """Numeric extraction: integer attribute first, then real."""
        value = self.extract_typed(data, key, SqlType.INTEGER)
        if value is not None:
            return value
        return self.extract_typed(data, key, SqlType.REAL)

    def extract_bool(self, data: bytes | None, key: str) -> bool | None:
        return self.extract_typed(data, key, SqlType.BOOLEAN)

    def extract_array(self, data: bytes | None, key: str) -> list | None:
        return self.extract_typed(data, key, SqlType.ARRAY)

    def extract_doc(self, data: bytes | None, key: str) -> bytes | None:
        return self.extract_typed(data, key, SqlType.BYTEA)

    def extract_any(self, data: bytes | None, key: str) -> str | None:
        """Untyped extraction; non-text values are downcast to text."""
        if data is None:
            return None
        return self._found_as_text(self._lookup(data, key, None), key)

    def downcast(self, value: bytes | list | None, key: str) -> str | None:
        """A document or array physical column's cell as ``extract_any``
        renders the same value in the reservoir."""
        if isinstance(value, (bytes, bytearray, memoryview)):
            return self._downcast(bytes(value), SqlType.BYTEA, key)
        return self._downcast(value, SqlType.ARRAY, key)

    def _found_as_text(self, found: tuple[SqlType, bytes] | None, key: str) -> str | None:
        if found is None:
            return None
        sql_type, raw = found
        return self._downcast(DECODERS[sql_type](raw), sql_type, key)

    def _downcast(
        self, value: Any, sql_type: SqlType, key_name: str = ""
    ) -> str | None:
        """Downcast a non-text value to its JSON text rendering.

        Containers reconstruct under ``key_name``'s dotted prefix (nested
        attributes are stored under full dotted names) and render as
        canonical JSON, matching what the pgjson baseline's
        ``json_get_text`` produces for the same value.
        """
        if value is None:
            return None
        if sql_type is SqlType.TEXT:
            return value
        if sql_type is SqlType.BOOLEAN:
            return "true" if value else "false"
        prefix = key_name + "." if key_name else ""
        if sql_type is SqlType.BYTEA:
            return json.dumps(self.to_dict(value, prefix=prefix), sort_keys=True)
        if sql_type is SqlType.ARRAY:
            return json.dumps(self._array_to_plain(value, prefix=prefix))
        return str(value)

    # -- whole-document reconstruction ---------------------------------------

    def to_dict(self, data: bytes | None, prefix: str = "") -> dict[str, Any]:
        """Rebuild the original (nested) document from the reservoir."""
        if data is None:
            return {}
        out: dict[str, Any] = {}
        for attr_id, raw in serializer.iterate(data):
            attribute = self.catalog.attribute(attr_id)
            local_name = attribute.key_name[len(prefix):]
            if attribute.key_type is SqlType.BYTEA:
                out[local_name] = self.to_dict(
                    bytes(raw), prefix=attribute.key_name + "."
                )
            else:
                value = serializer.decode_value(raw, attribute.key_type)
                if attribute.key_type is SqlType.ARRAY:
                    value = self._array_to_plain(
                        value, prefix=attribute.key_name + "."
                    )
                out[local_name] = value
        return out

    def _array_to_plain(self, values: list, prefix: str = "") -> list:
        """Decode nested sub-documents stored inside arrays.

        Object elements were serialized under the array key's dotted
        prefix, which must be stripped when rebuilding them.
        """
        out = []
        for element in values:
            if isinstance(element, bytes):
                out.append(self.to_dict(element, prefix=prefix))
            elif isinstance(element, list):
                out.append(self._array_to_plain(element, prefix=prefix))
            else:
                out.append(element)
        return out

    def to_json(self, data: bytes | None) -> str | None:
        if data is None:
            return None
        return json.dumps(self.to_dict(data), sort_keys=True)

    # -- reservoir mutation (materializer / UPDATE support) ------------------

    def remove_path(self, data: bytes, key: str, sql_type: SqlType) -> bytes:
        """Remove a (possibly nested) attribute from a serialized document."""
        attr_id = self.catalog.lookup_id(key, sql_type)
        if attr_id is not None and serializer.has_attribute(data, attr_id):
            return serializer.remove_attribute(data, attr_id)
        rewritten = self._rewrite_parent(
            data, key, lambda sub: self.remove_path(sub, key, sql_type)
        )
        return rewritten if rewritten is not None else data

    def set_path(self, data: bytes, key: str, sql_type: SqlType, value: Any) -> bytes:
        """Set (or clear, when value is None) an attribute in a document.

        For dotted keys the nested parent document must already exist; a
        missing parent leaves the document unchanged except for top-level
        keys, which are created on demand.
        """
        attr_id = self.catalog.attribute_id(key, sql_type)
        if "." not in key or serializer.has_attribute(data, attr_id):
            return serializer.add_attribute(data, attr_id, sql_type, value)
        rewritten = self._rewrite_parent(
            data, key, lambda sub: self.set_path(sub, key, sql_type, value)
        )
        if rewritten is not None:
            return rewritten
        return serializer.add_attribute(data, attr_id, sql_type, value)

    def _rewrite_parent(
        self, data: bytes, key: str, transform: Callable[[bytes], bytes]
    ) -> bytes | None:
        """Apply ``transform`` to the nested document owning ``key`` and
        re-serialize the chain of parents; None when no parent exists."""
        parts = key.split(".")
        for split in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:split])
            parent_id = self.catalog.lookup_id(prefix, SqlType.BYTEA)
            if parent_id is not None and serializer.has_attribute(data, parent_id):
                sub_document = serializer.extract(data, parent_id, SqlType.BYTEA)
                new_sub = transform(sub_document)
                return serializer.add_attribute(
                    data, parent_id, SqlType.BYTEA, new_sub
                )
        return None


class KeyShapes:
    """One extraction call as the shape index reads it
    (:meth:`ReservoirExtractor.shapes`): ``group`` is the index's group
    function, :meth:`holders` the attr ids a row's shape must hold one of,
    :meth:`occurrences` the catalog's row estimate."""

    __slots__ = ("extractor", "key", "types")

    def __init__(self, extractor: ReservoirExtractor, key: str, types: tuple):
        self.extractor = extractor
        self.key = key
        self.types = types

    @property
    def group(self) -> Callable[[Sequence[bytes | None]], list]:
        return self.extractor.shape_of

    def holders(self) -> tuple[int, ...]:
        """The leaf ids :class:`BoundPaths` would read for this call,
        looked up now: a key that a load added after planning is found."""
        found: list[int] = []
        for sql_type in self.types:
            path = _Path(self.key, sql_type)
            self.extractor._resolve(path)
            if path.named is not None:
                found.extend(attr_id for attr_id, _type in path.named)
            elif path.leaf_id >= 0:
                found.append(path.leaf_id)
        return tuple(found)

    def occurrences(self, table_name: str) -> int | None:
        """Documents of ``table_name`` holding one of the key's attributes,
        by the catalog's per-attribute count; None for a table that is no
        Sinew collection."""
        table = self.extractor.catalog.tables.get(table_name)
        if table is None:
            return None
        states = [table.columns.get(attr_id) for attr_id in self.holders()]
        return sum(state.count for state in states if state is not None)


class _Request:
    """One extraction call of a :class:`BoundPaths`: the paths it tries in
    order, what it returns for a NULL reservoir, and how it presents what
    a path found (``None``: as is, the typed calls)."""

    __slots__ = ("paths", "absent", "present")

    def __init__(self, paths: list[_Path], absent: Any, present: Callable[[Any], Any] | None):
        self.paths = paths
        self.absent = absent
        self.present = present


class BoundPaths:
    """Extraction calls with literal keys, resolved for one execution.

    What ``ReservoirExtractor.bind`` hands the expression compiler.  All
    calls of one instance apply to the same reservoir value, so a batch
    (:meth:`columns`) unpacks each row's id run once for all of them --
    one header *decode* and, per further call, one *hit*; with sharing
    switched off every call unpacks for itself and all are decodes.  The
    access count is therefore the same either way, and the same as
    evaluating the calls one row at a time through :meth:`one`.

    Attr ids are looked up when the instance is built.  A key (or a
    nested-document prefix) the dictionary does not know yet stays
    *unsettled*: a load that runs beside the query may introduce it.  Ids
    are never reassigned, so it is looked up again only once the
    dictionary has grown since the last try, not before every use --
    ``extract_num`` of an integer key has a REAL path that never settles.
    """

    def __init__(
        self,
        extractor: ReservoirExtractor,
        context: ExtractionContext,
        requests: Sequence[tuple[str, tuple]],
    ):
        self._extractor = extractor
        self._context = context
        context.sites += 1
        self._requests: list[_Request] = []
        for method, (key,) in requests:
            if method == "exists":
                request = _Request([_Path(key, None)], False, _is_found)
            elif method == "extract_any":
                request = _Request(
                    [_Path(key, None)],
                    None,
                    lambda found, key=key: extractor._found_as_text(found, key),
                )
            else:
                paths = [_Path(key, sql_type) for sql_type in TYPED_METHODS[method]]
                request = _Request(paths, None, None)
            self._requests.append(request)
        self._unsettled = [path for request in self._requests for path in request.paths]
        #: the dictionary's size when the unsettled paths were last looked up
        self._known = -1
        self._settle()

    def _settle(self) -> None:
        """Look the unsettled paths up again if the dictionary grew."""
        known = len(self._extractor.catalog)
        if known == self._known:
            return
        self._known = known
        resolve = self._extractor._resolve
        for path in self._unsettled:
            resolve(path)
        self._unsettled = [path for path in self._unsettled if not path.settled]

    def _evaluate(self, request: _Request, data: bytes, ids: tuple) -> Any:
        """One call on one document; the access to ``ids`` is the caller's."""
        context = self._context
        walk = self._extractor._walk
        paths = request.paths
        value = walk(paths[0], data, ids, context)
        if value is None and len(paths) > 1:
            # extract_num's REAL attempt is an access of its own
            context.repeat()
            value = walk(paths[1], data, ids, context)
        return value if request.present is None else request.present(value)

    def one(self, data: bytes | None) -> Any:
        """The (single) call's value for one reservoir value."""
        if self._unsettled:
            self._settle()
        request = self._requests[0]
        if data is None:
            return request.absent
        return self._evaluate(request, data, self._context.ids(data))

    def columns(self, blobs: Sequence[bytes | None]) -> list[list[Any]]:
        """Every call's values for a batch of reservoir values."""
        if self._unsettled:
            self._settle()
        context = self._context
        requests = self._requests
        if not context.enabled:
            return [self._column(request, blobs, context.ids_of(blobs)[0]) for request in requests]
        runs, live = context.ids_of(blobs)
        context.repeat((len(requests) - 1) * live)
        return [self._column(request, blobs, runs) for request in requests]

    def _column(self, request: _Request, blobs: Sequence[bytes | None], runs: list) -> list[Any]:
        out: list[Any] = []
        append = out.append
        evaluate = self._evaluate
        if request.present is not None:
            absent = request.absent
            for data, ids in zip(blobs, runs):
                append(absent if ids is None else evaluate(request, data, ids))
            return out
        # A typed call.  Where none of the key's nested-document prefixes
        # is in the row's document -- always, for a top-level key -- the
        # lookup is the binary search of section 4.1, done here in line.
        paths = request.paths
        parents = paths[0].parents
        leaf_id, decode = paths[0].leaf_id, paths[0].decode
        if len(paths) > 1:
            other_id, other_decode = paths[1].leaf_id, paths[1].decode
        else:
            other_id, other_decode = -1, None
        retried = 0
        for data, ids in zip(blobs, runs):
            if ids is None:
                append(None)
                continue
            n = len(ids)
            for parent_id in parents:
                position = bisect_left(ids, parent_id)
                if position < n and ids[position] == parent_id:
                    # a nested document to enter: the general walk
                    append(evaluate(request, data, ids))
                    break
            else:
                position = bisect_left(ids, leaf_id)
                if position < n and ids[position] == leaf_id:
                    start, end = unpack_span(data, 4 + 4 * (n + position))
                    base = 8 + 8 * n
                    append(decode(data[base + start : base + end]))
                elif other_decode is None:
                    append(None)
                else:
                    retried += 1
                    position = bisect_left(ids, other_id)
                    if position < n and ids[position] == other_id:
                        start, end = unpack_span(data, 4 + 4 * (n + position))
                        base = 8 + 8 * n
                        append(other_decode(data[base + start : base + end]))
                    else:
                        append(None)
        if retried:
            self._context.repeat(retried)
        return out


def _is_found(found: Any) -> bool:
    return found is not None


#: Map from an expected SQL type to the UDF name the rewriter emits.
EXTRACT_FUNCTION_FOR_TYPE = {
    SqlType.TEXT: "extract_key_text",
    SqlType.INTEGER: "extract_key_num",
    SqlType.REAL: "extract_key_num",
    SqlType.BOOLEAN: "extract_key_bool",
    SqlType.ARRAY: "extract_key_array",
    SqlType.BYTEA: "extract_key_doc",
    None: "extract_key_any",
}


#: The extraction UDF surface: SQL name -> (extractor method, return type).
EXTRACTION_UDFS: dict[str, tuple[str, SqlType]] = {
    "extract_key_text": ("extract_text", SqlType.TEXT),
    "extract_key_int": ("extract_int", SqlType.INTEGER),
    "extract_key_real": ("extract_real", SqlType.REAL),
    "extract_key_num": ("extract_num", SqlType.REAL),
    "extract_key_bool": ("extract_bool", SqlType.BOOLEAN),
    "extract_key_array": ("extract_array", SqlType.ARRAY),
    "extract_key_doc": ("extract_doc", SqlType.BYTEA),
    "extract_key_any": ("extract_any", SqlType.TEXT),
    "sinew_exists": ("exists", SqlType.BOOLEAN),
    "sinew_to_json": ("to_json", SqlType.TEXT),
}


def register_extraction_udfs(
    functions: FunctionRegistry, extractor: ReservoirExtractor
) -> None:
    """Register Sinew's extraction functions on the underlying RDBMS,
    exactly as the prototype installs its UDF extension (paper section 5).

    The ``(data, 'literal key')`` functions carry the specializer hook,
    through which the expression compiler gets their :class:`BoundPaths`
    form.
    """
    for name, (method, return_type) in EXTRACTION_UDFS.items():
        functions.register_scalar(
            name,
            getattr(extractor, method),
            return_type,
            specializer=(extractor, method) if method != "to_json" else None,
        )
    # the rewrite's text read of a document or array physical column
    functions.register_scalar("sinew_downcast", extractor.downcast, SqlType.TEXT)
    # scope the extractor's id-run memo to each execution's lifetime
    functions.register_query_listener(extractor)
