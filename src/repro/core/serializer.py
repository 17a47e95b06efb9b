"""Sinew's custom binary serialization format (paper section 4.1).

Layout of one serialized document::

    +-----------+---------------------+--------------------+-------+------+
    | n_attrs   | attr ids (sorted)   | value offsets      | len   | body |
    | uint32    | n_attrs x uint32    | n_attrs x uint32   | u32   | ...  |
    +-----------+---------------------+--------------------+-------+------+

* attribute ids come from the global catalog dictionary and are stored
  **sorted**, so key lookup is a binary search (O(log n)); the paper keeps
  ids and offsets in two separate runs to maximise cache locality of the
  binary search, which this layout preserves;
* ``offsets[i]`` is the byte offset of attribute i's value within the body;
  the value's length is ``offsets[i+1] - offsets[i]`` (or ``len -
  offsets[i]`` for the last attribute), so no per-value length words are
  needed;
* the body holds type-dependent binary encodings; nested objects are
  recursively serialized documents, giving the "nested object is itself a
  serialized data column" behaviour of section 6.1.

Value encodings
---------------
========  =====================================================
INTEGER   8-byte signed little-endian
REAL      8-byte IEEE-754 double
BOOLEAN   1 byte (0/1)
TEXT      UTF-8 bytes
BYTEA     nested serialized document (or raw bytes)
ARRAY     u32 count, then per element: u8 type tag, u32 byte
          length, encoded element
========  =====================================================
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Any, Callable, Iterator, Sequence

from ..rdbms.errors import ExecutionError
from ..rdbms.types import SqlType

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
#: ``unpack_span(data, 4 + 4 * (n + i))``: the ``(start, end)`` body
#: offsets of the i-th of ``n`` attributes, read out of the offset run
unpack_span = struct.Struct("<II").unpack_from

#: ``n`` -> the Struct unpacking a run of ``n`` uint32 (an id run, or with
#: ``n + 1`` an offset run); built on first use, so no format string per
#: document.  A racing first use builds the same Struct twice, harmlessly.
_RUNS: dict[int, struct.Struct] = {}


def _run(n: int) -> struct.Struct:
    run = _RUNS.get(n)
    if run is None:
        run = _RUNS[n] = struct.Struct(f"<{n}I")
    return run

#: One-byte tags used inside ARRAY bodies (arrays are heterogeneous in
#: JSON, so elements are self-describing).
_TAG_NULL = 0
_TAG_INT = 1
_TAG_REAL = 2
_TAG_BOOL = 3
_TAG_TEXT = 4
_TAG_DOC = 5
_TAG_ARRAY = 6

_TAG_OF_TYPE = {
    SqlType.INTEGER: _TAG_INT,
    SqlType.REAL: _TAG_REAL,
    SqlType.BOOLEAN: _TAG_BOOL,
    SqlType.TEXT: _TAG_TEXT,
    SqlType.BYTEA: _TAG_DOC,
    SqlType.ARRAY: _TAG_ARRAY,
}


def encode_value(value: Any, sql_type: SqlType) -> bytes:
    """Encode one non-NULL value with its catalog-declared type."""
    if sql_type is SqlType.INTEGER:
        return _I64.pack(value)
    if sql_type is SqlType.REAL:
        return _F64.pack(value)
    if sql_type is SqlType.BOOLEAN:
        return b"\x01" if value else b"\x00"
    if sql_type is SqlType.TEXT:
        return value.encode("utf-8")
    if sql_type is SqlType.BYTEA:
        return bytes(value)
    if sql_type is SqlType.ARRAY:
        return encode_array(value)
    raise ExecutionError(f"cannot serialize type {sql_type}")


def decode_value(data: bytes, sql_type: SqlType) -> Any:
    """Decode one value previously produced by :func:`encode_value`."""
    try:
        decoder = DECODERS[sql_type]
    except KeyError:
        raise ExecutionError(f"cannot deserialize type {sql_type}") from None
    return decoder(data)


def encode_array(values: Sequence[Any]) -> bytes:
    """Self-describing array encoding (heterogeneous elements allowed)."""
    parts = [_U32.pack(len(values))]
    for element in values:
        if element is None:
            parts.append(bytes([_TAG_NULL]))
            parts.append(_U32.pack(0))
            continue
        if isinstance(element, bool):
            tag, encoded = _TAG_BOOL, (b"\x01" if element else b"\x00")
        elif isinstance(element, int):
            tag, encoded = _TAG_INT, _I64.pack(element)
        elif isinstance(element, float):
            tag, encoded = _TAG_REAL, _F64.pack(element)
        elif isinstance(element, str):
            tag, encoded = _TAG_TEXT, element.encode("utf-8")
        elif isinstance(element, (bytes, bytearray)):
            tag, encoded = _TAG_DOC, bytes(element)
        elif isinstance(element, (list, tuple)):
            tag, encoded = _TAG_ARRAY, encode_array(element)
        else:
            raise ExecutionError(
                f"cannot serialize array element of type {type(element).__name__}"
            )
        parts.append(bytes([tag]))
        parts.append(_U32.pack(len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def decode_array(data: bytes) -> list[Any]:
    (count,) = _U32.unpack_from(data, 0)
    position = 4
    out: list[Any] = []
    for _ in range(count):
        tag = data[position]
        (length,) = _U32.unpack_from(data, position + 1)
        start = position + 5
        chunk = data[start : start + length]
        position = start + length
        if tag == _TAG_NULL:
            out.append(None)
        elif tag == _TAG_INT:
            out.append(_I64.unpack(chunk)[0])
        elif tag == _TAG_REAL:
            out.append(_F64.unpack(chunk)[0])
        elif tag == _TAG_BOOL:
            out.append(chunk != b"\x00")
        elif tag == _TAG_TEXT:
            out.append(chunk.decode("utf-8"))
        elif tag == _TAG_DOC:
            out.append(bytes(chunk))
        elif tag == _TAG_ARRAY:
            out.append(decode_array(chunk))
        else:
            raise ExecutionError(f"corrupt array: unknown tag {tag}")
    return out


#: Per-type value decoders: the table :func:`decode_value` dispatches on,
#: shared with the resolved extraction paths of :mod:`repro.core.extractors`.
DECODERS: dict[SqlType, Callable[[bytes], Any]] = {
    SqlType.INTEGER: lambda data: _I64.unpack(data)[0],
    SqlType.REAL: lambda data: _F64.unpack(data)[0],
    SqlType.BOOLEAN: lambda data: data != b"\x00",
    SqlType.TEXT: lambda data: str(data, "utf-8"),
    SqlType.BYTEA: bytes,
    SqlType.ARRAY: decode_array,
}


def unpack_ids(data: bytes) -> tuple[int, ...]:
    """The sorted attribute-id run of a document: the part of the header a
    key lookup binary-searches (the offsets are read per found key)."""
    return _run(_U32.unpack_from(data, 0)[0]).unpack_from(data, 4)


def value_at(data: bytes, n: int, position: int) -> bytes:
    """Raw bytes of the ``position``-th of a document's ``n`` attributes."""
    start, end = unpack_span(data, 4 + 4 * (n + position))
    base = 8 + 8 * n
    return data[base + start : base + end]


def serialize(attributes: Sequence[tuple[int, SqlType, Any]]) -> bytes:
    """Serialize a document given ``(attr_id, type, value)`` triples.

    NULL-valued attributes are *omitted entirely* -- absence is encoded by
    absence, which is where the format's space advantage over Avro comes
    from (Appendix A).  Attribute ids must be unique; they are sorted here.
    """
    present = [(aid, t, v) for aid, t, v in attributes if v is not None]
    present.sort(key=lambda item: item[0])
    n = len(present)
    encoded = [encode_value(value, sql_type) for _aid, sql_type, value in present]

    header = bytearray()
    header += _U32.pack(n)
    for aid, _t, _v in present:
        header += _U32.pack(aid)
    offset = 0
    for chunk in encoded:
        header += _U32.pack(offset)
        offset += len(chunk)
    header += _U32.pack(offset)  # total body length
    return bytes(header) + b"".join(encoded)


def _unpack_header(data: bytes) -> tuple[int, tuple, tuple, int]:
    """``(n, ids, offsets, body_base)`` of a serialized document."""
    n = _U32.unpack_from(data, 0)[0]
    return (
        n,
        _run(n).unpack_from(data, 4),
        _run(n + 1).unpack_from(data, 4 + 4 * n),
        8 + 8 * n,
    )


class DecodedHeader:
    """A fully parsed document header: ids, offsets, and the body base.

    For callers that visit every attribute (:func:`iterate`,
    :func:`extract_many`); single-key lookups read only the id run
    (:func:`unpack_ids`) and one offset pair (:func:`value_at`).
    """

    __slots__ = ("data", "n", "ids", "offsets", "body_base")

    def __init__(self, data: bytes):
        self.data = data
        self.n, self.ids, self.offsets, self.body_base = _unpack_header(data)


def decode_header(data: bytes) -> DecodedHeader:
    """Parse a document header once, for repeated key lookups."""
    return DecodedHeader(data)


def attribute_count(data: bytes) -> int:
    return _U32.unpack_from(data, 0)[0]


def attribute_ids(data: bytes) -> list[int]:
    """The sorted attribute ids present in a serialized document."""
    return list(unpack_ids(data))


def has_attribute(data: bytes, attr_id: int) -> bool:
    """Key-existence test: binary search over the header only.

    This is the fast path the paper contrasts with BSON, where existence
    checks still walk the record.
    """
    ids = unpack_ids(data)
    position = bisect_left(ids, attr_id)
    return position < len(ids) and ids[position] == attr_id


def extract(data: bytes, attr_id: int, sql_type: SqlType) -> Any:
    """Random-access extraction of one attribute; None when absent.

    Cost is O(log n) in the number of attributes: one binary search in the
    id run, one offset lookup, one slice decode.
    """
    ids = unpack_ids(data)
    n = len(ids)
    position = bisect_left(ids, attr_id)
    if position >= n or ids[position] != attr_id:
        return None
    return decode_value(value_at(data, n, position), sql_type)


def extract_many(
    data: bytes, wanted: Sequence[tuple[int, SqlType]]
) -> list[Any]:
    """Extract several attributes from one document (amortises the header
    unpack across keys, as Appendix A's 10-key task does)."""
    n, ids, offsets, body_base = _unpack_header(data)
    out: list[Any] = []
    for attr_id, sql_type in wanted:
        position = bisect_left(ids, attr_id)
        if position >= n or ids[position] != attr_id:
            out.append(None)
            continue
        start, end = offsets[position], offsets[position + 1]
        out.append(decode_value(data[body_base + start : body_base + end], sql_type))
    return out


def iterate(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Yield ``(attr_id, raw_value_bytes)`` pairs (deserialization path)."""
    n, ids, offsets, body_base = _unpack_header(data)
    for index in range(n):
        yield ids[index], data[
            body_base + offsets[index] : body_base + offsets[index + 1]
        ]


def remove_attribute(data: bytes, attr_id: int) -> bytes:
    """Return a copy of the document without ``attr_id``.

    A header splice: the id and its offset leave their runs, the later
    offsets shift down by the value's width and the body loses that
    slice.  No value is decoded, and the bytes equal what serializing the
    remaining attributes afresh would give.  Used by the column
    materializer when moving a value out of the reservoir.
    """
    n, ids, offsets, base = _unpack_header(data)
    position = bisect_left(ids, attr_id)
    if position >= n or ids[position] != attr_id:
        return data
    start, end = offsets[position], offsets[position + 1]
    width = end - start
    header = _run(2 * n).pack(
        n - 1,
        *ids[:position],
        *ids[position + 1 :],
        *offsets[:position],
        *[offset - width for offset in offsets[position + 1 :]],
    )
    return b"".join(
        (header, data[base : base + start], data[base + end : base + offsets[n]])
    )


def add_attribute(data: bytes, attr_id: int, sql_type: SqlType, value: Any) -> bytes:
    """Return a copy of the document with ``attr_id`` set to ``value``
    (removed when ``value`` is None).

    A header splice like :func:`remove_attribute`: only the new value is
    encoded.  Used by the materializer when dematerializing a physical
    column back into the reservoir, and by Sinew's UPDATE path for
    virtual columns.
    """
    if value is None:
        return remove_attribute(data, attr_id)
    encoded = encode_value(value, sql_type)
    n, ids, offsets, base = _unpack_header(data)
    position = bisect_left(ids, attr_id)
    start = offsets[position]
    if position < n and ids[position] == attr_id:  # replace the value
        end = offsets[position + 1]
        count, new_ids, later = n, ids, offsets[position + 1 :]
    else:  # insert it: the later offsets include the one at ``position``
        end = start
        count, later = n + 1, offsets[position:]
        new_ids = (*ids[:position], attr_id, *ids[position:])
    shift = len(encoded) - (end - start)
    header = _run(2 * count + 2).pack(
        count, *new_ids, *offsets[: position + 1], *[offset + shift for offset in later]
    )
    return b"".join(
        (header, data[base : base + start], encoded, data[base + end : base + offsets[n]])
    )
