"""SQL type system: type tags, inference, casting, and size accounting.

The engine supports the small set of scalar types that Sinew's loader infers
from JSON input (paper section 3.2.1) plus the container types used by the
hybrid storage layer:

========  =============================================================
TEXT      UTF-8 string
INTEGER   64-bit signed integer
REAL      IEEE-754 double ("avg_site_visit real" in Figure 4)
BOOLEAN   true/false
BYTEA     opaque bytes -- the column reservoir is a BYTEA column
ARRAY     a (typed or heterogeneous) sequence -- RDBMS array datatype
JSON      raw JSON text, parsed on access (Postgres-JSON baseline)
========  =============================================================

Byte-size accounting mirrors a row-store layout closely enough for the
storage-size experiment (Table 3) and the sparsity discussion of section
3.1.1 to be meaningful: each tuple pays a header that includes per-attribute
presence information, and each non-NULL value pays a width that depends on
its type.
"""

from __future__ import annotations

import enum
import json
import math
from typing import Any

from .errors import TypeCastError


class SqlType(enum.Enum):
    """Tag for every SQL type the engine understands."""

    TEXT = "text"
    INTEGER = "integer"
    REAL = "real"
    BOOLEAN = "boolean"
    BYTEA = "bytea"
    ARRAY = "array"
    JSON = "json"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    # members are singletons, so the C-level identity hash is correct and
    # keeps catalog lookups keyed on (name, type) off the Python-level
    # Enum.__hash__ (visible in extraction hot-path profiles)
    __hash__ = object.__hash__


#: Types on which ordered comparison (<, BETWEEN, ORDER BY) makes sense.
ORDERED_TYPES = frozenset({SqlType.TEXT, SqlType.INTEGER, SqlType.REAL})

#: Types whose values participate in arithmetic.
NUMERIC_TYPES = frozenset({SqlType.INTEGER, SqlType.REAL})

_TYPE_NAMES = {t.value: t for t in SqlType}
_TYPE_ALIASES = {
    "int": SqlType.INTEGER,
    "int4": SqlType.INTEGER,
    "int8": SqlType.INTEGER,
    "bigint": SqlType.INTEGER,
    "smallint": SqlType.INTEGER,
    "double": SqlType.REAL,
    "double precision": SqlType.REAL,
    "float": SqlType.REAL,
    "float8": SqlType.REAL,
    "numeric": SqlType.REAL,
    "bool": SqlType.BOOLEAN,
    "varchar": SqlType.TEXT,
    "char": SqlType.TEXT,
    "string": SqlType.TEXT,
    "blob": SqlType.BYTEA,
    "jsonb": SqlType.JSON,
}


def type_from_name(name: str) -> SqlType:
    """Resolve a SQL type name (case-insensitive, common aliases) to a tag."""
    key = name.strip().lower()
    if key in _TYPE_NAMES:
        return _TYPE_NAMES[key]
    if key in _TYPE_ALIASES:
        return _TYPE_ALIASES[key]
    raise TypeCastError(f"unknown SQL type name: {name!r}")


def infer_type(value: Any) -> SqlType:
    """Infer the SQL type of a Python value, as Sinew's loader does for JSON.

    ``bool`` is checked before ``int`` because it is a subclass of ``int`` in
    Python.  ``dict`` maps to BYTEA because Sinew stores nested objects as a
    serialized sub-document inside the reservoir (paper section 6.1 notes the
    materialized ``nested_obj`` is "itself a serialized data column").
    """
    if value is None:
        raise TypeCastError("cannot infer a type for NULL")
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.REAL
    if isinstance(value, str):
        return SqlType.TEXT
    if isinstance(value, (bytes, bytearray, memoryview)):
        return SqlType.BYTEA
    if isinstance(value, (list, tuple)):
        return SqlType.ARRAY
    if isinstance(value, dict):
        return SqlType.BYTEA
    raise TypeCastError(f"cannot map Python value of type {type(value).__name__} to SQL")


#: The type brackets of the collation, in its order.  Two non-NULL values
#: are equal or in order only within one bracket: INTEGER and REAL are
#: the one NUMBER bracket and compare exactly, a BOOLEAN is no number.
#: An array's NULL element ranks between ARRAY and OTHER.
NUMBER, BOOLEAN, TEXT, BYTES, ARRAY, OTHER = 0, 1, 2, 3, 4, 6

#: the bracket of each Python type a value can have; any other is OTHER
BRACKETS = {
    int: NUMBER, float: NUMBER, bool: BOOLEAN, str: TEXT, bytes: BYTES, list: ARRAY, tuple: ARRAY,
}

#: the Python types of each scalar bracket, for code that tests a bracket
#: with ``type(value) in ...``
BRACKET_TYPES = {
    rank: tuple(kind for kind, of in BRACKETS.items() if of == rank)
    for rank in (NUMBER, BOOLEAN, TEXT, BYTES)
}

_NULL_KEY = (5,)


def bracket(value: Any) -> int:
    """The type bracket of one non-NULL value."""
    return BRACKETS.get(type(value), OTHER)


def collation_key(value: Any) -> tuple:
    """The engine's one collation: a total-order key for any value.

    For non-NULL values, ``a = b`` is TRUE exactly when their keys are
    equal, and ``a < b`` exactly when ``a``'s key is smaller (within one
    bracket).  Across brackets the keys order by bracket, so ``sorted``
    never raises.  Sort, GROUP BY, DISTINCT, ``count(DISTINCT)``, MIN/MAX,
    the three joins and the filter's ``=`` all decide with it.  A scalar's
    key is ``(bracket, value)``, so native comparison of two scalars of
    one bracket gives the same answer.  An array compares element by
    element.  NULL gets a key of its own: one group for GROUP BY and
    DISTINCT, and an element value inside an array.
    """
    if value is None:
        return _NULL_KEY
    rank = BRACKETS.get(type(value), OTHER)
    if rank == ARRAY:
        return (ARRAY, tuple(map(collation_key, value)))
    if rank == OTHER:
        return (OTHER, type(value).__name__, repr(value))
    return (rank, value)


def is_instance_of(value: Any, sql_type: SqlType) -> bool:
    """True when ``value`` already has exactly the given SQL type."""
    if value is None:
        return False
    try:
        return infer_type(value) is sql_type
    except TypeCastError:
        return False


_TRUE_LITERALS = {"t", "true", "yes", "on", "1"}
_FALSE_LITERALS = {"f", "false", "no", "off", "0"}


def cast_value(value: Any, target: SqlType) -> Any:
    """Cast ``value`` to ``target``, raising :class:`TypeCastError` on failure.

    The failure behaviour is deliberately PostgreSQL-like: a malformed text
    representation raises rather than yielding NULL.  This is the mechanism
    behind the Postgres-JSON baseline's inability to execute NoBench Q7
    (paper section 6.4).  NULL passes through every cast unchanged.
    """
    if value is None:
        return None
    if target is SqlType.TEXT:
        return _cast_to_text(value)
    if target is SqlType.INTEGER:
        return _cast_to_integer(value)
    if target is SqlType.REAL:
        return _cast_to_real(value)
    if target is SqlType.BOOLEAN:
        return _cast_to_boolean(value)
    if target is SqlType.BYTEA:
        if isinstance(value, (bytes, bytearray, memoryview)):
            return bytes(value)
        raise TypeCastError(f"cannot cast {type(value).__name__} to bytea")
    if target is SqlType.ARRAY:
        if isinstance(value, (list, tuple)):
            return list(value)
        raise TypeCastError(f"cannot cast {type(value).__name__} to array")
    if target is SqlType.JSON:
        if isinstance(value, str):
            return value
        return json.dumps(value)
    raise TypeCastError(f"unsupported cast target: {target}")


def _cast_to_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value).hex()
    return str(value)


def _cast_to_integer(value: Any) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise TypeCastError(f"cannot cast {value!r} to integer")
        return round(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise TypeCastError(
                f"invalid input syntax for type integer: {value!r}"
            ) from None
    raise TypeCastError(f"cannot cast {type(value).__name__} to integer")


def _cast_to_real(value: Any) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise TypeCastError(
                f"invalid input syntax for type real: {value!r}"
            ) from None
    raise TypeCastError(f"cannot cast {type(value).__name__} to real")


def _cast_to_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        if value in (0, 1):
            return bool(value)
        raise TypeCastError(f"cannot cast {value!r} to boolean")
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _TRUE_LITERALS:
            return True
        if lowered in _FALSE_LITERALS:
            return False
        raise TypeCastError(f"invalid input syntax for type boolean: {value!r}")
    raise TypeCastError(f"cannot cast {type(value).__name__} to boolean")


# ---------------------------------------------------------------------------
# Size accounting
# ---------------------------------------------------------------------------

#: Fixed per-tuple header, loosely modelled on PostgreSQL's 23-byte
#: HeapTupleHeader rounded to alignment.
TUPLE_HEADER_BYTES = 24

#: Variable-length values pay a 4-byte length word (Postgres varlena).
VARLENA_HEADER_BYTES = 4


def value_size(value: Any, sql_type: SqlType) -> int:
    """On-disk byte width of one non-NULL value of the given type."""
    if value is None:
        return 0
    if sql_type is SqlType.INTEGER:
        return 8
    if sql_type is SqlType.REAL:
        return 8
    if sql_type is SqlType.BOOLEAN:
        return 1
    if sql_type is SqlType.TEXT:
        return VARLENA_HEADER_BYTES + len(str(value).encode("utf-8"))
    if sql_type is SqlType.BYTEA:
        return VARLENA_HEADER_BYTES + len(value)
    if sql_type is SqlType.JSON:
        text = value if isinstance(value, str) else json.dumps(value)
        return VARLENA_HEADER_BYTES + len(text.encode("utf-8"))
    if sql_type is SqlType.ARRAY:
        inner = 0
        for element in value:
            kind = type(element)
            width = _FIXED_WIDTHS.get(kind)
            if width is not None:
                inner += width
            elif kind is str:
                inner += VARLENA_HEADER_BYTES + len(element.encode("utf-8"))
            elif element is not None:
                inner += value_size(element, infer_type(element))
        # array header: ndims/flags/elemtype + per-element presence
        return VARLENA_HEADER_BYTES + 12 + len(value) + inner
    raise TypeCastError(f"no size rule for {sql_type}")


#: :func:`value_size` of an array element by its exact Python type, for
#: the fixed-width types: these and strings skip the type inference
_FIXED_WIDTHS = {bool: 1, int: 8, float: 8}


class NullStorageModel(enum.Enum):
    """How a row-store charges for declared-but-NULL attributes.

    Paper section 3.1.1 contrasts InnoDB (about 2 bytes of header per
    attribute per record, NULL or not) with PostgreSQL (a presence bitmap of
    one bit per attribute).  The heap table takes one of these models so the
    all-physical storage-bloat experiment can show both regimes.
    """

    BITMAP = "bitmap"  # PostgreSQL-style: 1 bit per declared attribute
    PER_ATTRIBUTE = "per_attribute"  # InnoDB-style: 2 bytes per attribute


def null_overhead_bytes(n_attributes: int, model: NullStorageModel) -> int:
    """Header bytes charged per tuple for attribute presence tracking."""
    if model is NullStorageModel.PER_ATTRIBUTE:
        return 2 * n_attributes
    return (n_attributes + 7) // 8
