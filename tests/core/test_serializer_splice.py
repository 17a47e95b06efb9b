"""The header splice of ``remove_attribute`` / ``add_attribute`` against
the path it replaced: decode every value, re-serialize the survivors.

Seeded random documents cover every type the format encodes, arrays
nesting arrays and documents, REAL NaN (with a payload) and -0.0, and
the first, last, only and absent attribute ids; the splice must give
byte-identical output every time.
"""

import math
import random
import struct

import pytest

from repro.core import serializer
from repro.rdbms.errors import ExecutionError
from repro.rdbms.types import SqlType

SEED = 20140622
ENCODED_TYPES = (
    SqlType.INTEGER,
    SqlType.REAL,
    SqlType.BOOLEAN,
    SqlType.TEXT,
    SqlType.BYTEA,
    SqlType.ARRAY,
)
#: a quiet NaN carrying a payload: a splice must not touch its bits
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
SPECIAL_REALS = (math.nan, PAYLOAD_NAN, -0.0, 0.0, math.inf, -math.inf, 5e-324)


def reference_remove(data, attr_id, types):
    """Decode every other value and serialize them afresh."""
    kept = [
        (aid, types[aid], serializer.decode_value(raw, types[aid]))
        for aid, raw in serializer.iterate(data)
        if aid != attr_id
    ]
    return serializer.serialize(kept)


def reference_add(data, attr_id, sql_type, value, types):
    kept = [
        (aid, types[aid], serializer.decode_value(raw, types[aid]))
        for aid, raw in serializer.iterate(data)
        if aid != attr_id
    ]
    kept.append((attr_id, sql_type, value))
    return serializer.serialize(kept)


def random_text(rng):
    alphabet = "abé中\U0001f600 \x00"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))


def random_real(rng):
    if rng.random() < 0.3:
        return rng.choice(SPECIAL_REALS)
    return rng.uniform(-1e6, 1e6)


def random_array(rng, depth):
    elements = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(7 if depth < 2 else 5)
        if kind == 0:
            elements.append(None)
        elif kind == 1:
            elements.append(rng.choice((True, False)))
        elif kind == 2:
            elements.append(rng.randint(-(2**63), 2**63 - 1))
        elif kind == 3:
            elements.append(random_real(rng))
        elif kind == 4:
            elements.append(random_text(rng))
        elif kind == 5:
            elements.append(random_array(rng, depth + 1))
        else:
            elements.append(random_document(rng, depth + 1)[0])
    return elements


def random_value(rng, sql_type, depth):
    if sql_type is SqlType.INTEGER:
        return rng.choice((0, -1, 2**63 - 1, -(2**63), rng.randint(-(10**9), 10**9)))
    if sql_type is SqlType.REAL:
        return random_real(rng)
    if sql_type is SqlType.BOOLEAN:
        return rng.choice((True, False))
    if sql_type is SqlType.TEXT:
        return random_text(rng)
    if sql_type is SqlType.BYTEA:
        if depth >= 2 or rng.random() < 0.3:
            return bytes(rng.randrange(256) for _ in range(rng.randint(0, 5)))
        return random_document(rng, depth + 1)[0]
    return random_array(rng, depth)


def random_document(rng, depth=0):
    """``(bytes, {attr_id: type})`` of a document with 0-8 attributes."""
    ids = rng.sample(range(1, 40), rng.randint(0, 8))
    types = {aid: rng.choice(ENCODED_TYPES) for aid in ids}
    triples = [(aid, types[aid], random_value(rng, types[aid], depth)) for aid in ids]
    return serializer.serialize(triples), types


def target_ids(rng, types):
    """The first, last, a middle and an absent id (below, between, above)."""
    present = sorted(types)
    candidates = [0, 40, rng.randrange(1, 40)]
    if present:
        candidates += [present[0], present[-1], rng.choice(present)]
    return candidates


class TestSpliceMatchesReserialize:
    def test_remove_is_byte_identical(self):
        rng = random.Random(SEED)
        checked = 0
        for _ in range(2500):
            data, types = random_document(rng)
            for attr_id in target_ids(rng, types):
                assert serializer.remove_attribute(data, attr_id) == reference_remove(
                    data, attr_id, types
                )
                checked += 1
        assert checked > 10_000

    def test_add_is_byte_identical(self):
        rng = random.Random(SEED + 1)
        for _ in range(2500):
            data, types = random_document(rng)
            for attr_id in target_ids(rng, types):
                # a present id keeps its type (ids are per key *and* type)
                sql_type = types.get(attr_id) or rng.choice(ENCODED_TYPES)
                value = random_value(rng, sql_type, 0)
                spliced = serializer.add_attribute(data, attr_id, sql_type, value)
                assert spliced == reference_add(
                    data, attr_id, sql_type, value, {**types, attr_id: sql_type}
                )

    @pytest.mark.parametrize("sql_type", ENCODED_TYPES)
    def test_every_type_first_last_and_middle(self, sql_type):
        rng = random.Random(SEED + 2)
        for position in (1, 5, 9):
            others = [(aid, SqlType.TEXT, f"v{aid}") for aid in (3, 7)]
            value = random_value(rng, sql_type, 0)
            types = {3: SqlType.TEXT, 7: SqlType.TEXT, position: sql_type}
            data = serializer.serialize(others + [(position, sql_type, value)])
            assert serializer.remove_attribute(data, position) == reference_remove(
                data, position, types
            )
            base = serializer.serialize(others)
            assert serializer.add_attribute(
                base, position, sql_type, value
            ) == reference_add(base, position, sql_type, value, types)

    def test_special_reals_keep_their_bits(self):
        triples = [(aid, SqlType.REAL, value) for aid, value in enumerate(SPECIAL_REALS, 1)]
        types = {aid: SqlType.REAL for aid, _t, _v in triples}
        data = serializer.serialize(triples)
        for attr_id in types:
            smaller = serializer.remove_attribute(data, attr_id)
            assert smaller == reference_remove(data, attr_id, types)
        payload = serializer.remove_attribute(data, 1)
        raw = dict(serializer.iterate(payload))[2]
        assert raw == struct.pack("<d", PAYLOAD_NAN)
        negative_zero = serializer.add_attribute(
            serializer.serialize([]), 4, SqlType.REAL, -0.0
        )
        assert math.copysign(1.0, serializer.extract(negative_zero, 4, SqlType.REAL)) < 0

    def test_only_attribute_and_empty_document(self):
        empty = serializer.serialize([])
        only = serializer.serialize([(5, SqlType.INTEGER, 42)])
        assert serializer.remove_attribute(only, 5) == empty
        assert serializer.remove_attribute(empty, 5) == empty
        assert serializer.add_attribute(empty, 5, SqlType.INTEGER, 42) == only
        assert serializer.remove_attribute(only, 6) == only

    def test_setting_none_removes(self):
        rng = random.Random(SEED + 3)
        for _ in range(300):
            data, types = random_document(rng)
            for attr_id in target_ids(rng, types):
                sql_type = types.get(attr_id, SqlType.TEXT)
                assert serializer.add_attribute(
                    data, attr_id, sql_type, None
                ) == reference_remove(data, attr_id, types)

    def test_unencodable_type_still_refused(self):
        with pytest.raises(ExecutionError):
            serializer.add_attribute(serializer.serialize([]), 1, SqlType.JSON, "{}")
