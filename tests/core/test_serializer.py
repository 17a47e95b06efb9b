"""Unit + property tests for Sinew's binary serialization format."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import serializer
from repro.rdbms.types import SqlType


def triple(attr_id, sql_type, value):
    return (attr_id, sql_type, value)


class TestRoundTrip:
    def test_scalar_types(self):
        data = serializer.serialize(
            [
                triple(1, SqlType.TEXT, "hello"),
                triple(2, SqlType.INTEGER, -42),
                triple(3, SqlType.REAL, 2.5),
                triple(4, SqlType.BOOLEAN, True),
            ]
        )
        assert serializer.extract(data, 1, SqlType.TEXT) == "hello"
        assert serializer.extract(data, 2, SqlType.INTEGER) == -42
        assert serializer.extract(data, 3, SqlType.REAL) == 2.5
        assert serializer.extract(data, 4, SqlType.BOOLEAN) is True

    def test_empty_document(self):
        data = serializer.serialize([])
        assert serializer.attribute_count(data) == 0
        assert serializer.attribute_ids(data) == []
        assert serializer.extract(data, 1, SqlType.TEXT) is None
        assert not serializer.has_attribute(data, 1)

    def test_nulls_are_omitted(self):
        data = serializer.serialize(
            [triple(1, SqlType.TEXT, "x"), triple(2, SqlType.TEXT, None)]
        )
        assert serializer.attribute_count(data) == 1
        assert not serializer.has_attribute(data, 2)

    def test_ids_stored_sorted(self):
        data = serializer.serialize(
            [
                triple(30, SqlType.INTEGER, 3),
                triple(10, SqlType.INTEGER, 1),
                triple(20, SqlType.INTEGER, 2),
            ]
        )
        assert serializer.attribute_ids(data) == [10, 20, 30]
        assert serializer.extract(data, 20, SqlType.INTEGER) == 2

    def test_nested_document(self):
        inner = serializer.serialize([triple(5, SqlType.TEXT, "inner")])
        outer = serializer.serialize([triple(1, SqlType.BYTEA, inner)])
        extracted = serializer.extract(outer, 1, SqlType.BYTEA)
        assert serializer.extract(extracted, 5, SqlType.TEXT) == "inner"

    def test_arrays(self):
        values = [1, "two", 3.0, True, None, [4, "five"]]
        data = serializer.serialize([triple(1, SqlType.ARRAY, values)])
        assert serializer.extract(data, 1, SqlType.ARRAY) == values

    def test_unicode_text(self):
        data = serializer.serialize([triple(1, SqlType.TEXT, "héllo wörld — ☃")])
        assert serializer.extract(data, 1, SqlType.TEXT) == "héllo wörld — ☃"

    def test_empty_string_value(self):
        data = serializer.serialize(
            [triple(1, SqlType.TEXT, ""), triple(2, SqlType.INTEGER, 7)]
        )
        assert serializer.extract(data, 1, SqlType.TEXT) == ""
        assert serializer.extract(data, 2, SqlType.INTEGER) == 7


class TestHeaderLayout:
    def test_header_structure_matches_figure_5(self):
        # [n][sorted ids][offsets][len][body]
        data = serializer.serialize(
            [triple(7, SqlType.INTEGER, 1), triple(3, SqlType.TEXT, "abcd")]
        )
        n = struct.unpack_from("<I", data, 0)[0]
        assert n == 2
        ids = struct.unpack_from("<2I", data, 4)
        assert list(ids) == [3, 7]
        offsets = struct.unpack_from("<3I", data, 12)
        assert offsets[0] == 0
        assert offsets[1] == 4  # 'abcd'
        assert offsets[2] == 12  # + 8-byte integer == total body length

    def test_missing_key_identified_from_header_only(self):
        data = serializer.serialize([triple(i * 2, SqlType.INTEGER, i) for i in range(50)])
        assert not serializer.has_attribute(data, 13)
        assert serializer.has_attribute(data, 12)


class TestIterateAndMutate:
    def test_iterate_yields_all(self):
        data = serializer.serialize(
            [triple(1, SqlType.INTEGER, 10), triple(2, SqlType.TEXT, "x")]
        )
        pairs = list(serializer.iterate(data))
        assert [aid for aid, _raw in pairs] == [1, 2]

    def test_remove_attribute(self):
        data = serializer.serialize(
            [triple(1, SqlType.INTEGER, 10), triple(2, SqlType.TEXT, "x"),
             triple(3, SqlType.REAL, 1.5)]
        )
        smaller = serializer.remove_attribute(data, 2)
        assert serializer.attribute_ids(smaller) == [1, 3]
        assert serializer.extract(smaller, 1, SqlType.INTEGER) == 10
        assert serializer.extract(smaller, 2, SqlType.TEXT) is None
        assert len(smaller) < len(data)

    def test_add_attribute_inserts_and_replaces(self):
        data = serializer.serialize([triple(1, SqlType.INTEGER, 10)])
        added = serializer.add_attribute(data, 2, SqlType.TEXT, "new")
        assert serializer.extract(added, 2, SqlType.TEXT) == "new"
        replaced = serializer.add_attribute(added, 2, SqlType.TEXT, "newer")
        assert serializer.extract(replaced, 2, SqlType.TEXT) == "newer"
        assert serializer.attribute_count(replaced) == 2

    def test_add_attribute_none_removes(self):
        data = serializer.serialize([triple(1, SqlType.INTEGER, 10)])
        cleared = serializer.add_attribute(data, 1, SqlType.INTEGER, None)
        assert serializer.attribute_count(cleared) == 0


class TestExtractMany:
    def test_mixed_present_absent(self):
        data = serializer.serialize(
            [triple(1, SqlType.INTEGER, 10), triple(5, SqlType.TEXT, "x")]
        )
        values = serializer.extract_many(
            data,
            [(1, SqlType.INTEGER), (3, SqlType.TEXT), (5, SqlType.TEXT)],
        )
        assert values == [10, None, "x"]


# ---------------------------------------------------------------------------
# property-based tests
# ---------------------------------------------------------------------------

_scalar_values = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=40),
)


def _typed(value):
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.REAL
    return SqlType.TEXT


@st.composite
def documents(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    ids = draw(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    values = draw(st.lists(_scalar_values, min_size=n, max_size=n))
    return [(aid, _typed(v), v) for aid, v in zip(ids, values)]


class TestProperties:
    @given(documents())
    @settings(max_examples=150, deadline=None)
    def test_every_attribute_extractable(self, doc):
        data = serializer.serialize(doc)
        for attr_id, sql_type, value in doc:
            assert serializer.extract(data, attr_id, sql_type) == value
            assert serializer.has_attribute(data, attr_id)

    @given(documents())
    @settings(max_examples=100, deadline=None)
    def test_header_ids_sorted_and_complete(self, doc):
        data = serializer.serialize(doc)
        ids = serializer.attribute_ids(data)
        assert ids == sorted(ids)
        assert set(ids) == {aid for aid, _t, _v in doc}

    @given(documents(), st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_absent_key_is_none(self, doc, probe):
        data = serializer.serialize(doc)
        present = {aid for aid, _t, _v in doc}
        if probe not in present:
            assert serializer.extract(data, probe, SqlType.TEXT) is None
            assert not serializer.has_attribute(data, probe)

    @given(documents())
    @settings(max_examples=60, deadline=None)
    def test_remove_then_absent_others_unchanged(self, doc):
        if not doc:
            return
        data = serializer.serialize(doc)
        victim = doc[0][0]
        smaller = serializer.remove_attribute(data, victim)
        assert not serializer.has_attribute(smaller, victim)
        for attr_id, sql_type, value in doc[1:]:
            assert serializer.extract(smaller, attr_id, sql_type) == value

    @given(st.lists(st.one_of(_scalar_values, st.none()), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_array_roundtrip(self, values):
        encoded = serializer.encode_array(values)
        assert serializer.decode_array(encoded) == values
