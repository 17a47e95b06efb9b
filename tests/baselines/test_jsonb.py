"""Unit + property tests for the jsonb-style baseline (section 6.7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import jsonb
from repro.rdbms.errors import TypeCastError

DOCS = [
    {"str1": "aaa", "num": 1, "dyn1": 5, "nested": {"k": "deep", "n": 2}},
    {"str1": "bbb", "num": 2, "dyn1": "not-a-number", "arr": [1, "two", None]},
]


class TestFormat:
    def test_roundtrip(self):
        for document in DOCS:
            assert jsonb.decode(jsonb.encode(document)) == document

    def test_roundtrip_edge_values(self):
        for value in ({}, [], {"a": []}, {"": None} if False else {"x": None},
                      {"k": ""}, {"u": "héllo ☃"}):
            assert jsonb.decode(jsonb.encode(value)) == value

    def test_get_raw_top_level(self):
        data = jsonb.encode(DOCS[0])
        assert jsonb.get_raw(data, "str1") == "aaa"
        assert jsonb.get_raw(data, "num") == 1
        assert jsonb.get_raw(data, "missing") is None

    def test_get_raw_nested(self):
        data = jsonb.encode(DOCS[0])
        assert jsonb.get_raw(data, "nested.k") == "deep"
        assert jsonb.get_raw(data, "nested.missing") is None
        assert jsonb.get_raw(data, "num.deeper") is None  # scalar, no descent

    def test_get_raw_array_value(self):
        data = jsonb.encode(DOCS[1])
        assert jsonb.get_raw(data, "arr") == [1, "two", None]

    def test_keys_stored_sorted_for_binary_search(self):
        # every key of a wide object must be findable (exercises the
        # bisection over the sorted key directory)
        wide = {f"key_{index:03d}": index for index in range(101)}
        data = jsonb.encode(wide)
        for key, value in wide.items():
            assert jsonb.get_raw(data, key) == value

    def test_binary_larger_than_sinew_style_dictionary(self):
        # jsonb carries full key strings per record
        document = {"a_rather_long_key_name": 1}
        assert len(jsonb.encode(document)) > len(b"a_rather_long_key_name")


_values = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**60), max_value=2**60),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.text(max_size=15),
        st.none(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6), children, max_size=4
        ),
    ),
    max_leaves=12,
)


class TestProperties:
    @given(st.dictionaries(st.text(alphabet="abcdefgh_", min_size=1, max_size=8), _values, max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_property(self, document):
        assert jsonb.decode(jsonb.encode(document)) == document

    @given(st.dictionaries(st.text(alphabet="abcdefgh_", min_size=1, max_size=8), _values, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_get_raw_matches_decode(self, document):
        data = jsonb.encode(document)
        for key, value in document.items():
            if "." in key:
                continue  # dotted literal keys are shadowed by path syntax
            assert jsonb.get_raw(data, key) == value


class TestStore:
    @pytest.fixture()
    def store(self):
        instance = jsonb.PgJsonbStore()
        instance.create_collection("t")
        instance.load("t", DOCS)
        return instance

    def test_queries(self, store):
        result = store.query(
            "SELECT jsonb_get_text(data, 'str1') FROM t "
            "WHERE jsonb_get_num(data, 'num') > 1"
        )
        assert result.rows == [("bbb",)]

    def test_nested_extraction(self, store):
        result = store.query("SELECT jsonb_get_num(data, 'nested.n') FROM t")
        assert result.column(0) == [2, None]

    def test_q7_still_fails(self, store):
        # jsonb fixes CPU cost, not the multi-typed-key cast abort
        with pytest.raises(TypeCastError):
            store.query("SELECT id FROM t WHERE jsonb_get_num(data, 'dyn1') > 1")

    def test_still_opaque_to_optimizer(self, store):
        store.load("t", [{"num": index} for index in range(500)])
        store.analyze("t")
        plan = store.db.explain(
            "SELECT id FROM t WHERE jsonb_get_num(data, 'num') > 0"
        )
        assert "rows=200" in plan  # the fixed default survives jsonb

    def test_faster_than_text_json_extraction(self, store, monkeypatch):
        """The binary store's advantage, counted rather than timed: per row
        the text store parses the whole document with ``json.loads``, the
        binary store decodes only the value it was asked for and never
        the whole document."""
        import types

        from repro.baselines import pgjson

        documents = [{"k": f"v{index}", "pad": "x" * 200, "num": index} for index in range(200)]
        store.load("t", documents)
        text_store = pgjson.PgJsonStore()
        text_store.create_collection("t")
        text_store.load("t", DOCS + documents)
        n_rows = len(DOCS) + len(documents)

        calls = {"json.loads": 0, "decode": 0, "_decode": 0}

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return call

        monkeypatch.setattr(
            pgjson,
            "json",
            types.SimpleNamespace(
                loads=counted("json.loads", pgjson.json.loads), dumps=pgjson.json.dumps
            ),
        )
        monkeypatch.setattr(jsonb, "decode", counted("decode", jsonb.decode))
        monkeypatch.setattr(jsonb, "_decode", counted("_decode", jsonb._decode))

        text = text_store.query("SELECT json_get_num(data, 'num') FROM t").rows
        binary = store.query("SELECT jsonb_get_num(data, 'num') FROM t").rows
        assert sorted(binary, key=str) == sorted(text, key=str)
        assert calls["json.loads"] == n_rows  # one whole-document parse per row
        assert calls["decode"] == 0  # no whole-document decode
        assert calls["_decode"] == n_rows  # the one scalar asked for, per row
