"""Figure 6's queries return the right rows, checked against the documents.

Each NoBench query of Figure 6 (q1-q10) runs through Sinew's rewriter and
the batch executor; the expected rows are computed in Python from the
generated documents, in load order (no query orders its output, and the
scan, filters and hash aggregate keep arrival order).
"""

import pytest

from repro.nobench import NoBenchGenerator, SinewNoBench

N = 1500


def _number(value) -> bool:
    return type(value) in (int, float)


def _in_range(value, low, high) -> bool:
    return _number(value) and low <= value <= high


def expected_rows(query_id: str, documents: list[dict], p) -> list[tuple]:
    def pair(doc: dict, a: str, b: str) -> tuple:
        return (doc.get(a), doc.get(b))

    def whole(keep) -> list[tuple]:
        return [(doc,) for doc in documents if keep(doc)]

    if query_id == "q1":
        return [pair(doc, "str1", "num") for doc in documents]
    if query_id == "q2":
        return [pair(doc.get("nested_obj", {}), "str", "num") for doc in documents]
    if query_id == "q3":
        return [pair(doc, p.q3_key_a, p.q3_key_b) for doc in documents]
    if query_id == "q4":
        return [pair(doc, p.q4_key_a, p.q4_key_b) for doc in documents]
    if query_id == "q5":
        return whole(lambda doc: doc.get("str1") == p.q5_str1)
    if query_id == "q6":
        return whole(lambda doc: _in_range(doc.get("num"), p.q6_low, p.q6_high))
    if query_id == "q7":
        return whole(lambda doc: _in_range(doc.get("dyn1"), p.q7_low, p.q7_high))
    if query_id == "q8":
        return whole(lambda doc: p.q8_term in doc.get("nested_arr", ()))
    if query_id == "q9":
        return whole(lambda doc: doc.get(p.q9_key) == p.q9_value)
    assert query_id == "q10"
    groups: dict = {}
    for doc in documents:
        if _in_range(doc.get("num"), p.q10_low, p.q10_high):
            groups[doc["thousandth"]] = groups.get(doc["thousandth"], 0) + 1
    return list(groups.items())


@pytest.fixture(scope="module")
def world():
    generator = NoBenchGenerator(N, seed=11)
    documents = list(generator.documents())
    adapter = SinewNoBench(generator.params())
    adapter.load(documents)
    adapter.prepare()
    yield adapter, documents
    adapter.sdb.close()


@pytest.mark.parametrize("query_id", [f"q{n}" for n in range(1, 11)])
def test_rows_match_the_documents(world, query_id):
    adapter, documents = world
    rows = adapter.sdb.query(adapter.sql_for(query_id)).rows
    expected = expected_rows(query_id, documents, adapter.params)
    assert rows, query_id
    assert rows == expected, query_id
