"""Unit tests for the text index: the terms of a document, the matches()
language, and the heap's inverted index under writes."""

import pytest

from repro.core import SinewDB
from repro.core.text_index import TextQuery, document_terms, tokenize
from repro.rdbms.errors import DatabaseError, ExecutionError
from repro.rdbms.storage import TextIndex, TextTarget

DOCUMENTS = {
    0: {"title": "Hello World", "body": "databases are fun"},
    1: {"title": "world peace", "views": 100},
    2: {"title": "goodbye", "nested": {"deep": "hello again"}},
    3: {"tags": ["hello", "sql"], "views": 250},
}


def make_index(documents):
    target = TextTarget(lambda values, _args: document_terms(values[0]), ("doc",), ())
    index = TextIndex((0,), target)
    index.fill([(rid, document_terms(document)) for rid, document in documents.items()])
    return index


def search(index, keys, query):
    return set(index.rids(TextQuery(keys, query)))


@pytest.fixture()
def index():
    return make_index(DOCUMENTS)


class TestTokenize:
    def test_lowercase_alphanumeric(self):
        assert tokenize("Hello, World! 42") == ["hello", "world", "42"]

    def test_base32_values_survive_as_single_tokens(self):
        # '=' is part of the token alphabet so NoBench's base32 values stay
        # searchable as exact terms
        assert tokenize("GBRDCMBQGA======") == ["gbrdcmbqga======"]


class TestTermSearch:
    def test_global_search(self, index):
        assert search(index, "*", "hello") == {0, 2, 3}
        assert search(index, "*", "world") == {0, 1}

    def test_field_faceted_search(self, index):
        assert search(index, "title", "hello") == {0}
        assert search(index, "body", "hello") == set()

    def test_nested_field_names_are_dotted(self, index):
        assert search(index, "nested.deep", "hello") == {2}

    def test_array_elements_indexed(self, index):
        assert search(index, "tags", "sql") == {3}

    def test_boolean_terms(self):
        assert search(make_index({0: {"flag": True}}), "flag", "true") == {0}

    def test_case_insensitive(self, index):
        assert search(index, "*", "HELLO") == {0, 2, 3}

    def test_numbers_are_no_terms(self, index):
        assert search(index, "views", "100") == set()


class TestPrefixFuzzyRange:
    def test_prefix(self, index):
        assert search(index, "*", "wor*") == {0, 1}
        assert search(index, "title", "good*") == {2}

    def test_fuzzy_one_edit(self, index):
        assert 0 in search(index, "*", "helo~")  # deletion
        assert 0 in search(index, "*", "hellp~")  # substitution
        assert 0 in search(index, "*", "hellos~")  # insertion
        assert 0 not in search(index, "*", "hxllp~")  # two edits
        assert search(index, "*", "xyzzy~") == set()


QUERIES = [
    ("*", "hello world"),
    ("title,body", "hello"),
    ("*", "wor*"),
    ("*", "helo~"),
    ("*", "/^good/"),
    ("*", "hello nonexistent"),
    ("*", ""),
    ("", "hello"),
    ("title, *", "peace"),
]


class TestMatchesLanguage:
    def test_conjunction(self, index):
        assert search(index, "*", "hello world") == {0}

    def test_field_list(self, index):
        assert search(index, "title,body", "hello") == {0}

    def test_prefix_term(self, index):
        assert search(index, "*", "wor*") == {0, 1}

    def test_fuzzy_term(self, index):
        assert 0 in search(index, "*", "helo~")

    def test_regex_term(self, index):
        assert search(index, "*", "/^good/") == {2}

    def test_empty_result_short_circuits(self, index):
        assert search(index, "*", "hello nonexistent") == set()

    def test_invalid_regex_is_a_database_error(self):
        with pytest.raises(ExecutionError, match="invalid regular expression"):
            TextQuery("*", "/[/")
        sdb = SinewDB("bad_regex")
        sdb.create_collection("t")
        sdb.load("t", [{"title": "hello"}])
        with pytest.raises(DatabaseError, match="invalid regular expression"):
            sdb.query("SELECT _id FROM t WHERE matches('*', '/[/')")

    @pytest.mark.parametrize("keys,query", QUERIES)
    def test_row_test_agrees_with_the_postings(self, index, keys, query):
        # the recheck of one row and the index read give the same rows
        text_query = TextQuery(keys, query)
        expected = {
            rid for rid, document in DOCUMENTS.items()
            if text_query.holds(document_terms(document))
        }
        assert search(index, keys, query) == expected


class TestMaintenance:
    def test_reindex_replaces(self, index):
        index.write(0, document_terms(DOCUMENTS[0]), document_terms({"title": "totally different"}))
        assert 0 not in search(index, "*", "hello")
        assert 0 in search(index, "title", "different")

    def test_remove_document(self, index):
        index.write(1, document_terms(DOCUMENTS[1]), None)
        assert search(index, "*", "peace") == set()
        # a write leaves the postings a fresh build of the rest would give
        rest = {rid: document for rid, document in DOCUMENTS.items() if rid != 1}
        assert index.entries == make_index(rest).entries

    def test_a_missing_entry_raises(self, index):
        with pytest.raises(ExecutionError, match="text entry of row 1"):
            index.write(1, document_terms({"title": "never indexed"}), None)
