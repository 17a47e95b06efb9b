"""Full-text search: ``matches(keys, query)`` (paper section 4.3; Apache
Solr in the prototype).

A row's terms are the ``(field, term)`` pairs of its logical document
(:func:`document_terms`): each token of a string value, of each string
in an array, and ``true``/``false`` for a boolean, faceted by the dotted
key that holds it ("it can give the option of faceting its term vectors
by strongly typed fields").  A :class:`TextQuery` tests one row's pairs
(:meth:`TextQuery.holds`) or reads the rows that hold them from an
inverted index (:meth:`TextQuery.rids`).

The inverted index is one more index of a collection's heap
(:class:`~repro.rdbms.storage.TextIndex`): built with one scan by the
first ``matches()`` the planner reads from it, kept exact by every write,
never logged.  Its row-id answers are applied as a filter on the base
relation -- the paper's integration contract for Solr -- and, as for
every index scan, each row it lists is rechecked by the call itself.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping

from ..rdbms.errors import ExecutionError
from .document import flatten

_TOKEN_RE = re.compile(r"[A-Za-z0-9_=]+")


def tokenize(text: str) -> list[str]:
    """Lower-cased alphanumeric tokens of a string value."""
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def document_terms(document: Mapping[str, Any]) -> frozenset[tuple[str, str]]:
    """The ``(field, term)`` pairs of one logical document."""
    terms: set[tuple[str, str]] = set()
    for field, value in flatten(document):
        if isinstance(value, bool):
            terms.add((field, "true" if value else "false"))
        elif isinstance(value, str):
            terms.update((field, term) for term in tokenize(value))
        elif isinstance(value, (list, tuple)):
            for element in value:
                if isinstance(element, str):
                    terms.update((field, term) for term in tokenize(element))
    return frozenset(terms)


class TextQuery:
    """One parsed ``matches(keys, query)``.

    ``keys`` is ``'*'`` or a comma-separated field list.  ``query`` is a
    conjunction of terms; a trailing ``*`` makes a term a prefix match,
    a ``~`` suffix makes it fuzzy (one edit), and ``/regex/`` matches
    terms by regular expression.  An empty query matches nothing.
    """

    __slots__ = ("fields", "terms")

    def __init__(self, keys: str, query: str):
        names = [key.strip() for key in keys.split(",")]
        #: the fields searched; None for any field
        self.fields = None if "*" in names else frozenset(name for name in names if name)
        #: per query term: the term itself for an exact match, else None,
        #: and the test of an indexed term
        self.terms = [_term_test(raw) for raw in query.split()]

    def holds(self, pairs: Iterable[tuple[str, str]]) -> bool:
        """Whether a row with these ``(field, term)`` pairs matches."""
        fields = self.fields
        found = [term for field, term in pairs if fields is None or field in fields]
        return bool(self.terms) and all(
            any(map(test, found)) for _exact, test in self.terms
        )

    def rids(self, postings: Mapping[str, Mapping[str, set[int]]]) -> set[int]:
        """The rows an inverted index's ``field -> term -> rids`` lists."""
        fields = self.fields
        if fields is None:
            searched = list(postings.values())
        else:
            searched = [postings[field] for field in fields if field in postings]
        result: set[int] | None = None
        for exact, test in self.terms:
            matched: set[int] = set()
            for terms in searched:
                if exact is not None:
                    matched.update(terms.get(exact, ()))
                    continue
                for term, rids in terms.items():
                    if test(term):
                        matched.update(rids)
            result = matched if result is None else result & matched
            if not result:
                return set()
        return result or set()


@lru_cache(maxsize=256)
def parse_query(keys: str, query: str) -> TextQuery:
    """The :class:`TextQuery` of one call, parsed once however many rows
    it is tested on."""
    return TextQuery(keys, query)


def _term_test(raw: str) -> tuple[str | None, Callable[[str], Any]]:
    if len(raw) > 2 and raw.startswith("/") and raw.endswith("/"):
        try:
            return None, re.compile(raw[1:-1]).search
        except re.error as exc:
            raise ExecutionError(f"invalid regular expression in matches(): {raw}: {exc}")
    if raw.endswith("*"):
        prefix = raw[:-1].lower()
        return None, lambda term: term.startswith(prefix)
    if raw.endswith("~"):
        word = raw[:-1].lower()
        return None, lambda term: _one_edit_apart(term, word)
    exact = raw.lower()
    return exact, exact.__eq__


def _one_edit_apart(a: str, b: str) -> bool:
    """Is the Levenshtein distance of ``a`` and ``b`` at most one?"""
    if len(a) < len(b):
        a, b = b, a
    if len(a) - len(b) > 1:
        return False
    i = 0
    while i < len(b) and a[i] == b[i]:
        i += 1
    # past the common prefix, substitute a[i] (same lengths) or delete it
    return a[i + 1 :] == b[i + (len(a) == len(b)) :]
