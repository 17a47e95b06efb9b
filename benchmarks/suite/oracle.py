"""Expected results, computed from the raw documents in plain Python.

No engine code runs here: every function takes the documents a workload
generated (dicts) and the literals of a statement, and returns the rows the
statement must produce as a :func:`harness.canonical_rows` counter.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping

from harness import canonical_json, canonical_rows

Document = Mapping[str, Any]


def documents(matching: Iterable[Document]) -> Counter:
    """What ``SELECT *`` returns: one single-column row per document."""
    return Counter((canonical_json(document),) for document in matching)


def _is_int(value: Any) -> bool:
    # a boolean is not a number to SQL, though it is an int to Python
    return isinstance(value, int) and not isinstance(value, bool)


def equals(docs: Iterable[Document], key: str, value: Any) -> Counter:
    return documents(d for d in docs if d.get(key) == value)


def int_between(docs: Iterable[Document], key: str, low: int, high: int) -> Counter:
    """``key BETWEEN low AND high`` on a possibly multi-typed key: only
    integer occurrences can match (type-aware NULL on mismatch)."""
    return documents(
        d for d in docs if _is_int(d.get(key)) and low <= d[key] <= high
    )


def nobench(docs: list[Document], params: Any) -> dict[str, Counter]:
    """q1-q11 of ``SinewNoBench.sql_for`` over ``docs``."""
    p = params
    by_str1: dict[str, list[Document]] = {}
    for d in docs:
        by_str1.setdefault(d["str1"], []).append(d)
    return {
        "q1": canonical_rows((d["str1"], d["num"]) for d in docs),
        "q2": canonical_rows(
            (d["nested_obj"]["str"], d["nested_obj"]["num"]) for d in docs
        ),
        "q3": canonical_rows((d.get(p.q3_key_a), d.get(p.q3_key_b)) for d in docs),
        "q4": canonical_rows((d.get(p.q4_key_a), d.get(p.q4_key_b)) for d in docs),
        "q5": equals(docs, "str1", p.q5_str1),
        "q6": int_between(docs, "num", p.q6_low, p.q6_high),
        "q7": int_between(docs, "dyn1", p.q7_low, p.q7_high),
        "q8": documents(d for d in docs if p.q8_term in d["nested_arr"]),
        "q9": equals(docs, p.q9_key, p.q9_value),
        "q10": group_count(docs, "num", "thousandth", p.q10_low, p.q10_high),
        "q11": canonical_rows(
            (left, right)
            for left in docs
            if p.q11_low <= left["num"] <= p.q11_high
            for right in by_str1.get(left["nested_obj"]["str"], ())
        ),
    }


def group_count(docs: Iterable[Document], key: str, group: str, low: int, high: int) -> Counter:
    """``SELECT group, count(*) ... WHERE key BETWEEN low AND high GROUP BY group``."""
    return Counter(
        Counter(d[group] for d in docs if low <= d[key] <= high).items()
    )
