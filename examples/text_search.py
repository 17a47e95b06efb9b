#!/usr/bin/env python3
"""Full-text search over semi-structured AND unstructured data (paper
section 4.3).

A support-ticket system: tickets are JSON documents with structured
fields, free-text subjects, and tag arrays.  SQL WHERE clauses use
``matches(keys, query)`` -- term search, field faceting, prefix and fuzzy
matching -- next to ordinary relational predicates; each collection's
inverted index is built by its first search.  Completely unstructured log
lines live alongside as one-field documents of their own collection.

Run:  python examples/text_search.py
"""

from repro.core import SinewDB

TICKETS = [
    {
        "id": 1,
        "subject": "Database connection timeout during peak hours",
        "severity": "high",
        "tags": ["database", "timeout"],
        "reporter": {"name": "ada", "team": "platform"},
    },
    {
        "id": 2,
        "subject": "Dashboard rendering glitch in dark mode",
        "severity": "low",
        "tags": ["frontend", "ui"],
        "reporter": {"name": "brian", "team": "web"},
    },
    {
        "id": 3,
        "subject": "Timeout connecting to the payments database replica",
        "severity": "critical",
        "tags": ["database", "payments"],
        "reporter": {"name": "carol", "team": "payments"},
    },
    {
        "id": 4,
        "subject": "Add dark theme to the mobile dashboard",
        "severity": "low",
        "tags": ["mobile", "feature-request"],
        "reporter": {"name": "ada", "team": "platform"},
    },
    {
        "id": 5,
        "subject": "Payments databse migration failing",  # note the typo!
        "severity": "high",
        "tags": ["payments", "migration"],
        "reporter": {"name": "dmitri", "team": "payments"},
    },
]


def main() -> None:
    sdb = SinewDB("tickets")
    sdb.create_collection("tickets")
    sdb.load("tickets", TICKETS)

    print("tickets mentioning 'timeout' anywhere:")
    result = sdb.query("SELECT id, severity FROM tickets WHERE matches('*', 'timeout')")
    print(" ", sorted(result.rows))

    print("\n'database' restricted to the subject field:")
    result = sdb.query(
        "SELECT id FROM tickets WHERE matches('subject', 'database')"
    )
    print(" ", sorted(result.column(0)))

    print("\ncombined with relational predicates (AND severity):")
    result = sdb.query(
        "SELECT id FROM tickets "
        "WHERE matches('subject', 'database') AND severity = 'critical'"
    )
    print(" ", result.column(0))

    print("\nconjunction of terms ('dark dashboard'):")
    result = sdb.query("SELECT id FROM tickets WHERE matches('*', 'dark dashboard')")
    print(" ", sorted(result.column(0)))

    print("\nprefix search ('time*') over subjects:")
    result = sdb.query("SELECT id FROM tickets WHERE matches('subject', 'time*')")
    print(" ", sorted(result.column(0)))

    print("\nfuzzy search finds the 'databse' typo ('database~'):")
    result = sdb.query("SELECT id FROM tickets WHERE matches('subject', 'database~')")
    print(" ", sorted(result.column(0)))

    print("\narray tags are indexed too (tags:payments):")
    result = sdb.query("SELECT id FROM tickets WHERE matches('tags', 'payments')")
    print(" ", sorted(result.column(0)))

    print("\nfaceted by a nested field (reporter.team:payments):")
    result = sdb.query(
        "SELECT id FROM tickets WHERE matches('reporter.team', 'payments')"
    )
    print(" ", sorted(result.column(0)))

    # -- completely unstructured data alongside (section 4.3's last point)
    sdb.create_collection("logs")
    line = "2014-06-22 14:03:11 ERROR payments-db: replication lag exceeded"
    sdb.load("logs", [{"line": line}])
    print("\nunstructured log line findable through the same search:")
    result = sdb.query("SELECT line FROM logs WHERE matches('*', 'replication lag')")
    print(" ", result.column(0))

    # -- a numeric range on a virtual column is an ordinary predicate
    print("\nnumeric range 2 <= id <= 4 (row ids of the matches):")
    result = sdb.query("SELECT _id FROM tickets WHERE id BETWEEN 2 AND 4")
    print(" ", sorted(result.column(0)))


if __name__ == "__main__":
    main()
