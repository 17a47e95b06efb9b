"""The 11 NoBench queries plus the paper's added random-update task,
expressed for each of the four benchmarked systems (paper section 6).

Query inventory (NoBench / Argo, WebDB 2013):

====  =====================================================================
Q1    project two dense top-level keys (``str1``, ``num``)
Q2    project two nested keys (``nested_obj.str``, ``nested_obj.num``)
Q3    project two co-occurring sparse keys (same cluster)
Q4    project two non-co-occurring sparse keys (different clusters)
Q5    equality selection on ``str1`` (point lookup)
Q6    numeric range on ``num`` (~0.1% selectivity)
Q7    numeric range on the dynamically typed ``dyn1``
Q8    array containment: term = ANY(``nested_arr``)
Q9    equality on a sparse key
Q10   COUNT(*) GROUP BY ``thousandth`` over a ~10% ``num`` range
Q11   self-join: ``left.nested_obj.str = right.str1`` with a selective
      filter on the left side
UPD   ``UPDATE ... SET sparse_588 = 'DUMMY' WHERE sparse_589 = <value>``
      (paper section 6.6, ~1/10000 selectivity)
====  =====================================================================

Every adapter exposes ``run(query_id) -> int`` (result row count) so the
harness can time identical logical work across systems and verify result
cardinalities agree.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..baselines.eav import EavStore
from ..baselines.mongo import MongoDatabase, client_side_join
from ..baselines.pgjson import PgJsonStore
from ..core.sinew import SinewConfig, SinewDB
from ..rdbms.database import DatabaseConfig
from .generator import NoBenchParams

QUERY_IDS = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10", "q11"]
TABLE = "nobench_main"


class NoBenchAdapter:
    """Common interface every benchmarked system implements."""

    name: str

    def load(self, documents: Iterable[Mapping[str, Any]]) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Post-load settling (schema analysis, statistics)."""

    def storage_bytes(self) -> int:
        raise NotImplementedError

    def run(self, query_id: str) -> int:
        """Execute one query; returns the number of result rows."""
        return getattr(self, query_id)()

    def update(self) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Sinew
# ---------------------------------------------------------------------------


class SinewNoBench(NoBenchAdapter):
    """Sinew with the paper's materialization policy (section 6.1)."""

    name = "Sinew"

    def __init__(self, params: NoBenchParams, config: SinewConfig | None = None):
        self.params = params
        self.sdb = SinewDB("sinew_nobench", config)
        self.sdb.create_collection(TABLE)

    def load(self, documents: Iterable[Mapping[str, Any]]) -> None:
        self.sdb.load(TABLE, documents)

    def prepare(self) -> None:
        self.sdb.settle(TABLE)

    def storage_bytes(self) -> int:
        return self.sdb.storage_bytes(TABLE)

    def materialized_keys(self) -> list[str]:
        return sorted(
            key for key, _type, storage in self.sdb.logical_schema(TABLE)
            if storage in ("physical", "dirty")
        )

    def _count(self, sql: str) -> int:
        return len(self.sdb.query(sql))

    def sql_for(self, query_id: str) -> str:
        """The exact SQL a NoBench query id runs.

        Exposed so harnesses (the bench gate in particular) can re-run a
        query through ``sdb.query`` and collect its ``exec_stats`` without
        duplicating the statement text here.
        """
        p = self.params
        statements = {
            "q1": f"SELECT str1, num FROM {TABLE}",
            "q2": f'SELECT "nested_obj.str", "nested_obj.num" FROM {TABLE}',
            "q3": f"SELECT {p.q3_key_a}, {p.q3_key_b} FROM {TABLE}",
            "q4": f"SELECT {p.q4_key_a}, {p.q4_key_b} FROM {TABLE}",
            "q5": f"SELECT * FROM {TABLE} WHERE str1 = '{p.q5_str1}'",
            "q6": (
                f"SELECT * FROM {TABLE} "
                f"WHERE num BETWEEN {p.q6_low} AND {p.q6_high}"
            ),
            "q7": (
                f"SELECT * FROM {TABLE} "
                f"WHERE dyn1 BETWEEN {p.q7_low} AND {p.q7_high}"
            ),
            "q8": f"SELECT * FROM {TABLE} WHERE '{p.q8_term}' = ANY(nested_arr)",
            "q9": f"SELECT * FROM {TABLE} WHERE {p.q9_key} = '{p.q9_value}'",
            "q10": (
                f"SELECT thousandth, count(*) FROM {TABLE} "
                f"WHERE num BETWEEN {p.q10_low} AND {p.q10_high} "
                f"GROUP BY thousandth"
            ),
            "q11": (
                f"SELECT * FROM {TABLE} l, {TABLE} r "
                f'WHERE l."nested_obj.str" = r.str1 '
                f"AND l.num BETWEEN {p.q11_low} AND {p.q11_high}"
            ),
        }
        return statements[query_id]

    def q1(self) -> int:
        return self._count(self.sql_for("q1"))

    def q2(self) -> int:
        return self._count(self.sql_for("q2"))

    def q3(self) -> int:
        return self._count(self.sql_for("q3"))

    def q4(self) -> int:
        return self._count(self.sql_for("q4"))

    def q5(self) -> int:
        return self._count(self.sql_for("q5"))

    def q6(self) -> int:
        return self._count(self.sql_for("q6"))

    def q7(self) -> int:
        return self._count(self.sql_for("q7"))

    def q8(self) -> int:
        return self._count(self.sql_for("q8"))

    def q9(self) -> int:
        return self._count(self.sql_for("q9"))

    def q10(self) -> int:
        return self._count(self.sql_for("q10"))

    def q11(self) -> int:
        return self._count(self.sql_for("q11"))

    def update(self) -> int:
        p = self.params
        result = self.sdb.execute(
            f"UPDATE {TABLE} SET {p.update_set_key} = 'DUMMY' "
            f"WHERE {p.update_where_key} = '{p.update_where_value}'"
        )
        return result.rowcount


# ---------------------------------------------------------------------------
# MongoDB
# ---------------------------------------------------------------------------


class MongoNoBench(NoBenchAdapter):
    """The MongoDB-like document store."""

    name = "MongoDB"

    def __init__(self, params: NoBenchParams, disk_budget_bytes: int | None = None):
        self.params = params
        self.client = MongoDatabase("mongo_nobench", disk_budget_bytes)
        self.collection = self.client.collection(TABLE)

    def load(self, documents: Iterable[Mapping[str, Any]]) -> None:
        self.collection.insert_many(documents)

    def storage_bytes(self) -> int:
        return self.collection.total_bytes

    def q1(self) -> int:
        return len(self.collection.find({}, ["str1", "num"]))

    def q2(self) -> int:
        return len(self.collection.find({}, ["nested_obj.str", "nested_obj.num"]))

    def q3(self) -> int:
        p = self.params
        return len(self.collection.find({}, [p.q3_key_a, p.q3_key_b]))

    def q4(self) -> int:
        p = self.params
        return len(self.collection.find({}, [p.q4_key_a, p.q4_key_b]))

    def q5(self) -> int:
        return len(self.collection.find({"str1": self.params.q5_str1}))

    def q6(self) -> int:
        p = self.params
        return len(
            self.collection.find({"num": {"$gte": p.q6_low, "$lte": p.q6_high}})
        )

    def q7(self) -> int:
        p = self.params
        return len(
            self.collection.find({"dyn1": {"$gte": p.q7_low, "$lte": p.q7_high}})
        )

    def q8(self) -> int:
        # Mongo array semantics: equality matches any element.
        return len(self.collection.find({"nested_arr": self.params.q8_term}))

    def q9(self) -> int:
        p = self.params
        return len(self.collection.find({p.q9_key: p.q9_value}))

    def q10(self) -> int:
        p = self.params
        return len(
            self.collection.aggregate(
                [
                    {"$match": {"num": {"$gte": p.q10_low, "$lte": p.q10_high}}},
                    {"$group": {"_id": "$thousandth", "count": {"$sum": 1}}},
                ]
            )
        )

    def q11(self) -> int:
        p = self.params
        output = client_side_join(
            self.client,
            left=self.collection,
            right=self.collection,
            left_key="nested_obj.str",
            right_key="str1",
            left_filter={"num": {"$gte": p.q11_low, "$lte": p.q11_high}},
        )
        joined = len(output)
        self.client.drop_collection("_join_out")
        self.client.drop_collection("_join_out_left")
        self.client.drop_collection("_join_out_right")
        return joined

    def update(self) -> int:
        p = self.params
        return self.collection.update_many(
            {p.update_where_key: p.update_where_value},
            {"$set": {p.update_set_key: "DUMMY"}},
        )


# ---------------------------------------------------------------------------
# EAV
# ---------------------------------------------------------------------------


class EavNoBench(NoBenchAdapter):
    """The entity-attribute-value shredding system."""

    name = "EAV"

    def __init__(self, params: NoBenchParams, config: DatabaseConfig | None = None):
        self.params = params
        self.store = EavStore("eav_nobench", config)
        self.store.create_collection(TABLE)

    def load(self, documents: Iterable[Mapping[str, Any]]) -> None:
        self.store.load(TABLE, documents)

    def prepare(self) -> None:
        self.store.analyze(TABLE)

    def storage_bytes(self) -> int:
        return self.store.storage_bytes(TABLE)

    def q1(self) -> int:
        return len(self.store.project(TABLE, ["str1", "num"]))

    def q2(self) -> int:
        return len(self.store.project(TABLE, ["nested_obj.str", "nested_obj.num"]))

    def _sparse_projection(self, key_a: str, key_b: str) -> int:
        """Sparse projections pivot in the mapping layer (an inner join
        would drop objects having only one of the keys)."""
        relation = f"{TABLE}_eav"
        result = self.store.db.execute(
            f"SELECT oid, key_name, str_val FROM {relation} "
            f"WHERE key_name IN ('{key_a}', '{key_b}')"
        )
        objects: dict[int, dict[str, str]] = {}
        for oid, key_name, str_val in result.rows:
            objects.setdefault(oid, {})[key_name] = str_val
        return len(objects)

    def q3(self) -> int:
        return self._sparse_projection(self.params.q3_key_a, self.params.q3_key_b)

    def q4(self) -> int:
        return self._sparse_projection(self.params.q4_key_a, self.params.q4_key_b)

    def _selected_objects(self, key: str, predicate_sql: str) -> int:
        result = self.store.select_objects(TABLE, key, predicate_sql)
        return len(self.store.reconstruct(result.rows))

    def q5(self) -> int:
        return self._selected_objects("str1", f"b.str_val = '{self.params.q5_str1}'")

    def q6(self) -> int:
        p = self.params
        return self._selected_objects(
            "num", f"b.num_val BETWEEN {p.q6_low} AND {p.q6_high}"
        )

    def q7(self) -> int:
        p = self.params
        return self._selected_objects(
            "dyn1", f"b.num_val BETWEEN {p.q7_low} AND {p.q7_high}"
        )

    def q8(self) -> int:
        return self._selected_objects(
            "nested_arr", f"b.str_val = '{self.params.q8_term}'"
        )

    def q9(self) -> int:
        p = self.params
        return self._selected_objects(p.q9_key, f"b.str_val = '{p.q9_value}'")

    def q10(self) -> int:
        p = self.params
        relation = f"{TABLE}_eav"
        result = self.store.db.execute(
            f"SELECT g.num_val, count(*) FROM {relation} n, {relation} g "
            f"WHERE n.oid = g.oid AND n.key_name = 'num' "
            f"AND g.key_name = 'thousandth' "
            f"AND n.num_val BETWEEN {p.q10_low} AND {p.q10_high} "
            f"GROUP BY g.num_val"
        )
        return len(result)

    def q11(self) -> int:
        p = self.params
        result = self.store.join(
            TABLE,
            left_key="nested_obj.str",
            right_key="str1",
            left_predicate_sql=(
                f"f.key_name = 'num' AND f.num_val BETWEEN {p.q11_low} AND {p.q11_high}"
            ),
            projected_key="str1",
        )
        return len(result)

    def update(self) -> int:
        p = self.params
        return self.store.update(
            TABLE,
            set_key=p.update_set_key,
            set_value="DUMMY",
            where_key=p.update_where_key,
            where_value=p.update_where_value,
        )


# ---------------------------------------------------------------------------
# Postgres JSON
# ---------------------------------------------------------------------------


class PgJsonNoBench(NoBenchAdapter):
    """JSON text in a column; every access re-parses (section 6.1)."""

    name = "PG JSON"

    def __init__(self, params: NoBenchParams, config: DatabaseConfig | None = None):
        self.params = params
        self.store = PgJsonStore("pgjson_nobench", config)
        self.store.create_collection(TABLE)

    def load(self, documents: Iterable[Mapping[str, Any]]) -> None:
        self.store.load(TABLE, documents)

    def prepare(self) -> None:
        self.store.analyze(TABLE)

    def storage_bytes(self) -> int:
        return self.store.storage_bytes(TABLE)

    def _count(self, sql: str) -> int:
        return len(self.store.query(sql))

    def q1(self) -> int:
        return self._count(
            f"SELECT json_get_text(data, 'str1'), json_get_num(data, 'num') FROM {TABLE}"
        )

    def q2(self) -> int:
        return self._count(
            f"SELECT json_get_text(data, 'nested_obj.str'), "
            f"json_get_num(data, 'nested_obj.num') FROM {TABLE}"
        )

    def q3(self) -> int:
        p = self.params
        return self._count(
            f"SELECT json_get_text(data, '{p.q3_key_a}'), "
            f"json_get_text(data, '{p.q3_key_b}') FROM {TABLE}"
        )

    def q4(self) -> int:
        p = self.params
        return self._count(
            f"SELECT json_get_text(data, '{p.q4_key_a}'), "
            f"json_get_text(data, '{p.q4_key_b}') FROM {TABLE}"
        )

    def q5(self) -> int:
        return self._count(
            f"SELECT * FROM {TABLE} "
            f"WHERE json_get_text(data, 'str1') = '{self.params.q5_str1}'"
        )

    def q6(self) -> int:
        p = self.params
        return self._count(
            f"SELECT * FROM {TABLE} "
            f"WHERE json_get_num(data, 'num') BETWEEN {p.q6_low} AND {p.q6_high}"
        )

    def q7(self) -> int:
        """Q7 raises TypeCastError: dyn1 maps to values of multiple types
        and Postgres's cast aborts on the first string (section 6.4)."""
        p = self.params
        return self._count(
            f"SELECT * FROM {TABLE} "
            f"WHERE json_get_num(data, 'dyn1') BETWEEN {p.q7_low} AND {p.q7_high}"
        )

    def q8(self) -> int:
        """Array containment is inexpressible; the paper used an
        approximate (technically incorrect) LIKE over the array text."""
        return self._count(
            f"SELECT * FROM {TABLE} "
            f"WHERE json_get_text(data, 'nested_arr') LIKE '%{self.params.q8_term}%'"
        )

    def q9(self) -> int:
        p = self.params
        return self._count(
            f"SELECT * FROM {TABLE} "
            f"WHERE json_get_text(data, '{p.q9_key}') = '{p.q9_value}'"
        )

    def q10(self) -> int:
        p = self.params
        return self._count(
            f"SELECT json_get_num(data, 'thousandth'), count(*) FROM {TABLE} "
            f"WHERE json_get_num(data, 'num') BETWEEN {p.q10_low} AND {p.q10_high} "
            f"GROUP BY json_get_num(data, 'thousandth')"
        )

    def q11(self) -> int:
        p = self.params
        return self._count(
            f"SELECT l.id, r.id FROM {TABLE} l, {TABLE} r "
            f"WHERE json_get_text(l.data, 'nested_obj.str') = "
            f"json_get_text(r.data, 'str1') "
            f"AND json_get_num(l.data, 'num') BETWEEN {p.q11_low} AND {p.q11_high}"
        )

    def update(self) -> int:
        """Updates decode + re-encode the whole JSON text per matched row."""
        import json as json_module

        p = self.params
        table = self.store.db.table(TABLE)
        data_position = table.schema.position_of("data")
        updated = 0
        with self.store.db.txn_manager.autocommit() as txn:
            matches = []
            for rid, row in table.scan():
                document = json_module.loads(row[data_position])
                if document.get(p.update_where_key) == p.update_where_value:
                    matches.append((rid, row, document))
            for rid, row, document in matches:
                document[p.update_set_key] = "DUMMY"
                new_row = list(row)
                new_row[data_position] = json_module.dumps(
                    document, separators=(",", ":")
                )
                replacement = tuple(new_row)
                size = table.tuple_bytes(replacement)
                old = table.update(rid, replacement, size)
                txn.log_update(
                    TABLE,
                    rid,
                    size,
                    undo=lambda rid=rid, old=old: table.update(rid, old),
                )
                updated += 1
        return updated
