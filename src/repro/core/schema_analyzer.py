"""The schema analyzer (paper section 3.1.3).

Periodically evaluates the current physical/virtual split recorded in the
catalog and decides which attributes to materialize into physical columns
and which materialized columns to dematerialize back into the reservoir.

Policy (the one the paper's evaluation uses, section 6.1): an attribute is
materialized when its **density** (fraction of documents containing it) is
at least ``density_threshold`` (default 0.6) **and** its **cardinality**
(distinct-value count) exceeds ``cardinality_threshold`` (default 200).
On the NoBench dataset this policy selects exactly ``str1``, ``num``,
``nested_arr``, ``nested_obj`` and ``thousandth`` -- low-cardinality dense
keys like ``bool`` stay virtual because the optimizer gains little from
statistics on two-valued columns, and the per-type split of the dynamic
keys keeps each ``dyn1``/``dyn2`` attribute below the density threshold.

Already-materialized columns that drop below the thresholds are marked for
dematerialization (section 3.1.3's final paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..rdbms.database import Database
from ..rdbms.types import SqlType
from . import serializer
from .catalog import ColumnState, SinewCatalog, column_state_payload
from .loader import RESERVOIR_COLUMN

#: Tracking more distinct values than this is pointless: the policy only
#: needs to know whether cardinality exceeds the threshold.
_DISTINCT_TRACKING_CAP = 4096


@dataclass
class MaterializationPolicy:
    """Thresholds for the materialization decision.

    The base rule is the paper's evaluation policy (section 6.1): density
    >= 60% AND cardinality > 200.  Section 3.1.3 additionally says the
    analyzer adapts "to evolving data models *and query patterns*";
    setting ``hot_access_threshold`` enables that adaptive mode: an
    attribute referenced by at least that many queries since the last
    analyzer pass is materialized even when too sparse for the base rule
    (a sparse-but-hot key gains real optimizer statistics and loses its
    per-row extraction cost), and a hot materialized column is never
    dematerialized mid-workload.
    """

    density_threshold: float = 0.6
    cardinality_threshold: int = 200
    #: When True, flattened nested keys (``user.id``) are materialization
    #: candidates too (paper section 4.2: sub-attributes of a materialized
    #: nested object "are marked for materialization if necessary").  The
    #: default keeps the paper's evaluation behaviour of materializing only
    #: top-level keys.
    include_nested: bool = False
    #: Query-pattern adaptivity: queries-per-analyzer-window above which an
    #: attribute counts as hot.  None disables the adaptive mode.
    hot_access_threshold: int | None = None

    def should_materialize(self, density: float, cardinality: int) -> bool:
        return (
            density >= self.density_threshold
            and cardinality > self.cardinality_threshold
        )

    def is_hot(self, access_count: int) -> bool:
        return (
            self.hot_access_threshold is not None
            and access_count >= self.hot_access_threshold
        )


@dataclass
class AnalyzerDecision:
    """One decision taken by an analyzer run."""

    key_name: str
    attr_id: int
    action: str  # "materialize" | "dematerialize"
    density: float
    cardinality: int
    #: why: "policy" (density+cardinality rule) or "hot" (query patterns)
    reason: str = "policy"


@dataclass
class AnalyzerReport:
    """Everything one analyzer pass decided."""

    table_name: str
    decisions: list[AnalyzerDecision] = field(default_factory=list)

    def materialized_keys(self) -> list[str]:
        return [d.key_name for d in self.decisions if d.action == "materialize"]

    def dematerialized_keys(self) -> list[str]:
        return [d.key_name for d in self.decisions if d.action == "dematerialize"]


class SchemaAnalyzer:
    """Evaluates the catalog and marks columns for (de)materialization.

    The analyzer only flips catalog state (``materialized`` target +
    ``dirty``); the actual data movement is the column materializer's job,
    keeping the two processes independently schedulable as in the paper.
    """

    def __init__(
        self,
        db: Database,
        catalog: SinewCatalog,
        policy: MaterializationPolicy | None = None,
        prepare_column=None,
    ):
        self.db = db
        self.catalog = catalog
        self.policy = policy or MaterializationPolicy()
        #: optional hook (table_name, state) that allocates the physical
        #: column *before* the dirty flag becomes visible, so no query can
        #: plan against a dirty column whose physical side does not exist
        self.prepare_column = prepare_column

    def analyze(self, table_name: str) -> AnalyzerReport:
        """One analyzer pass over ``table_name``."""
        report = AnalyzerReport(table_name)
        table_catalog = self.catalog.table(table_name)
        n_documents = table_catalog.n_documents
        if n_documents == 0:
            return report

        cardinalities = self._measure_cardinalities(
            table_name, list(table_catalog.columns.values())
        )
        for attr_id, state in table_catalog.columns.items():
            attribute = self.catalog.attribute(attr_id)
            if "." in attribute.key_name and not self.policy.include_nested:
                # Flattened sub-keys are cataloged for the logical view but
                # by default only top-level keys are materialization
                # candidates (the paper's evaluation policy).
                continue
            density = state.density(n_documents)
            cardinality = cardinalities.get(attr_id, 0)
            by_policy = self.policy.should_materialize(density, cardinality)
            hot = self.policy.is_hot(state.access_count)
            wants_physical = by_policy or hot
            if wants_physical and not state.materialized:
                # The latch serializes the flip with in-flight materializer
                # slices: a direction change resets the progress cursor (a
                # stale mid-pass cursor would skip already-moved rows) and
                # dirty becomes visible first, so concurrent query planning
                # always sees the COALESCE bridge, never a bare read of the
                # still-empty physical column.  ADD COLUMN widens every
                # row, so it runs under the latch too: a slice that had
                # fetched a row would write it back narrow.
                with self.catalog.exclusive_latch("schema-flip"):
                    if self.prepare_column is not None:
                        self.prepare_column(table_name, state)
                    self.catalog.stamp_flip(state)
                    state.dirty = True
                    state.materialized = True
                    self.db.log_catalog(column_state_payload(table_name, state))
                report.decisions.append(
                    AnalyzerDecision(
                        attribute.key_name,
                        attr_id,
                        "materialize",
                        density,
                        cardinality,
                        reason="policy" if by_policy else "hot",
                    )
                )
            elif not wants_physical and state.materialized:
                with self.catalog.exclusive_latch("schema-flip"):
                    self.catalog.stamp_flip(state)
                    state.dirty = True
                    state.materialized = False
                    self.db.log_catalog(column_state_payload(table_name, state))
                report.decisions.append(
                    AnalyzerDecision(
                        attribute.key_name,
                        attr_id,
                        "dematerialize",
                        density,
                        cardinality,
                    )
                )
            # the access window closes with each analyzer pass
            state.access_count = 0
        return report

    def _measure_cardinalities(
        self, table_name: str, states: Iterable[ColumnState]
    ) -> dict[int, int]:
        """Distinct-value counts per attribute, from one reservoir scan.

        Physical columns could use the RDBMS's ANALYZE statistics instead;
        a single scan covering both physical values and reservoir values is
        simpler and exact at benchmark scale.  Tracking per attribute stops
        at :data:`_DISTINCT_TRACKING_CAP` -- the policy only compares
        against a threshold far below the cap.
        """
        table = self.db.table(table_name)
        data_position = table.schema.position_of(RESERVOIR_COLUMN)
        physical_positions: dict[int, int] = {}
        for state in states:
            placement = state.placement(table.schema)
            if placement is not None:
                physical_positions[state.attr_id] = placement.position

        distinct: dict[int, set] = {}
        saturated: set[int] = set()

        def observe(data: bytes) -> None:
            """Count distinct encoded values, recursing into sub-documents
            so nested attributes are candidates too."""
            for attr_id, raw in serializer.iterate(data):
                if attr_id not in saturated:
                    seen = distinct.setdefault(attr_id, set())
                    seen.add(bytes(raw))
                    if len(seen) >= _DISTINCT_TRACKING_CAP:
                        saturated.add(attr_id)
                if self.catalog.type_of(attr_id) is SqlType.BYTEA:
                    observe(bytes(raw))

        for _rid, row in table.scan():
            data = row[data_position]
            if data:
                observe(data)
            for attr_id, position in physical_positions.items():
                if attr_id in saturated:
                    continue
                value = row[position]
                if value is None:
                    continue
                seen = distinct.setdefault(attr_id, set())
                try:
                    seen.add(value if not isinstance(value, list) else tuple(value))
                except TypeError:
                    seen.add(repr(value))
                if len(seen) >= _DISTINCT_TRACKING_CAP:
                    saturated.add(attr_id)
        return {attr_id: len(seen) for attr_id, seen in distinct.items()}
