"""``CHECK``-style integrity pass: audit catalog vs. storage consistency.

Sinew's correctness hinges on invariants that span two layers -- the
catalog (global attribute dictionary + per-table column states) and the
physical storage (column reservoir bytes + materialized physical columns).
The loader, materializer, and UPDATE path each maintain a slice of them;
this module audits the whole set after the fact, the way a relational
``CHECK`` constraint or ``amcheck`` would:

* **SNW303** every reservoir document has a well-formed serialization
  header (count, strictly-sorted attribute ids, monotonic offsets, body
  length consistent with the document size);
* **SNW304** every attribute id stored in a document exists in the global
  dictionary;
* **SNW301** per-attribute occurrence counts in the catalog agree with the
  rows actually stored (reservoir presence + non-NULL physical cells).
  Counts may legitimately run *high* after deletes (the loader never
  decrements), so a stale-high count is a warning while an under-count --
  impossible under correct maintenance -- is an error;
* **SNW302** a column marked materialized-and-clean has no residue left in
  the reservoir (the mover removes values as it copies them out);
* **SNW306** a column marked materialized *and clean* has its physical
  column present in the table schema (a **dirty** materialized column
  without one is a legal mid-flight state: the materializer allocates the
  physical column in its first step, and until the dirty bit clears every
  query goes through the ``COALESCE(physical, extract(...))`` fallback);
* **SNW305** the catalog's document count agrees with the number of live
  heap rows (same stale-high rule as SNW301).

Row-level findings (SNW303/SNW304/SNW302) are capped at
``MAX_EXAMPLES_PER_CODE`` detailed diagnostics per code, followed by one
summary diagnostic, so a badly corrupted table still produces a readable
report.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..rdbms.types import SqlType
from . import diagnostics as d
from .diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.catalog import SinewCatalog
    from ..rdbms.database import Database

_RESERVOIR_COLUMN = "data"
_U32 = struct.Struct("<I")

#: detailed row-level diagnostics emitted per code before summarizing
MAX_EXAMPLES_PER_CODE = 5


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one table's integrity check."""

    table_name: str
    rows_scanned: int
    findings: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(f for f in self.findings if f.is_error)

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.findings)} finding(s)"
        return (
            f"check {self.table_name!r}: {self.rows_scanned} row(s) "
            f"scanned, {status}"
        )


def validate_document(data: object) -> str | None:
    """First structural problem in one serialized document, or None.

    Validates the header invariants of the Sinew serialization format
    without decoding any values: a u32 attribute count, ``n`` strictly
    ascending attribute ids, ``n + 1`` monotonically non-decreasing value
    offsets starting at zero, and a final offset equal to the body size.
    """
    if not isinstance(data, (bytes, bytearray)):
        return f"reservoir cell holds {type(data).__name__}, not bytes"
    if len(data) < 4:
        return "truncated: document shorter than the attribute count word"
    (n,) = _U32.unpack_from(data, 0)
    header_end = 4 + 4 * n + 4 * (n + 1) if n else 4
    if header_end > len(data):
        return (
            f"header claims {n} attribute(s) but the document is only "
            f"{len(data)} byte(s)"
        )
    if n == 0:
        return None
    ids = struct.unpack_from(f"<{n}I", data, 4)
    for left, right in zip(ids, ids[1:]):
        if left >= right:
            return (
                "attribute ids are not strictly ascending "
                f"({left} then {right}); binary search is broken"
            )
    offsets = struct.unpack_from(f"<{n + 1}I", data, 4 + 4 * n)
    if offsets[0] != 0:
        return f"first value offset is {offsets[0]}, expected 0"
    for left, right in zip(offsets, offsets[1:]):
        if left > right:
            return f"value offsets are not monotonic ({left} then {right})"
    body = len(data) - header_end
    if offsets[-1] != body:
        return (
            f"body length mismatch: header says {offsets[-1]} byte(s), "
            f"document holds {body}"
        )
    return None


def _document_attributes(data: bytes) -> Iterable[tuple[int, bytes]]:
    """Yield ``(attr_id, raw_value)`` for every top-level attribute.

    Assumes the header already passed :func:`validate_document`.
    """
    (n,) = _U32.unpack_from(data, 0)
    if not n:
        return
    ids = struct.unpack_from(f"<{n}I", data, 4)
    offsets = struct.unpack_from(f"<{n + 1}I", data, 4 + 4 * n)
    body = 4 + 4 * n + 4 * (n + 1)
    for index, attr_id in enumerate(ids):
        yield attr_id, bytes(data[body + offsets[index]: body + offsets[index + 1]])


class IntegrityChecker:
    """Audits one or more Sinew tables against the catalog."""

    def __init__(self, db: "Database", catalog: "SinewCatalog"):
        self.db = db
        self.catalog = catalog

    def check(self, table_names: Iterable[str]) -> list[CheckReport]:
        return [self.check_table(name) for name in table_names]

    def check_table(self, table_name: str) -> CheckReport:
        run = _CheckRun(self, table_name)
        run.execute()
        return CheckReport(
            table_name=table_name,
            rows_scanned=run.rows_scanned,
            findings=tuple(run.finalize()),
        )


class _CheckRun:
    """State for one table's scan."""

    def __init__(self, checker: IntegrityChecker, table_name: str):
        self.checker = checker
        self.table_name = table_name
        self.rows_scanned = 0
        self.findings: list[Diagnostic] = []
        self._per_code: Counter[str] = Counter()
        self._suppressed: Counter[str] = Counter()

    # ------------------------------------------------------------------

    def execute(self) -> None:
        checker = self.checker
        table = checker.db.table(self.table_name)
        table_catalog = checker.catalog.tables.get(self.table_name)
        known_ids = {a.attr_id for a in checker.catalog.all_attributes()}

        if _RESERVOIR_COLUMN not in table.schema:
            self._emit(
                d.MALFORMED_HEADER,
                Severity.ERROR,
                f"table {self.table_name!r} has no {_RESERVOIR_COLUMN!r} "
                "reservoir column",
            )
            return

        data_position = table.schema.position_of(_RESERVOIR_COLUMN)
        states = list(table_catalog.columns.values()) if table_catalog else []
        physical_positions = {
            state.attr_id: table.schema.position_of(state.physical_name)
            for state in states
            if state.physical_name and state.physical_name in table.schema
        }

        reservoir_counts: Counter[int] = Counter()
        physical_counts: Counter[int] = Counter()

        for rid, row in table.scan():
            self.rows_scanned += 1
            data = row[data_position]
            problem = validate_document(data)
            if problem is not None:
                self._emit(
                    d.MALFORMED_HEADER,
                    Severity.ERROR,
                    f"row {rid}: {problem}",
                )
            else:
                self._count_reservoir(
                    bytes(data), rid, known_ids, reservoir_counts
                )
            for attr_id, position in physical_positions.items():
                cell = row[position]
                if cell is None:
                    continue
                physical_counts[attr_id] += 1
                # a materialized nested document still carries its
                # sub-attributes inside the moved bytes -- count them too
                if (
                    attr_id in known_ids
                    and checker.catalog.attribute(attr_id).key_type
                    is SqlType.BYTEA
                    and isinstance(cell, (bytes, bytearray))
                    and validate_document(cell) is None
                ):
                    self._count_reservoir(
                        bytes(cell), rid, known_ids, reservoir_counts
                    )

        self._check_states(
            states,
            known_ids,
            reservoir_counts,
            physical_counts,
            physical_positions,
        )
        self._check_rowcount(table_catalog)

    # ------------------------------------------------------------------

    def _count_reservoir(
        self,
        data: bytes,
        rid: int,
        known_ids: set[int],
        reservoir_counts: Counter[int],
    ) -> None:
        """Tally attribute occurrences, descending into nested documents.

        The loader counts sub-attributes of nested objects (their dotted
        key names live in the global dictionary), so the audit must count
        them the same way or every nested key would read as stale-high.
        """
        catalog = self.checker.catalog
        for attr_id, raw in _document_attributes(data):
            if attr_id not in known_ids:
                self._emit(
                    d.UNKNOWN_ATTR_ID,
                    Severity.ERROR,
                    f"row {rid}: document references attribute id "
                    f"{attr_id}, which is not in the global "
                    "dictionary",
                )
                continue
            reservoir_counts[attr_id] += 1
            if (
                catalog.attribute(attr_id).key_type is SqlType.BYTEA
                and validate_document(raw) is None
            ):
                self._count_reservoir(raw, rid, known_ids, reservoir_counts)

    def _check_states(
        self,
        states,
        known_ids,
        reservoir_counts,
        physical_counts,
        physical_positions,
    ) -> None:
        catalog = self.checker.catalog
        for state in states:
            if state.attr_id not in known_ids:
                self._emit(
                    d.UNKNOWN_ATTR_ID,
                    Severity.ERROR,
                    f"catalog column state references attribute id "
                    f"{state.attr_id}, which is not in the global dictionary",
                )
                continue
            attribute = catalog.attribute(state.attr_id)
            label = f"{attribute.key_name!r} ({attribute.key_type.value})"

            if (
                state.materialized
                and not state.dirty
                and state.attr_id not in physical_positions
            ):
                self._emit(
                    d.MISSING_PHYSICAL_COLUMN,
                    Severity.ERROR,
                    f"column {label} is marked materialized and clean but "
                    f"its physical column {state.physical_name!r} is not in "
                    "the table schema",
                )
            if (
                state.materialized
                and not state.dirty
                and reservoir_counts.get(state.attr_id, 0) > 0
            ):
                self._emit(
                    d.RESERVOIR_RESIDUE,
                    Severity.ERROR,
                    f"column {label} is marked clean and materialized but "
                    f"{reservoir_counts[state.attr_id]} row(s) still carry "
                    "it in the reservoir",
                )

            actual = reservoir_counts.get(state.attr_id, 0) + physical_counts.get(
                state.attr_id, 0
            )
            if actual > state.count:
                self._emit(
                    d.COUNT_MISMATCH,
                    Severity.ERROR,
                    f"column {label}: catalog count {state.count} but "
                    f"{actual} stored occurrence(s); counts must never "
                    "under-report",
                )
            elif actual < state.count:
                self._emit(
                    d.COUNT_MISMATCH,
                    Severity.WARNING,
                    f"column {label}: catalog count {state.count} exceeds "
                    f"{actual} stored occurrence(s) (stale-high is expected "
                    "after deletes)",
                )

    def _check_rowcount(self, table_catalog) -> None:
        if table_catalog is None:
            return
        if self.rows_scanned > table_catalog.n_documents:
            self._emit(
                d.ROWCOUNT_MISMATCH,
                Severity.ERROR,
                f"catalog records {table_catalog.n_documents} document(s) "
                f"but the heap holds {self.rows_scanned} live row(s)",
            )
        elif self.rows_scanned < table_catalog.n_documents:
            self._emit(
                d.ROWCOUNT_MISMATCH,
                Severity.WARNING,
                f"catalog records {table_catalog.n_documents} document(s) "
                f"but the heap holds {self.rows_scanned} live row(s) "
                "(stale-high is expected after deletes)",
            )

    # ------------------------------------------------------------------

    def _emit(self, code: str, severity: Severity, message: str) -> None:
        self._per_code[code] += 1
        if self._per_code[code] > MAX_EXAMPLES_PER_CODE:
            self._suppressed[code] += 1
            return
        self.findings.append(
            Diagnostic(code, severity, f"{self.table_name}: {message}")
        )

    def finalize(self) -> list[Diagnostic]:
        for code, extra in sorted(self._suppressed.items()):
            self.findings.append(
                Diagnostic(
                    code,
                    Severity.WARNING,
                    f"{self.table_name}: ... and {extra} more "
                    f"{code} finding(s) suppressed",
                )
            )
        return self.findings
