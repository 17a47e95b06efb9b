"""Exception hierarchy for the relational engine.

The engine mirrors the error surface of a conventional RDBMS closely enough
for the paper's failure modes to be reproducible:

* ``TypeCastError`` corresponds to PostgreSQL's ``invalid input syntax for
  type ...`` error, which is what makes NoBench Q7 fail on the Postgres
  JSON baseline (paper section 6.4).
* ``DiskFullError`` corresponds to running out of scratch/table space, which
  is what terminates NoBench Q8/Q9/Q11 on the EAV baseline and Q11 on
  MongoDB (paper sections 6.4 and 6.5).

Every error carries a uniform optional ``position`` (character offset into
the SQL text) and ``context`` (a short clause naming what was being done),
rendered consistently by ``__str__``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..analysis.diagnostics import Diagnostic


class DatabaseError(Exception):
    """Base class for every error raised by the engine.

    ``position`` is a character offset into the offending SQL text (or None
    when no source location applies); ``context`` is a short human-readable
    clause describing the operation that failed.
    """

    def __init__(
        self,
        message: str = "",
        position: int | None = None,
        context: str | None = None,
    ):
        super().__init__(message)
        self.message = message
        self.position = position
        self.context = context

    def __str__(self) -> str:
        text = self.message
        if self.position is not None:
            text = f"{text} (at position {self.position})"
        if self.context:
            text = f"{text} [{self.context}]"
        return text


class SqlSyntaxError(DatabaseError):
    """The SQL text could not be tokenized or parsed."""


class CatalogError(DatabaseError):
    """A referenced table, column, or function does not exist (or already
    exists when it must not)."""


class TypeCastError(DatabaseError):
    """A value could not be converted to the requested SQL type.

    Matches PostgreSQL's behaviour of aborting the whole query on a
    malformed cast such as ``'twenty'::integer``.
    """


class ExecutionError(DatabaseError):
    """A runtime failure while executing a plan (bad expression, overflow,
    unexpected NULL, ...)."""


class PlanningError(DatabaseError):
    """The planner could not produce a plan for a (parsed) statement."""


class SemanticError(PlanningError):
    """The binder rejected a statement before planning.

    Subclasses :class:`PlanningError` so existing ``except PlanningError``
    call sites keep working; carries the full list of structured
    :class:`~repro.analysis.diagnostics.Diagnostic` records (errors *and*
    warnings) that the analysis pass produced.
    """

    def __init__(self, diagnostics: Sequence["Diagnostic"]):
        self.diagnostics = tuple(diagnostics)
        errors = [d for d in self.diagnostics if d.is_error]
        first = errors[0] if errors else self.diagnostics[0]
        message = f"{first.code}: {first.message}"
        if len(errors) > 1:
            message += f" (+{len(errors) - 1} more)"
        super().__init__(
            message,
            position=first.span[0] if first.span else None,
            context="semantic analysis",
        )


class DiskFullError(DatabaseError):
    """The database exceeded its configured disk budget.

    Raised while appending heap pages or spilling intermediate results.  Used
    to reproduce the paper's out-of-disk terminations for the EAV and
    MongoDB baselines.
    """

    def __init__(self, used_bytes: int, budget_bytes: int):
        self.used_bytes = used_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"disk budget exhausted: {used_bytes} bytes used, "
            f"budget is {budget_bytes} bytes"
        )


class TransactionError(DatabaseError):
    """Illegal transaction state transition (commit without begin, ...)."""


class ConcurrencyError(DatabaseError):
    """A latch could not be acquired (loader vs. materializer exclusion)."""


class DegradedError(TransactionError):
    """The engine is in read-only degraded mode after a WAL I/O failure.

    An ``OSError`` (ENOSPC, EIO, ...) from a WAL append or fsync means the
    log can no longer promise durability, so instead of dying -- or worse,
    acknowledging writes it cannot recover -- the engine flips the WAL into
    a *degraded* state: reads keep working (they never touch the log),
    every write is rejected with this error, and an operator brings the
    system back with ``WriteAheadLog.try_recover()`` (surfaced as
    ``\\service recover`` in the shell) once the underlying disk problem is
    fixed.

    Subclasses :class:`TransactionError` so existing transaction-layer
    handlers keep working; ``reason`` records the original I/O error.
    """

    def __init__(
        self,
        message: str = "",
        position: int | None = None,
        context: str | None = None,
        *,
        reason: str | None = None,
    ):
        super().__init__(message, position, context)
        self.reason = reason


class RecoveryError(DatabaseError):
    """Crash recovery found an on-disk state it cannot replay consistently
    (row-id misalignment, checkpoint referencing missing segments, ...)."""
