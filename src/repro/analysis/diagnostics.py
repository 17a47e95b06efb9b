"""Structured diagnostics for Sinew's static analysis layer.

Every finding -- from the binder (semantic checks and catalog lint),
the storage integrity checker, or the engine-protocol analyzer -- is a
:class:`Diagnostic`: a severity, a stable ``SNW###`` code, a message, and
a location (the source span of the offending SQL fragment for query
analysis; a ``path``/``line`` pair for engine-source findings).

Code taxonomy
-------------
=======  ==========================================================
SNW1xx   semantic **errors** (block execution)
SNW101   unknown table / collection
SNW102   unknown column on a plain (non-Sinew) table
SNW103   ambiguous unqualified column reference
SNW104   unknown function
SNW105   aggregate function in WHERE
SNW106   aggregate nested inside another aggregate
SNW107   ungrouped column in an aggregated query
SNW108   arithmetic on a provably non-numeric operand
SNW109   wrong number of arguments for a known function
SNW2xx   catalog-aware **warnings** (attach to the result)
SNW201   unknown key on a Sinew table: extraction is always NULL
SNW202   typed extraction provably NULL (catalog has no values of a
         compatible type for the key) -- the predicate is prunable
SNW203   multi-typed key projected bare: downcast to text
SNW204   comparison between provably incompatible literal types
SNW3xx   ``\\check`` integrity findings (catalog vs. storage)
SNW301   attribute occurrence count disagrees with stored rows
SNW302   clean materialized column still has reservoir residue
SNW303   malformed serialization header
SNW304   document references an attribute id missing from the
         global dictionary
SNW305   catalog row count disagrees with the heap
SNW306   materialized column's physical name missing from the
         table schema
SNW4xx   engine-protocol findings (the :mod:`..analysis.protocol`
         static pass over ``src/repro`` itself)
SNW401   ``@requires_latch``-tagged function called outside the
         exclusive catalog latch
SNW402   column-state flip writes ``materialized`` before ``dirty``
SNW403   fault-injection point mismatch: a ``fire()`` call site
         names an unregistered point, or a registered point has no
         call site
SNW404   durable ``WriteAheadLog.append`` reachable before
         ``activate()`` in the enclosing flow
SNW405   bare latch ``acquire()`` with no ``try/finally`` release
=======  ==========================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


# -- semantic errors (SNW1xx) ------------------------------------------------
UNKNOWN_TABLE = "SNW101"
UNKNOWN_COLUMN = "SNW102"
AMBIGUOUS_COLUMN = "SNW103"
UNKNOWN_FUNCTION = "SNW104"
AGGREGATE_IN_WHERE = "SNW105"
NESTED_AGGREGATE = "SNW106"
UNGROUPED_COLUMN = "SNW107"
NON_NUMERIC_ARITHMETIC = "SNW108"
WRONG_ARG_COUNT = "SNW109"

# -- catalog-aware lint warnings (SNW2xx) ------------------------------------
UNKNOWN_KEY_NULL = "SNW201"
PROVABLY_NULL_EXTRACTION = "SNW202"
MULTI_TYPED_DOWNCAST = "SNW203"
INCOMPATIBLE_COMPARISON = "SNW204"

# -- integrity-check findings (SNW3xx) ---------------------------------------
COUNT_MISMATCH = "SNW301"
RESERVOIR_RESIDUE = "SNW302"
MALFORMED_HEADER = "SNW303"
UNKNOWN_ATTR_ID = "SNW304"
ROWCOUNT_MISMATCH = "SNW305"
MISSING_PHYSICAL_COLUMN = "SNW306"

# -- engine-protocol findings (SNW4xx) ---------------------------------------
LATCH_REQUIRED_CALL = "SNW401"
FLAG_WRITE_ORDER = "SNW402"
FAULT_POINT_MISMATCH = "SNW403"
WAL_APPEND_BEFORE_ACTIVATE = "SNW404"
BARE_LATCH_ACQUIRE = "SNW405"


@dataclass(frozen=True)
class Diagnostic:
    """One finding from an analysis pass."""

    code: str
    severity: Severity
    message: str
    #: ``(start, end)`` character span in the analyzed SQL, or None when the
    #: finding has no source location (integrity checks).
    span: tuple[int, int] | None = None
    #: optional remediation / explanation clause
    hint: str | None = None
    #: source file of an engine-protocol finding (SNW4xx), or None
    path: str | None = None
    #: 1-based source line of an engine-protocol finding, or None
    line: int | None = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    @property
    def is_warning(self) -> bool:
        return self.severity is Severity.WARNING

    def __str__(self) -> str:
        if self.path is not None:
            where = self.path if self.line is None else f"{self.path}:{self.line}"
            location = f" at {where}"
        elif self.span:
            location = f" at {self.span[0]}..{self.span[1]}"
        else:
            location = ""
        text = f"{self.severity.value} {self.code}{location}: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text


def error(code: str, message: str, span=None, hint=None) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, span, hint)


def warning(code: str, message: str, span=None, hint=None) -> Diagnostic:
    return Diagnostic(code, Severity.WARNING, message, span, hint)


def render_diagnostic(diagnostic: Diagnostic, sql: str | None = None) -> str:
    """Multi-line rendering with a caret underline when the SQL is known::

        error SNW103: ambiguous column reference 'virt'
            SELECT virt FROM t, u
                   ^^^^
    """
    lines = [str(diagnostic)]
    if sql is not None and diagnostic.span is not None:
        start, end = diagnostic.span
        start = max(0, min(start, len(sql)))
        end = max(start + 1, min(end, len(sql)))
        lines.append("    " + sql)
        lines.append("    " + " " * start + "^" * (end - start))
    return "\n".join(lines)


def render_report(diagnostics, sql: str | None = None) -> str:
    """Render a list of diagnostics, errors first."""
    ordered = sorted(
        diagnostics, key=lambda d: (d.severity is not Severity.ERROR, d.code)
    )
    return "\n".join(render_diagnostic(d, sql) for d in ordered)
