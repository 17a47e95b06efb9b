"""Static analysis for Sinew: binder (checks and lint), integrity checks.

The pipeline is parse -> **bind** -> rewrite -> plan (see DESIGN.md).
This package holds everything between the parser and the rewriter:

* :mod:`.diagnostics` -- the :class:`Diagnostic` record and the ``SNW###``
  code taxonomy shared by all passes;
* :mod:`.binder` -- the binder: resolves every column reference against
  the catalog once, for the SNW1xx/2xx diagnostics, provably-NULL pruning
  and the rewrite (``analyze(sql, catalog=...)`` reads its diagnostics);
* :mod:`.checker` -- the ``CHECK``-style catalog/storage invariant audit
  (``IntegrityChecker``), surfaced as ``SinewDB.check()`` and the shell's
  ``\\check`` meta-command;
* :mod:`.protocol` -- the engine-protocol analyzer (``SNW4xx``): an
  ``ast`` pass over ``src/repro`` itself enforcing the latch, flag-order,
  fault-registry and WAL-activation protocols (``python -m
  repro.analysis.protocol --strict`` in CI, ``\\lint engine`` in the
  shell).
"""

from typing import TYPE_CHECKING

from .binder import AnalysisResult, SemanticAnalyzer, analyze
from .checker import CheckReport, IntegrityChecker, validate_document
from .diagnostics import (
    Diagnostic,
    Severity,
    render_diagnostic,
    render_report,
)

if TYPE_CHECKING:  # pragma: no cover - the runtime import is lazy, below
    from .protocol import analyze_paths, format_finding  # noqa: F401


def __getattr__(name: str):
    # Lazy so `python -m repro.analysis.protocol` does not find the
    # module pre-imported in sys.modules by its own package __init__.
    if name in ("analyze_paths", "format_finding"):
        from . import protocol

        return getattr(protocol, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisResult",
    "CheckReport",
    "Diagnostic",
    "IntegrityChecker",
    "SemanticAnalyzer",
    "Severity",
    "analyze",
    "analyze_paths",
    "format_finding",
    "render_diagnostic",
    "render_report",
    "validate_document",
]
