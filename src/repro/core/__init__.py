"""Sinew itself: the paper's primary contribution.

The pieces map one-to-one onto Figure 1 of the paper:

* :mod:`repro.core.serializer` -- the custom binary format (section 4.1)
* :mod:`repro.core.catalog` -- attribute dictionary + per-table catalog
* :mod:`repro.core.loader` -- bulk loader (section 3.2.1)
* :mod:`repro.core.schema_analyzer` -- materialization policy (3.1.3)
* :mod:`repro.core.materializer` -- incremental column moves (3.1.4)
* :mod:`repro.core.background` -- the background materializer daemon (3.1.4)
  and the self-restarting worker loop it shares with the checkpointer
* :mod:`repro.core.rewriter` -- logical-to-physical SQL rewriting (3.2.2)
* :mod:`repro.core.text_index` -- full-text search, matches() (4.3)
* :mod:`repro.core.arrays` -- array storage strategies (4.2)
* :mod:`repro.core.sinew` -- the ``SinewDB`` facade
"""

from .arrays import ArrayConfig, ArrayStorageManager, ArrayStrategy
from .background import (
    BackgroundWorker,
    DaemonStatus,
    MaterializerDaemon,
    RecoveryReport,
    SupervisorPolicy,
)
from .catalog import Attribute, ColumnState, SinewCatalog, TableCatalog
from .document import DocumentError, flatten, infer_sql_type, parse_document
from .extractors import ReservoirExtractor
from .loader import LoadReport, SinewLoader
from .materializer import ColumnMaterializer, MaterializerReport
from .rewriter import QueryRewriter
from .schema_analyzer import (
    AnalyzerDecision,
    AnalyzerReport,
    MaterializationPolicy,
    SchemaAnalyzer,
)
from .sinew import SinewConfig, SinewDB
from .text_index import TextQuery, document_terms, tokenize

__all__ = [
    "AnalyzerDecision",
    "ArrayConfig",
    "ArrayStorageManager",
    "ArrayStrategy",
    "AnalyzerReport",
    "Attribute",
    "BackgroundWorker",
    "ColumnMaterializer",
    "ColumnState",
    "DaemonStatus",
    "DocumentError",
    "MaterializerDaemon",
    "RecoveryReport",
    "LoadReport",
    "MaterializationPolicy",
    "MaterializerReport",
    "QueryRewriter",
    "ReservoirExtractor",
    "SchemaAnalyzer",
    "SinewCatalog",
    "SinewConfig",
    "SinewDB",
    "SinewLoader",
    "SupervisorPolicy",
    "TableCatalog",
    "TextQuery",
    "document_terms",
    "flatten",
    "infer_sql_type",
    "parse_document",
    "tokenize",
]
