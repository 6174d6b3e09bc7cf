"""Path-matrix interference analysis — the paper's core contribution.

Public entry point: :func:`repro.analysis.analyze_program`, which runs the
whole-program analysis and returns an :class:`~repro.analysis.engine.
AnalysisResult` giving the path matrix at every program point, procedure
entry matrices (with ``h*``/``h**`` symbolic handles), procedure summaries
(read-only vs. update arguments) and structure diagnostics.
"""

from .context import AnalysisContext, AnalysisRecorder, AnalysisStats
from .engine import (
    AnalysisResult,
    BatchAnalyzer,
    analyze_many,
    analyze_program,
    analyze_program_reference,
)
from .limits import DEFAULT_LIMITS, AnalysisLimits
from .telemetry import WideningTally, widening_scope
from .pipeline import pass_names, run_pipeline
from .matrix import MatrixRow, PathMatrix, caller_symbol, is_symbolic, row_delta, stacked_symbol
from .paths import (
    Direction,
    Path,
    PathSegment,
    append_link,
    cancel_first,
    concat,
    format_path,
    link_path,
    make_path,
    parse_path,
    subsumes,
)
from .pathset import PathSet
from .reanalysis import (
    IncrementalSession,
    ReanalysisReport,
    ComponentMemo,
    cold_solve,
    result_digest,
)
from .structure import Certainty, DiagnosticKind, StructureDiagnostic
from .summaries import ProcedureSummary, compute_summaries
from .transfer import (
    GLOBAL_TRANSFER_CACHE,
    TransferCache,
    TransferResult,
    apply_assign_new,
    apply_assign_nil,
    apply_basic_statement,
    apply_basic_statement_cached,
    apply_copy,
    apply_load_field,
    apply_store_field,
)

__all__ = [
    "analyze_program",
    "analyze_program_reference",
    "analyze_many",
    "BatchAnalyzer",
    "WideningTally",
    "widening_scope",
    "AnalysisContext",
    "AnalysisRecorder",
    "AnalysisStats",
    "AnalysisResult",
    "run_pipeline",
    "pass_names",
    "TransferCache",
    "GLOBAL_TRANSFER_CACHE",
    "apply_basic_statement_cached",
    "AnalysisLimits",
    "DEFAULT_LIMITS",
    "PathMatrix",
    "MatrixRow",
    "row_delta",
    "PathSet",
    "Path",
    "PathSegment",
    "Direction",
    "parse_path",
    "format_path",
    "make_path",
    "concat",
    "append_link",
    "cancel_first",
    "link_path",
    "subsumes",
    "caller_symbol",
    "stacked_symbol",
    "is_symbolic",
    "StructureDiagnostic",
    "DiagnosticKind",
    "Certainty",
    "ProcedureSummary",
    "compute_summaries",
    "TransferResult",
    "apply_basic_statement",
    "apply_assign_nil",
    "apply_assign_new",
    "apply_copy",
    "apply_load_field",
    "apply_store_field",
    "IncrementalSession",
    "ReanalysisReport",
    "ComponentMemo",
    "cold_solve",
    "result_digest",
]
