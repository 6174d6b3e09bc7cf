"""repro — reproduction of Hendren & Nicolau (1989).

*Parallelizing Programs with Recursive Data Structures*: the SIL language,
path-matrix interference analysis for TREE/DAG data structures, and a
parallelizer built on top of it that applies the paper's §5.1 statement and
§5.2 call interference tests (plus a conservative test for a statement
beside a call), together with a parallel execution simulator, baseline
analyses and the paper's workloads.

Quickstart::

    from repro import parse_and_normalize, analyze_program, parallelize_program

    core, info = parse_and_normalize(source_text)
    result = analyze_program(core, info)
    parallel = parallelize_program(core, info)
"""

from .sil import (
    ast,
    builder,
    check_program,
    format_program,
    normalize_program,
    parse_and_normalize,
    parse_program,
)

__version__ = "0.1.0"

__all__ = [
    "ast",
    "builder",
    "parse_program",
    "parse_and_normalize",
    "normalize_program",
    "check_program",
    "format_program",
    "analyze_program",
    "parallelize_program",
    "__version__",
]


def analyze_program(program, info=None, **kwargs):
    """Run the whole-program path-matrix analysis (lazy import convenience)."""
    from .analysis.engine import analyze_program as _analyze

    return _analyze(program, info, **kwargs)


def parallelize_program(program, info=None, **kwargs):
    """Parallelize a core SIL program (lazy import convenience)."""
    from .parallel.transform import parallelize_program as _parallelize

    return _parallelize(program, info, **kwargs)
