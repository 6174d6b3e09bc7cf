"""Canonical, process-independent encoding of transfer-cache entries.

The in-process memoized transfer cache (:class:`repro.analysis.transfer.
TransferCache`) keys on ``(statement_identity(stmt), limits, matrix)`` —
the same content this module keys on, but held as live Python objects
(a sealed matrix, or its fingerprint of interned rows) whose hashes mean
nothing outside the process that built them.  A *persistent* cache entry
must instead be keyed and stored in a form that is byte-identical across
processes (and across ``PYTHONHASHSEED`` values):

* the **key** (:func:`transfer_key`) is the SHA-256 of a canonical JSON
  document combining the statement's kind + exact source rendering, the
  :class:`~repro.analysis.limits.AnalysisLimits` the transfer runs under,
  and the input matrix's canonical encoding (handles in insertion order,
  entries sorted, the matrix's own limits).  Two lookups collide exactly
  when the in-memory keys would — same statement content, same bounds,
  same matrix — so a persistent hit returns precisely what recomputation
  would produce.  The statement *kind* is part of the key
  because two different statement kinds can render identically (a scalar
  copy ``x := y`` prints like a handle copy) while having different
  transfer semantics.
* the **payload** (:func:`encode_entry` / :func:`decode_entry`) carries the
  result matrix (handles + entries rendered through the same canonical
  textual form the sharded suite runner ships across processes), the
  structure diagnostics, and the :class:`~repro.analysis.telemetry.
  WideningTally` captured while the transfer was computed — so a hit in a
  fresh process can *replay* the widening counters exactly, keeping the
  telemetry additive across shards and across runs.

Decoding reconstructs paths **without re-normalizing** them: the stored
paths were already canonical under the limits they were computed with, and
re-running :func:`~repro.analysis.paths.make_path` (as the test-oriented
:func:`~repro.analysis.paths.parse_path` does) could re-clamp them under
different default limits — and would fire widening telemetry from inside a
decode, corrupting the replayed counts.  Raw segment construction is exact
and silent.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..analysis.limits import AnalysisLimits
from ..analysis.matrix import PathMatrix, canonical_document
from ..analysis.paths import Direction, Path, PathSegment
from ..analysis.pathset import PathSet
from ..analysis.structure import Certainty, DiagnosticKind, StructureDiagnostic
from ..analysis.telemetry import WideningTally
from ..obs.trace import span
from ..sil import ast
from ..sil.delta import StatementIdentity, statement_identity

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.analysis.transfer imports the policy
    # layer of this package, so a module-level import here would be circular.
    from ..analysis.transfer import TransferResult

#: Bump when the key or payload layout changes; old entries simply miss.
CODEC_VERSION = 1


class CacheDecodeError(ValueError):
    """A persistent payload could not be decoded (corrupt or foreign data)."""


def _canonical_json(document: object) -> str:
    """Minified, key-sorted JSON — the only serialization used for hashing."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Canonical key
# ---------------------------------------------------------------------------


def canonical_statement(stmt: ast.BasicStmt) -> List[str]:
    """``[kind, rendering]`` — the content identity of a basic statement.

    Delegates to :func:`repro.sil.delta.statement_identity` so the differ's
    change spans and the persistent keys can never disagree about what "the
    same statement" means.
    """
    return list(statement_identity(stmt))


def canonical_limits(limits: AnalysisLimits) -> Dict[str, int]:
    """The analysis bounds only — ``transfer_cache_size`` is a memory knob
    that never changes a transfer result, so runs with different cache
    sizes share persistent entries."""
    return limits.as_dict()


def canonical_matrix(matrix: PathMatrix) -> Dict[str, object]:
    """Handles in insertion order, entries sorted, plus the matrix limits.

    Captures exactly what :meth:`PathMatrix.fingerprint` distinguishes:
    equal fingerprints give equal canonical encodings and vice versa
    (modulo ``transfer_cache_size``, which cannot affect a transfer).
    The ``{handles, entries}`` core comes from the one shared layout
    definition (:func:`repro.analysis.matrix.canonical_document`, cached
    per sealed matrix), so the persistent-key bytes can never drift from
    the sharded bit-identity encodings.
    """
    document = canonical_document(matrix)
    document["limits"] = canonical_limits(matrix.limits)
    return document


def transfer_key(
    stmt: ast.BasicStmt,
    limits: AnalysisLimits,
    matrix: PathMatrix,
    identity: Optional[StatementIdentity] = None,
) -> str:
    """The content-addressed persistent key of one transfer application.

    ``identity`` is ``stmt``'s :func:`~repro.sil.delta.statement_identity`
    when the caller already holds it (the in-memory transfer key is built
    from it), so a memory miss renders the statement only once.
    """
    if identity is None:
        identity = statement_identity(stmt)
    document = {
        "v": CODEC_VERSION,
        "stmt": list(identity),
        "limits": canonical_limits(limits),
        "matrix": canonical_matrix(matrix),
    }
    return hashlib.sha256(_canonical_json(document).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Payload encode
# ---------------------------------------------------------------------------


def encode_entry(result: "TransferResult", widening: WideningTally) -> str:
    """Serialize a transfer result + its captured widening tally to JSON."""
    with span("codec.encode"):
        return _canonical_json(
            {
                "v": CODEC_VERSION,
                "matrix": canonical_document(result.matrix),
                "diagnostics": [
                    [diag.kind.name, diag.certainty.name, diag.statement, diag.detail]
                    for diag in result.diagnostics
                ],
                "widening": {name: getattr(widening, name) for name in WideningTally.FIELDS},
            }
        )


# ---------------------------------------------------------------------------
# Payload decode (raw — no normalization, no telemetry)
# ---------------------------------------------------------------------------

_SEGMENT_RE = re.compile(r"([LRD])(\d*)(\+?)")


def _decode_path(text: str) -> Path:
    """Rebuild a path from :func:`~repro.analysis.paths.format_path` output.

    Unlike :func:`~repro.analysis.paths.parse_path` this does **not** pass
    through ``make_path`` — the stored segments are reconstructed verbatim,
    so decode is exact under any limits and fires no widening telemetry.
    """
    cleaned = text.strip()
    definite = True
    if cleaned.endswith("?"):
        definite = False
        cleaned = cleaned[:-1]
    if cleaned == "S":
        return Path((), definite)
    segments = []
    position = 0
    while position < len(cleaned):
        match = _SEGMENT_RE.match(cleaned, position)
        if not match:
            raise CacheDecodeError(f"unparseable path expression {text!r}")
        letter, digits, plus = match.groups()
        count = int(digits) if digits else 1
        segments.append(PathSegment(Direction(letter), count, plus == ""))
        position = match.end()
    if not segments:
        raise CacheDecodeError(f"unparseable path expression {text!r}")
    return Path(tuple(segments), definite)


def _decode_path_set(text: str) -> PathSet:
    return PathSet(_decode_path(part) for part in text.split(",") if part.strip())


def decode_entry(
    payload: str, matrix_limits: AnalysisLimits
) -> Tuple["TransferResult", WideningTally]:
    """Rebuild the (sealed) transfer result and widening tally of a payload.

    ``matrix_limits`` must be the limits of the *input* matrix the key was
    derived from: every transfer function builds its result by copying the
    input matrix, so the result matrix always carries the input's limits.
    Raises :class:`CacheDecodeError` on malformed data (callers treat that
    as a miss rather than poisoning the analysis).
    """
    from ..analysis.transfer import TransferResult

    with span("codec.decode"):
        try:
            document = json.loads(payload)
            if document.get("v") != CODEC_VERSION:
                raise CacheDecodeError(f"unknown codec version {document.get('v')!r}")
            encoded = document["matrix"]
            matrix = PathMatrix.from_entries(
                encoded["handles"],
                [
                    (source, target, _decode_path_set(paths))
                    for source, target, paths in encoded["entries"]
                ],
                matrix_limits,
            )
            diagnostics = [
                StructureDiagnostic(
                    kind=DiagnosticKind[kind],
                    certainty=Certainty[certainty],
                    statement=statement,
                    detail=detail,
                )
                for kind, certainty, statement, detail in document["diagnostics"]
            ]
            widening = WideningTally(**{
                name: int(document["widening"].get(name, 0)) for name in WideningTally.FIELDS
            })
        except CacheDecodeError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise CacheDecodeError(f"malformed cache payload: {error}") from error
        # Entries served from the persistent store are shared exactly like
        # freshly-computed cached entries; seal against caller mutation.
        matrix.seal()
        return TransferResult(matrix=matrix, diagnostics=diagnostics), widening
