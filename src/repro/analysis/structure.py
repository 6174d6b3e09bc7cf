"""Static structure diagnostics (TREE/DAG verification).

Section 4 of the paper: relative (path-matrix) information "can be used to
detect if a statement creates a data structure that is possibly not a TREE
or a DAG".  The transfer function for handle updates (``a.f := b``)
consults the path matrix and reports:

* a **cycle** diagnostic when the new child ``b`` may be (or definitely is)
  an ancestor of ``a`` — the structure would no longer be a TREE or a DAG;
* a **sharing** diagnostic when ``b`` may already have another parent — the
  structure may become a DAG (a node with more than one parent).

Diagnostics are *warnings* attached to program points, not fatal errors:
the paper explicitly allows a tree to pass through a DAG state temporarily
(e.g. while swapping children in ``reverse``).  The whole-program engine
collects them, and the structure-debugging example/bench shows them next to
the runtime ground truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DiagnosticKind(enum.Enum):
    """What structural property a statement may violate."""

    CYCLE = "cycle"
    SHARING = "sharing"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Certainty(enum.Enum):
    """Whether the violation definitely occurs or only possibly occurs."""

    DEFINITE = "definite"
    POSSIBLE = "possible"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class StructureDiagnostic:
    """One warning produced by the structure-verification analysis."""

    kind: DiagnosticKind
    certainty: Certainty
    statement: str
    detail: str
    procedure: str = ""

    @property
    def is_cycle(self) -> bool:
        return self.kind is DiagnosticKind.CYCLE

    @property
    def is_sharing(self) -> bool:
        return self.kind is DiagnosticKind.SHARING

    def __str__(self) -> str:  # pragma: no cover - trivial
        where = f" in {self.procedure}" if self.procedure else ""
        return (
            f"[{self.certainty.value} {self.kind.value}]{where} at `{self.statement}`: {self.detail}"
        )


def cycle_diagnostic(statement: str, detail: str, definite: bool) -> StructureDiagnostic:
    return StructureDiagnostic(
        kind=DiagnosticKind.CYCLE,
        certainty=Certainty.DEFINITE if definite else Certainty.POSSIBLE,
        statement=statement,
        detail=detail,
    )


def sharing_diagnostic(statement: str, detail: str, definite: bool) -> StructureDiagnostic:
    return StructureDiagnostic(
        kind=DiagnosticKind.SHARING,
        certainty=Certainty.DEFINITE if definite else Certainty.POSSIBLE,
        statement=statement,
        detail=detail,
    )
