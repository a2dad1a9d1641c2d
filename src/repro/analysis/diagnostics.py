"""Typed diagnostics emitted by the static program verifier.

Every checker in :mod:`repro.analysis.checks` reports findings as
:class:`Diagnostic` values — a check id, a severity, a program location
(tile / core / pc), and a human-readable message — collected into an
:class:`AnalysisReport`.  The report is the unit the rest of the stack
consumes: ``CompilerOptions.verify`` raises when it carries errors,
``cli lint`` renders and exits non-zero on it, and the artifact store
records its clean-bill digest in the manifest.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.encoding import encode_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.program import NodeProgram

# Bumped whenever a checker's semantics change, so a manifest's clean-bill
# digest identifies *which* analyzer vouched for the program.
ANALYZER_VERSION = 1


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering supports ``max()`` over a report."""

    INFO = 0
    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Location:
    """Where in a :class:`~repro.isa.program.NodeProgram` a finding lives.

    Attributes:
        tile: tile id, or ``None`` for node-level findings.
        core: core id within the tile; ``None`` means the tile control
            stream (or a tile/node-level finding).
        pc: instruction index within the stream, or ``None`` when the
            finding is not anchored to one instruction.
    """

    tile: int | None = None
    core: int | None = None
    pc: int | None = None

    def __str__(self) -> str:
        if self.tile is None:
            return "node"
        parts = [f"t{self.tile}"]
        if self.core is not None:
            parts.append(f"c{self.core}")
        else:
            parts.append("ctrl")
        if self.pc is not None:
            parts.append(f"pc={self.pc}")
        return ":".join(parts)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: check id, severity, location, message."""

    check: str
    severity: Severity
    location: Location
    message: str

    def __str__(self) -> str:
        return (f"{self.severity.name.lower()}[{self.check}] "
                f"{self.location}: {self.message}")


@dataclass
class AnalysisReport:
    """Every diagnostic one analysis pass produced, plus identity data.

    Attributes:
        diagnostics: findings in emission order (checker by checker).
        program_name: name of the analyzed program.
        program_sha256: digest of the analyzed program's encoded
            instruction streams (:func:`program_digest`), tying the
            report to exact bits; computed from ``program`` when
            :meth:`clean_bill_digest` first needs it.
        program: the analyzed program.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    program_name: str = ""
    program_sha256: str = ""
    program: NodeProgram | None = field(default=None, repr=False,
                                        compare=False)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity == Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == Severity.ERROR for d in self.diagnostics)

    def by_check(self, check: str) -> list[Diagnostic]:
        """Findings of one checker, in emission order."""
        return [d for d in self.diagnostics if d.check == check]

    def summary(self) -> str:
        """One-line tally, e.g. ``2 errors, 1 warning, 0 notes``."""
        e, w = len(self.errors), len(self.warnings)
        i = len(self.diagnostics) - e - w
        return (f"{e} error{'s' if e != 1 else ''}, "
                f"{w} warning{'s' if w != 1 else ''}, "
                f"{i} note{'s' if i != 1 else ''}")

    def render(self) -> str:
        """Multi-line listing: every diagnostic, then the summary."""
        lines = [str(d) for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def clean_bill_digest(self) -> str | None:
        """Digest certifying *these bits* passed *this analyzer* clean.

        ``None`` when the report carries errors — there is no clean bill
        to certify.  Warnings and notes are folded into the digest so a
        consumer can distinguish "clean" from "clean with findings".
        """
        if self.has_errors:
            return None
        if not self.program_sha256 and self.program is not None:
            self.program_sha256 = program_digest(self.program)
        payload = "\n".join([
            f"analyzer-version:{ANALYZER_VERSION}",
            f"program:{self.program_sha256}",
            *sorted(str(d) for d in self.diagnostics),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()


def program_digest(program: NodeProgram) -> str:
    """sha256 over every encoded instruction stream, in tile/core order."""
    digest = hashlib.sha256()
    for tile_id, tile in sorted(program.tiles.items()):
        digest.update(f"tile:{tile_id}".encode())
        digest.update(encode_program(tile.tile_instructions))
        for core_id, core in sorted(tile.cores.items()):
            digest.update(f"core:{core_id}".encode())
            digest.update(encode_program(core.instructions))
    return digest.hexdigest()
