"""Static dependence graph over a compiled program, and the tape cross-check.

:class:`StaticDependenceGraph` is the reusable substrate for everything
that reasons about ordering in a compiled :class:`NodeProgram`:

* per-stream :class:`StreamInfo` (CFG, word-level effects, the
  data-carrying instruction sequence a tape must realize);
* register dependence edges (RAW/WAR/WAW) for straight-line streams —
  the def-use chains a future tape optimizer reorders against;
* the :class:`~repro.analysis.commgraph.CommGraph` of NoC flows and
  shared-memory traffic (FLOW edges);
* :meth:`StaticDependenceGraph.validate_tape` — checks that a recorded
  :class:`~repro.sim.tape.ExecutionTape` is a legal realization of the
  program: every stream's steps follow its instruction sequence, every
  receive is fed by a matching earlier send on its flow, and the whole
  schedule respects the shared-memory valid/count protocol word by word
  (replayed dynamically off the tape's effective addresses, which also
  covers register-indirect CNN streams the static accounting skips).

The engine consults :meth:`validate_tape` after recording; a mismatch is
counted and the tape discarded (interpreter fallback), mirroring the
PR-4 validation pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.commgraph import PERSISTENT_COUNT, CommGraph
from repro.analysis.dataflow import (
    TILE_SCALAR_REGISTERS,
    Effects,
    core_effects,
    tile_effects,
)
from repro.arch.config import PumaConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import NodeProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.tape import ExecutionTape

# Must match repro.sim.tape's notion of "data-carrying": the recorder
# omits these, so the static sequence a tape realizes omits them too.
_CORE_CONTROL = frozenset({Opcode.JMP, Opcode.BRN, Opcode.HLT})
_TILE_CONTROL = _CORE_CONTROL | {Opcode.SET, Opcode.ALU_INT}

_MAX_PROBLEMS = 20


class EdgeKind(enum.Enum):
    """Why one instruction must stay ordered after another."""

    RAW = "raw"    # read-after-write (true dependence)
    WAR = "war"    # write-after-read (anti dependence)
    WAW = "waw"    # write-after-write (output dependence)
    FLOW = "flow"  # NoC send -> receive pairing


@dataclass(frozen=True)
class DepEdge:
    """A dependence between two pcs of one stream (or one NoC flow)."""

    kind: EdgeKind
    src_pc: int
    dst_pc: int


@dataclass
class StreamInfo:
    """One instruction stream plus its analysis artifacts."""

    tile: int
    core: int | None  # None = the tile control stream
    instructions: list[Instruction]
    num_registers: int
    predefined: bool  # registers defined at entry (tile scalars zero-init)

    @cached_property
    def cfg(self) -> ControlFlowGraph:
        return ControlFlowGraph.build(self.instructions)

    @cached_property
    def is_straight_line(self) -> bool:
        return self.cfg.is_straight_line

    @cached_property
    def effects(self) -> list[Effects]:
        if self.core is None:
            return [tile_effects(i) for i in self.instructions]
        config = self._core_config
        return [core_effects(i, config) for i in self.instructions]

    @cached_property
    def data_sequence(self) -> list[Instruction]:
        """Data-carrying instructions in program order — what a tape of a
        straight-line stream must realize exactly once, in order."""
        control = _TILE_CONTROL if self.core is None else _CORE_CONTROL
        return [i for i in self.instructions if i.opcode not in control]

    @cached_property
    def data_members(self) -> set[Instruction]:
        return set(self.data_sequence)

    # Injected by StaticDependenceGraph.from_program.
    _core_config: object = None

    def register_edges(self) -> list[DepEdge]:
        """RAW/WAR/WAW edges between pcs (straight-line streams only).

        May-effects are included: the optimizer must respect a dependence
        that *might* exist.  Loopy streams return no edges — a loop's
        dependences are iteration-indexed, beyond this static summary.
        """
        if not self.is_straight_line:
            return []
        last_writer: dict[int, int] = {}
        readers: dict[int, set[int]] = {}
        edges: set[DepEdge] = set()
        for pc, eff in enumerate(self.effects):
            for start, width in eff.all_reads():
                for word in range(start, min(start + width,
                                             self.num_registers)):
                    if word in last_writer:
                        edges.add(DepEdge(EdgeKind.RAW,
                                          last_writer[word], pc))
                    readers.setdefault(word, set()).add(pc)
            for start, width in eff.all_writes():
                for word in range(start, min(start + width,
                                             self.num_registers)):
                    for reader in readers.pop(word, ()):
                        if reader != pc:
                            edges.add(DepEdge(EdgeKind.WAR, reader, pc))
                    if word in last_writer and last_writer[word] != pc:
                        edges.add(DepEdge(EdgeKind.WAW,
                                          last_writer[word], pc))
                    last_writer[word] = pc
        return sorted(edges, key=lambda e: (e.src_pc, e.dst_pc,
                                            e.kind.value))


StreamKey = tuple[int, int | None]  # (tile, core); core None = tile stream


@dataclass
class StaticDependenceGraph:
    """Dependence structure of one compiled program.

    Build once per (program, config) with :meth:`from_program`; consumed
    by the checker suite (:mod:`repro.analysis.checks`), the engine's
    tape cross-check, and — by design — the future tape optimizer.
    """

    program: NodeProgram
    config: PumaConfig
    streams: dict[StreamKey, StreamInfo] = field(default_factory=dict)

    @classmethod
    def from_program(cls, program: NodeProgram,
                     config: PumaConfig) -> "StaticDependenceGraph":
        graph = cls(program=program, config=config)
        core_config = config.tile.core
        for tile_id, tile in sorted(program.tiles.items()):
            info = StreamInfo(
                tile=tile_id, core=None,
                instructions=list(tile.tile_instructions),
                num_registers=TILE_SCALAR_REGISTERS, predefined=True)
            graph.streams[(tile_id, None)] = info
            for core_id, core in sorted(tile.cores.items()):
                info = StreamInfo(
                    tile=tile_id, core=core_id,
                    instructions=list(core.instructions),
                    num_registers=core_config.num_registers,
                    predefined=False)
                info._core_config = core_config
                graph.streams[(tile_id, core_id)] = info
        return graph

    @cached_property
    def comm(self) -> CommGraph:
        return CommGraph.build(self.program, self.config.tile)

    # -- tape cross-check --------------------------------------------------

    def validate_tape(self, tape: ExecutionTape) -> list[str]:
        """Mismatches between a recorded tape and this program ([] = legal).

        Three independent obligations, all checked in one walk of the
        recorded completion order:

        1. *Stream realization*: a straight-line stream's steps must be
           exactly its data-carrying instruction sequence, in order and
           complete; a loopy stream's steps must at least be members of
           the stream.
        2. *Flow pairing*: the k-th receive on a ``(tile, fifo)`` flow
           consumes the k-th prior send, with matching width.
        3. *Memory protocol*: every store/receive hits invalid
           (consumed) words and every load/send hits valid ones, with
           consume counts decremented exactly as the attribute buffer
           would — replayed off the tape's resolved effective addresses.
        """
        problems: list[str] = []

        def report(message: str) -> bool:
            problems.append(message)
            return len(problems) >= _MAX_PROBLEMS

        cursors: dict[StreamKey, int] = {key: 0 for key in self.streams}
        flows: dict[tuple[int, int], list[int]] = {}
        words = self.config.tile.shared_memory_words
        valid = {t: np.zeros(words, dtype=bool) for t in self.program.tiles}
        count = {t: np.zeros(words, dtype=np.int64)
                 for t in self.program.tiles}
        for tile_id, regions in self.program.const_memory.items():
            for addr, data in regions:
                valid[tile_id][addr:addr + len(data)] = True
                count[tile_id][addr:addr + len(data)] = PERSISTENT_COUNT
        for tile_id, addr, length in self.program.input_layout.values():
            valid[tile_id][addr:addr + length] = True
            count[tile_id][addr:addr + length] = PERSISTENT_COUNT

        def write(tile_id: int, addr: int, width: int, n: int,
                  what: str) -> bool:
            if addr + width > words:
                return report(f"{what} overruns shared memory at "
                              f"[{addr}, {addr + width})")
            if valid[tile_id][addr:addr + width].any():
                return report(f"{what} overwrites unconsumed words at "
                              f"t{tile_id}:[{addr}, {addr + width})")
            valid[tile_id][addr:addr + width] = True
            count[tile_id][addr:addr + width] = n
            return False

        def read(tile_id: int, addr: int, width: int, what: str) -> bool:
            if addr + width > words:
                return report(f"{what} overruns shared memory at "
                              f"[{addr}, {addr + width})")
            window = slice(addr, addr + width)
            if not valid[tile_id][window].all():
                return report(f"{what} reads invalid words at "
                              f"t{tile_id}:[{addr}, {addr + width})")
            persistent = count[tile_id][window] == PERSISTENT_COUNT
            count[tile_id][window] -= np.where(persistent, 0, 1)
            consumed = (count[tile_id][window] == 0) & ~persistent
            valid[tile_id][window] &= ~consumed
            return False

        for index, step in enumerate(tape.steps):
            key = (step.tile_id, step.core_id)
            info = self.streams.get(key)
            where = (f"step {index} (t{step.tile_id}:"
                     f"{'ctrl' if step.core_id is None else 'c%d' % step.core_id})")
            if info is None:
                if report(f"{where}: no such stream in the program"):
                    break
                continue
            instr = step.instruction
            if info.is_straight_line:
                cursor = cursors[key]
                expected = (info.data_sequence[cursor]
                            if cursor < len(info.data_sequence) else None)
                if expected is None or expected != instr:
                    if report(f"{where}: {instr.opcode.name.lower()} is not "
                              f"the stream's next data instruction"):
                        break
                    continue
                cursors[key] = cursor + 1
            elif instr not in info.data_members:
                if report(f"{where}: instruction is not part of the "
                          f"stream"):
                    break
                continue
            op = instr.opcode
            stop = False
            if op == Opcode.SEND:
                flows.setdefault((instr.target, instr.fifo_id),
                                 []).append(instr.vec_width)
                stop = read(step.tile_id, step.eff_addr, instr.vec_width,
                            f"{where}: send")
            elif op == Opcode.RECEIVE:
                queue = flows.get((step.tile_id, instr.fifo_id), [])
                if not queue:
                    stop = report(f"{where}: receive on fifo "
                                  f"{instr.fifo_id} with no pending send")
                else:
                    sent = queue.pop(0)
                    if sent != instr.vec_width:
                        stop = report(
                            f"{where}: receive width {instr.vec_width} != "
                            f"sent width {sent}")
                if not stop:
                    stop = write(step.tile_id, step.eff_addr,
                                 instr.vec_width, instr.count,
                                 f"{where}: receive")
            elif op == Opcode.STORE:
                stop = write(step.tile_id, step.eff_addr, instr.vec_width,
                             instr.count, f"{where}: store")
            elif op == Opcode.LOAD:
                stop = read(step.tile_id, step.eff_addr, instr.vec_width,
                            f"{where}: load")
            if stop:
                break
        else:
            for key, cursor in cursors.items():
                info = self.streams[key]
                if info.is_straight_line and cursor != len(
                        info.data_sequence):
                    tile, core = key
                    name = "ctrl" if core is None else f"c{core}"
                    problems.append(
                        f"t{tile}:{name}: tape realizes {cursor} of "
                        f"{len(info.data_sequence)} data instructions")
            for (tile_id, fifo), queue in sorted(flows.items()):
                if queue:
                    problems.append(
                        f"t{tile_id}:fifo {fifo}: {len(queue)} sends "
                        f"never received")
        return problems
