"""Inter-tile communication graph: NoC flows and shared-memory traffic.

Collects, per compiled :class:`~repro.isa.program.NodeProgram`:

* every NoC flow — sends grouped by ``(destination tile, fifo)`` with the
  matching receives from the destination's tile stream;
* every shared-memory access — core ``store``/``load`` plus tile-stream
  ``receive``/``send`` (which write/read shared memory respectively),
  with the consume counts the attribute buffer will enforce;
* the tile-level dataflow edges (who sends to whom), with cycle
  detection — a cycle is a *potential* deadlock under the blocking
  valid/count protocol, worth a note even when the schedule resolves it.

Static accounting is exact only for straight-line streams with direct
addressing; tiles whose streams loop or use register-indirect addressing
are marked ``dynamic`` and the exact count checks skip them (the tape
cross-check in :mod:`repro.analysis.depgraph` covers those at runtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config import TileConfig
from repro.isa.opcodes import Opcode
from repro.isa.program import NodeProgram

# The attribute buffer treats this count as "never consumed" (see
# repro.tile.attribute_buffer); codegen also clamps large consumer counts
# to it, so words tagged 127 are excluded from exact balance checks.
PERSISTENT_COUNT = 127


@dataclass(frozen=True)
class SendSite:
    src_tile: int
    pc: int
    mem_addr: int
    width: int


@dataclass(frozen=True)
class ReceiveSite:
    tile: int
    pc: int
    mem_addr: int
    width: int
    count: int


@dataclass
class Flow:
    """All traffic into one receive FIFO of one tile."""

    dst_tile: int
    fifo: int
    sends: list[SendSite] = field(default_factory=list)
    receives: list[ReceiveSite] = field(default_factory=list)

    @property
    def send_words(self) -> int:
        return sum(s.width for s in self.sends)

    @property
    def receive_words(self) -> int:
        return sum(r.width for r in self.receives)

    @property
    def src_tiles(self) -> set[int]:
        return {s.src_tile for s in self.sends}


@dataclass(frozen=True)
class MemWrite:
    """A shared-memory producer: core ``store`` or tile ``receive``."""

    tile: int
    core: int | None  # None = the tile control stream (receive)
    pc: int
    addr: int
    width: int
    count: int


@dataclass(frozen=True)
class MemRead:
    """A shared-memory consumer: core ``load`` or tile ``send``."""

    tile: int
    core: int | None  # None = the tile control stream (send)
    pc: int
    addr: int
    width: int


@dataclass
class CommGraph:
    """NoC flows, shared-memory traffic, and tile dataflow edges."""

    flows: dict[tuple[int, int], Flow] = field(default_factory=dict)
    mem_writes: dict[int, list[MemWrite]] = field(default_factory=dict)
    mem_reads: dict[int, list[MemRead]] = field(default_factory=dict)
    # Words preloaded persistently before execution: constants and inputs.
    preloaded: dict[int, set[int]] = field(default_factory=dict)
    # Tiles whose static accounting is inexact: loops or indirect addrs.
    dynamic_tiles: set[int] = field(default_factory=set)
    edges: set[tuple[int, int]] = field(default_factory=set)

    @classmethod
    def build(cls, program: NodeProgram,
              config: TileConfig) -> "CommGraph":
        del config  # reserved for capacity checks; layout is flat words
        graph = cls()
        for tile_id, tile in sorted(program.tiles.items()):
            graph.mem_writes[tile_id] = []
            graph.mem_reads[tile_id] = []
            graph.preloaded[tile_id] = set()
            if any(i.opcode in (Opcode.JMP, Opcode.BRN)
                   for i in tile.tile_instructions):
                graph.dynamic_tiles.add(tile_id)
            for pc, instr in enumerate(tile.tile_instructions):
                if instr.opcode == Opcode.SEND:
                    key = (instr.target, instr.fifo_id)
                    flow = graph.flows.setdefault(
                        key, Flow(dst_tile=instr.target,
                                  fifo=instr.fifo_id))
                    flow.sends.append(SendSite(
                        src_tile=tile_id, pc=pc,
                        mem_addr=instr.mem_addr, width=instr.vec_width))
                    graph.edges.add((tile_id, instr.target))
                    graph.mem_reads[tile_id].append(MemRead(
                        tile=tile_id, core=None, pc=pc,
                        addr=instr.mem_addr, width=instr.vec_width))
                elif instr.opcode == Opcode.RECEIVE:
                    key = (tile_id, instr.fifo_id)
                    flow = graph.flows.setdefault(
                        key, Flow(dst_tile=tile_id, fifo=instr.fifo_id))
                    flow.receives.append(ReceiveSite(
                        tile=tile_id, pc=pc, mem_addr=instr.mem_addr,
                        width=instr.vec_width, count=instr.count))
                    graph.mem_writes[tile_id].append(MemWrite(
                        tile=tile_id, core=None, pc=pc,
                        addr=instr.mem_addr, width=instr.vec_width,
                        count=instr.count))
            writes, reads = graph.mem_writes[tile_id], graph.mem_reads[tile_id]
            for core_id, core in sorted(tile.cores.items()):
                for pc, instr in enumerate(core.instructions):
                    op = instr.opcode
                    if op == Opcode.STORE or op == Opcode.LOAD:
                        if instr.reg_indirect:
                            graph.dynamic_tiles.add(tile_id)
                        elif op == Opcode.STORE:
                            writes.append(MemWrite(
                                tile=tile_id, core=core_id, pc=pc,
                                addr=instr.mem_addr, width=instr.vec_width,
                                count=instr.count))
                        else:
                            reads.append(MemRead(
                                tile=tile_id, core=core_id, pc=pc,
                                addr=instr.mem_addr, width=instr.vec_width))
                    elif op == Opcode.JMP or op == Opcode.BRN:
                        graph.dynamic_tiles.add(tile_id)
        for tile_id, regions in program.const_memory.items():
            words = graph.preloaded.setdefault(tile_id, set())
            for addr, data in regions:
                words.update(range(addr, addr + len(data)))
        for layout in (program.input_layout, program.output_layout):
            for tile_id, addr, length in layout.values():
                words = graph.preloaded.setdefault(tile_id, set())
                words.update(range(addr, addr + length))
        return graph

    def cycles(self) -> list[list[int]]:
        """Tile-id cycles in the communication graph (Tarjan SCCs).

        Returns each strongly-connected component of size > 1, plus
        self-loops, as a sorted tile-id list.
        """
        adjacency: dict[int, list[int]] = {}
        for src, dst in sorted(self.edges):
            adjacency.setdefault(src, []).append(dst)
            adjacency.setdefault(dst, [])
        index: dict[int, int] = {}
        lowlink: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        counter = [0]
        result: list[list[int]] = []

        def strongconnect(root: int) -> None:
            work = [(root, iter(adjacency[root]))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(adjacency[succ])))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if (len(component) > 1
                            or (node, node) in self.edges):
                        result.append(sorted(component))

        for node in sorted(adjacency):
            if node not in index:
                strongconnect(node)
        return result
