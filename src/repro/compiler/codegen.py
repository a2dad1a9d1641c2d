"""Code generation: tiled tasks -> per-core and per-tile ISA streams.

Walks the global schedule and emits instructions into the stream of each
task's core (and send/receive into tile streams), tracking where every
value lives:

* the producer core holds a value in general-purpose registers until its
  last local consumer (or until evicted, which spills it to tile memory);
* values with consumers on other cores are stored to the producer tile's
  shared memory immediately after production, with the attribute count set
  to the exact number of planned reads (loads by sibling cores plus one
  send per remote tile);
* values with consumers on other tiles are forwarded by the producer
  tile's stream (``send``) into the consumer tile's receive FIFO, whose
  ``receive`` deposits them into that tile's memory for local loads.

MVM tiles are special: operands are staged straight into XbarIn registers,
the (possibly coalesced) MVM instruction fires, and each XbarOut result is
*secured* immediately — accumulated into the owning reduction's register
when it lives on the same core, stored to memory otherwise — so a later
MVM on the same MVMU can never clobber an unread result.

Because all streams are restrictions of one global linear order, the
blocking protocol cannot deadlock (Section 5.3.3); the simulator enforces
this with an exact deadlock detector.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import PumaConfig
from repro.compiler.memory import MemoryPlan
from repro.compiler.options import CompilerOptions
from repro.compiler.partition import PartitionResult
from repro.compiler.regalloc import RegisterAllocator, RegisterExhaustion
from repro.compiler.tiling import Piece, Task, TaskKind, TiledGraph
from repro.isa import instruction as isa
from repro.isa.opcodes import AluOp
from repro.isa.program import NodeProgram
from repro.tile.attribute_buffer import PERSISTENT_COUNT

CoreKey = tuple[int, int]


def state_width(state, default: int) -> int:
    """Width of a tracked value, or ``default`` when untracked."""
    return state.width if state is not None else default


class CodegenError(RuntimeError):
    """The code generator hit an unsatisfiable constraint."""


@dataclass
class _ValueState:
    """Run-time location of one task's value during emission."""

    width: int
    reg_core: CoreKey | None = None
    reg_base: int = -1
    pinned: bool = False
    mem: dict[int, int] = field(default_factory=dict)   # tile -> address
    spill: dict[CoreKey, int] = field(default_factory=dict)  # spill slots
    reg_reads_left: int = 0
    # Planned memory reads remaining per tile copy; when a counter hits
    # zero the copy's words retire for guarded reuse (Section 5.2).
    mem_reads_left: dict[int, int] = field(default_factory=dict)
    mem_producer_stream: dict[int, tuple] = field(default_factory=dict)
    # A gather consumed only by MVMs never materializes: its pieces stage
    # straight into XbarIn at each consuming MVM (set during planning).
    deferred_pieces: list[Piece] | None = None


@dataclass
class _TaskPlan:
    """Static consumer analysis for one task."""

    reg_reads: int = 0                    # operand slots on the producer core
    # reader cores of loads by sibling cores (same tile), one per slot
    local_readers: list[CoreKey] = field(default_factory=list)
    # tile -> consumer core keys reading the forwarded copy there
    remote_tiles: dict[int, list[CoreKey]] = field(default_factory=dict)

    @property
    def local_mem_reads(self) -> int:
        return len(self.local_readers)

    @property
    def store_count(self) -> int:
        return len(self.local_readers) + len(self.remote_tiles)

    def reader_streams(self, producer_tile: int) -> frozenset:
        """Streams reading the producer-tile copy: sibling cores plus the
        tile control unit when the value is forwarded."""
        streams = set(self.local_readers)
        if self.remote_tiles:
            streams.add(("tile-ctrl", producer_tile))
        return frozenset(streams)

    def remote_reader_streams(self, dst_tile: int) -> frozenset:
        """Streams reading the received copy at ``dst_tile``."""
        return frozenset(self.remote_tiles.get(dst_tile, ()))


@dataclass
class CodegenStats:
    """Counters the Table 8 ablations read."""

    loads: int = 0
    stores: int = 0
    sends: int = 0
    receives: int = 0
    copies: int = 0
    spill_stores: int = 0
    spill_loads: int = 0
    register_accesses: int = 0

    @property
    def spilled_access_fraction(self) -> float:
        spill = self.spill_stores + self.spill_loads
        if self.register_accesses + spill == 0:
            return 0.0
        return spill / (self.register_accesses + spill)


class CodeGenerator:
    """Emits a :class:`NodeProgram` from the scheduled tiled graph."""

    def __init__(self, graph: TiledGraph, placement: PartitionResult,
                 order: list[int], groups: list[list[int]],
                 config: PumaConfig, model_name: str,
                 options: CompilerOptions | None = None) -> None:
        self.graph = graph
        self.placement = placement
        self.order = order
        self.position = {tid: i for i, tid in enumerate(order)}
        self.group_of: dict[int, list[int]] = {}
        for members in groups:
            for m in members:
                self.group_of[m] = members
        self.config = config
        self.options = options if options is not None else CompilerOptions()
        self.program = NodeProgram(name=model_name)
        self.memory = MemoryPlan(config.tile.shared_memory_words)
        self.stats = CodegenStats()
        self._allocators: dict[CoreKey, RegisterAllocator] = {}
        self._values: dict[int, _ValueState] = {}
        self._plans: dict[int, _TaskPlan] = {}
        self._acc: dict[int, tuple[CoreKey, int]] = {}  # reduce -> (core, reg)
        self._emitted_groups: set[int] = set()
        self._fifo_map: dict[int, dict[int, int]] = {}  # dst -> src -> fifo
        self._use_positions: dict[tuple[int, CoreKey], list[int]] = {}
        self._input_blocks: dict[int, tuple[int, int]] = {}   # node -> tile,addr
        self._output_blocks: dict[int, tuple[int, int]] = {}

    # -- public entry ------------------------------------------------------

    def run(self) -> NodeProgram:
        self._plan_consumers()
        self._plan_inputs_and_outputs()
        for tid in self.order:
            task = self.graph.task(tid)
            self._emit_task(task)
        for tile_id, tile_prog in self.program.tiles.items():
            for core_prog in tile_prog.cores.values():
                core_prog.append(isa.hlt())
            if tile_prog.tile_instructions:
                tile_prog.append_tile(isa.hlt())
        return self.program

    # -- planning ----------------------------------------------------------

    def _core_of(self, task_id: int) -> CoreKey:
        p = self.placement.of(task_id)
        return p.core_key

    def _find_deferred_gathers(self) -> set[int]:
        """Gathers consumed exclusively by MVM tiles stage straight into
        XbarIn (no register materialization, no publication)."""
        consumers = self.graph.consumers()
        deferred = set()
        for task in self.graph.tasks:
            if task.kind != TaskKind.GATHER:
                continue
            users = consumers[task.task_id]
            if users and all(self.graph.task(u).kind == TaskKind.MVM_TILE
                             for u in users):
                deferred.add(task.task_id)
        return deferred

    def _resolved_inputs(self, task: Task) -> list[Piece]:
        """Task inputs with deferred gathers replaced by their pieces."""
        out: list[Piece] = []
        for piece in task.inputs:
            src = self.graph.task(piece.task_id)
            if (src.kind == TaskKind.GATHER
                    and piece.task_id in self._deferred):
                # MVM tiles consume the whole gathered vector.
                out.extend(src.inputs)
            else:
                out.append(piece)
        return out

    def _plan_consumers(self) -> None:
        self._deferred = self._find_deferred_gathers()
        for task in self.graph.tasks:
            self._plans[task.task_id] = _TaskPlan()
        for task in self.graph.tasks:
            if task.kind in (TaskKind.INPUT_SEG, TaskKind.CONST_SEG):
                continue
            if task.task_id in self._deferred:
                continue  # reads happen at the consuming MVMs instead
            consumer_core = self._core_of(task.task_id)
            consumer_tile = consumer_core[0]
            inputs = (self._resolved_inputs(task)
                      if task.kind == TaskKind.MVM_TILE else task.inputs)
            for piece in inputs:
                src = self.graph.task(piece.task_id)
                plan = self._plans[piece.task_id]
                if src.kind in (TaskKind.INPUT_SEG, TaskKind.CONST_SEG):
                    home = self.placement.of(src.task_id).tile
                    if consumer_tile == home:
                        plan.local_readers.append(consumer_core)
                    else:
                        plan.remote_tiles.setdefault(
                            consumer_tile, []).append(consumer_core)
                    continue
                producer_core = self._core_of(piece.task_id)
                if consumer_core == producer_core:
                    plan.reg_reads += 1
                    self._use_positions.setdefault(
                        (piece.task_id, consumer_core), []).append(
                        self.position[task.task_id])
                elif consumer_tile == producer_core[0]:
                    plan.local_readers.append(consumer_core)
                else:
                    plan.remote_tiles.setdefault(
                        consumer_tile, []).append(consumer_core)
        for positions in self._use_positions.values():
            positions.sort()

    def _plan_inputs_and_outputs(self) -> None:
        seen_inputs: set[int] = set()
        seen_outputs: set[int] = set()
        for task in self.graph.tasks:
            if task.kind == TaskKind.INPUT_SEG and task.node_id not in seen_inputs:
                seen_inputs.add(task.node_id)
                home = self.placement.of(task.task_id).tile
                length = self._node_length(task.node_id)
                addr = self.memory.tile(home).allocate(
                    length, f"input:{task.name}")
                self._input_blocks[task.node_id] = (home, addr)
                self.program.input_layout[task.name] = (home, addr, length)
            elif task.kind == TaskKind.OUTPUT_SEG and task.node_id not in seen_outputs:
                seen_outputs.add(task.node_id)
                home = self.placement.of(task.task_id).tile
                length = self._node_length(task.node_id)
                addr = self.memory.tile(home).allocate(
                    length, f"output:{task.name}")
                self._output_blocks[task.node_id] = (home, addr)
                self.program.output_layout[task.name] = (home, addr, length)

    def _node_length(self, node_id: int) -> int:
        segs = self.graph.node_segments[node_id]
        return sum(self.graph.task(t).width for t in segs)

    # -- low-level emission helpers -----------------------------------------

    def _core_prog(self, core: CoreKey):
        return self.program.tile(core[0]).core(core[1])

    def _allocator(self, core: CoreKey) -> RegisterAllocator:
        if core not in self._allocators:
            self._allocators[core] = RegisterAllocator(self.config.core)
        return self._allocators[core]

    def _alloc_reg(self, core: CoreKey, width: int,
                   pinned_tasks: set[int]) -> int:
        """Allocate registers, evicting (spilling) values if needed."""
        allocator = self._allocator(core)
        base = allocator.allocate(width)
        while base is None:
            victim = self._pick_victim(core, pinned_tasks)
            if victim is None:
                raise RegisterExhaustion(
                    f"core {core}: cannot allocate {width} registers and "
                    f"nothing can be evicted")
            self._spill(victim, core)
            base = allocator.allocate(width)
        return base

    def _pick_victim(self, core: CoreKey, pinned_tasks: set[int]) -> int | None:
        """Belady-style victim: live value with the furthest next use."""
        best_task, best_next = None, -1
        for tid, state in self._values.items():
            if state.reg_core != core or state.pinned or tid in pinned_tasks:
                continue
            uses = self._use_positions.get((tid, core), [])
            current = getattr(self, "_current_position", 0)
            idx = bisect_right(uses, current)
            next_use = uses[idx] if idx < len(uses) else 1 << 60
            if next_use > best_next:
                best_next, best_task = next_use, tid
        return best_task

    def _spill(self, task_id: int, core: CoreKey) -> None:
        state = self._values[task_id]
        addr = self.memory.tile(core[0]).allocate(
            state.width, f"spill:t{task_id}")
        prog = self._core_prog(core)
        prog.append(isa.store(state.reg_base, addr, count=PERSISTENT_COUNT,
                              vec_width=state.width)
                    .with_comment(f"spill task {task_id}"))
        self.stats.spill_stores += 1
        self.stats.stores += 1
        self._allocator(core).stats.spill_stores += 1
        state.spill[core] = addr
        self._allocator(core).release(state.reg_base, state.width)
        state.reg_core = None
        state.reg_base = -1

    def _release_if_dead(self, task_id: int) -> None:
        state = self._values.get(task_id)
        if state is None or state.reg_core is None or state.pinned:
            return
        if state.reg_reads_left <= 0:
            self._allocator(state.reg_core).release(state.reg_base, state.width)
            state.reg_core = None
            state.reg_base = -1

    def _note_reg_read(self, task_id: int) -> None:
        state = self._values[task_id]
        state.reg_reads_left -= 1
        self.stats.register_accesses += 1

    def _track_mem_copy(self, task_id: int, tile_id: int, reads: int,
                        clamped: bool, producer_stream: tuple) -> None:
        """Register a tile copy for retirement once its reads are emitted.

        Copies whose attribute count was clamped to the persistent
        sentinel never invalidate at run time, so their locations are
        never reused.
        """
        if reads <= 0 or clamped:
            return
        state = self._values[task_id]
        state.mem_reads_left[tile_id] = reads
        state.mem_producer_stream[tile_id] = producer_stream

    def _note_mem_read(self, task_id: int, tile_id: int,
                       streams: frozenset, full: bool = True) -> None:
        """Account one emitted read of a tile copy; retire when done.

        Partial reads (slice/gather pieces) decrement only the words they
        touch at run time, so the block never fully invalidates — one
        partial read permanently disqualifies the copy from reuse.
        ``streams`` tags the retired block for the stream-confinement
        reuse predicate.
        """
        state = self._values.get(task_id)
        if state is None:
            return
        left = state.mem_reads_left.get(tile_id)
        if left is None:
            return
        if not full:
            del state.mem_reads_left[tile_id]
            return
        left -= 1
        if left > 0:
            state.mem_reads_left[tile_id] = left
            return
        del state.mem_reads_left[tile_id]
        addr = state.mem.pop(tile_id)
        producer = state.mem_producer_stream.pop(tile_id)
        self.memory.tile(tile_id).retire(addr, state.width, producer,
                                         streams)

    def _copy_streams(self, task_id: int, tile_id: int) -> frozenset:
        """Reader streams of ``task_id``'s copy residing at ``tile_id``."""
        plan = self._plans.get(task_id)
        if plan is None:
            return frozenset()
        task = self.graph.task(task_id)
        if task.kind in (TaskKind.INPUT_SEG, TaskKind.CONST_SEG):
            home = self.placement.of(task_id).tile
        else:
            home = self._core_of(task_id)[0]
        if tile_id == home:
            return plan.reader_streams(tile_id)
        return plan.remote_reader_streams(tile_id)

    def _recycle_predicate(self, new_producer: tuple,
                           new_streams: frozenset):
        """Stream confinement (see repro.compiler.memory): a retired block
        is reusable only when the old and new readers share one stream AND
        the old and new producers share one stream."""
        if not self.options.memory_reuse:
            return None
        if len(new_streams) != 1:
            return None  # new copy is multi-stream: never reuse

        def predicate(old_producer: tuple,
                      old_streams: frozenset) -> bool:
            return old_streams == new_streams and old_producer == new_producer

        return predicate

    # -- data routing --------------------------------------------------------

    def _fifo_for(self, src_tile: int, dst_tile: int) -> int:
        per_dst = self._fifo_map.setdefault(dst_tile, {})
        if src_tile not in per_dst:
            if len(per_dst) >= self.config.tile.receive_fifos:
                raise CodegenError(
                    f"tile {dst_tile} receives from more than "
                    f"{self.config.tile.receive_fifos} sender tiles; FIFO "
                    f"virtualization across program phases is not "
                    f"implemented for this fan-in")
            per_dst[src_tile] = len(per_dst)
        return per_dst[src_tile]

    @staticmethod
    def _clamp_count(count: int) -> int:
        """Reader counts above the field maximum become persistent (255),
        which can only under-consume — never deadlock."""
        return min(count, PERSISTENT_COUNT)

    def _publish(self, task: Task) -> None:
        """Store a freshly-produced value and forward it to remote tiles."""
        plan = self._plans[task.task_id]
        state = self._values[task.task_id]
        core = state.reg_core
        if plan.store_count == 0:
            return
        assert core is not None
        tile_id = core[0]
        streams = plan.reader_streams(tile_id)
        addr = self.memory.tile(tile_id).allocate(
            state.width, f"value:t{task.task_id}",
            recycle_if=self._recycle_predicate(core, streams))
        count = self._clamp_count(plan.store_count)
        self._core_prog(core).append(
            isa.store(state.reg_base, addr, count=count,
                      vec_width=state.width)
            .with_comment(f"publish task {task.task_id}"))
        self.stats.stores += 1
        self.stats.register_accesses += 1
        state.mem[tile_id] = addr
        self._track_mem_copy(task.task_id, tile_id, plan.store_count,
                             clamped=count != plan.store_count,
                             producer_stream=core)
        self._forward_remote(task.task_id, tile_id, addr, state.width, plan)

    def _forward_remote(self, task_id: int, src_tile: int, addr: int,
                        width: int, plan: _TaskPlan) -> None:
        state = self._values[task_id]
        src_streams = plan.reader_streams(src_tile)
        for dst_tile, consumers in sorted(plan.remote_tiles.items()):
            fifo = self._fifo_for(src_tile, dst_tile)
            self.program.tile(src_tile).append_tile(
                isa.send(addr, fifo, dst_tile, vec_width=width))
            self._note_mem_read(task_id, src_tile, src_streams)
            dst_streams = plan.remote_reader_streams(dst_tile)
            dst_producer = ("tile-ctrl", dst_tile)
            dst_addr = self.memory.tile(dst_tile).allocate(
                width, f"recv:t{task_id}",
                recycle_if=self._recycle_predicate(dst_producer,
                                                   dst_streams))
            slots = len(consumers)
            count = self._clamp_count(slots)
            self.program.tile(dst_tile).append_tile(
                isa.receive(dst_addr, fifo, count=count, vec_width=width))
            self.stats.sends += 1
            self.stats.receives += 1
            state.mem[dst_tile] = dst_addr
            self._track_mem_copy(task_id, dst_tile, slots,
                                 clamped=count != slots,
                                 producer_stream=dst_producer)

    def _memory_copy_addr(self, task_id: int, tile_id: int) -> int | None:
        """Address of ``task_id``'s value in ``tile_id``'s memory, if any."""
        task = self.graph.task(task_id)
        if task.kind == TaskKind.INPUT_SEG:
            home, base = self._input_blocks[task.node_id]
            if home == tile_id:
                return base + self._segment_offset(task)
            state = self._values.get(task_id)
            return state.mem.get(tile_id) if state else None
        if task.kind == TaskKind.CONST_SEG:
            state = self._values[task_id]
            return state.mem.get(tile_id)
        state = self._values.get(task_id)
        if state is None:
            return None
        return state.mem.get(tile_id)

    def _segment_offset(self, task: Task) -> int:
        offsets = self.graph.node_offsets[task.node_id]
        return offsets[task.seg_index]

    def _stage_operand(self, core: CoreKey, piece: Piece,
                       pinned: set[int]) -> tuple[int, list[tuple[int, int]]]:
        """Make ``piece`` readable in registers on ``core``.

        Returns:
            ``(register_index, temps)`` where ``temps`` lists scratch
            ranges to free after the consuming instruction.
        """
        src_id = piece.task_id
        src_task = self.graph.task(src_id)
        state = self._values.get(src_id)
        temps: list[tuple[int, int]] = []

        # 1. live register copy on this core (producer core only)
        if state is not None and state.reg_core == core:
            self._note_reg_read(src_id)
            return state.reg_base + piece.offset, temps

        # 2. spilled copy on this core
        if state is not None and core in state.spill:
            base = self._alloc_reg(core, piece.length, pinned)
            self._core_prog(core).append(
                isa.load(base, state.spill[core] + piece.offset,
                         vec_width=piece.length)
                .with_comment(f"reload spilled task {src_id}"))
            self.stats.spill_loads += 1
            self.stats.loads += 1
            self._allocator(core).stats.spill_loads += 1
            temps.append((base, piece.length))
            return base, temps

        # 3. memory copy on this tile (inputs, constants, published values)
        addr = self._memory_copy_addr(src_id, core[0])
        if addr is not None:
            base = self._alloc_reg(core, piece.length, pinned)
            self._core_prog(core).append(
                isa.load(base, addr + piece.offset, vec_width=piece.length)
                .with_comment(f"load task {src_id}"))
            self.stats.loads += 1
            self._note_mem_read(
                src_id, core[0], self._copy_streams(src_id, core[0]),
                full=piece.offset == 0 and piece.length == state_width(
                    self._values.get(src_id), piece.length))
            temps.append((base, piece.length))
            return base, temps

        raise CodegenError(
            f"task {src_task.task_id} ({src_task.kind.value}) has no copy "
            f"reachable from core {core}")

    def _stage_to_xbar_in(self, core: CoreKey, mvmu: int, piece: Piece) -> None:
        """Write an MVM operand into the XbarIn registers of ``mvmu``."""
        xbar_base = self.config.core.xbar_in_base(mvmu)
        src_id = piece.task_id
        if src_id in self._deferred:
            # Deferred gather: stage each constituent piece directly.
            if piece.offset != 0:
                raise CodegenError(
                    "MVM operands consume whole segments; partial reads of "
                    "a deferred gather are not supported")
            position = 0
            for sub in self.graph.task(src_id).inputs:
                self._stage_piece_to_registers(core, xbar_base + position,
                                               sub)
                position += sub.length
            return
        self._stage_piece_to_registers(core, xbar_base, piece)

    def _stage_piece_to_registers(self, core: CoreKey, dest: int,
                                  piece: Piece) -> None:
        """Write one operand piece into a fixed register range (XbarIn)."""
        src_id = piece.task_id
        state = self._values.get(src_id)
        if state is not None and state.reg_core == core:
            self._note_reg_read(src_id)
            self._core_prog(core).append(
                isa.copy(dest, state.reg_base + piece.offset,
                         vec_width=piece.length)
                .with_comment(f"stage task {src_id}"))
            self.stats.copies += 1
            self._release_if_dead(src_id)
            return
        if state is not None and core in state.spill:
            self._core_prog(core).append(
                isa.load(dest, state.spill[core] + piece.offset,
                         vec_width=piece.length)
                .with_comment(f"stage spilled task {src_id}"))
            self.stats.spill_loads += 1
            self.stats.loads += 1
            return
        addr = self._memory_copy_addr(src_id, core[0])
        if addr is None:
            raise CodegenError(
                f"MVM operand task {src_id} unreachable from core {core}")
        self._core_prog(core).append(
            isa.load(dest, addr + piece.offset, vec_width=piece.length)
            .with_comment(f"stage task {src_id}"))
        self.stats.loads += 1
        self._note_mem_read(
            src_id, core[0], self._copy_streams(src_id, core[0]),
            full=piece.offset == 0 and piece.length == state_width(
                self._values.get(src_id), piece.length))

    # -- task emission -------------------------------------------------------

    def _emit_task(self, task: Task) -> None:
        self._current_position = self.position[task.task_id]
        kind = task.kind
        if kind == TaskKind.INPUT_SEG:
            self._values[task.task_id] = _ValueState(width=task.width)
            self._forward_inputs_if_remote(task)
        elif kind == TaskKind.CONST_SEG:
            self._emit_const(task)
        elif kind == TaskKind.MVM_TILE:
            self._emit_mvm_group(task)
        elif kind == TaskKind.REDUCE:
            self._emit_reduce(task)
        elif kind in (TaskKind.EWISE, TaskKind.EWISE_IMM, TaskKind.UNARY,
                      TaskKind.RANDOM):
            self._emit_ewise(task)
        elif kind == TaskKind.GATHER:
            if task.task_id in self._deferred:
                # Never materialized: consuming MVMs stage the pieces.
                self._values[task.task_id] = _ValueState(
                    width=task.width, deferred_pieces=list(task.inputs))
            else:
                self._emit_gather(task)
        elif kind == TaskKind.OUTPUT_SEG:
            self._emit_output(task)
        else:
            raise CodegenError(f"cannot emit task kind {kind}")

    def _forward_inputs_if_remote(self, task: Task) -> None:
        plan = self._plans[task.task_id]
        if not plan.remote_tiles:
            return
        home, base = self._input_blocks[task.node_id]
        addr = base + self._segment_offset(task)
        self._forward_remote(task.task_id, home, addr, task.width, plan)

    def _emit_const(self, task: Task) -> None:
        home = self.placement.of(task.task_id).tile
        addr = self.memory.tile(home).allocate(
            task.width, f"const:t{task.task_id}")
        self.program.const_memory.setdefault(home, []).append(
            (addr, np.asarray(task.const_values, dtype=np.int64)))
        state = _ValueState(width=task.width)
        state.mem[home] = addr
        self._values[task.task_id] = state
        plan = self._plans[task.task_id]
        if plan.remote_tiles:
            self._forward_remote(task.task_id, home, addr, task.width, plan)

    def _emit_mvm_group(self, task: Task) -> None:
        members = self.group_of[task.task_id]
        leader = members[0]
        if leader in self._emitted_groups:
            return
        self._emitted_groups.add(leader)
        placements = {tid: self.placement.of(tid) for tid in members}
        core = placements[leader].core_key
        # Stage every member's operand into its MVMU's XbarIn registers.
        mask = 0
        for tid in members:
            member = self.graph.task(tid)
            mvmu = placements[tid].mvmu
            self._stage_to_xbar_in(core, mvmu, member.inputs[0])
            mask |= 1 << mvmu
        self._core_prog(core).append(
            isa.mvm(mask).with_comment(
                f"mvm tasks {members}"))
        # Record weights for the loader.
        for tid in members:
            member = self.graph.task(tid)
            p = placements[tid]
            self.program.weights[(p.tile, p.core, p.mvmu)] = member.weights
        # Secure each XbarOut immediately.
        for tid in members:
            self._secure_mvm_result(tid, core, placements[tid].mvmu)

    def _reduce_consumer(self, mvm_task_id: int) -> int:
        if not hasattr(self, "_consumers_map"):
            self._consumers_map = self.graph.consumers()
        consumers = self._consumers_map[mvm_task_id]
        if len(consumers) != 1:
            raise CodegenError(
                f"MVM tile {mvm_task_id} must feed exactly one reduction, "
                f"found {consumers}")
        return consumers[0]

    def _secure_mvm_result(self, mvm_id: int, core: CoreKey, mvmu: int) -> None:
        task = self.graph.task(mvm_id)
        reduce_id = self._reduce_consumer(mvm_id)
        reduce_core = self._core_of(reduce_id)
        xbar_out = self.config.core.xbar_out_base(mvmu)
        if reduce_core == core:
            if reduce_id not in self._acc:
                base = self._alloc_reg(core, task.width,
                                       {mvm_id, reduce_id})
                self._core_prog(core).append(
                    isa.copy(base, xbar_out, vec_width=task.width)
                    .with_comment(f"init acc reduce {reduce_id}"))
                self.stats.copies += 1
                self._acc[reduce_id] = (core, base)
                # The accumulator lives as the reduce task's value; it is
                # evictable (spill + reload) like any other register value.
                acc_state = _ValueState(width=task.width, reg_core=core,
                                        reg_base=base)
                self._values.setdefault(reduce_id, acc_state)
                self._use_positions.setdefault((reduce_id, core), []).append(
                    self.position[reduce_id])
            else:
                base = self._ensure_acc_resident(reduce_id, core,
                                                 task.width, {mvm_id})
                self._core_prog(core).append(
                    isa.alu(AluOp.ADD, base, base, xbar_out,
                            vec_width=task.width)
                    .with_comment(f"acc reduce {reduce_id}"))
            self._values[mvm_id] = _ValueState(width=task.width)
            return
        # Remote reduction: store straight from XbarOut and forward.
        plan = self._plans[mvm_id]
        state = _ValueState(width=task.width)
        self._values[mvm_id] = state
        tile_id = core[0]
        streams = plan.reader_streams(tile_id)
        addr = self.memory.tile(tile_id).allocate(
            task.width, f"partial:t{mvm_id}",
            recycle_if=self._recycle_predicate(core, streams))
        reads = max(plan.store_count, 1)
        count = self._clamp_count(reads)
        self._core_prog(core).append(
            isa.store(xbar_out, addr, count=count, vec_width=task.width)
            .with_comment(f"partial of reduce {reduce_id}"))
        self.stats.stores += 1
        state.mem[tile_id] = addr
        self._track_mem_copy(mvm_id, tile_id, reads,
                             clamped=count != reads, producer_stream=core)
        self._forward_remote(mvm_id, tile_id, addr, task.width, plan)

    def _ensure_acc_resident(self, reduce_id: int, core: CoreKey,
                             width: int, pinned: set[int]) -> int:
        """Reload a spilled accumulator before accumulating into it."""
        state = self._values[reduce_id]
        if state.reg_core == core:
            return state.reg_base
        if core not in state.spill:
            raise CodegenError(
                f"accumulator for reduce {reduce_id} lost without a spill")
        base = self._alloc_reg(core, width, pinned | {reduce_id})
        self._core_prog(core).append(
            isa.load(base, state.spill[core], vec_width=width)
            .with_comment(f"reload acc reduce {reduce_id}"))
        self.stats.spill_loads += 1
        self.stats.loads += 1
        self._allocator(core).stats.spill_loads += 1
        state.reg_core = core
        state.reg_base = base
        self._acc[reduce_id] = (core, base)
        return base

    def _emit_reduce(self, task: Task) -> None:
        core = self._core_of(task.task_id)
        acc = self._acc.pop(task.task_id, None)
        state = self._values.get(task.task_id)
        if acc is not None:
            assert state is not None
            base = self._ensure_acc_resident(task.task_id, core,
                                             task.width, {task.task_id})
        else:
            base = None
            state = _ValueState(width=task.width)
            self._values[task.task_id] = state
        # Fold in partials that were produced on other cores/tiles.
        for piece in task.inputs:
            if self._was_local_partial(piece.task_id, core):
                continue  # already accumulated at MVM time
            reg, temps = self._stage_operand(core, piece, {task.task_id})
            if base is None:
                base = self._alloc_reg(core, task.width, {task.task_id})
                self._core_prog(core).append(
                    isa.copy(base, reg, vec_width=task.width)
                    .with_comment(f"init reduce {task.task_id}"))
                self.stats.copies += 1
            else:
                self._core_prog(core).append(
                    isa.alu(AluOp.ADD, base, base, reg, vec_width=task.width)
                    .with_comment(f"reduce {task.task_id}"))
            for t_base, t_width in temps:
                self._allocator(core).release(t_base, t_width)
        if base is None:
            raise CodegenError(f"reduce {task.task_id} had no partials")
        state.width = task.width
        state.reg_core = core
        state.reg_base = base
        state.pinned = False
        state.reg_reads_left = self._plans[task.task_id].reg_reads
        self.stats.register_accesses += 1
        self._publish(task)
        self._release_if_dead(task.task_id)

    def _was_local_partial(self, mvm_id: int, reduce_core: CoreKey) -> bool:
        return self._core_of(mvm_id) == reduce_core

    def _emit_ewise(self, task: Task) -> None:
        core = self._core_of(task.task_id)
        pinned = {p.task_id for p in task.inputs} | {task.task_id}
        operands: list[int] = []
        temps: list[tuple[int, int]] = []
        try:
            for piece in task.inputs:
                reg, piece_temps = self._stage_operand(core, piece, pinned)
                operands.append(reg)
                temps.extend(piece_temps)
            dest = self._alloc_reg(core, task.width, pinned)
        except RegisterExhaustion:
            # Pathological pressure (pinned operands fragment the file):
            # fall back to chunked emission with a memory-resident result,
            # whose register need is bounded by the chunk width.
            for t_base, t_width in temps:
                self._allocator(core).release(t_base, t_width)
            self._emit_chunked_to_memory(task, core)
            return
        prog = self._core_prog(core)
        if task.kind == TaskKind.EWISE_IMM:
            prog.append(isa.alui(task.alu_op, dest, operands[0],
                                 task.immediate, vec_width=task.width))
        elif task.kind == TaskKind.RANDOM:
            prog.append(isa.alu(AluOp.RANDOM, dest, dest,
                                vec_width=task.width))
        elif task.alu_op is not None and task.alu_op.num_sources == 1:
            prog.append(isa.alu(task.alu_op, dest, operands[0],
                                vec_width=task.width))
        else:
            prog.append(isa.alu(task.alu_op, dest, operands[0], operands[1],
                                vec_width=task.width))
        for t_base, t_width in temps:
            self._allocator(core).release(t_base, t_width)
        self._finish_value(task, core, dest)

    _FALLBACK_CHUNK = 16

    def _emit_chunked_to_memory(self, task: Task, core: CoreKey) -> None:
        """De-pressurized emission: compute ``task`` in small chunks and
        store the result directly to shared memory.

        Each chunk stages sub-ranges of the operands (reads of register
        operands need no allocation; memory operands load through a
        chunk-sized bounce register), applies the op, and stores the chunk
        with the value's full attribute count on the first chunk's words.
        Register need is O(chunk), independent of surrounding pressure.
        """
        if task.alu_op == AluOp.SUBSAMPLE:
            raise CodegenError(
                "register pressure too high for SUBSAMPLE (chunked "
                "fallback cannot split a length-changing op)")
        if task.kind == TaskKind.RANDOM:
            sources = 0
        elif task.kind in (TaskKind.EWISE_IMM, TaskKind.UNARY):
            sources = 1
        elif task.kind == TaskKind.EWISE:
            sources = 1 if task.alu_op.num_sources == 1 else 2
        elif task.kind == TaskKind.GATHER:
            sources = None  # handled piece-wise below
        else:
            raise CodegenError(
                f"no chunked fallback for task kind {task.kind}")

        tile_id = core[0]
        plan = self._plans[task.task_id]
        total_reads = plan.reg_reads + plan.store_count
        count = self._clamp_count(max(total_reads, 1))
        addr = self.memory.tile(tile_id).allocate(
            task.width, f"fallback:t{task.task_id}")
        prog = self._core_prog(core)
        chunk_w = self._FALLBACK_CHUNK

        def stage_sub(piece: Piece, offset: int, length: int,
                      pinned: set[int]) -> tuple[int, list]:
            sub = Piece(piece.task_id, piece.offset + offset, length)
            state = self._values.get(piece.task_id)
            live = state is not None and state.reg_core == core
            staged = self._stage_operand(core, sub, pinned)
            if live and offset:
                # The plan counts one register read per piece, however
                # many chunks it is read in; counting each chunk frees the
                # producer's registers under its remaining consumers.
                state.reg_reads_left += 1
            return staged

        if task.kind == TaskKind.GATHER:
            pos = 0
            for piece in task.inputs:
                done = 0
                while done < piece.length:
                    length = min(chunk_w, piece.length - done)
                    reg, temps = stage_sub(piece, done, length,
                                           {task.task_id})
                    prog.append(isa.store(
                        reg, addr + pos + done, count=count,
                        vec_width=length)
                        .with_comment(f"fallback gather t{task.task_id}"))
                    self.stats.stores += 1
                    for t_base, t_width in temps:
                        self._allocator(core).release(t_base, t_width)
                    done += length
                pos += piece.length
        else:
            done = 0
            while done < task.width:
                length = min(chunk_w, task.width - done)
                pinned = {p.task_id for p in task.inputs} | {task.task_id}
                regs, temps = [], []
                for piece in task.inputs[:sources]:
                    reg, piece_temps = stage_sub(piece, done, length, pinned)
                    regs.append(reg)
                    temps.extend(piece_temps)
                dest = self._alloc_reg(core, length, pinned)
                if task.kind == TaskKind.EWISE_IMM:
                    prog.append(isa.alui(task.alu_op, dest, regs[0],
                                         task.immediate, vec_width=length))
                elif task.kind == TaskKind.RANDOM:
                    prog.append(isa.alu(AluOp.RANDOM, dest, dest,
                                        vec_width=length))
                elif sources == 1:
                    prog.append(isa.alu(task.alu_op, dest, regs[0],
                                        vec_width=length))
                else:
                    prog.append(isa.alu(task.alu_op, dest, regs[0], regs[1],
                                        vec_width=length))
                prog.append(isa.store(dest, addr + done, count=count,
                                      vec_width=length)
                            .with_comment(f"fallback t{task.task_id}"))
                self.stats.stores += 1
                for t_base, t_width in temps:
                    self._allocator(core).release(t_base, t_width)
                self._allocator(core).release(dest, length)
                done += length

        state = _ValueState(width=task.width)
        state.mem[tile_id] = addr
        self._values[task.task_id] = state
        # Consumers everywhere (including this core) read the memory copy.
        self._forward_remote(task.task_id, tile_id, addr, task.width, plan)
        for piece in task.inputs:
            self._release_if_dead(piece.task_id)

    def _emit_gather(self, task: Task) -> None:
        core = self._core_of(task.task_id)
        pinned = {p.task_id for p in task.inputs} | {task.task_id}
        try:
            dest = self._alloc_reg(core, task.width, pinned)
        except RegisterExhaustion:
            self._emit_chunked_to_memory(task, core)
            return
        pos = 0
        prog = self._core_prog(core)
        for piece in task.inputs:
            src_id = piece.task_id
            state = self._values.get(src_id)
            if state is not None and state.reg_core == core:
                self._note_reg_read(src_id)
                prog.append(isa.copy(dest + pos, state.reg_base + piece.offset,
                                     vec_width=piece.length)
                            .with_comment(f"gather task {src_id}"))
                self.stats.copies += 1
            else:
                addr = None
                if state is not None and core in state.spill:
                    addr = state.spill[core] + piece.offset
                    self.stats.spill_loads += 1
                else:
                    base_addr = self._memory_copy_addr(src_id, core[0])
                    if base_addr is None:
                        raise CodegenError(
                            f"gather operand {src_id} unreachable from "
                            f"core {core}")
                    addr = base_addr + piece.offset
                    self._note_mem_read(
                        src_id, core[0],
                        self._copy_streams(src_id, core[0]),
                        full=piece.offset == 0
                        and piece.length == state_width(
                            self._values.get(src_id), piece.length))
                prog.append(isa.load(dest + pos, addr, vec_width=piece.length)
                            .with_comment(f"gather task {src_id}"))
                self.stats.loads += 1
            pos += piece.length
        self._finish_value(task, core, dest)

    def _finish_value(self, task: Task, core: CoreKey, dest: int) -> None:
        state = _ValueState(width=task.width, reg_core=core, reg_base=dest,
                            reg_reads_left=self._plans[task.task_id].reg_reads)
        self._values[task.task_id] = state
        self.stats.register_accesses += 1
        self._publish(task)
        self._release_if_dead(task.task_id)
        for piece in task.inputs:
            self._release_if_dead(piece.task_id)

    def _emit_output(self, task: Task) -> None:
        core = self._core_of(task.task_id)
        home, base_addr = self._output_blocks[task.node_id]
        offset = self._segment_offset(task)
        piece = task.inputs[0]
        if core[0] == home:
            reg, temps = self._stage_operand(core, piece, {task.task_id})
            self._core_prog(core).append(
                isa.store(reg, base_addr + offset, count=PERSISTENT_COUNT,
                          vec_width=task.width)
                .with_comment(f"output {task.name}[{offset}:]"))
            self.stats.stores += 1
            for t_base, t_width in temps:
                self._allocator(core).release(t_base, t_width)
        else:
            # Producer tile differs from the output's home tile: store
            # locally, then forward into the output block.
            reg, temps = self._stage_operand(core, piece, {task.task_id})
            tile_id = core[0]
            addr = self.memory.tile(tile_id).allocate(
                task.width, f"outstage:t{task.task_id}")
            self._core_prog(core).append(
                isa.store(reg, addr, count=1, vec_width=task.width)
                .with_comment(f"stage output {task.name}"))
            self.stats.stores += 1
            fifo = self._fifo_for(tile_id, home)
            self.program.tile(tile_id).append_tile(
                isa.send(addr, fifo, home, vec_width=task.width))
            self.program.tile(home).append_tile(
                isa.receive(base_addr + offset, fifo,
                            count=PERSISTENT_COUNT, vec_width=task.width))
            self.stats.sends += 1
            self.stats.receives += 1
            for t_base, t_width in temps:
                self._allocator(core).release(t_base, t_width)
        self._release_if_dead(piece.task_id)
