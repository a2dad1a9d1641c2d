"""Trace-replay execution: record the event-driven schedule, replay a tape.

PUMA programs are *control-uniform*: branches consume loop counters and
compile-time bounds, never model data (Section 5.3.3 — the property the
compiler's global linearization relies on, and the property PR 1's
SIMD-over-batch execution already exploits).  A consequence worth money on
the serving hot path: for a fixed (program, config, batch) the fully
*resolved* dynamic schedule — which instruction completes when, with which
effective addresses, branch outcomes, and blocking retries — is identical
for every input.  Re-deriving it per `run_batch` call through the event
queue, per-instruction dispatch, and the valid/count blocking protocol is
pure overhead after the first run.

This module implements the fast path:

* :class:`TapeRecorder` rides along one ordinary event-driven simulation
  and records every *completed* data-carrying instruction in global
  completion order, with its resolved effective memory address.  Control
  instructions (``jmp``/``brn``/``hlt`` and the tile control unit's scalar
  loop bookkeeping) have no lane-visible data effect and are omitted — the
  recorded order already reflects every branch resolution.
* :class:`ExecutionTape` is the resulting artifact: the step list plus
  per-batch :class:`~repro.sim.stats.SimulationStats`.  The step list is
  **batch-generic** — closures index ``array[:, ...]`` and scalar
  control reads the first lane, so one tape replays at any batch
  size.  Timing, energy,
  stalls, and NoC traffic are input-independent but *batch*-dependent
  (latencies stretch with lanes), so stats are cached per batch size: the
  recording run seeds one entry, and the engine derives the others with a
  shadow timing simulation (``Simulator(stats_batch=...)``) —
  field-identical to what a real run at that batch would produce.
* :class:`TapeReplayer` binds a plan of the tape — its own steps, or
  the optimized plan of :mod:`repro.sim.tapeopt` — once to a node's live
  arrays and replays it as a flat list of pre-bound closures over numpy
  slices — no event heap, no dispatch dict, no attribute-buffer
  protocol, no per-op stats churn.  Functional equivalence is exact:
  every step calls the interpreter handler's own kernel (the VFU kernel
  table; :meth:`~repro.arch.mvmu.MVMU.rescale` after every MVM product)
  in the same global order, so outputs are bitwise identical.

Why replaying in recorded completion order is sound: the valid/count
protocol guarantees that, in the recorded run, every read observed a value
written earlier in that same order (by a preload, store, receive, or
register write).  Replaying the identical order on identical inputs
therefore reproduces every intermediate value; the synchronization
machinery only ever *gated* the order, it never transformed data.  NoC
packet payloads are carried through per-``(destination, fifo)`` FIFO queues
— the network preserves per-flow ordering, so the k-th receive on a flow
consumes the k-th send, exactly as in the recorded run.

What cannot be taped: programs using the stochastic ``RANDOM`` op.  Their
*schedule* is still input-independent, but the op consumes RNG draws whose
shapes depend on how the engine interleaves runs, and its whole point is
fresh entropy; the engine transparently falls back to the interpreter for
them (see :func:`find_unsupported_op` and ``repro.engine``).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.analysis.dataflow import core_effects
from repro.arch.mvmu import MVMU
from repro.isa.instruction import Instruction
from repro.isa.opcodes import AluOp, Opcode
from repro.isa.program import NodeProgram
from repro.sim.stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node
    from repro.sim.tapeopt import OptimizedTape


class TapeValidationError(RuntimeError):
    """A tape failed validation against the program/node it should replay.

    The engine treats this as "re-record or fall back to the interpreter",
    never as a user-facing failure.
    """


class TapeStep(NamedTuple):
    """One completed data-carrying instruction of the recorded schedule.

    Attributes:
        tile_id: owning tile.
        core_id: core within the tile, or ``None`` for the tile control
            unit's stream (``send``/``receive``).
        instruction: the static instruction that completed.
        eff_addr: resolved effective memory address for ``load``/``store``
            (register-indirect addressing folded in at record time);
            ``instruction.mem_addr`` for tile sends/receives; 0 otherwise.
    """

    tile_id: int
    core_id: int | None
    instruction: Instruction
    eff_addr: int


# Opcodes with no lane-visible data effect: their entire contribution to an
# execution is the *order* of everything else, which the tape already fixes.
_CONTROL_OPCODES = frozenset({Opcode.JMP, Opcode.BRN, Opcode.HLT})
# Tile-control scalar bookkeeping only ever feeds tile-stream branches —
# tile sends/receives address memory with immediates — so it is control too.
_TILE_CONTROL_OPCODES = _CONTROL_OPCODES | {Opcode.SET, Opcode.ALU_INT}


# -- ops an optimized plan (repro.sim.tapeopt) adds to the tape's steps ------


@dataclass(frozen=True)
class RegMove:
    """A forwarded load: copy registers instead of round-tripping memory.

    Replaces a ``load`` whose full range was written by a single earlier
    ``store`` with an intra-tile register-file copy from the store's
    source registers.  ``src_core`` and ``dst_core`` may differ — shared
    memory is exactly how cores on one tile communicate.
    """

    tile_id: int
    dst_core: int
    dst_reg: int
    src_core: int
    src_reg: int
    width: int


@dataclass(frozen=True)
class FusedBlock:
    """A run of same-kind steps on one core fused into one wide op.

    ``kind`` is one of ``copy``/``set``/``alu``/``alui``/``load``/
    ``store``; members appear in plan order with contiguous destination
    (and source / memory) ranges, so the fused closure is a single numpy
    slice operation over the concatenated range.
    """

    kind: str
    tile_id: int
    core_id: int
    steps: tuple[TapeStep, ...]


@dataclass(frozen=True)
class MvmGroup:
    """Independent MVM steps hoisted to one slot for a stacked BLAS call.

    Members touch pairwise-disjoint cores and nothing between the
    group's anchor and each member's original slot touches that member's
    core — so executing them together at the anchor is order-equivalent.
    """

    steps: tuple[TapeStep, ...]


@dataclass
class ExecutionTape:
    """The resolved dynamic schedule of one (program, config, seed) key.

    The tape is **batch-generic**: every step's closure indexes its arrays
    as ``array[:, start:start+width]``, scalar reads take the first lane,
    and the valid/count protocol plus per-flow FIFO ordering
    are batch-independent — so one recorded step list replays correctly
    at *any* batch size.
    What does depend on the batch is timing (latencies stretch with lanes,
    which changes the event interleaving, stall counts, cycle totals, and
    energy): those live in ``stats_by_batch``, seeded by the recording run
    and extended by a shadow timing simulation when a result's stats are
    first read (``Simulator(stats_batch=...)``, see
    :mod:`repro.sim.simulator`).

    Attributes:
        steps: data-carrying instructions in global completion order.
        stats_by_batch: per-batch-size statistics.  Input-independent, so
            a replayed pass's result reads a private copy.
        recorded_batch: SIMD batch width of the recording run (the order
            of ``steps`` — any legal completion order replays exactly, so
            this is provenance, not a replay constraint).
        instruction_count: dynamic instructions of the recording run,
            including the control instructions the step list omits (used
            for cheap cross-checks and introspection).
        optimized: the tape's optimized execution plan
            (:class:`repro.sim.tapeopt.OptimizedTape`), set only once it
            reproduced the recording run's words bitwise, and shared by
            every engine replica holding this tape; ``None`` when the
            plan was refuted at recording (plain replay serves the tape).
    """

    steps: tuple[TapeStep, ...]
    stats_by_batch: dict[int, SimulationStats]
    recorded_batch: int
    instruction_count: int = 0
    # OptimizedTape | None; compare=False keeps tape equality about the
    # schedule, not the derived plan.
    optimized: object | None = field(default=None, compare=False, repr=False)
    # Batch-independent bind work shared by every width's TapeReplayer
    # ("zero_runs", one MVM stack per unit set); never pickled.
    bind_cache: dict = field(default_factory=dict, init=False,
                             compare=False, repr=False)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "bind_cache"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, bind_cache={})

    def batches(self) -> list[int]:
        """Batch sizes with derived (or recorded) stats, sorted."""
        return sorted(self.stats_by_batch)

    def stats_for(self, batch: int) -> SimulationStats | None:
        """The cached stats for ``batch``, or ``None`` if not derived yet."""
        return self.stats_by_batch.get(batch)

    def add_stats(self, batch: int, stats: SimulationStats) -> None:
        """Cache one batch size's derived statistics (a private copy)."""
        self.stats_by_batch[int(batch)] = stats.copy()


class TapeRecorder:
    """Records completed instructions during one event-driven simulation.

    Attach to :class:`~repro.sim.simulator.Simulator` via the
    ``tape_recorder`` argument; the simulator calls :meth:`record` once per
    *completed* (non-blocked) instruction, in completion order.  After the
    run, :meth:`finish` packages the tape with the run's stats.
    """

    def __init__(self, batch: int) -> None:
        self.batch = batch
        self._steps: list[TapeStep] = []
        self._instruction_count = 0

    def record(self, tile_id: int, core_id: int | None,
               instruction: Instruction, eff_addr: int) -> None:
        """One completed instruction (called by the simulator's step loop)."""
        self._instruction_count += 1
        op = instruction.opcode
        if core_id is None:
            if op in _TILE_CONTROL_OPCODES:
                return
        elif op in _CONTROL_OPCODES:
            return
        self._steps.append(TapeStep(tile_id, core_id, instruction, eff_addr))

    def finish(self, stats: SimulationStats) -> ExecutionTape:
        """Package the recording; ``stats`` is the finished run's result."""
        return ExecutionTape(
            steps=tuple(self._steps),
            stats_by_batch={self.batch: stats.copy()},
            recorded_batch=self.batch,
            instruction_count=self._instruction_count)


def find_unsupported_op(program: NodeProgram) -> str | None:
    """Why ``program`` cannot be trace-replayed, or ``None`` if it can.

    The single functional blocker is the stochastic ``RANDOM`` ALU op: it
    draws fresh entropy per executed instance, which a recorded schedule
    must not freeze and replay (BM/RBM workloads rely on per-run noise).
    """
    for tile in program.tiles.values():
        for core in tile.cores.values():
            for instr in core.instructions:
                if instr.alu_op == AluOp.RANDOM:
                    return "program uses the stochastic RANDOM op"
    return None


# A bound step: a zero-argument closure over whole-batch views of the
# node's register files and tile memories (sends and receives also hold
# their flow's payload queue), so a step is one numpy operation.
TapeOp = Callable[[], None]


def _bind_mvm(core, instr: Instruction) -> TapeOp:
    config = core.config
    active = [i for i in range(config.num_mvmus) if instr.mask & (1 << i)]
    if not active:
        raise TapeValidationError("recorded MVM selects no MVMU")
    dim = config.mvmu_dim
    reg = core.registers._data
    units = []
    for i in active:
        x, y = config.xbar_in_base(i), config.xbar_out_base(i)
        units.append((core.mvmus[i], reg[:, x:x + dim], reg[:, y:y + dim]))
    filter_, stride = instr.filter, instr.stride

    def step() -> None:
        for mvmu, x, y in units:
            if filter_:
                x = MVMU.shuffle_inputs(x, filter_, stride)
            y[...] = mvmu.execute(x)

    return step


def _bind_alu(core, instr: Instruction,
              imm_vec: np.ndarray | None = None) -> TapeOp:
    """One VFU instruction (``imm_vec`` is an ALUI's second operand).

    The kernel is resolved here, once, and writes straight into the
    destination view when every source range is the destination range or
    disjoint from it; a source overlapping it in part goes through a
    scratch.
    """
    reg = core.registers._data
    op, w, dest, src1 = instr.alu_op, instr.vec_width, instr.dest, instr.src1
    a = reg[:, src1:src1 + w]
    if op == AluOp.SUBSAMPLE:
        apply_op = core.vfu._apply
        factor = reg[:, instr.src2:instr.src2 + 1]

        # _apply returns a strided *view* of its operand; materialize the
        # operand so the destination write cannot alias the source.
        def step() -> None:
            result = apply_op(op, a.copy(), factor)
            reg[:, dest:dest + result.shape[-1]] = result
        return step
    kernel = core.vfu.kernels[op]
    src2 = instr.src2 if imm_vec is None and op.num_sources == 2 else None
    b = imm_vec if src2 is None else reg[:, src2:src2 + w]
    out = reg[:, dest:dest + w]
    if all(src == dest or src + w <= dest or dest + w <= src
           for src in (src1, src2) if src is not None):
        def step() -> None:
            kernel(a, b, out)
    else:
        def step() -> None:
            scratch = np.empty_like(a)
            kernel(a, b, scratch)
            out[...] = scratch
    return step


def _bind_alu_int(core, instr: Instruction) -> TapeOp:
    # Scalar loop bookkeeping: control-uniform programs compute the same
    # value in every lane, so read the first lane and broadcast.
    sfu_execute = core.sfu.execute
    reg = core.registers._data
    op, dest, src1 = instr.alu_op, instr.dest, instr.src1
    out = reg[:, dest]

    if instr.imm_mode:
        imm = instr.imm

        def step() -> None:
            out[...] = sfu_execute(op, int(reg[0, src1]), imm)
    else:
        src2 = instr.src2

        def step() -> None:
            out[...] = sfu_execute(op, int(reg[0, src1]), int(reg[0, src2]))
    return step


def _bind_set(core, instr: Instruction) -> TapeOp:
    dest, w = instr.dest, instr.vec_width
    out = core.registers._data[:, dest:dest + w]
    imm_vec = core._imm_vector(instr.imm, w)  # cached, read-only

    def step() -> None:
        out[...] = imm_vec

    return step


def _bind_copy(core, instr: Instruction) -> TapeOp:
    reg = core.registers._data
    dest, src1, w = instr.dest, instr.src1, instr.vec_width
    return _bind_move(reg[:, dest:dest + w], reg[:, src1:src1 + w],
                      overlap=src1 < dest + w and dest < src1 + w)


def _bind_move(dst: np.ndarray, src: np.ndarray, *,
               overlap: bool = False) -> TapeOp:
    """``dst[...] = src`` — through a copy when the two views overlap."""
    if overlap:
        def step() -> None:
            dst[...] = src.copy()
    else:
        def step() -> None:
            dst[...] = src
    return step


def _bind_load(core, mem: np.ndarray, instr: Instruction,
               eff_addr: int) -> TapeOp:
    dest, w = instr.dest, instr.vec_width
    return _bind_move(core.registers._data[:, dest:dest + w],
                      mem[:, eff_addr:eff_addr + w])


def _bind_store(core, mem: np.ndarray, instr: Instruction,
                eff_addr: int) -> TapeOp:
    src1, w = instr.src1, instr.vec_width
    return _bind_move(mem[:, eff_addr:eff_addr + w],
                      core.registers._data[:, src1:src1 + w])


def _bind_send(mem: np.ndarray, instr: Instruction, eff_addr: int,
               flow: deque) -> TapeOp:
    words = mem[:, eff_addr:eff_addr + instr.vec_width]

    def step() -> None:
        # Copy: the attribute protocol lets the source words be recycled
        # before the matching receive lands, so snapshot at send time (the
        # interpreter's try_read copies too).
        flow.append(words.copy())

    return step


def _bind_receive(mem: np.ndarray, instr: Instruction, eff_addr: int,
                  flow: deque) -> TapeOp:
    words = mem[:, eff_addr:eff_addr + instr.vec_width]

    def step() -> None:
        words[...] = flow.popleft()

    return step


class TapeReplayer:
    """Replays a plan of an :class:`ExecutionTape` against one node's
    live arrays.

    The plan is the tape's own step list — the identity plan — or the
    tape's optimized plan (:class:`~repro.sim.tapeopt.OptimizedTape`),
    which adds :class:`RegMove`, :class:`FusedBlock` and
    :class:`MvmGroup` ops and is served only once it matched the
    recording run bitwise.  Either way every plan op is bound once to
    pre-resolved array views, and runs execute as a flat closure loop.
    The node is reusable across runs: the control-uniform schedule
    guarantees every value read during a run was written earlier in that
    same run (inputs/constants are re-preloaded per run), so stale data
    from a previous run is unreachable.

    Every bound step (:data:`TapeOp`) takes no arguments: it closes over
    whole-batch views of the node's register files and tile memories, and
    a send or receive over its flow's queue in the replayer's own flow
    dict — the k-th receive of a flow pops the k-th send.  :meth:`run`
    is :meth:`begin`, the inputs, every op in order, and the outputs.

    Args:
        tape: the recorded schedule.
        node: an instantiated, weight-programmed node (any batch size).
        program: the compiled program (input/output layouts, constants).
        optimized: the tape's checked optimized plan, or ``None`` to
            replay the steps as recorded.

    Attributes:
        optimized: the optimized plan bound, or ``None``.
        plan: the sequence :attr:`ops` was bound from, index for index
            (``tape.steps``, or ``optimized.plan``).
        ops: the bound steps.
    """

    def __init__(self, tape: ExecutionTape, node: "Node",
                 program: NodeProgram,
                 optimized: "OptimizedTape | None" = None) -> None:
        self.tape = tape
        self.optimized = optimized
        self.plan = tape.steps if optimized is None else optimized.plan
        self.node = node
        self.program = program
        self.batch = node.batch
        self._flows: dict[tuple[int, int], deque] = defaultdict(deque)
        # Stacked MVM operands (the tape's) and scratch by member unit
        # positions: a recurrent plan runs the same units once per time
        # step, and one stack serves them all.
        self._stacks: dict[tuple, tuple] = {}
        # (memory view, words) of every constant begin() preloads.
        self._constants: list[tuple[np.ndarray, np.ndarray]] = []
        try:
            for tile_id, entries in program.const_memory.items():
                memory = node.tiles[tile_id].memory._data
                for addr, values in entries:
                    words = np.atleast_1d(np.asarray(values, dtype=np.int64))
                    self._constants.append(
                        (memory[:, addr:addr + words.shape[-1]], words))
            self._zero_runs = [
                node.tiles[tile_id].cores[core_id].registers._data[:, a:b]
                for tile_id, core_id, a, b in _read_before_write_runs(
                    tape, next(iter(node.tiles.values())).cores[0].config)]
            self.ops = [self._bind_op(op) for op in self.plan]
        except (KeyError, IndexError, AttributeError) as error:
            raise TapeValidationError(
                f"tape does not match the node/program: {error}") from error

    def _bind_op(self, op) -> TapeOp:
        """Bind one plan op to the node's live arrays (a closure)."""
        if isinstance(op, TapeStep):
            return self._bind_one(op)
        if isinstance(op, RegMove):
            return self._bind_regmove(op)
        if isinstance(op, FusedBlock):
            return self._bind_fused(op)
        if isinstance(op, MvmGroup):
            return self._bind_group(op.steps)
        raise TapeValidationError(f"unknown plan op {op!r}")

    def _bind_one(self, step: TapeStep) -> TapeOp:
        """Bind one tape step (an MVM binds as a group of one)."""
        tile_id, core_id, instr, eff_addr = step
        tile = self.node.tiles[tile_id]
        mem = tile.memory._data
        op = instr.opcode
        if core_id is None:
            if op == Opcode.SEND:
                return _bind_send(mem, instr, eff_addr,
                                  self._flows[instr.target, instr.fifo_id])
            if op == Opcode.RECEIVE:
                return _bind_receive(mem, instr, eff_addr,
                                     self._flows[tile_id, instr.fifo_id])
            raise TapeValidationError(
                f"unexpected tile-stream opcode {op.name} on tape")
        core = tile.cores[core_id]
        if op == Opcode.MVM:
            return self._bind_group((step,))
        if op == Opcode.ALU:
            return _bind_alu(core, instr)
        if op == Opcode.ALUI:  # the immediate expansion is cached, read-only
            return _bind_alu(core, instr,
                             core._imm_vector(instr.imm, instr.vec_width))
        if op == Opcode.ALU_INT:
            return _bind_alu_int(core, instr)
        if op == Opcode.SET:
            return _bind_set(core, instr)
        if op == Opcode.COPY:
            return _bind_copy(core, instr)
        if op == Opcode.LOAD:
            return _bind_load(core, mem, instr, eff_addr)
        if op == Opcode.STORE:
            return _bind_store(core, mem, instr, eff_addr)
        raise TapeValidationError(
            f"unexpected core-stream opcode {op.name} on tape")

    def _bind_regmove(self, mv: RegMove) -> TapeOp:
        tile = self.node.tiles[mv.tile_id]
        dst = tile.cores[mv.dst_core].registers._data
        src = tile.cores[mv.src_core].registers._data
        d, s, w = mv.dst_reg, mv.src_reg, mv.width
        return _bind_move(dst[:, d:d + w], src[:, s:s + w],
                          overlap=dst is src and s < d + w and d < s + w)

    def _bind_fused(self, block: FusedBlock) -> TapeOp:
        """A fused block is one wide instruction: its members' ranges are
        contiguous, so the first member widened to the block's total
        width goes through the ordinary step binder."""
        steps = block.steps
        total = sum(s.instruction.vec_width for s in steps)
        first = steps[0].instruction
        if block.kind == "set":  # members may carry different immediates
            core = self.node.tiles[block.tile_id].cores[block.core_id]
            out = core.registers._data[:, first.dest:first.dest + total]
            imm_vec = np.concatenate([
                np.full(s.instruction.vec_width, s.instruction.imm,
                        dtype=np.int64) for s in steps])
            imm_vec.setflags(write=False)

            def step() -> None:
                out[...] = imm_vec
            return step
        return self._bind_one(TapeStep(
            block.tile_id, block.core_id, replace(first, vec_width=total),
            steps[0].eff_addr))

    def _bind_group(self, steps: tuple[TapeStep, ...]) -> TapeOp:
        """One closure for k independent MVMs (a lone MVM is k = 1).

        When every active unit is ideal with an exact float64 product
        (:meth:`~repro.arch.mvmu.MVMU._f64_product_is_exact`), one shared
        dimension and one format, the k products run as one stacked
        ``(k, cols, rows) @ (k, rows, batch)`` matmul, lanes minor like
        the registers they come from, and
        :meth:`~repro.arch.mvmu.MVMU.rescale` finishes them in place —
        the method :meth:`~repro.arch.mvmu.MVMU.execute` ends with too,
        and elementwise, so the stacked result is bitwise per-unit
        ``execute``.  Otherwise the members simply execute one by one at
        the group's slot (hoisting is legal either way; only the BLAS
        stacking needs exactness).

        The stack spans only the union box of the members' nonzero rows
        and columns (zero rows add exact zeros to the integer sums, zero
        columns yield exact zeros), and each member's DAC rows of it are
        one gather with its ``filter``/``stride`` shuffle folded in.
        """
        per_step = []
        jobs = []
        units = []
        for s in steps:
            core = self.node.tiles[s.tile_id].cores[s.core_id]
            cfg = core.config
            instr = s.instruction
            per_step.append(_bind_mvm(core, instr))
            for m in range(cfg.num_mvmus):
                if instr.mask & (1 << m):
                    units.append((s.tile_id, s.core_id, m))
                    jobs.append((core.registers._data, cfg.xbar_in_base(m),
                                 cfg.xbar_out_base(m), core.mvmus[m],
                                 instr.filter, instr.stride))
        units = tuple(units)
        shared = self._shared_stack(units, [job[3] for job in jobs])
        if shared is None:
            def step() -> None:
                for fn in per_step:
                    fn()
            return step
        rescale = jobs[0][3].rescale
        dim = jobs[0][3].dim
        k = len(jobs)
        # y = x @ M per lane is M^T @ x^T over all lanes at once.
        stacked = self._stacks.get(units)
        if stacked is None:
            # Scratch sized once for the node's batch, shared by every op
            # over these units (ops run one at a time).  Products are only
            # written inside the box: the columns outside it stay 0.
            stack, (r0, r1), cols = shared
            stacked = self._stacks[units] = (
                stack, (r0, r1), cols,
                np.empty((k, r1 - r0, self.batch), dtype=np.float64),
                np.zeros((k, dim, self.batch), dtype=np.float64))
        matrices, (r0, r1), (c0, c1), xs_all, ys_all = stacked
        gathers = []
        for regs, in_base, _out, _m, filt, stride in jobs:
            dac = MVMU.shuffle_inputs(np.arange(dim), filt, stride)[r0:r1]
            if np.array_equal(dac, np.arange(r0, r1)):
                gathers.append((regs, slice(in_base + r0, in_base + r1)))
            else:
                gathers.append((regs, dac + in_base))

        def step() -> None:
            for idx, (regs, src) in enumerate(gathers):
                xs_all[idx] = regs[:, src].T
            ys = ys_all[:, c0:c1]
            np.matmul(matrices, xs_all, out=ys)
            rescale(ys)
            # Slice assignment casts f64 -> int64 per destination; the
            # values are exact integers after the clamp, so the cast equals
            # astype(np.int64) without materializing the full array.
            for idx, (regs, _in, out_base, _m, _f, _s) in enumerate(jobs):
                regs[:, out_base:out_base + dim] = ys_all[idx].T
        return step

    def _shared_stack(self, units: tuple, mvmus: list) -> tuple | None:
        """The ``_box_stack`` of the units at positions ``units``, or
        ``None`` when they cannot stack; computed once per tape, and
        reused while the units hold the very matrices it was built from."""
        programmed = tuple(mvmu._matrix for mvmu in mvmus)
        cached = self.tape.bind_cache.get(units)
        if cached is None or any(
                a is not b for a, b in zip(cached[0], programmed)):
            first = mvmus[0]
            stackable = all(
                mvmu.model.is_ideal and mvmu._f64_product_is_exact()
                and mvmu.dim == first.dim and mvmu.fmt == first.fmt
                for mvmu in mvmus)
            cached = self.tape.bind_cache[units] = (programmed, _box_stack(
                [mvmu.matrix for mvmu in mvmus]) if stackable else None)
        return cached[1]

    # -- data movement (mirrors Simulator.write_input / read_output) -------

    def begin(self) -> None:
        """Per-run initialisation: zeroed registers, re-preloaded constant
        memory (what a fresh node would hold) and empty NoC flows."""
        for registers in self._zero_runs:
            registers[...] = 0
        for memory, words in self._constants:
            memory[...] = words
        for flow in self._flows.values():
            flow.clear()

    def write_input(self, name: str, values: np.ndarray) -> None:
        """Preload one named model input (already fixed-point integers):
        one vector for every lane, or a matrix with one row each."""
        if name not in self.program.input_layout:
            raise KeyError(f"program has no input named {name!r}")
        tile_id, addr, length = self.program.input_layout[name]
        arr = np.atleast_1d(np.asarray(values, dtype=np.int64))
        if arr.ndim > 2 or arr.shape[-1] != length:
            raise ValueError(
                f"input {name!r} expects {length} words per lane, "
                f"got shape {arr.shape}")
        # A matrix whose row count is not the batch's fails here.
        self.node.tiles[tile_id].memory._data[:, addr:addr + length] = arr

    def read_output(self, name: str) -> np.ndarray:
        """One named model output, ``(batch, length)``."""
        tile_id, addr, length = self.program.output_layout[name]
        return self.node.tiles[tile_id].memory._data[
            :, addr:addr + length].copy()

    # -- execution ---------------------------------------------------------

    def run(self, inputs: dict[str, np.ndarray] | None = None
            ) -> dict[str, np.ndarray]:
        """Replay the tape on every lane; returns the model outputs by
        name (1-D when the node's batch is 1).

        Bitwise identical to
        :meth:`repro.sim.simulator.Simulator.run` on the same node
        configuration, inputs, and batch.
        """
        self.begin()
        for name, values in (inputs or {}).items():
            self.write_input(name, values)
        for step in self.ops:
            step()
        outputs = {name: self.read_output(name)
                   for name in self.program.output_layout}
        if self.batch == 1:
            outputs = {name: words[0] for name, words in outputs.items()}
        return outputs


def _read_before_write_runs(tape, core_cfg) -> list[tuple[int, ...]]:
    """``(tile, core, start, stop)`` register runs to zero before each run.

    Unlike shared memory, whose valid/count protocol guarantees
    def-before-use, register reads are ungated: a schedule reading a
    register before its first write saw a fresh node's zeros in the
    interpreter, and must again on every replay (not a previous run's
    leftovers).  One walk over the *source* steps finds exactly the
    registers some step may read before their first definite write (a
    ``may_write`` does not count as covering — the read could still see
    zeros).  Every plan of the tape needs no more: a ``RegMove`` reads
    the registers its store read, and the store's own read already
    marked them.  Walked once per tape: the runs are batch-independent.
    """
    if "zero_runs" in tape.bind_cache:
        return tape.bind_cache["zero_runs"]
    needed: dict[tuple[int, int], np.ndarray] = {}
    written: dict[tuple[int, int], np.ndarray] = {}
    num_regs = core_cfg.num_registers
    for step in tape.steps:
        if step.core_id is None:
            continue
        key = (step.tile_id, step.core_id)
        if key not in needed:
            needed[key] = np.zeros(num_regs, dtype=bool)
            written[key] = np.zeros(num_regs, dtype=bool)
        eff = core_effects(step.instruction, core_cfg)
        for start, width in eff.all_reads():
            mask = needed[key][start:start + width]
            np.logical_or(mask, ~written[key][start:start + width], out=mask)
        for start, width in eff.writes:
            written[key][start:start + width] = True
    runs = []
    for (tile_id, core_id), mask in needed.items():
        padded = np.concatenate(([False], mask, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        runs += [(tile_id, core_id, int(a), int(b))
                 for a, b in zip(edges[::2], edges[1::2])]
    tape.bind_cache["zero_runs"] = runs
    return runs


def _box_stack(matrices) -> tuple:
    """``(stack, rows, cols)``: each matrix's part in the half-open
    ``rows`` x ``cols`` union box of their nonzeros, transposed, stacked."""
    nonzero = np.logical_or.reduce([m != 0 for m in matrices])
    (r0, r1), (c0, c1) = [
        (int(hits[0]), int(hits[-1]) + 1) if hits.size else (0, 0)
        for hits in (np.flatnonzero(nonzero.any(axis=a)) for a in (1, 0))]
    return (np.stack([m[r0:r1, c0:c1].T.astype(np.float64)
                      for m in matrices]), (r0, r1), (c0, c1))
