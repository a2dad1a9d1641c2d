"""Tape optimizer: turn a recorded schedule into a fused execution plan.

A recorded :class:`~repro.sim.tape.ExecutionTape` is a straight-line
program: control flow is already resolved, effective addresses are folded
in, and the global completion order is fixed.  That makes it a textbook
JIT target — the classical redundancy-removal passes apply with *dynamic*
precision because every "instruction" is one concrete executed instance,
not a static site that might run under many conditions.

The pipeline (:func:`optimize_tape`) runs four passes:

1. **Store-to-load forwarding + dead-store elimination.**  Shared memory
   on the replay fast path is just a staging buffer between register
   files (the valid/count protocol that gave it meaning in the
   event-driven simulator is compiled away).  A load whose entire range
   was written by one earlier store — with the store's source registers
   provably unmodified in between — becomes a register-to-register
   :class:`RegMove`; a store whose words are never observed (no
   surviving load, no ``send``, not an output region, not persistent)
   is dropped.
2. **Dead register writes.**  Pure steps whose writes no later replayed
   step reads are dropped — chiefly scalar loop and address code, read
   only by branches and indirect addresses the tape has resolved.
3. **Fusion of adjacent same-shape ops.**  Runs of ``copy``/``set``/
   ``alu``/``alui``/``load``/``store`` steps on one core with contiguous
   register (and memory) ranges collapse into a single wide numpy
   operation (:class:`FusedBlock`) — one closure call and one BLAS-level
   slice assignment instead of N.
4. **MVM batching.**  Independent MVM steps from *different* cores whose
   operands are untouched between them are grouped
   (:class:`MvmGroup`) and — when every unit takes the bit-exact ideal
   float64 path — executed as one stacked BLAS call instead of k
   separate products, over only the rows and columns the members'
   crossbars have programmed.

Soundness is layered, mirroring the trust-but-verify pattern of the
PR 6 analysis substrate: the engine only optimizes a tape that passed
:meth:`~repro.analysis.depgraph.StaticDependenceGraph.validate_tape`;
every transformation checks its own legality against exact
per-instance effects (:func:`repro.analysis.dataflow.core_effects`); a
structural self-check proves the plan covers exactly the source steps;
and the engine checks the plan once, when the tape is recorded (bitwise
outputs vs. the recording interpreter run), keeping the plain tape —
counted — on any mismatch.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.dataflow import core_effects
from repro.isa.opcodes import AluOp, Opcode
from repro.sim.tape import (ExecutionTape, FusedBlock, MvmGroup, RegMove,
                            TapeStep)
from repro.tile.attribute_buffer import PERSISTENT_COUNT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.depgraph import StaticDependenceGraph

# Sentinels for shared-memory writer attribution (pass 1): words whose
# last writer is not a tape store cannot be forwarded or eliminated.
_PRELOADED = -1   # constants / model inputs (re-preloaded every run)
_RECEIVED = -2    # written by a tile-stream receive

# How many plan slots past a group's anchor each fusion scan may look.
# Bounds the O(window * steps) cost; fused runs in real compiled programs
# are short (unrolled vector tiles), so a small window loses nothing.
_FUSE_WINDOW = 64
_MVM_WINDOW = 64


class TapeOptimizationError(RuntimeError):
    """The plan failed its structural self-check.

    Never user-facing: raised while the engine records a tape, which
    then counts the refusal and serves the tape by plain (still fast)
    replay.
    """


@dataclass(frozen=True)
class OptimizationReport:
    """What the pipeline did to one tape (for introspection and manifests)."""

    source_steps: int
    plan_ops: int
    stores_eliminated: int
    loads_forwarded: int
    writes_eliminated: int
    fused_blocks: int
    fused_steps: int
    mvm_groups: int
    mvms_batched: int

    @property
    def changed(self) -> bool:
        """Whether any pass transformed anything at all."""
        return (self.stores_eliminated + self.loads_forwarded
                + self.writes_eliminated + self.fused_blocks
                + self.mvm_groups) > 0

    def as_dict(self) -> dict[str, int]:
        return {
            "source_steps": self.source_steps,
            "plan_ops": self.plan_ops,
            "stores_eliminated": self.stores_eliminated,
            "loads_forwarded": self.loads_forwarded,
            "writes_eliminated": self.writes_eliminated,
            "fused_blocks": self.fused_blocks,
            "fused_steps": self.fused_steps,
            "mvm_groups": self.mvm_groups,
            "mvms_batched": self.mvms_batched,
        }


@dataclass
class OptimizedTape:
    """An optimized execution plan derived from (and cached on) a tape.

    Lives in ``ExecutionTape.optimized`` once it has passed its recording
    check, so every engine replica holding the tape — including fleet
    replicas sharing one ``CompiledModel``, and processes loading it from
    an artifact — binds the same checked plan at any batch size.

    Attributes:
        plan: sequence of :class:`~repro.sim.tape.TapeStep` (passthrough),
            :class:`RegMove`, :class:`FusedBlock`, and :class:`MvmGroup`.
        report: what the passes did.
    """

    plan: tuple[object, ...]
    report: OptimizationReport

    def digest(self) -> str:
        """Deterministic digest of the plan (persisted in manifests)."""
        h = hashlib.sha256()
        h.update(repr(self.report.as_dict()).encode())
        for op in self.plan:
            h.update(repr(op).encode())
            h.update(b"\x00")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Per-op metadata shared by the passes
# ---------------------------------------------------------------------------


def _core_keys(op) -> tuple[tuple[int, int], ...]:
    """Register files a plan op touches, as ``(tile_id, core_id)`` keys."""
    if isinstance(op, TapeStep):
        if op.core_id is None:
            return ()
        return ((op.tile_id, op.core_id),)
    if isinstance(op, RegMove):
        if op.src_core == op.dst_core:
            return ((op.tile_id, op.dst_core),)
        return ((op.tile_id, op.src_core), (op.tile_id, op.dst_core))
    if isinstance(op, FusedBlock):
        return ((op.tile_id, op.core_id),)
    if isinstance(op, MvmGroup):
        keys = []
        for step in op.steps:
            keys.extend(_core_keys(step))
        return tuple(keys)
    raise TypeError(f"unknown plan op {op!r}")


def _reg_reads(op, core_cfg) -> list[tuple[tuple[int, int], int, int]]:
    """Register intervals a plan op reads: ``((tile, core), start, width)``."""
    out = []
    if isinstance(op, TapeStep):
        if op.core_id is not None:
            eff = core_effects(op.instruction, core_cfg)
            key = (op.tile_id, op.core_id)
            out.extend((key, s, w) for s, w in eff.all_reads())
    elif isinstance(op, RegMove):
        out.append(((op.tile_id, op.src_core), op.src_reg, op.width))
    elif isinstance(op, (FusedBlock, MvmGroup)):
        for step in op.steps:
            out.extend(_reg_reads(step, core_cfg))
    return out


def _reg_writes(op, core_cfg) -> list[tuple[tuple[int, int], int, int]]:
    """Register intervals a plan op writes."""
    out = []
    if isinstance(op, TapeStep):
        if op.core_id is not None:
            eff = core_effects(op.instruction, core_cfg)
            key = (op.tile_id, op.core_id)
            out.extend((key, s, w) for s, w in eff.all_writes())
    elif isinstance(op, RegMove):
        out.append(((op.tile_id, op.dst_core), op.dst_reg, op.width))
    elif isinstance(op, (FusedBlock, MvmGroup)):
        for step in op.steps:
            out.extend(_reg_writes(step, core_cfg))
    return out


def _mem_effects(op) -> list[tuple[int, str, int, int]]:
    """Shared-memory ranges a plan op touches: ``(tile, 'r'|'w', addr, w)``.

    ``send`` reads its range, ``receive`` writes it; core loads read and
    stores write at their resolved effective address.  RegMoves (forwarded
    loads) touch no memory — that is the point of forwarding them.
    """
    out = []
    if isinstance(op, TapeStep):
        instr = op.instruction
        opcode = instr.opcode
        if opcode in (Opcode.LOAD, Opcode.SEND):
            out.append((op.tile_id, "r", op.eff_addr, instr.vec_width))
        elif opcode in (Opcode.STORE, Opcode.RECEIVE):
            out.append((op.tile_id, "w", op.eff_addr, instr.vec_width))
    elif isinstance(op, (FusedBlock, MvmGroup)):
        for step in op.steps:
            out.extend(_mem_effects(step))
    return out


def _intersects(a_start: int, a_width: int, b_start: int, b_width: int) -> bool:
    return a_start < b_start + b_width and b_start < a_start + a_width


# ---------------------------------------------------------------------------
# Pass 1: store-to-load forwarding + dead-store elimination
# ---------------------------------------------------------------------------


def _forward_and_eliminate(steps, graph: "StaticDependenceGraph"):
    """One forward walk attributing every memory word to its last writer.

    For each shared-memory word we track the index of the tape store that
    last wrote it (or a sentinel for preloads/receives).  For each core we
    track a per-register version counter, bumped on every write, so a
    store can snapshot the versions of its source registers and a load
    can check they are untouched — the forwarding precondition.

    Returns ``(plan, eliminated_ids, forwarded_ids, n_eliminated,
    n_forwarded)`` where the id sets hold ``id(step)`` of replaced steps
    (for the structural self-check).
    """
    config = graph.config
    program = graph.program
    core_cfg = config.tile.core
    words = config.tile.shared_memory_words
    num_regs = core_cfg.num_registers

    writer = {t: np.full(words, _PRELOADED, dtype=np.int64)
              for t in program.tiles}
    versions: dict[tuple[int, int], np.ndarray] = {}

    def _versions(key):
        arr = versions.get(key)
        if arr is None:
            arr = np.zeros(num_regs, dtype=np.int64)
            versions[key] = arr
        return arr

    # Output regions are observed by the host after every run — stores
    # into them are live by definition.
    output_words = {t: np.zeros(words, dtype=bool) for t in program.tiles}
    for tile_id, addr, length in program.output_layout.values():
        output_words[tile_id][addr:addr + length] = True

    # Per store index: the step, its source-register snapshot, and
    # whether anything observed it.
    store_info: dict[int, dict] = {}
    # index of source step -> RegMove replacing it (decided at the end,
    # only for loads whose store actually gets eliminated).
    forward_candidates: dict[int, RegMove] = {}

    version_clock = 0
    for idx, step in enumerate(steps):
        instr = step.instruction
        opcode = instr.opcode
        w = instr.vec_width

        if step.core_id is None:
            if opcode == Opcode.RECEIVE:
                writer[step.tile_id][step.eff_addr:step.eff_addr + w] = \
                    _RECEIVED
            elif opcode == Opcode.SEND:
                # The words leave the tile: every contributing store is
                # observed.
                for sidx in np.unique(
                        writer[step.tile_id][step.eff_addr:step.eff_addr + w]):
                    if sidx >= 0:
                        store_info[int(sidx)]["needed"] = True
            continue

        key = (step.tile_id, step.core_id)

        if opcode == Opcode.STORE:
            src1 = instr.src1
            vers = _versions(key)
            store_info[idx] = {
                "step": step,
                "key": key,
                "src1": src1,
                "width": w,
                "snapshot": vers[src1:src1 + w].copy(),
                # Persistent stores stay valid across the valid/count
                # protocol (weights-adjacent data); output words are read
                # by the host after the run.
                "needed": (instr.count == PERSISTENT_COUNT
                           or bool(output_words[step.tile_id]
                                   [step.eff_addr:step.eff_addr + w].any())),
            }
            writer[step.tile_id][step.eff_addr:step.eff_addr + w] = idx
            continue

        if opcode == Opcode.LOAD:
            owners = writer[step.tile_id][step.eff_addr:step.eff_addr + w]
            unique = np.unique(owners)
            forwarded = False
            if unique.size == 1 and unique[0] >= 0:
                info = store_info[int(unique[0])]
                offset = step.eff_addr - info["step"].eff_addr
                if 0 <= offset and offset + w <= info["width"]:
                    src_vers = _versions(info["key"])
                    src_start = info["src1"] + offset
                    if np.array_equal(
                            src_vers[src_start:src_start + w],
                            info["snapshot"][offset:offset + w]):
                        forward_candidates[idx] = RegMove(
                            tile_id=step.tile_id,
                            dst_core=step.core_id,
                            dst_reg=instr.dest,
                            src_core=info["key"][1],
                            src_reg=src_start,
                            width=w)
                        forwarded = True
            if not forwarded:
                for sidx in np.unique(owners):
                    if sidx >= 0:
                        store_info[int(sidx)]["needed"] = True
            # Fall through: the load's register write still bumps versions.

        eff = core_effects(instr, core_cfg)
        all_writes = eff.all_writes()
        if all_writes:
            vers = _versions(key)
            version_clock += 1
            for start, width in all_writes:
                vers[start:start + width] = version_clock

    eliminated = {idx for idx, info in store_info.items()
                  if not info["needed"]}
    plan: list[object] = []
    eliminated_ids: set[int] = set()
    forwarded_ids: set[int] = set()
    for idx, step in enumerate(steps):
        if idx in eliminated:
            eliminated_ids.add(id(step))
            continue
        move = forward_candidates.get(idx)
        if move is not None:
            plan.append(move)
            forwarded_ids.add(id(step))
        else:
            plan.append(step)
    return (plan, eliminated_ids, forwarded_ids,
            len(eliminated), len(forwarded_ids))


# ---------------------------------------------------------------------------
# Pass 2: dead register writes
# ---------------------------------------------------------------------------

# Steps whose only effect is a register write.
_PURE_OPCODES = frozenset({Opcode.ALU, Opcode.ALUI, Opcode.ALU_INT,
                           Opcode.SET, Opcode.COPY, Opcode.LOAD})


def _bits(start: int, width: int) -> int:
    return ((1 << width) - 1) << start


def _drop_dead_writes(plan, core_cfg):
    """Drop pure ops whose register writes no later replayed op reads.

    Returns ``(plan, dead)``.  One backward liveness walk over *replay*
    reads: a load's or store's address register is not one (the tape
    folded its effective address in), an MVM's XbarIn ``may_reads`` are,
    and a ``may_write`` never ends a live range.  Registers are not
    observed after a run, so nothing is live at the end of the plan.
    """
    live: dict[tuple[int, int], int] = defaultdict(int)
    kept: list[object] = []
    dead: list[object] = []
    for op in reversed(plan):
        if isinstance(op, RegMove):
            pure, reads = True, _reg_reads(op, core_cfg)
            writes = kills = _reg_writes(op, core_cfg)
        elif op.core_id is None:  # tile send / receive: memory only
            kept.append(op)
            continue
        else:
            instr = op.instruction
            key = (op.tile_id, op.core_id)
            eff = core_effects(instr, core_cfg)
            pure = instr.opcode in _PURE_OPCODES
            reads = eff.all_reads()
            if instr.opcode in (Opcode.LOAD, Opcode.STORE) \
                    and instr.reg_indirect:
                reads = reads[:-1]  # the address register comes last
            reads = [(key, s, w) for s, w in reads]
            writes = [(key, s, w) for s, w in eff.all_writes()]
            kills = [(key, s, w) for s, w in eff.writes]
        if pure and not any(live[k] & _bits(s, w) for k, s, w in writes):
            dead.append(op)
            continue
        kept.append(op)
        for k, s, w in kills:
            live[k] &= ~_bits(s, w)
        for k, s, w in reads:
            live[k] |= _bits(s, w)
    kept.reverse()
    return kept, dead


# ---------------------------------------------------------------------------
# Pass 3: fusion of adjacent same-kind ops on one core
# ---------------------------------------------------------------------------

# ALU ops excluded from fusion: SUBSAMPLE changes shape, RANDOM draws
# entropy (never on a tape anyway, but keep the gate local and explicit).
_UNFUSABLE_ALU = frozenset({AluOp.SUBSAMPLE, AluOp.RANDOM})


def _fusable_kind(op) -> str | None:
    """The fusion class of a plan op, or ``None`` if it cannot fuse."""
    if not isinstance(op, TapeStep) or op.core_id is None:
        return None
    opcode = op.instruction.opcode
    if opcode == Opcode.COPY:
        return "copy"
    if opcode == Opcode.SET:
        return "set"
    if opcode == Opcode.ALU:
        return None if op.instruction.alu_op in _UNFUSABLE_ALU else "alu"
    if opcode == Opcode.ALUI:
        return None if op.instruction.alu_op in _UNFUSABLE_ALU else "alui"
    if opcode == Opcode.LOAD:
        return "load"
    if opcode == Opcode.STORE:
        return "store"
    return None


def _extends(last: TapeStep, nxt: TapeStep, kind: str) -> bool:
    """Whether ``nxt`` contiguously extends ``last`` for ``kind``."""
    li, ni = last.instruction, nxt.instruction
    lw = li.vec_width
    if ni.dest != li.dest + lw and kind != "store":
        return False
    if kind == "copy":
        return ni.src1 == li.src1 + lw
    if kind == "set":
        return True
    if kind == "alu":
        if ni.alu_op != li.alu_op or ni.src1 != li.src1 + lw:
            return False
        if li.alu_op.num_sources == 2 and ni.src2 != li.src2 + lw:
            return False
        return True
    if kind == "alui":
        return (ni.alu_op == li.alu_op and ni.imm == li.imm
                and ni.src1 == li.src1 + lw)
    if kind == "load":
        return nxt.eff_addr == last.eff_addr + lw
    if kind == "store":
        return (ni.src1 == li.src1 + lw
                and nxt.eff_addr == last.eff_addr + lw)
    raise AssertionError(kind)


def _fuse_adjacent(plan, core_cfg):
    """Collapse contiguous same-kind runs on one core into FusedBlocks.

    Members need not be strictly adjacent in the *global* plan — other
    cores' steps interleave freely.  Joining a member hoists it to the
    group anchor, which is legal iff (a) no op between anchor and member
    touches the member's core (guaranteed: any same-core op either joins
    or breaks the scan), (b) the member's register reads do not overlap
    the group's register writes (read-all-then-write-all equivalence),
    and (c) for memory kinds, no intervening op's memory access conflicts
    with the member's range on the same tile.
    """
    out: list[object] = []
    consumed = [False] * len(plan)
    fused_blocks = 0
    fused_steps = 0
    n = len(plan)
    for i, op in enumerate(plan):
        if consumed[i]:
            continue
        kind = _fusable_kind(op)
        if kind is None:
            out.append(op)
            continue
        key = (op.tile_id, op.core_id)
        group = [op]
        written = [(s, w) for _k, s, w in _reg_writes(op, core_cfg)]
        inter_reads: list[tuple[int, int, int]] = []
        inter_writes: list[tuple[int, int, int]] = []
        last = op
        scanned = 0
        j = i + 1
        while j < n and scanned <= _FUSE_WINDOW:
            nxt = plan[j]
            if consumed[j]:
                j += 1
                continue
            if key in _core_keys(nxt):
                if (_fusable_kind(nxt) == kind
                        and _extends(last, nxt, kind)
                        and _joinable(nxt, kind, key, written,
                                      inter_reads, inter_writes, core_cfg)):
                    group.append(nxt)
                    consumed[j] = True
                    written.extend(
                        (s, w) for _k, s, w in _reg_writes(nxt, core_cfg))
                    last = nxt
                    j += 1
                    continue
                break  # same-core op that can't join: order must hold
            for tile, rw, addr, w in _mem_effects(nxt):
                target = inter_reads if rw == "r" else inter_writes
                target.append((tile, addr, w))
            scanned += 1
            j += 1
        if len(group) > 1:
            out.append(FusedBlock(kind=kind, tile_id=op.tile_id,
                                  core_id=op.core_id, steps=tuple(group)))
            fused_blocks += 1
            fused_steps += len(group)
        else:
            out.append(op)
    return out, fused_blocks, fused_steps


def _joinable(nxt: TapeStep, kind: str, key, written,
              inter_reads, inter_writes, core_cfg) -> bool:
    """Hazard checks for hoisting ``nxt`` into a group at the anchor."""
    # (b) member's reads vs. the group's earlier writes.
    for rkey, start, width in _reg_reads(nxt, core_cfg):
        if rkey != key:
            continue
        for wstart, wwidth in written:
            if _intersects(start, width, wstart, wwidth):
                return False
    # (c) memory hazards against intervening non-member ops.
    if kind == "load":
        a, w = nxt.eff_addr, nxt.instruction.vec_width
        for tile, addr, width in inter_writes:
            if tile == nxt.tile_id and _intersects(a, w, addr, width):
                return False
    elif kind == "store":
        a, w = nxt.eff_addr, nxt.instruction.vec_width
        for tile, addr, width in inter_writes + inter_reads:
            if tile == nxt.tile_id and _intersects(a, w, addr, width):
                return False
    return True


# ---------------------------------------------------------------------------
# Pass 4: batching independent MVMs
# ---------------------------------------------------------------------------


def _is_mvm(op) -> bool:
    return (isinstance(op, TapeStep) and op.core_id is not None
            and op.instruction.opcode == Opcode.MVM)


def _batch_mvms(plan):
    """Group MVMs from disjoint cores whose operands are untouched.

    A member hoists to the group anchor; legality is a dirty-core scan:
    the member's core must not have been touched by the anchor, by any
    earlier member, or by any skipped op between the anchor and the
    member (MVMs only touch their own core's registers, and RegMoves
    count for both of their cores).
    """
    out: list[object] = []
    consumed = [False] * len(plan)
    groups = 0
    batched = 0
    n = len(plan)
    for i, op in enumerate(plan):
        if consumed[i]:
            continue
        if not _is_mvm(op):
            out.append(op)
            continue
        group = [op]
        dirty = set(_core_keys(op))
        scanned = 0
        j = i + 1
        while j < n and scanned <= _MVM_WINDOW:
            nxt = plan[j]
            if consumed[j]:
                j += 1
                continue
            if _is_mvm(nxt) and not (set(_core_keys(nxt)) & dirty):
                group.append(nxt)
                consumed[j] = True
                dirty.update(_core_keys(nxt))
                j += 1
                continue
            dirty.update(_core_keys(nxt))
            scanned += 1
            j += 1
        if len(group) > 1:
            out.append(MvmGroup(steps=tuple(group)))
            groups += 1
            batched += len(group)
        else:
            out.append(op)
    return out, groups, batched


# ---------------------------------------------------------------------------
# Pipeline driver
# ---------------------------------------------------------------------------


def _check_plan(steps, plan, eliminated_ids, forwarded_ids, dead) -> None:
    """Structural self-check: the plan covers exactly the source steps.

    Every source step must appear exactly once — as a passthrough step,
    inside a fused block or MVM group, or accounted for as an eliminated
    store, a forwarded load or a dead write; every forwarded load's
    ``RegMove`` is in the plan or among the dead writes.  Counting is by
    object identity: TapeStep instances are unique per recorded slot.
    """
    covered: Counter = Counter()
    regmoves = 0
    for op in plan:
        if isinstance(op, TapeStep):
            covered[id(op)] += 1
        elif isinstance(op, (FusedBlock, MvmGroup)):
            for step in op.steps:
                covered[id(step)] += 1
        elif isinstance(op, RegMove):
            regmoves += 1
        else:
            raise TapeOptimizationError(f"unknown plan op {op!r}")
    dead_ids = {id(op) for op in dead if isinstance(op, TapeStep)}
    dead_moves = len(dead) - len(dead_ids)
    removed = eliminated_ids | forwarded_ids | dead_ids
    expected = Counter(id(step) for step in steps if id(step) not in removed)
    if covered != expected or regmoves + dead_moves != len(forwarded_ids):
        raise TapeOptimizationError(
            "optimized plan does not cover the source tape "
            f"({sum(covered.values())} covered + {len(eliminated_ids)} "
            f"eliminated + {regmoves} forwarded + {len(dead)} dead "
            f"vs {len(steps)} steps)")


def optimize_tape(tape: ExecutionTape,
                  graph: "StaticDependenceGraph") -> OptimizedTape:
    """Run the full pass pipeline over a recorded tape.

    Args:
        tape: the recorded schedule (batch-generic), already accepted by
            ``graph.validate_tape`` — the engine validates every tape it
            records before optimizing it.
        graph: the program's PR 6 dependence graph — supplies the config
            for exact per-instance effects.

    Raises:
        TapeOptimizationError: the structural self-check rejected the
            plan (the engine counts this and replays the plain tape).
    """
    core_cfg = graph.config.tile.core
    (plan, eliminated_ids, forwarded_ids,
     n_eliminated, n_forwarded) = _forward_and_eliminate(tape.steps, graph)
    plan, dead = _drop_dead_writes(plan, core_cfg)
    plan, fused_blocks, fused_steps = _fuse_adjacent(plan, core_cfg)
    plan, mvm_groups, mvms_batched = _batch_mvms(plan)
    _check_plan(tape.steps, plan, eliminated_ids, forwarded_ids, dead)
    report = OptimizationReport(
        source_steps=len(tape.steps),
        plan_ops=len(plan),
        stores_eliminated=n_eliminated,
        loads_forwarded=n_forwarded,
        writes_eliminated=len(dead),
        fused_blocks=fused_blocks,
        fused_steps=fused_steps,
        mvm_groups=mvm_groups,
        mvms_batched=mvms_batched)
    return OptimizedTape(plan=tuple(plan), report=report)
