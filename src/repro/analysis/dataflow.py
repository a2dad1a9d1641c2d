"""Register-level dataflow over compiled instruction streams.

The model is word-precise: every instruction is summarized as interval
reads/writes over the flat per-core register space (or the tile control
unit's 64 scalar registers), split into *definite* and *may* effects:

* ``RANDOM`` reads nothing — the VFU only uses the operand's shape, and
  the backend deliberately emits ``alu random, d, d`` over an unwritten
  destination.
* ``MVM`` may-read the full XbarIn vector of each active MVMU: staging
  often writes fewer words than ``mvmu_dim`` and the zero-padded weight
  rows make the tail harmless, so those reads consume definitions but
  never count as use-before-def.
* ``SUBSAMPLE`` writes a runtime-dependent prefix of the destination, so
  its write is a may-write: it defines words for use-before-def purposes
  but is not tracked as a clobberable definition.

For straight-line streams (everything the backend emits except CNN
loops) :func:`scan_straight_line` runs an exact forward scan producing
use-before-def, dead-store, and clobber-before-consume facts.  For loopy
streams :func:`may_defined_in` runs a union ("maybe defined") forward
fixpoint over the CFG; a definite read of a word no path defines is a
certain bug, which keeps the loop analysis free of false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.analysis.cfg import ControlFlowGraph
from repro.arch.config import CoreConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import AluOp, Opcode

TILE_SCALAR_REGISTERS = 64

Interval = tuple[int, int]  # (start register, width in words)


class Effects(NamedTuple):
    """Register intervals one instruction reads and writes."""

    reads: tuple[Interval, ...] = ()
    may_reads: tuple[Interval, ...] = ()
    writes: tuple[Interval, ...] = ()
    may_writes: tuple[Interval, ...] = ()

    def all_reads(self) -> tuple[Interval, ...]:
        return self.reads + self.may_reads

    def all_writes(self) -> tuple[Interval, ...]:
        return self.writes + self.may_writes


def _mvmu_indices(mask: int, num_mvmus: int) -> list[int]:
    return [m for m in range(num_mvmus) if mask & (1 << m)]


def core_effects(instr: Instruction, config: CoreConfig) -> Effects:
    """Effects of one core-stream instruction on the core register file."""
    op = instr.opcode
    w = instr.vec_width
    if op == Opcode.MVM:
        dim = config.mvmu_dim
        mvmus = _mvmu_indices(instr.mask, config.num_mvmus)
        return Effects(
            may_reads=tuple((config.xbar_in_base(m), dim) for m in mvmus),
            writes=tuple((config.xbar_out_base(m), dim) for m in mvmus),
        )
    if op == Opcode.ALU:
        aop = instr.alu_op
        if aop == AluOp.RANDOM:
            return Effects(writes=((instr.dest, w),))
        if aop == AluOp.SUBSAMPLE:
            return Effects(reads=((instr.src1, w), (instr.src2, 1)),
                           may_writes=((instr.dest, w),))
        if aop.num_sources == 1:
            return Effects(reads=((instr.src1, w),),
                           writes=((instr.dest, w),))
        return Effects(reads=((instr.src1, w), (instr.src2, w)),
                       writes=((instr.dest, w),))
    if op == Opcode.ALUI:
        return Effects(reads=((instr.src1, w),), writes=((instr.dest, w),))
    if op == Opcode.ALU_INT:
        reads = [(instr.src1, 1)]
        if not instr.imm_mode:
            reads.append((instr.src2, 1))
        return Effects(reads=tuple(reads), writes=((instr.dest, 1),))
    if op == Opcode.SET:
        return Effects(writes=((instr.dest, w),))
    if op == Opcode.COPY:
        return Effects(reads=((instr.src1, w),), writes=((instr.dest, w),))
    if op == Opcode.LOAD:
        reads = ((instr.addr_reg, 1),) if instr.reg_indirect else ()
        return Effects(reads=reads, writes=((instr.dest, w),))
    if op == Opcode.STORE:
        reads = [(instr.src1, w)]
        if instr.reg_indirect:
            reads.append((instr.addr_reg, 1))
        return Effects(reads=tuple(reads))
    if op == Opcode.BRN:
        return Effects(reads=((instr.src1, 1), (instr.src2, 1)))
    # JMP / HLT (SEND/RECEIVE never appear in core streams).
    return Effects()


def tile_effects(instr: Instruction) -> Effects:
    """Effects of one tile-stream instruction on the 64 scalar registers.

    The control unit indexes its register file mod 64; indices are
    normalized here so interval bookkeeping stays in range.
    """
    op = instr.opcode

    def reg(i: int) -> Interval:
        return (i % TILE_SCALAR_REGISTERS, 1)

    if op == Opcode.SET:
        return Effects(writes=(reg(instr.dest),))
    if op == Opcode.ALU_INT:
        reads = [reg(instr.src1)]
        if not instr.imm_mode:
            reads.append(reg(instr.src2))
        return Effects(reads=tuple(reads), writes=(reg(instr.dest),))
    if op == Opcode.BRN:
        return Effects(reads=(reg(instr.src1), reg(instr.src2)))
    # SEND / RECEIVE / JMP / HLT touch shared memory or control flow only.
    return Effects()


@dataclass(eq=False)
class Definition:
    """One definite register write and what became of its words.

    ``live_mask`` has bit *w* set while register word *w* still holds this
    definition's value (no later definite write has replaced it).
    Definitions compare by identity: the scan keeps them in sets.
    """

    pc: int
    start: int
    width: int
    live_mask: int
    reads: int = 0

    @property
    def live_words(self) -> set[int]:
        return set(_bits(self.live_mask))


@dataclass
class StraightLineFacts:
    """Findings of the exact forward scan over a straight-line stream."""

    # (pc, register) — definite read of a never-written word.
    use_before_def: list[tuple[int, int]] = field(default_factory=list)
    # Definitions never read and still (at least partly) live at stream end.
    dead_stores: list[Definition] = field(default_factory=list)
    # (overwriting pc, clobbered definition) — all words overwritten with
    # zero reads in between.
    clobbers: list[tuple[int, Definition]] = field(default_factory=list)
    # Every definite definition, in program order (def-use chain substrate).
    definitions: list[Definition] = field(default_factory=list)


def _bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _clip(interval: Interval, num_registers: int) -> tuple[int, int, int]:
    """``(lo, hi, bitmask)`` of an interval clipped to the register space."""
    lo, width = interval
    hi = lo + width
    if hi > num_registers:
        lo, hi = min(lo, num_registers), num_registers
    return lo, hi, ((1 << (hi - lo)) - 1) << lo


def _writes_mask(effects: Effects, num_registers: int) -> int:
    mask = 0
    for interval in effects.all_writes():
        mask |= _clip(interval, num_registers)[2]
    return mask


def scan_straight_line(instructions: list[Instruction],
                       effects: list[Effects],
                       num_registers: int,
                       predefined: bool = False) -> StraightLineFacts:
    """Exact word-precise scan of a branch-free stream.

    Word sets are Python-int bitmasks and ``def_of`` a per-word owner
    list updated by slice: a handful of operations per instruction
    whatever its width, the facts of a word-at-a-time scan
    (``tests/analysis_oracle.py``) in the same order.

    ``predefined`` marks every register as defined at entry (the tile
    control unit zero-initializes its scalar file, so reading an
    unwritten tile scalar is well-defined and never reported).
    """
    facts = StraightLineFacts()
    n = num_registers
    defined = (1 << n) - 1 if predefined else 0
    maybe = 0
    def_of: list[Definition | None] = [None] * n

    for pc, (reads, may_reads, writes, may_writes) in enumerate(
            effects[:len(instructions)]):
        for definite, intervals in ((True, reads), (False, may_reads)):
            for interval in intervals:
                lo, hi, mask = _clip(interval, n)
                missing = mask & ~(defined | maybe)
                if definite and missing:
                    facts.use_before_def.extend(
                        (pc, word) for word in _bits(missing))
                for owner in set(def_of[lo:hi]):
                    if owner is not None:
                        owner.reads += (owner.live_mask & mask).bit_count()
        for interval in writes:
            lo, hi, mask = _clip(interval, n)
            if not mask:
                continue
            definition = Definition(pc, lo, hi - lo, mask)
            facts.definitions.append(definition)
            # An owner losing its last live word unread is clobbered; a
            # word-level scan meets those owners in ascending order of
            # that last word.
            overwritten = set(def_of[lo:hi])
            overwritten.discard(None)
            if len(overwritten) > 1:
                overwritten = sorted(
                    overwritten, key=lambda o: o.live_mask.bit_length())
            for owner in overwritten:
                owner.live_mask &= ~mask
                if not owner.live_mask and owner.reads == 0:
                    facts.clobbers.append((pc, owner))
            defined |= mask
            def_of[lo:hi] = [definition] * (hi - lo)
        for interval in may_writes:
            # A may-write leaves the old definition conservatively live:
            # its value might survive.
            maybe |= _clip(interval, n)[2]
    for definition in facts.definitions:
        if definition.reads == 0 and definition.live_mask:
            facts.dead_stores.append(definition)
    return facts


def may_defined_in(cfg: ControlFlowGraph, effects: list[Effects],
                   num_registers: int,
                   predefined: bool = False) -> list[int]:
    """Per-block "maybe defined at entry" word bitmasks (union fixpoint).

    Used for loopy streams: a definite read of a word absent from the mask
    (and not written earlier in the block) is defined on *no* path — a
    certain use-before-def, reportable without loop false positives.
    """
    gen = [0] * len(cfg.blocks)
    for block in cfg.blocks:
        for pc in range(block.start, block.end):
            gen[block.index] |= _writes_mask(effects[pc], num_registers)
    preds: list[list[int]] = [[] for _ in cfg.blocks]
    for block in cfg.blocks:
        for succ in block.successors:
            if succ >= 0:
                preds[succ].append(block.index)
    entry = (1 << num_registers) - 1 if predefined else 0
    live_in = [entry] * len(cfg.blocks)
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            new_in = entry if block.index == 0 else 0
            for pred in preds[block.index]:
                new_in |= live_in[pred] | gen[pred]
            if new_in != live_in[block.index]:
                live_in[block.index] = new_in
                changed = True
    return live_in


def loop_use_before_def(cfg: ControlFlowGraph, effects: list[Effects],
                        num_registers: int,
                        predefined: bool = False) -> list[tuple[int, int]]:
    """Use-before-def facts for a stream with branches (conservative)."""
    live_in = may_defined_in(cfg, effects, num_registers, predefined)
    findings: list[tuple[int, int]] = []
    reachable = cfg.reachable_blocks()
    for block in cfg.blocks:
        if block.index not in reachable:
            continue
        defined = live_in[block.index]
        for pc in range(block.start, block.end):
            eff = effects[pc]
            for interval in eff.reads:
                missing = _clip(interval, num_registers)[2] & ~defined
                if missing:
                    findings.extend((pc, word) for word in _bits(missing))
            defined |= _writes_mask(eff, num_registers)
    return findings
