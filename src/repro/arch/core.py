"""Core execution engine: the functional semantics of one PUMA core.

A :class:`Core` owns the architectural state of Figure 1 — program counter,
register file (XbarIn / XbarOut / general purpose), MVMUs, VFU, SFU — and
executes instructions one at a time.  Memory-side effects go through the
owning tile's shared memory, whose valid/count protocol can *block* an
instruction; blocking is reported to the simulator through
:class:`ExecStatus` rather than by spinning, so the scheduler can park the
core on the memory's waiter list.

Timing and energy are intentionally absent here: the simulator charges them
via :mod:`repro.energy` using the :class:`ExecOutcome` description of what
the instruction did.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.arch.config import CoreConfig
from repro.arch.crossbar import CrossbarModel
from repro.arch.mvmu import MVMU
from repro.arch.registers import RegisterFile
from repro.arch.sfu import ScalarFunctionalUnit
from repro.arch.vfu import VectorFunctionalUnit
from repro.isa.instruction import Instruction
from repro.isa.opcodes import AluOp, Opcode

if TYPE_CHECKING:  # avoid a circular import with repro.tile
    from repro.tile.shared_memory import SharedMemory


class ExecStatus(enum.Enum):
    """What happened when the core tried to execute an instruction."""

    DONE = "done"
    BLOCKED_READ = "blocked-read"     # load/send waiting for valid data
    BLOCKED_WRITE = "blocked-write"   # store/receive waiting for free space
    BLOCKED_FIFO = "blocked-fifo"     # receive waiting for a packet
    HALTED = "halted"


class ExecOutcome(NamedTuple):
    """Result of one execution attempt, consumed by the timing model.

    Attributes:
        status: completion or the blocking reason.
        instruction: what executed (or tried to).
        vec_width: effective vector width processed.
        mvm_count: MVMUs activated (coalesced MVM activates several).
        rom_access: whether the op went through the ROM-Embedded RAM.
        eff_addr: resolved effective memory address of a completed
            ``load``/``store``/``send``/``receive`` (register-indirect
            addressing folded in), recorded for trace replay
            (:mod:`repro.sim.tape`); 0 for non-memory instructions.
    """

    status: ExecStatus
    instruction: Instruction | None = None
    vec_width: int = 1
    mvm_count: int = 0
    rom_access: bool = False
    eff_addr: int = 0


class Core:
    """One PUMA core: registers, MVMUs, functional units, and a PC.

    With ``batch > 1`` the core executes its instruction stream once while
    every data-carrying value (registers, memory words, MVM operands) holds
    one lane per batch input — SIMD over batch.  Control flow must be
    uniform across lanes, which holds for PUMA programs: branches only
    consume loop counters and compile-time bounds, never model data.
    Scalar/control reads therefore take lane 0.

    Args:
        core_id: index within the tile.
        config: core configuration.
        shared_memory: the owning tile's shared memory.
        crossbar_model: device model for the MVMU crossbars.
        rng: random generator (write noise, RANDOM op).
        batch: SIMD batch lanes carried by the datapath.
    """

    def __init__(self, core_id: int, config: CoreConfig,
                 shared_memory: "SharedMemory",
                 crossbar_model: CrossbarModel | None = None,
                 rng: np.random.Generator | None = None,
                 batch: int = 1) -> None:
        self.core_id = core_id
        self.config = config
        self.memory = shared_memory
        self.batch = batch
        self._rng = rng if rng is not None else np.random.default_rng()
        model = crossbar_model if crossbar_model is not None \
            else CrossbarModel.for_core(config)
        if model.dim != config.mvmu_dim:
            raise ValueError(
                f"crossbar dim {model.dim} != core mvmu_dim {config.mvmu_dim}")
        self.registers = RegisterFile(config, batch=batch)
        self.mvmus = [MVMU(model, config.fixed_point, rng=self._rng)
                      for _ in range(config.num_mvmus)]
        self.vfu = VectorFunctionalUnit(
            config.vfu_width, config.fixed_point,
            lut=self.registers.lut_evaluate, rng=self._rng)
        self.sfu = ScalarFunctionalUnit(config.fixed_point)
        self.pc = 0
        self.halted = False
        self.instructions_executed = 0
        # ALUI/SET immediates expand to the same vector on every execution;
        # cache the expansions (read-only) instead of re-allocating np.full
        # in the loop bodies the compiler emits.
        self._imm_vectors: dict[tuple[int, int], np.ndarray] = {}

    def reset(self) -> None:
        """Reset control state (registers and crossbars persist)."""
        self.pc = 0
        self.halted = False

    def execute(self, instr: Instruction) -> ExecOutcome:
        """Attempt to execute ``instr`` at the current PC.

        On DONE the PC advances (or jumps); on a blocked outcome all state
        is untouched so the attempt can be retried verbatim.
        """
        if self.halted:
            return ExecOutcome(ExecStatus.HALTED)
        try:
            handler = self._HANDLERS[instr.opcode]
        except KeyError:
            raise ValueError(
                f"{instr.opcode.name} cannot execute on a core "
                f"(tile-level instruction)") from None
        outcome = handler(self, instr)
        if outcome.status is ExecStatus.DONE:
            self.instructions_executed += 1
        return outcome

    # -- instruction handlers -------------------------------------------

    def _imm_vector(self, imm: int, width: int) -> np.ndarray:
        """A cached, read-only ``(width,)`` immediate expansion."""
        key = (imm, width)
        vec = self._imm_vectors.get(key)
        if vec is None:
            vec = np.full(width, imm, dtype=np.int64)
            vec.setflags(write=False)
            self._imm_vectors[key] = vec
        return vec

    def _advance(self, instr: Instruction, next_pc: int | None = None,
                 **fields) -> ExecOutcome:
        self.pc = self.pc + 1 if next_pc is None else next_pc
        return ExecOutcome(ExecStatus.DONE, instr, **fields)

    def _read_scalar(self, reg: int) -> int:
        """Lane-0 value of a scalar register (control is batch-uniform)."""
        return self.registers.read_scalar(reg)

    def _exec_mvm(self, instr: Instruction) -> ExecOutcome:
        active = [i for i in range(self.config.num_mvmus)
                  if instr.mask & (1 << i)]
        if not active:
            raise ValueError("MVM mask selects no MVMU on this core")
        for i in active:
            mvmu = self.mvmus[i]
            if not mvmu.is_programmed:
                raise RuntimeError(
                    f"core {self.core_id}: MVM on unprogrammed MVMU {i}")
            x = self.registers.xbar_in_vector(i)
            if instr.filter:
                x = MVMU.shuffle_inputs(x, instr.filter, instr.stride)
            y = mvmu.execute(x)
            self.registers.write_xbar_out(i, y)
        return self._advance(instr, mvm_count=len(active),
                             vec_width=self.config.mvmu_dim)

    def _exec_alu(self, instr: Instruction) -> ExecOutcome:
        op = instr.alu_op
        w = instr.vec_width
        src1 = self.registers.read(instr.src1, w)
        if op == AluOp.SUBSAMPLE:
            src2 = self.registers.read(instr.src2, 1)
        elif op.num_sources == 2:
            src2 = self.registers.read(instr.src2, w)
        else:
            src2 = None
        result = self.vfu.execute(op, src1, src2)
        self.registers.write(instr.dest, result)
        return self._advance(instr, vec_width=w,
                             rom_access=bool(op.is_transcendental))

    def _exec_alui(self, instr: Instruction) -> ExecOutcome:
        w = instr.vec_width
        src1 = self.registers.read(instr.src1, w)
        result = self.vfu.execute(instr.alu_op, src1,
                                  self._imm_vector(instr.imm, w))
        self.registers.write(instr.dest, result)
        return self._advance(instr, vec_width=w)

    def _exec_alu_int(self, instr: Instruction) -> ExecOutcome:
        a = self._read_scalar(instr.src1)
        b = instr.imm if instr.imm_mode else self._read_scalar(instr.src2)
        result = self.sfu.execute(instr.alu_op, a, b)
        self.registers.write(instr.dest, np.array([result]))
        return self._advance(instr)

    def _exec_set(self, instr: Instruction) -> ExecOutcome:
        w = instr.vec_width
        self.registers.write(instr.dest, self._imm_vector(instr.imm, w))
        return self._advance(instr, vec_width=w)

    def _exec_copy(self, instr: Instruction) -> ExecOutcome:
        w = instr.vec_width
        data = self.registers.read(instr.src1, w)
        self.registers.write(instr.dest, data)
        return self._advance(instr, vec_width=w)

    def _effective_address(self, instr: Instruction) -> int:
        addr = instr.mem_addr
        if instr.reg_indirect:
            addr += self._read_scalar(instr.addr_reg)
        return addr

    def _exec_load(self, instr: Instruction) -> ExecOutcome:
        addr = self._effective_address(instr)
        data = self.memory.try_read(addr, instr.vec_width)
        if data is None:
            return ExecOutcome(ExecStatus.BLOCKED_READ, instr,
                               vec_width=instr.vec_width)
        self.registers.write(instr.dest, data)
        return self._advance(instr, vec_width=instr.vec_width,
                             eff_addr=addr)

    def _exec_store(self, instr: Instruction) -> ExecOutcome:
        addr = self._effective_address(instr)
        data = self.registers.read(instr.src1, instr.vec_width)
        if not self.memory.try_write(addr, data, count=instr.count):
            return ExecOutcome(ExecStatus.BLOCKED_WRITE, instr,
                               vec_width=instr.vec_width)
        return self._advance(instr, vec_width=instr.vec_width,
                             eff_addr=addr)

    def _exec_jmp(self, instr: Instruction) -> ExecOutcome:
        return self._advance(instr, next_pc=instr.pc)

    def _exec_brn(self, instr: Instruction) -> ExecOutcome:
        a = self._read_scalar(instr.src1)
        b = self._read_scalar(instr.src2)
        taken = self.sfu.branch_taken(instr.brn_op, a, b)
        return self._advance(instr, next_pc=instr.pc if taken else None)

    def _exec_hlt(self, instr: Instruction) -> ExecOutcome:
        self.halted = True
        return ExecOutcome(ExecStatus.HALTED, instr)

    # Class-level dispatch: built once, not per execute() call (the per-call
    # dict literal was measurable on the interpreter hot path).
    _HANDLERS = {
        Opcode.MVM: _exec_mvm,
        Opcode.ALU: _exec_alu,
        Opcode.ALUI: _exec_alui,
        Opcode.ALU_INT: _exec_alu_int,
        Opcode.SET: _exec_set,
        Opcode.COPY: _exec_copy,
        Opcode.LOAD: _exec_load,
        Opcode.STORE: _exec_store,
        Opcode.JMP: _exec_jmp,
        Opcode.BRN: _exec_brn,
        Opcode.HLT: _exec_hlt,
    }
