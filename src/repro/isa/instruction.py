"""Instruction representation and helper constructors for the PUMA ISA.

An :class:`Instruction` is a flat record of every operand field used by any
opcode (Table 2).  Per-opcode constructor functions validate the operand
combinations so that the compiler and hand-written tests cannot build
malformed instructions.

Register operands index a flat per-core register space laid out as::

    [0, xbar_in_size)                          XbarIn registers
    [xbar_in_size, xbar_in_size+xbar_out_size) XbarOut registers
    [.., .. + num_general)                     general-purpose registers

The layout itself is owned by :class:`repro.arch.config.CoreConfig`; the ISA
only carries the flat indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.opcodes import AluOp, BrnOp, Opcode

# Field budgets chosen to fit every layout in 56 bits (7 bytes):
# 10-bit register operands exactly cover the default core's 1024 registers
# (2x128 XbarIn + 2x128 XbarOut + 512 general purpose); 15-bit addresses
# exactly cover the 32K-word tile data memory.
MAX_REGISTER_INDEX = (1 << 10) - 1
MAX_VEC_WIDTH = 512
MAX_MEM_ADDR = (1 << 15) - 1
MAX_IMMEDIATE = (1 << 15) - 1
MIN_IMMEDIATE = -(1 << 15)
MAX_FIFO_ID = 15
MAX_COUNT = (1 << 7) - 1
MAX_PC = (1 << 16) - 1
MAX_MVMU_MASK = (1 << 8) - 1


@dataclass(frozen=True)
class Instruction:
    """A single PUMA instruction (seven bytes when encoded).

    Only the fields relevant to ``opcode`` are meaningful; the helper
    constructors in this module guarantee consistent field usage.
    """

    opcode: Opcode
    alu_op: Optional[AluOp] = None
    brn_op: Optional[BrnOp] = None
    dest: int = 0
    src1: int = 0
    src2: int = 0
    imm: int = 0
    vec_width: int = 1
    # MVM-specific
    mask: int = 0
    filter: int = 0
    stride: int = 0
    # Memory / network
    mem_addr: int = 0
    addr_reg: int = 0
    reg_indirect: bool = False
    imm_mode: bool = False
    count: int = 0
    fifo_id: int = 0
    target: int = 0
    # Control
    pc: int = 0
    # Compiler-attached annotation (not encoded; used by traces and tests)
    comment: str = field(default="", compare=False)

    def with_comment(self, comment: str) -> "Instruction":
        """Return a copy annotated with a human-readable comment."""
        # A field-for-field copy; ``dataclasses.replace`` would push all
        # twenty validated operands through ``__init__`` again.
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, comment=comment)
        return clone

    @property
    def is_vector(self) -> bool:
        """True if the instruction operates on a vector of words."""
        return self.opcode in (Opcode.ALU, Opcode.ALUI, Opcode.COPY,
                               Opcode.LOAD, Opcode.STORE, Opcode.SEND,
                               Opcode.RECEIVE, Opcode.SET)

    def __str__(self) -> str:
        from repro.isa.assembler import disassemble_one

        return disassemble_one(self)


def _check_reg(name: str, value: int) -> None:
    if not 0 <= value <= MAX_REGISTER_INDEX:
        raise ValueError(f"{name} register index {value} out of range "
                         f"[0, {MAX_REGISTER_INDEX}]")


def _check_vec_width(vec_width: int) -> None:
    if not 1 <= vec_width <= MAX_VEC_WIDTH:
        raise ValueError(f"vec_width {vec_width} out of range [1, {MAX_VEC_WIDTH}]")


def _check_mem_addr(mem_addr: int) -> None:
    if not 0 <= mem_addr <= MAX_MEM_ADDR:
        raise ValueError(f"memory address {mem_addr} out of range "
                         f"[0, {MAX_MEM_ADDR}]")


def _check_imm(imm: int) -> None:
    if not MIN_IMMEDIATE <= imm <= MAX_IMMEDIATE:
        raise ValueError(f"immediate {imm} out of range "
                         f"[{MIN_IMMEDIATE}, {MAX_IMMEDIATE}]")


def mvm(mask: int, filter: int = 0, stride: int = 0) -> Instruction:
    """Matrix-vector multiply on the MVMUs selected by ``mask``.

    ``mask`` bit *i* activates MVMU *i* of the core; a multi-bit mask is a
    *coalesced* MVM (Section 3.2.4).  ``filter``/``stride`` implement logical
    input shuffling (Section 3.2.3): before the multiply, XbarIn registers
    are logically rotated so that register ``stride * k`` feeds DAC row ``k``
    for the first ``filter`` rows.  ``filter == 0`` disables shuffling.
    """
    if not 0 < mask <= MAX_MVMU_MASK:
        raise ValueError(f"MVM mask must be a non-zero 8-bit value, got {mask}")
    if filter < 0 or stride < 0:
        raise ValueError("filter and stride must be non-negative")
    if filter == 0:
        stride = 0  # shuffling disabled; normalize for a canonical encoding
    return Instruction(Opcode.MVM, mask=mask, filter=filter, stride=stride)


def alu(op: AluOp, dest: int, src1: int, src2: int = 0,
        vec_width: int = 1) -> Instruction:
    """Vector ALU operation ``dest[0:w] = op(src1[0:w], src2[0:w])``."""
    if op.is_compare:
        raise ValueError(f"{op.name} is a scalar compare; use alu_int()")
    _check_reg("dest", dest)
    _check_reg("src1", src1)
    _check_reg("src2", src2)
    _check_vec_width(vec_width)
    if op.num_sources == 1:
        src2 = 0  # unused operand; normalize for a canonical encoding
    return Instruction(Opcode.ALU, alu_op=op, dest=dest, src1=src1, src2=src2,
                       vec_width=vec_width)


def alui(op: AluOp, dest: int, src1: int, imm: int, vec_width: int = 1) -> Instruction:
    """Vector ALU with a 16-bit immediate second operand."""
    if op not in (AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.DIV):
        raise ValueError(f"ALUimm supports add/sub/mul/div only, got {op.name}")
    _check_reg("dest", dest)
    _check_reg("src1", src1)
    _check_imm(imm)
    _check_vec_width(vec_width)
    return Instruction(Opcode.ALUI, alu_op=op, dest=dest, src1=src1, imm=imm,
                       vec_width=vec_width)


def alu_int(op: AluOp, dest: int, src1: int, src2: int = 0,
            imm: int = 0, imm_mode: bool = False) -> Instruction:
    """Scalar integer operation on the SFU (add/sub/compares)."""
    if op not in (AluOp.ADD, AluOp.SUB, AluOp.EQ, AluOp.GT, AluOp.NEQ):
        raise ValueError(f"ALUint supports add/sub/eq/gt/neq, got {op.name}")
    _check_reg("dest", dest)
    _check_reg("src1", src1)
    if imm_mode:
        _check_imm(imm)
    else:
        _check_reg("src2", src2)
    return Instruction(Opcode.ALU_INT, alu_op=op, dest=dest, src1=src1,
                       src2=src2, imm=imm, imm_mode=imm_mode)


def set_(dest: int, imm: int, vec_width: int = 1) -> Instruction:
    """Initialize ``vec_width`` registers starting at ``dest`` to ``imm``."""
    _check_reg("dest", dest)
    _check_imm(imm)
    _check_vec_width(vec_width)
    return Instruction(Opcode.SET, dest=dest, imm=imm, vec_width=vec_width)


def copy(dest: int, src1: int, vec_width: int = 1) -> Instruction:
    """Copy ``vec_width`` words between register classes (Section 3.4.3)."""
    _check_reg("dest", dest)
    _check_reg("src1", src1)
    _check_vec_width(vec_width)
    return Instruction(Opcode.COPY, dest=dest, src1=src1, vec_width=vec_width)


def load(dest: int, mem_addr: int = 0, vec_width: int = 1,
         addr_reg: int = 0, reg_indirect: bool = False) -> Instruction:
    """Load ``vec_width`` words from tile shared memory into registers.

    With ``reg_indirect`` the effective address is ``R[addr_reg] + mem_addr``,
    supporting the computed addresses CNN layers need (Section 2.3.2).
    """
    _check_reg("dest", dest)
    _check_mem_addr(mem_addr)
    _check_vec_width(vec_width)
    if reg_indirect:
        _check_reg("addr_reg", addr_reg)
    return Instruction(Opcode.LOAD, dest=dest, mem_addr=mem_addr,
                       vec_width=vec_width, addr_reg=addr_reg,
                       reg_indirect=reg_indirect)


def store(src1: int, mem_addr: int = 0, count: int = 1, vec_width: int = 1,
          addr_reg: int = 0, reg_indirect: bool = False) -> Instruction:
    """Store registers to tile shared memory, tagging each word's reader count.

    ``count`` initializes the attribute-buffer consumer count (Figure 6);
    the data becomes invalid again after ``count`` reads.
    """
    _check_reg("src1", src1)
    _check_mem_addr(mem_addr)
    _check_vec_width(vec_width)
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"store count {count} out of range [1, {MAX_COUNT}]")
    if reg_indirect:
        _check_reg("addr_reg", addr_reg)
    return Instruction(Opcode.STORE, src1=src1, mem_addr=mem_addr, count=count,
                       vec_width=vec_width, addr_reg=addr_reg,
                       reg_indirect=reg_indirect)


def send(mem_addr: int, fifo_id: int, target: int, vec_width: int = 1) -> Instruction:
    """Send ``vec_width`` words from shared memory to tile ``target``.

    ``fifo_id`` names the receive-buffer FIFO at the destination; FIFO IDs
    are virtualized by the compiler (Section 4.2).
    """
    _check_mem_addr(mem_addr)
    _check_vec_width(vec_width)
    if not 0 <= fifo_id <= MAX_FIFO_ID:
        raise ValueError(f"fifo_id {fifo_id} out of range [0, {MAX_FIFO_ID}]")
    if not 0 <= target < (1 << 10):
        raise ValueError(f"target tile {target} out of range")
    return Instruction(Opcode.SEND, mem_addr=mem_addr, fifo_id=fifo_id,
                       target=target, vec_width=vec_width)


def receive(mem_addr: int, fifo_id: int, count: int = 1,
            vec_width: int = 1) -> Instruction:
    """Receive ``vec_width`` words from FIFO ``fifo_id`` into shared memory.

    ``count`` initializes the attribute-buffer consumer count for the
    received words, exactly as a local ``store`` would.
    """
    _check_mem_addr(mem_addr)
    _check_vec_width(vec_width)
    if not 0 <= fifo_id <= MAX_FIFO_ID:
        raise ValueError(f"fifo_id {fifo_id} out of range [0, {MAX_FIFO_ID}]")
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"receive count {count} out of range [1, {MAX_COUNT}]")
    return Instruction(Opcode.RECEIVE, mem_addr=mem_addr, fifo_id=fifo_id,
                       count=count, vec_width=vec_width)


def jmp(pc: int) -> Instruction:
    """Unconditional jump to instruction index ``pc``."""
    if not 0 <= pc <= MAX_PC:
        raise ValueError(f"jump target {pc} out of range [0, {MAX_PC}]")
    return Instruction(Opcode.JMP, pc=pc)


def brn(op: BrnOp, src1: int, src2: int, pc: int) -> Instruction:
    """Branch to ``pc`` when ``op(R[src1], R[src2])`` holds."""
    _check_reg("src1", src1)
    _check_reg("src2", src2)
    if not 0 <= pc <= MAX_PC:
        raise ValueError(f"branch target {pc} out of range [0, {MAX_PC}]")
    return Instruction(Opcode.BRN, brn_op=op, src1=src1, src2=src2, pc=pc)


def hlt() -> Instruction:
    """Terminate the instruction stream."""
    return Instruction(Opcode.HLT)
