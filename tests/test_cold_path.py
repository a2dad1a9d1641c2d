"""The cold path does each thing once — and still says no the same way.

Compile, verify, program and interpret were trimmed to one pass each:
register class checks without a set, one validity check per memory
access, a plain-record ``ExecOutcome``, ``with_comment`` as a field copy,
``quantize`` in one buffer.  Each fast
path sits beside a check that used to fire; these tests hold the error
type and message of every one, straddling and direct-caller cases
included, and the value semantics of what was rewritten.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.arch.config import CoreConfig
from repro.arch.core import Core, ExecOutcome, ExecStatus
from repro.arch.registers import RegisterAccessError, RegisterFile
from repro.fixedpoint import FixedPointFormat
from repro.isa.instruction import alu, hlt, load, send, set_, store
from repro.isa.opcodes import AluOp, RegisterClass
from repro.tile.attribute_buffer import PERSISTENT_COUNT, AttributeBuffer
from repro.tile.shared_memory import SharedMemory

CORE = CoreConfig()
IN_END = CORE.xbar_in_size                  # first XbarOut register
OUT_END = CORE.general_base                 # first general register
FMT = FixedPointFormat()


# -- register classes: one class, two, all three -----------------------------


def words(n):
    return np.arange(n, dtype=np.int64)


class TestRegisterClassChecks:
    def test_single_class_ranges(self):
        regs = RegisterFile(CORE)
        regs.write(OUT_END, words(4))
        assert np.array_equal(regs.read(OUT_END, 4), words(4))
        regs.write(0, words(4))                         # XbarIn: writable
        assert np.array_equal(regs.read(0, 4, from_mvm=True), words(4))
        regs.write(IN_END, words(4), from_mvm=True)     # XbarOut: MVM only
        assert np.array_equal(regs.read(IN_END, 4), words(4))
        assert regs.writes == {RegisterClass.XBAR_IN: 4,
                               RegisterClass.XBAR_OUT: 4,
                               RegisterClass.GENERAL: 4}
        assert regs.reads == regs.writes

    @pytest.mark.parametrize("start,width,from_mvm,message", [
        (0, 4, False, "non-MVM read of XbarIn registers at 0"),
        (IN_END - 2, 4, False,
         f"non-MVM read of XbarIn registers at {IN_END - 2}"),
        (IN_END - 2, 4, True,
         f"MVM read outside XbarIn registers at {IN_END - 2}"),
        (IN_END, 4, True, f"MVM read outside XbarIn registers at {IN_END}"),
        (OUT_END - 2, 4, True,
         f"MVM read outside XbarIn registers at {OUT_END - 2}"),
        (IN_END - 1, OUT_END - IN_END + 2, False,
         f"non-MVM read of XbarIn registers at {IN_END - 1}"),
    ])
    def test_read_rejections(self, start, width, from_mvm, message):
        with pytest.raises(RegisterAccessError, match=f"^{message}$"):
            RegisterFile(CORE).read(start, width, from_mvm=from_mvm)

    @pytest.mark.parametrize("start,width,from_mvm,message", [
        (IN_END, 4, False,
         f"non-MVM write of XbarOut registers at {IN_END}"),
        (IN_END - 2, 4, False,
         f"non-MVM write of XbarOut registers at {IN_END - 2}"),
        (OUT_END - 2, 4, False,
         f"non-MVM write of XbarOut registers at {OUT_END - 2}"),
        (OUT_END - 2, 4, True,
         f"MVM write outside XbarOut registers at {OUT_END - 2}"),
        (0, 4, True, "MVM write outside XbarOut registers at 0"),
        (OUT_END, 4, True,
         f"MVM write outside XbarOut registers at {OUT_END}"),
    ])
    def test_write_rejections(self, start, width, from_mvm, message):
        with pytest.raises(RegisterAccessError, match=f"^{message}$"):
            RegisterFile(CORE).write(start, words(width), from_mvm=from_mvm)

    def test_straddling_ranges_count_every_class_they_touch(self):
        regs = RegisterFile(CORE, enforce_classes=False)
        regs.read(IN_END - 1, OUT_END - IN_END + 2)     # all three classes
        regs.read(OUT_END - 1, 2)
        width = OUT_END - IN_END + 2
        assert regs.reads == {RegisterClass.XBAR_IN: width,
                              RegisterClass.XBAR_OUT: width + 2,
                              RegisterClass.GENERAL: width + 2}

    def test_range_and_value_checks_come_first(self):
        regs = RegisterFile(CORE)
        with pytest.raises(IndexError, match="exceeds the register space"):
            regs.read(CORE.num_registers - 1, 2)
        with pytest.raises(ValueError, match="vector width must be >= 1"):
            regs.read(OUT_END, 0)
        with pytest.raises(ValueError, match="exceeds the fixed-point range"):
            regs.write(OUT_END, np.array([FMT.int_max + 1]))
        with pytest.raises(ValueError, match="1-D or 2-D"):
            regs.write(OUT_END, np.zeros((1, 1, 2), dtype=np.int64))
        regs.write(OUT_END, 5)                          # a scalar is one word
        assert regs.read_scalar(OUT_END) == 5


# -- the attribute protocol: one check on the memory path, same refusals -----


class TestAttributeProtocol:
    def test_direct_callers_still_get_the_raise(self):
        buf = AttributeBuffer(16)
        with pytest.raises(RuntimeError,
                           match=r"read of invalid words at \[2, 6\)"):
            buf.on_read(2, 4)
        buf.on_write(2, 4, count=1)
        with pytest.raises(
                RuntimeError,
                match=r"write to valid \(unconsumed\) words at \[4, 8\)"):
            buf.on_write(4, 4, count=1)
        with pytest.raises(ValueError,
                           match=r"count 0 out of range \[1, 127\]"):
            buf.on_write(8, 2, count=0)
        with pytest.raises(IndexError, match="attribute range"):
            buf.on_read(14, 4)
        with pytest.raises(ValueError, match="width must be >= 1"):
            buf.on_write(0, 0, count=1)

    def test_memory_path_checks_count_and_ranges(self):
        memory = SharedMemory(16, attribute_entries=8)
        with pytest.raises(ValueError, match=r"count 200 out of range"):
            memory.try_write(0, words(2), count=200)
        with pytest.raises(ValueError, match=r"count 0 out of range"):
            memory.preload(0, words(2), count=0)
        with pytest.raises(IndexError, match="memory range"):
            memory.try_read(15, 4)
        with pytest.raises(IndexError, match="attribute range"):
            memory.try_read(6, 4)       # inside the data, past the entries
        with pytest.raises(IndexError, match="attribute range"):
            memory.try_write(6, words(4))

    def test_consume_matches_the_protocol_word_by_word(self):
        memory = SharedMemory(8)
        memory.try_write(0, words(2), count=2)
        memory.preload(2, words(2), PERSISTENT_COUNT)
        memory.try_write(4, words(2), count=1)
        valid, count = memory.attributes._valid, memory.attributes._count
        assert memory.try_read(0, 6) is not None
        assert valid[:6].tolist() == [True, True, True, True, False, False]
        assert count[:6].tolist() == [1, 1, 127, 127, 0, 0]
        assert memory.try_read(0, 6) is None            # words 4-5 consumed
        assert memory.try_read(0, 4) is not None
        assert valid[:4].tolist() == [False, False, True, True]
        assert not memory.try_write(2, words(2))        # persistent: occupied
        assert memory.try_write(0, words(2))

    def test_blocked_attempts_change_nothing(self):
        memory = SharedMemory(8)
        memory.try_write(0, words(4), count=1)
        before = (memory.attributes._valid.copy(),
                  memory.attributes._count.copy(), memory.peek(0, 8))
        assert memory.try_read(2, 4) is None
        assert not memory.try_write(2, words(4) + 9)
        assert np.array_equal(memory.attributes._valid, before[0])
        assert np.array_equal(memory.attributes._count, before[1])
        assert np.array_equal(memory.peek(0, 8), before[2])


# -- the core and its outcome record ------------------------------------------


class TestCoreExecute:
    def core(self):
        return Core(0, CORE, SharedMemory(64))

    def test_tile_level_instruction_is_refused_by_name(self):
        with pytest.raises(
                ValueError,
                match=r"^SEND cannot execute on a core \(tile-level "
                      r"instruction\)$"):
            self.core().execute(send(mem_addr=0, fifo_id=0, target=1))

    def test_outcome_is_a_plain_record(self):
        core = self.core()
        done = core.execute(set_(OUT_END, 3, vec_width=4))
        assert done == ExecOutcome(ExecStatus.DONE, done.instruction,
                                   vec_width=4)
        assert (done.mvm_count, done.rom_access, done.eff_addr) == (0, False,
                                                                    0)
        blocked = core.execute(load(OUT_END, mem_addr=8, vec_width=2))
        assert blocked.status is ExecStatus.BLOCKED_READ and core.pc == 1
        assert core.execute(hlt()).status is ExecStatus.HALTED
        assert core.execute(hlt()) == ExecOutcome(ExecStatus.HALTED)
        assert core.instructions_executed == 1          # the set, alone

    def test_transcendental_outcome_reports_rom_access(self):
        core = self.core()
        core.execute(set_(OUT_END, 3, vec_width=2))
        outcome = core.execute(alu(AluOp.TANH, OUT_END + 2, OUT_END,
                                   vec_width=2))
        assert outcome.rom_access is True and outcome.vec_width == 2
        core.memory.preload(0, words(2), PERSISTENT_COUNT)
        stored = core.execute(store(OUT_END, mem_addr=10, vec_width=2))
        assert stored.eff_addr == 10


# -- value semantics of the rewritten helpers ---------------------------------


def test_with_comment_is_a_field_for_field_copy():
    instr = store(OUT_END, mem_addr=9, count=3, vec_width=5)
    copy = instr.with_comment("publish")
    assert copy == dataclasses.replace(instr, comment="publish")
    assert {f.name: getattr(copy, f.name)
            for f in dataclasses.fields(copy)} == {
        **{f.name: getattr(instr, f.name)
           for f in dataclasses.fields(instr)}, "comment": "publish"}
    assert copy == instr and hash(copy) == hash(instr)  # comments don't compare
    assert instr.comment == "" and type(copy) is type(instr)
    with pytest.raises(dataclasses.FrozenInstanceError):
        copy.dest = 1
    assert pickle.loads(pickle.dumps(copy)).comment == "publish"


def test_quantize_equals_the_three_temporary_form():
    rng = np.random.default_rng(0)
    for values in (rng.normal(0, 4, size=(7, 5)), rng.normal(0, 40, size=9),
                   np.array([0.5, -0.5, 1.5, 2.5, -1e9, 1e9]),
                   np.float32(0.3) * np.ones(3, dtype=np.float32),
                   [1, -2, 3]):
        before = np.array(values, copy=True)
        expected = np.clip(
            np.round(np.asarray(values, dtype=np.float64) * FMT.scale),
            FMT.int_min, FMT.int_max).astype(np.int64)
        found = FMT.quantize(values)
        assert found.dtype == np.int64 and np.array_equal(found, expected)
        assert np.array_equal(np.asarray(values), before)   # input untouched
    scalar = FMT.quantize(0.25)
    assert isinstance(scalar, np.int64) and scalar == FMT.scale // 4
    assert int(FMT.quantize(-1e9)) == FMT.int_min
