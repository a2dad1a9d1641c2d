"""Interval-form analysis == the word-at-a-time oracle.

``repro.analysis`` reasons about whole register and shared-memory
intervals at once.  ``tests/analysis_oracle.py`` keeps the word-level
implementations it replaced; here both run on the same input and must
agree field by field and in order:

* hypothesis-generated core streams over a deliberately small register
  file — partial overwrites, intervals clipped at the top of the file,
  ``SUBSAMPLE`` may-writes, multi-MVMU ``MVM`` masks, ``RANDOM`` over an
  unwritten destination — and synthetic programs whose stores repeat,
  overlap and carry the persistent count;
* every registry workload plus the control-flow CNN of the cold sweep
  (its other four models are registry workloads), compiled for real.

The ``hypothesis-explore`` CI job runs this file under a random seed.
"""

import analysis_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import StaticDependenceGraph
from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.checks import check_lut_domain, check_shared_memory
from repro.analysis.dataflow import (
    loop_use_before_def,
    may_defined_in,
    scan_straight_line,
)
from repro.analysis.depgraph import StreamInfo
from repro.arch.config import CoreConfig, PumaConfig
from repro.compiler.cnn import compile_cnn
from repro.compiler.compile import compile_model
from repro.isa.instruction import (
    alu,
    alu_int,
    alui,
    brn,
    copy,
    hlt,
    load,
    mvm,
    receive,
    send,
    set_,
    store,
)
from repro.isa.opcodes import AluOp, BrnOp
from repro.isa.program import NodeProgram
from repro.workloads.cnn import build_lenet5_spec, small_cnn_spec
from repro.workloads.registry import FIGURE4_WORKLOADS, figure4_model

# 16 XbarIn + 16 XbarOut + 16 general registers: small enough that
# generated intervals collide, and operands may point past the end.
SMALL = CoreConfig(mvmu_dim=8, num_mvmus=2, num_general_registers=16)
CONFIG = PumaConfig()

reg = st.integers(0, SMALL.num_registers + 6)
width = st.integers(1, 12)
imm = st.integers(-3, 3)
VECTOR_OPS = [AluOp.ADD, AluOp.MUL, AluOp.RELU, AluOp.SIGMOID, AluOp.LOG,
              AluOp.RANDOM, AluOp.SUBSAMPLE]

instruction = st.one_of(
    st.builds(lambda m: mvm(mask=m), st.integers(1, 3)),
    st.builds(lambda op, d, a, b, w: alu(op, d, a, b, vec_width=w),
              st.sampled_from(VECTOR_OPS), reg, reg, reg, width),
    st.builds(lambda d, a, i, w: alui(AluOp.ADD, d, a, i, vec_width=w),
              reg, reg, imm, width),
    st.builds(lambda d, a, b: alu_int(AluOp.ADD, d, a, b), reg, reg, reg),
    st.builds(lambda d, a, i: alu_int(AluOp.SUB, d, a, imm=i, imm_mode=True),
              reg, reg, imm),
    st.builds(lambda d, i, w: set_(d, i, vec_width=w), reg, imm, width),
    st.builds(lambda d, a, w: copy(d, a, vec_width=w), reg, reg, width),
    st.builds(lambda d, m, w: load(d, mem_addr=m, vec_width=w),
              reg, st.integers(0, 40), width),
    st.builds(lambda a, m, w: store(a, mem_addr=m, vec_width=w),
              reg, st.integers(0, 40), width),
    st.builds(lambda d, r: load(d, addr_reg=r, reg_indirect=True), reg, reg),
)
streams = st.lists(instruction, max_size=40).map(lambda s: s + [hlt()])


def stream_info(instructions, core_config=SMALL):
    info = StreamInfo(tile=0, core=0, instructions=instructions,
                      num_registers=core_config.num_registers,
                      predefined=False)
    info._core_config = core_config
    return info


def definition_fields(definition):
    return (definition.pc, definition.start, definition.width,
            definition.reads, definition.live_words)


def assert_same_facts(found, expected):
    assert found.use_before_def == expected.use_before_def
    assert ([definition_fields(d) for d in found.definitions]
            == [definition_fields(d) for d in expected.definitions])
    # Dead stores and clobbers name definitions; compare which ones.
    index = {id(d): i for i, d in enumerate(found.definitions)}
    oracle_index = {id(d): i for i, d in enumerate(expected.definitions)}
    assert ([index[id(d)] for d in found.dead_stores]
            == [oracle_index[id(d)] for d in expected.dead_stores])
    assert ([(pc, index[id(d)]) for pc, d in found.clobbers]
            == [(pc, oracle_index[id(d)]) for pc, d in expected.clobbers])


def assert_same_stream_analysis(info):
    n = info.num_registers
    if info.is_straight_line:
        for predefined in (False, True):
            assert_same_facts(
                scan_straight_line(info.instructions, info.effects, n,
                                   predefined),
                oracle.scan_straight_line(info.instructions, info.effects,
                                          n, predefined))
    else:
        for predefined in (False, True):
            masks = may_defined_in(info.cfg, info.effects, n, predefined)
            sets = oracle.may_defined_in(info.cfg, info.effects, n,
                                         predefined)
            assert [{w for w in range(n) if mask >> w & 1}
                    for mask in masks] == sets
            assert (loop_use_before_def(info.cfg, info.effects, n,
                                        predefined)
                    == oracle.loop_use_before_def(info.cfg, info.effects, n,
                                                  predefined))


@settings(max_examples=300, deadline=None)
@given(streams)
def test_generated_straight_line_streams(instructions):
    assert_same_stream_analysis(stream_info(instructions))


@settings(max_examples=100, deadline=None)
@given(streams, st.data())
def test_generated_loopy_streams(instructions, data):
    """The same streams with branches spliced in: the union fixpoint and
    the per-block use-before-def walk, bitmask against word sets."""
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(instructions) - 1))
        target = data.draw(st.integers(0, len(instructions)))
        instructions.insert(at, brn(BrnOp.EQ, data.draw(reg) % 48,
                                    data.draw(reg) % 48, target))
    info = stream_info(instructions)
    assert not info.is_straight_line
    assert ControlFlowGraph.build(instructions).blocks
    assert_same_stream_analysis(info)


def test_top_of_file_clipping_and_partial_overwrite():
    """The cases the generator is built around, pinned by hand."""
    top = SMALL.num_registers
    info = stream_info([
        set_(top - 4, 1, vec_width=12),         # clipped to 4 words
        set_(top - 2, 2, vec_width=1),          # partial overwrite
        copy(top - 8, top - 4, vec_width=12),   # read and write, clipped
        set_(top - 4, 3, vec_width=2),          # finishes off the first set
        alu(AluOp.RANDOM, 32, 32, vec_width=4),  # unwritten dest, no read
        alu(AluOp.SUBSAMPLE, 36, 32, 30, vec_width=4),  # may-write
        mvm(mask=3),
        hlt()])
    facts = scan_straight_line(info.instructions, info.effects, top)
    assert [d.width for d in facts.definitions[:2]] == [4, 1]
    assert facts.use_before_def == [(5, 30)]
    assert_same_stream_analysis(info)


# -- shared memory and the LUT domain, over whole programs ------------------

G = CONFIG.core.general_base
addr = st.integers(0, 24)
count = st.sampled_from([1, 1, 2, 3, 127])
memory_op = st.one_of(
    st.builds(lambda a, w, c: store(G, mem_addr=a, count=c, vec_width=w),
              addr, st.integers(1, 8), count),
    st.builds(lambda a, w: load(G, mem_addr=a, vec_width=w),
              addr, st.integers(1, 8)),
    st.builds(lambda v: set_(G, v, vec_width=4), st.integers(-2, 2)),
    st.builds(lambda d, a: copy(G + d, G + a, vec_width=3),
              st.integers(0, 6), st.integers(0, 6)),
    st.builds(lambda a: alu(AluOp.LOG, G + 8, G + a, vec_width=3),
              st.integers(0, 6)),
    st.builds(lambda a: alu(AluOp.RELU, G + a, G + 8, vec_width=2),
              st.integers(0, 6)),
)
tile_op = st.one_of(
    st.builds(lambda a, w: send(mem_addr=a, fifo_id=0, target=1,
                                vec_width=w), addr, st.integers(1, 8)),
    st.builds(lambda a, w, c: receive(mem_addr=a, fifo_id=1, count=c,
                                      vec_width=w),
              addr, st.integers(1, 8), count),
)


def assert_same_program_checks(program, config=CONFIG):
    graph = StaticDependenceGraph.from_program(program, config)
    assert check_shared_memory(graph) == oracle.check_shared_memory(graph)
    assert check_lut_domain(graph) == oracle.check_lut_domain(graph)
    for info in graph.streams.values():
        if info.core is not None:
            assert_same_stream_analysis(info)


@settings(max_examples=200, deadline=None)
@given(st.lists(memory_op, max_size=25), st.lists(memory_op, max_size=10),
       st.lists(tile_op, max_size=6), st.integers(0, 12))
def test_generated_programs(core0, core1, tile_stream, preloaded):
    """Repeated and overlapping stores, persistent counts, loads of
    words nothing writes, constants copied into a ``log``."""
    program = NodeProgram(name="generated")
    program.input_layout = {"x": (0, 0, preloaded)} if preloaded else {}
    tile = program.tile(0)
    tile.core(0).extend(core0 + [hlt()])
    tile.core(1).extend(core1 + [hlt()])
    for instr in tile_stream:
        tile.append_tile(instr)
    tile.append_tile(hlt())
    assert_same_program_checks(program)


def test_overlapping_writers_share_one_span():
    """Three stores whose ranges overlap so that a later finding's span
    reaches back over words an earlier finding already reported."""
    program = NodeProgram(name="overlap")
    program.tile(0).core(0).extend([
        set_(G, 1, vec_width=8),
        store(G, mem_addr=0, count=1, vec_width=4),
        store(G, mem_addr=8, count=1, vec_width=4),
        store(G, mem_addr=0, count=1, vec_width=8),
        store(G, mem_addr=4, count=1, vec_width=8),
        hlt()])
    graph = StaticDependenceGraph.from_program(program, CONFIG)
    found = check_shared_memory(graph)
    assert [d.message.split(" carries")[0] for d in found] == [
        "words [0, 8)", "words [4, 12)"]
    assert found == oracle.check_shared_memory(graph)


def compiled_programs():
    for name in sorted(FIGURE4_WORKLOADS):
        if name.startswith("CNN"):
            yield name, lambda: compile_cnn(build_lenet5_spec()).program
        else:
            yield name, lambda name=name: compile_model(
                figure4_model(name), CONFIG).program
    yield "cnn_small", lambda: compile_cnn(small_cnn_spec(seed=0),
                                           CONFIG).program


@pytest.mark.parametrize("name,build", list(compiled_programs()),
                         ids=[name for name, _ in compiled_programs()])
def test_compiled_workloads(name, build):
    assert_same_program_checks(build())
