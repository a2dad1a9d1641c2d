"""The VFU kernel table and its two callers.

``VectorFunctionalUnit.kernels`` is the one definition of every ALU op's
arithmetic: the interpreter allocates an output and calls the kernel, the
tape binders call the same kernel straight into the destination registers.
These tests pin the kernels to an independent reference — the arithmetic
``_apply`` carried as an ``if`` chain before the table existed — under
every aliasing the binders produce, pin the LUT gather to the
interpolation it tabulates over the whole word domain, and pin the
lane-minor, box-bound MVM group and ``MVMU.execute`` — which share
``MVMU.rescale`` — to the MVM's integer definition, ``(x @ W) >>
frac_bits`` saturated (:func:`mvm_reference`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import default_config
from repro.arch.config import CoreConfig
from repro.arch.core import Core
from repro.arch.mvmu import MVMU
from repro.arch.rom_lut import RomEmbeddedRam, build_lut
from repro.arch.vfu import VectorFunctionalUnit
from repro.fixedpoint import FixedPointFormat
from repro.isa import instruction as isa
from repro.isa.opcodes import AluOp
from repro.isa.program import NodeProgram
from repro.node.node import Node
from repro.sim.tape import (ExecutionTape, MvmGroup, TapeReplayer, TapeStep,
                            _bind_alu)
from repro.sim.tapeopt import OptimizationReport, OptimizedTape
from repro.tile.shared_memory import SharedMemory

FMT = FixedPointFormat()
WIDE = FixedPointFormat(total_bits=32, frac_bits=24)
LUT_OPS = (AluOp.SIGMOID, AluOp.TANH, AluOp.LOG, AluOp.EXP)

# int_min, int_max, -1, 0, and pairs whose product is negative with odd
# low bits (the floor-vs-truncate case of the rescale), next to saturating
# sums and products.
EXTREMES = np.array([FMT.int_min, FMT.int_max, -1, 0, 1, 4097, -4097, 3,
                     -3, FMT.int_max - 1, FMT.int_min + 1, 12345, -12345,
                     2, -2, 4095], dtype=np.int64)


def make_vfu(fmt=FMT, seed=0):
    rom = RomEmbeddedRam(fmt=fmt)
    return VectorFunctionalUnit(4, fmt, lut=rom.lookup,
                                rng=np.random.default_rng(seed))


def reference(op, a, b, fmt, rng=None):
    """``op(a, b)`` as the pre-table ``_apply`` computed it."""
    def table(name, x):
        return build_lut(name, 256, fmt)._interpolate(x)

    if op == AluOp.ADD:
        return fmt.saturate(a + b)
    if op == AluOp.SUB:
        return fmt.saturate(a - b)
    if op == AluOp.MUL:
        return fmt.multiply(a, b)
    if op == AluOp.DIV:
        return fmt.divide(a, b)
    if op == AluOp.SHL:
        shift = np.clip(b, 0, fmt.total_bits - 1)
        return fmt.wrap(fmt.to_unsigned(a) << shift)
    if op == AluOp.SHR:
        return a >> np.clip(b, 0, fmt.total_bits - 1)
    if op == AluOp.AND:
        return fmt.from_unsigned(fmt.to_unsigned(a) & fmt.to_unsigned(b))
    if op == AluOp.OR:
        return fmt.from_unsigned(fmt.to_unsigned(a) | fmt.to_unsigned(b))
    if op == AluOp.NOT:
        return fmt.from_unsigned(
            ~fmt.to_unsigned(a) & ((1 << fmt.total_bits) - 1))
    if op == AluOp.RELU:
        return np.maximum(a, 0)
    if op == AluOp.MIN:
        return np.minimum(a, b)
    if op == AluOp.MAX:
        return np.maximum(a, b)
    if op == AluOp.RANDOM:
        return rng.integers(0, fmt.scale, size=a.shape, dtype=np.int64)
    if op == AluOp.LOG_SOFTMAX:
        totals = np.minimum(table(AluOp.EXP, a).sum(axis=-1, keepdims=True),
                            fmt.int_max)
        return fmt.saturate(a - table(AluOp.LOG, totals))
    return table(op, a)


KERNEL_OPS = sorted(make_vfu().kernels)


def test_every_vector_op_but_subsample_has_a_kernel():
    vector_ops = {op for op in AluOp if not op.is_compare}
    assert set(KERNEL_OPS) == vector_ops - {AluOp.SUBSAMPLE}


words = st.integers(FMT.int_min, FMT.int_max)


@pytest.mark.parametrize("op", KERNEL_OPS, ids=lambda op: op.name)
@given(drawn=st.lists(st.tuples(words, words), min_size=1, max_size=24))
@settings(max_examples=25, deadline=None)
def test_kernel_matches_the_reference_under_every_aliasing(op, drawn):
    pairs = np.array(drawn, dtype=np.int64)
    # Every extreme against every extreme, then the drawn words.
    a0 = np.concatenate([np.repeat(EXTREMES, EXTREMES.size), pairs[:, 0]])
    b0 = np.concatenate([np.tile(EXTREMES, EXTREMES.size), pairs[:, 1]])
    # Two lanes, lane-minor like a register file.
    a0 = np.stack([a0, a0[::-1]]).T.copy().T
    b0 = np.stack([b0, b0]).T.copy().T
    binary = op.num_sources == 2
    expected = reference(op, a0, b0 if binary else None, FMT,
                         rng=np.random.default_rng(5))

    for alias in ("disjoint", "a", "b"):
        if alias == "b" and not binary:
            continue
        a, b = a0.copy(order="K"), b0.copy(order="K") if binary else None
        out = {"disjoint": np.full_like(a, 77), "a": a, "b": b}[alias]
        make_vfu(seed=5).kernels[op](a, b, out)
        np.testing.assert_array_equal(out, expected, err_msg=alias)
        if alias != "a":
            np.testing.assert_array_equal(a, a0)  # operands are not scratch
        if binary and alias != "b":
            np.testing.assert_array_equal(b, b0)

    # The interpreter's entry point is the same kernel on a fresh output.
    got = make_vfu(seed=5).execute(op, a0, b0 if binary else None)
    np.testing.assert_array_equal(got, expected)


def _core(batch):
    config = CoreConfig()
    return Core(0, config, SharedMemory(64, batch=batch), batch=batch,
                rng=np.random.default_rng(0))


@pytest.mark.parametrize("rows", [slice(None)], ids=["slice"])
@pytest.mark.parametrize("offsets", [
    (0, 0, 40),     # dest == src1
    (40, 0, 40),    # dest == src2
    (0, 5, 40),     # dest overlaps src1 in part
    (40, 0, 33),    # dest overlaps src2 in part
    (4, 0, 8),      # ... and both
    (80, 0, 40),    # disjoint
])
@pytest.mark.parametrize("op", [AluOp.ADD, AluOp.MUL, AluOp.SUB, AluOp.TANH,
                                AluOp.DIV, AluOp.MAX],
                         ids=lambda op: op.name)
def test_bound_step_reads_its_sources_before_it_writes(op, offsets, rows):
    """Through the binder: in place when ranges are identical or disjoint,
    through a scratch when they overlap in part.  A bound step runs on
    every lane (``rows`` is the whole batch)."""
    core = _core(batch=3)
    base, w = core.config.general_base, 16
    dest, src1, src2 = (base + o for o in offsets)
    reg = core.registers._data
    rng = np.random.default_rng(1)
    reg[:, base:base + 128] = rng.integers(FMT.int_min, FMT.int_max + 1,
                                           size=(3, 128))
    reg[:, base:base + EXTREMES.size] = EXTREMES
    before = reg.copy()
    binary = op.num_sources == 2
    expected = before.copy()
    expected[rows, dest:dest + w] = reference(
        op, before[rows, src1:src1 + w],
        before[rows, src2:src2 + w] if binary else None, FMT)

    _bind_alu(core, isa.alu(op, dest, src1, src2, vec_width=w))()
    np.testing.assert_array_equal(reg, expected)

    # ALUI: the immediate expansion is the second operand.
    if op in (AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.DIV):
        reg[...] = before
        imm = -4097
        expected = before.copy()
        expected[rows, dest:dest + w] = reference(
            op, before[rows, src1:src1 + w], np.full(w, imm), FMT)
        _bind_alu(core, isa.alui(op, dest, src1, imm, vec_width=w),
                  core._imm_vector(imm, w))()
        np.testing.assert_array_equal(reg, expected)


@pytest.mark.parametrize("op", LUT_OPS, ids=lambda op: op.name)
@pytest.mark.parametrize("layout", ["vector", "lane-minor", "lane-major"])
def test_lut_kernel_is_the_interpolation_on_every_word(op, layout):
    table = build_lut(op, 256, FMT)
    domain = np.arange(FMT.int_min, FMT.int_max + 1, dtype=np.int64)
    expected = table._interpolate(domain)
    if layout == "vector":
        x = domain.copy()
    else:  # (batch, width) over the shuffled domain, in either memory order
        x = np.random.default_rng(0).permutation(domain).reshape(16, -1)
        expected = table._interpolate(x)
        if layout == "lane-minor":
            x = x.T.copy().T
    kernel = make_vfu().kernels[op]

    out = np.zeros_like(x)
    kernel(x, None, out)
    np.testing.assert_array_equal(out, expected)
    kernel(x, None, x)            # in place: the indices live in the output
    np.testing.assert_array_equal(x, expected)


def test_lut_evaluate_clamps_words_outside_the_format():
    table = build_lut(AluOp.TANH, 256, FMT)
    x = np.array([FMT.int_min - 5, FMT.int_max + 9, 10**9, -10**9])
    np.testing.assert_array_equal(table.evaluate(x), table._interpolate(x))


def test_wide_format_takes_the_generic_paths():
    """No dense table above 16 bits, and no float64 matmul when a column
    sum can leave the 53-bit mantissa: both keep the integer arithmetic."""
    assert build_lut(AluOp.TANH, 256, WIDE)._dense_table() is None
    vfu = make_vfu(WIDE)
    rng = np.random.default_rng(2)
    a = rng.integers(WIDE.int_min, WIDE.int_max, size=(2, 64))
    a[0, :4] = [WIDE.int_min, WIDE.int_max, -1, 0]
    b = rng.integers(-(1 << 30), 1 << 30, size=(2, 64))
    for op in (AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.TANH, AluOp.SIGMOID):
        binary = op.num_sources == 2
        out = a.copy()
        vfu.kernels[op](out, b if binary else None, out)
        np.testing.assert_array_equal(
            out, reference(op, a, b if binary else None, WIDE), op.name)

    # A lone MVM whose float64 product could round stays on MVMU.execute,
    # whose int64 product and shift are the integer definition exactly.
    wide = default_config().with_core(fixed_point=WIDE)
    matrix = rng.integers(-(1 << 28), 1 << 28, size=(128, 128))
    matrix[0, 5] = (1 << 27) + 1
    replayer, node = _mvm_replayer(matrix, 2, config=wide)
    core = node.tiles[0].cores[0]
    assert not core.mvmus[0]._f64_product_is_exact()
    assert not any(isinstance(cell.cell_contents, np.ndarray)
                   for cell in replayer.ops[0].__closure__)
    x = rng.integers(-(1 << 28), 1 << 28, size=(2, 128))
    core.registers._data[:, :128] = x
    replayer.ops[0]()
    out = core.config.xbar_out_base(0)
    expected = mvm_reference(x, matrix, WIDE)
    np.testing.assert_array_equal(core.registers._data[:, out:out + 128],
                                  expected)
    np.testing.assert_array_equal(core.mvmus[0].execute(x), expected)
    # (2**27 - 1) * (2**27 + 1) = 2**54 - 1 rounds up to 2**54 in float64:
    # the int64 shift reads 2**30 - 1 where a float rescale reads 2**30.
    x = np.zeros((2, 128), dtype=np.int64)
    x[:, 0] = (1 << 27) - 1
    core.registers._data[:, :128] = x
    replayer.ops[0]()
    assert (core.registers._data[:, out + 5] == (1 << 30) - 1).all()
    np.testing.assert_array_equal(core.registers._data[:, out:out + 128],
                                  mvm_reference(x, matrix, WIDE))


def mvm_reference(x, matrix, fmt=FMT):
    """An MVM instruction's integer definition, sharing no code with
    ``MVMU``: ``FixedPointFormat.multiply``'s semantics over the dot
    product — the int64 product ``x @ W`` shifted right by ``frac_bits``
    (floor, so negative odd products round toward -inf) and saturated."""
    product = np.asarray(x, dtype=np.int64) @ np.asarray(matrix,
                                                         dtype=np.int64)
    return fmt.saturate(product >> fmt.frac_bits)


def _mvm_replayer(matrix, batch, filter_=0, stride=0, config=None, steps=1):
    """A replayer of a plain tape of ``steps`` lone MVM steps."""
    config = config if config is not None else default_config()
    program = NodeProgram(name="mvm")
    mvm = isa.mvm(1, filter=filter_, stride=stride)
    program.tile(0).core(0).extend([mvm, isa.hlt()])
    program.weights[(0, 0, 0)] = matrix
    node = Node.for_program(config, program, lambda _delay, _cb: None,
                            seed=0, batch=batch)
    tape = ExecutionTape(steps=tuple(TapeStep(0, 0, mvm, 0)
                                     for _ in range(steps)),
                         stats_by_batch={}, recorded_batch=1)
    return TapeReplayer(tape, node, program), node


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("filter_,stride", [(0, 0), (5, 2)])
def test_lone_mvm_binds_as_a_group_of_one_equal_to_execute(batch, filter_,
                                                            stride):
    """The plain tape's MVM binds through the stacked group binder, and
    it and ``MVMU.execute`` both equal the integer definition."""
    dim = default_config().core.mvmu_dim
    rng = np.random.default_rng(3)
    matrix = rng.integers(-3000, 3000, size=(dim, dim))
    matrix[:, 0] = FMT.int_max          # saturates high
    matrix[:, 1] = FMT.int_min          # saturates low
    matrix[:, 2] = 0
    matrix[0, 2] = -1                   # product -x: negative, odd low bits
    replayer, node = _mvm_replayer(matrix, batch, filter_, stride)
    # Bound through _bind_group, not the generic per-unit closure.
    closure = replayer.ops[0].__closure__
    assert any(isinstance(cell.cell_contents, np.ndarray)
               and cell.cell_contents.shape == (1, dim, dim)
               for cell in closure)
    assert replayer.optimized is None   # no plan: the identity plan

    core = node.tiles[0].cores[0]
    cfg = core.config
    x = rng.integers(FMT.int_min, FMT.int_max + 1, size=(batch, dim))
    x[0, :4] = [1, 3, 4097, FMT.int_max]
    core.registers._data[:, :dim] = x
    replayer.ops[0]()
    shuffled = MVMU.shuffle_inputs(x, filter_, stride)
    expected = mvm_reference(shuffled, matrix)
    out = cfg.xbar_out_base(0)
    np.testing.assert_array_equal(core.registers._data[:, out:out + dim],
                                  expected)
    np.testing.assert_array_equal(core.mvmus[0].execute(shuffled), expected)
    assert (expected == FMT.int_max).any() and (
        expected == FMT.int_min).any()
    assert ((shuffled @ matrix)[:, 2] % 2 == 1).any()   # odd negatives ran


def test_execute_and_a_bound_group_share_one_rescale(monkeypatch):
    """One MVM arithmetic: the interpreter's ``MVMU.execute`` and a
    stacked group both finish their product with ``MVMU.rescale``."""
    calls = []
    rescale = MVMU.rescale

    def spy(self, full):
        calls.append(full.shape)
        return rescale(self, full)

    monkeypatch.setattr(MVMU, "rescale", spy)
    dim = default_config().core.mvmu_dim
    replayer, node = _mvm_replayer(np.eye(dim, dtype=np.int64), 3)
    replayer.ops[0]()
    assert calls == [(1, dim, 3)]
    node.tiles[0].cores[0].mvmus[0].execute(np.zeros((3, dim)))
    assert calls == [(1, dim, 3), (3, dim)]


def test_group_scratch_is_one_allocation_per_group_not_per_batch_size():
    """The group's operand and product scratch are allocated once, at
    the node's batch: no per-batch-size cache behind the group closure."""
    dim = default_config().core.mvmu_dim
    replayer, _node = _mvm_replayer(np.eye(dim, dtype=np.int64) * 4096, 8)
    scratch = [cell.cell_contents for cell in replayer.ops[0].__closure__
               if isinstance(cell.cell_contents, np.ndarray)
               and cell.cell_contents.shape == (1, dim, 8)]
    assert len(scratch) == 2   # operands and products


def _stacked_operand(op, dim):
    return next(cell.cell_contents for cell in op.__closure__
                if isinstance(cell.cell_contents, np.ndarray)
                and cell.cell_contents.shape[1:] == (dim, dim))


def test_steps_over_the_same_units_share_one_stacked_operand():
    """A recurrent plan runs the same MVMUs once per time step: one
    float64 stack per distinct member list, not one per plan op."""
    dim = default_config().core.mvmu_dim
    replayer, _node = _mvm_replayer(np.eye(dim, dtype=np.int64), 2, steps=3)
    first = _stacked_operand(replayer.ops[0], dim)
    assert all(_stacked_operand(op, dim) is first for op in replayer.ops)


def _box(rng, dim, rows, cols):
    """A matrix that is zero outside ``rows`` x ``cols``."""
    matrix = np.zeros((dim, dim), dtype=np.int64)
    matrix[rows, cols] = rng.integers(-3000, 3000,
                                      size=matrix[rows, cols].shape)
    return matrix


def _group_replayer(members, batch, config=None):
    """A replayer whose plan is one MvmGroup with one MVM step per core:
    ``members[c]`` is core c's ``(matrices, filter, stride)``, one
    matrix per active MVMU."""
    config = config if config is not None else default_config()
    program = NodeProgram(name="group")
    steps = []
    for core_id, (matrices, filter_, stride) in enumerate(members):
        mvm = isa.mvm((1 << len(matrices)) - 1, filter=filter_,
                      stride=stride)
        program.tile(0).core(core_id).extend([mvm, isa.hlt()])
        for m, matrix in enumerate(matrices):
            program.weights[(0, core_id, m)] = matrix
        steps.append(TapeStep(0, core_id, mvm, 0))
    node = Node.for_program(config, program, lambda _delay, _cb: None,
                            seed=0, batch=batch)
    tape = ExecutionTape(steps=tuple(steps), stats_by_batch={},
                         recorded_batch=1)
    plan = OptimizedTape(plan=(MvmGroup(steps=tuple(steps)),),
                         report=OptimizationReport(
                             len(steps), 1, 0, 0, 0, 0, 0, 1, len(steps)))
    return TapeReplayer(tape, node, program, plan), node


def _run_group_against_the_definition(members, batch, seed, config=None):
    """Bind ``members`` as one group, fill every register with words,
    run the group, and check each unit's XbarOut — and ``MVMU.execute``
    on the same operands — against :func:`mvm_reference`.  Returns the
    replayer and the union box ``((r0, r1), (c0, c1))``."""
    replayer, node = _group_replayer(members, batch, config)
    cfg = node.tiles[0].cores[0].config
    dim = cfg.mvmu_dim
    (_stack, rows, (c0, c1), *_scratch), = replayer._stacks.values()
    rng = np.random.default_rng(seed)
    cores = node.tiles[0].cores
    for core_id in range(len(members)):
        regs = cores[core_id].registers._data
        regs[...] = rng.integers(FMT.int_min, FMT.int_max + 1,
                                 size=regs.shape)
    before = [core.registers._data.copy() for core in cores]
    replayer.ops[0]()
    for core_id, (matrices, filter_, stride) in enumerate(members):
        regs = cores[core_id].registers._data
        for m, matrix in enumerate(matrices):
            x = MVMU.shuffle_inputs(
                before[core_id][:, cfg.xbar_in_base(m):
                                cfg.xbar_in_base(m) + dim], filter_, stride)
            expected = mvm_reference(x, matrix)
            out = cfg.xbar_out_base(m)
            got = regs[:, out:out + dim]
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(
                cores[core_id].mvmus[m].execute(x), expected)
            assert not got[:, :c0].any() and not got[:, c1:].any()
    return replayer, (rows, (c0, c1))


def _group_cases(dim):
    rng = np.random.default_rng(8)
    inner = _box(rng, dim, slice(5, 40), slice(7, 30))    # zero on all sides
    low = _box(rng, dim, slice(60, 100), slice(0, 10))    # a different box
    full = rng.integers(-3000, 3000, size=(dim, dim))
    zero = np.zeros((dim, dim), dtype=np.int64)
    return {
        "two-boxes-and-zero": [([inner, low], 5, 2), ([zero], 0, 0)],
        "full-and-box": [([full], 0, 0), ([inner], 3, 1)],
        "box-shuffled": [([inner], 4, 3)],
        "all-zero": [([zero], 0, 0)],
    }


@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("case", ["two-boxes-and-zero", "full-and-box",
                                  "box-shuffled", "all-zero"])
def test_box_bound_group_equals_per_unit_execute(case, batch):
    """A stacked group bound to its members' union nonzero box, DAC rows
    gathered through each member's shuffle, is bitwise the integer
    definition of every member's MVM — as ``MVMU.execute`` is — with
    garbage in every XbarOut register beforehand, columns outside the
    box included."""
    dim = default_config().core.mvmu_dim
    members = _group_cases(dim)[case]
    replayer, ((r0, r1), (c0, c1)) = _run_group_against_the_definition(
        members, batch, seed=batch)
    (stack, *_box_and_scratch), = replayer._stacks.values()
    nonzero = np.zeros((dim, dim), dtype=bool)
    for matrices, _f, _s in members:
        for matrix in matrices:
            nonzero |= matrix != 0
    assert nonzero[r0:r1, c0:c1].sum() == nonzero.sum()   # the box holds all
    assert stack.shape == (sum(len(m) for m, _f, _s in members),
                           c1 - c0, r1 - r0)
    if case != "full-and-box":
        assert stack[0].size < dim * dim                  # narrower than dim


@given(dim=st.sampled_from([8, 32, 128]),
       units=st.lists(st.integers(1, 2), min_size=1, max_size=3),
       batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       zero_share=st.sampled_from([0.0, 0.3, 0.9]),
       shuffle=st.booleans())
@settings(max_examples=20, deadline=None)
def test_execute_and_bound_groups_are_the_integer_definition(
        dim, units, batch, seed, zero_share, shuffle):
    """Over crossbar dims, group sizes (``units[c]`` MVMUs on core c,
    k = their sum), batches, extreme and ordinary words, zero rows and
    columns anywhere and shuffled inputs: a bound group and
    ``MVMU.execute`` both equal ``(x @ W) >> frac_bits``, saturated,
    bitwise."""
    rng = np.random.default_rng(seed)

    def words(shape):
        drawn = rng.integers(FMT.int_min, FMT.int_max + 1, size=shape)
        pick = rng.integers(0, 3, size=shape)
        drawn[pick == 1] = rng.choice(EXTREMES, size=int((pick == 1).sum()))
        drawn[pick == 2] = rng.integers(-300, 300, size=int((pick == 2).sum()))
        return drawn

    members = []
    for count in units:
        matrices = []
        for _ in range(count):
            matrix = words((dim, dim))
            matrix[rng.random(dim) < zero_share, :] = 0
            matrix[:, rng.random(dim) < zero_share] = 0
            matrices.append(matrix)
        filter_ = int(rng.integers(1, dim + 1)) if shuffle else 0
        stride = int(rng.integers(0, max(filter_, 1)))
        members.append((matrices, filter_, stride))
    _run_group_against_the_definition(
        members, batch, seed, default_config().with_core(mvmu_dim=dim))
