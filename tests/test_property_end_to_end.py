"""Property-based end-to-end fuzzing: random models, compiled and
simulated, must match a float numpy reference within fixed-point error.

This is the repository's strongest invariant: whatever DAG the frontend
can express, the whole toolchain — tiling, partitioning, coalescing,
global scheduling, register allocation, code generation, the event-driven
simulator with its blocking synchronization — must compute the same
function as numpy.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CompilerOptions, Simulator, compile_model, default_config
from repro.compiler.frontend import (
    ConstMatrix,
    InVector,
    Model,
    OutVector,
    concat,
    const_vector,
    maximum,
    relu,
    sigmoid,
    tanh,
)
from repro.fixedpoint import FixedPointFormat

FMT = FixedPointFormat()
CFG = default_config()

_UNARY = {
    "relu": (relu, lambda v: np.maximum(v, 0)),
    "sigmoid": (sigmoid, lambda v: 1 / (1 + np.exp(-v))),
    "tanh": (tanh, np.tanh),
}


class _Builder:
    """Mirrors a random frontend model with a float reference."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.model = Model.create(f"fuzz{seed}")
        self.exprs = []      # (VectorExpr, np.ndarray reference)
        self.inputs = {}
        self.n_mat = 0

    def add_input(self, length: int) -> None:
        name = f"x{len(self.inputs)}"
        value = self.rng.normal(0, 0.4, size=length)
        self.inputs[name] = value
        self.exprs.append((InVector.create(self.model, length, name), value))

    def add_const(self, length: int) -> None:
        value = self.rng.normal(0, 0.4, size=length)
        expr = const_vector(self.model, value, f"c{len(self.exprs)}")
        self.exprs.append((expr, value))

    def pick(self):
        return self.exprs[self.rng.integers(len(self.exprs))]

    def apply_random_op(self, kind: int) -> None:
        expr, ref = self.pick()
        if kind == 0:  # matvec (kept small to bound tiles)
            out_len = int(self.rng.integers(4, 40))
            w = self.rng.normal(0, 0.6 / np.sqrt(len(ref)),
                                size=(len(ref), out_len))
            mat = ConstMatrix.create(self.model, len(ref), out_len,
                                     f"m{self.n_mat}", w)
            self.n_mat += 1
            self.exprs.append((mat @ expr, ref @ w))
        elif kind == 1:  # elementwise binary with a same-length operand
            other, other_ref = self.pick()
            if len(other_ref) != len(ref):
                self.exprs.append((expr + 0.25, ref + 0.25))
                return
            op = self.rng.integers(3)
            if op == 0:
                self.exprs.append((expr + other, ref + other_ref))
            elif op == 1:
                self.exprs.append((expr - other, ref - other_ref))
            else:
                self.exprs.append((expr * other, ref * other_ref))
        elif kind == 2:  # unary nonlinearity
            name = ("relu", "sigmoid", "tanh")[self.rng.integers(3)]
            fn, ref_fn = _UNARY[name]
            self.exprs.append((fn(expr), ref_fn(ref)))
        elif kind == 3:  # immediate
            imm = float(self.rng.uniform(-1.5, 1.5))
            self.exprs.append((expr * imm, ref * imm))
        elif kind == 4:  # concat + slice
            other, other_ref = self.pick()
            joined = concat([expr, other])
            joined_ref = np.concatenate([ref, other_ref])
            start = int(self.rng.integers(0, len(joined_ref) // 2 + 1))
            stop = int(self.rng.integers(start + 1, len(joined_ref) + 1))
            self.exprs.append((joined[start:stop], joined_ref[start:stop]))
        else:  # maximum
            other, other_ref = self.pick()
            if len(other_ref) != len(ref):
                self.exprs.append((relu(expr), np.maximum(ref, 0)))
                return
            self.exprs.append((maximum(expr, other),
                               np.maximum(ref, other_ref)))

    def finish(self):
        expr, ref = self.exprs[-1]
        out = OutVector.create(self.model, len(ref), "out")
        out.assign(expr)
        return ref


@st.composite
def random_model_specs(draw):
    seed = draw(st.integers(0, 10_000))
    n_inputs = draw(st.integers(1, 3))
    lengths = [draw(st.integers(4, 160)) for _ in range(n_inputs)]
    n_ops = draw(st.integers(1, 10))
    op_kinds = [draw(st.integers(0, 5)) for _ in range(n_ops)]
    n_consts = draw(st.integers(0, 2))
    options = CompilerOptions(
        partition=draw(st.sampled_from(["affinity", "random"])),
        schedule=draw(st.sampled_from(["reverse_postorder", "naive"])),
        coalesce_mvms=draw(st.booleans()),
        seed=seed,
    )
    return seed, lengths, op_kinds, n_consts, options


# Found by an unseeded run: two gathers share a gather operand on a core
# whose registers are exhausted, so the first consumer takes the chunked
# fallback (see test_chunked_gather_keeps_its_operand_for_later_consumers).
CHUNKED_GATHER_SPEC = (
    1048, [69, 152], [0, 1, 1, 1, 2, 4, 0, 0], 0,
    CompilerOptions(partition="affinity", schedule="reverse_postorder",
                    coalesce_mvms=False, seed=1048))


def _compile_spec(spec):
    """Build ``spec``'s model; returns ``(builder, reference, compiled)``."""
    seed, lengths, op_kinds, n_consts, options = spec
    builder = _Builder(seed)
    for length in lengths:
        builder.add_input(length)
    for _ in range(n_consts):
        builder.add_const(int(builder.rng.integers(4, 64)))
    for kind in op_kinds:
        builder.apply_random_op(kind)
    reference = builder.finish()
    # Values the 16-bit format cannot hold make the comparison moot;
    # clamp the reference exactly as the hardware saturates.
    reference = np.clip(reference, FMT.min_value, FMT.max_value)
    return builder, reference, compile_model(builder.model, CFG, options)


def _assert_matches_numpy(builder, reference, compiled):
    sim = Simulator(CFG, compiled.program, seed=0)
    outputs = sim.run({k: FMT.quantize(v)
                       for k, v in builder.inputs.items()})
    result = FMT.dequantize(outputs["out"])

    # Fixed-point error compounds along op chains; saturation regions are
    # checked with a loose bound, interior values tightly.
    interior = np.abs(reference) < 7.5
    np.testing.assert_allclose(result[interior], reference[interior],
                               atol=0.08)
    np.testing.assert_allclose(result, reference, atol=0.6)


@given(random_model_specs())
@example(CHUNKED_GATHER_SPEC)
@settings(max_examples=40, deadline=None)
def test_random_models_match_numpy(spec):
    _assert_matches_numpy(*_compile_spec(spec))


def test_chunked_gather_keeps_its_operand_for_later_consumers():
    """A register-resident value read in chunks is read *once*.

    The chunked-to-memory fallback stages a wide operand 16 words at a
    time; counting each chunk as one of the operand's planned register
    reads freed its registers while a second consumer on the same core
    still needed them (``CodegenError: gather operand 12 unreachable from
    core (0, 0)``).
    """
    builder, reference, compiled = _compile_spec(CHUNKED_GATHER_SPEC)
    comments = [instr.comment or ""
                for tile in compiled.program.tiles.values()
                for core in tile.cores.values()
                for instr in core.instructions]
    # The case must keep exercising the path it pins.
    assert any("fallback gather" in c for c in comments)
    _assert_matches_numpy(builder, reference, compiled)


@given(st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_compilation_deterministic(seed):
    """Property: compiling the same model twice yields identical programs."""
    def build():
        builder = _Builder(seed)
        builder.add_input(60)
        for kind in (0, 2, 1, 0, 3):
            builder.apply_random_op(kind)
        builder.finish()
        return builder.model

    a = compile_model(build(), CFG)
    b = compile_model(build(), CFG)
    assert a.order == b.order
    for tid, tile in a.program.tiles.items():
        other = b.program.tiles[tid]
        assert tile.tile_instructions == other.tile_instructions
        for cid, core in tile.cores.items():
            assert core.instructions == other.cores[cid].instructions
