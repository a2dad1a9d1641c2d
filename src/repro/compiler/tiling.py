"""Tiling: lower the computation DAG to MVMU-sized tasks (Section 5.2).

"The compiler divides tensors into 2D tiles, each the size of one MVMU,
with appropriate padding, and divides the corresponding vectors and
operations in the model accordingly."

Every vector is segmented at multiples of the MVMU dimension.  A MATVEC
becomes a grid of :data:`TaskKind.MVM_TILE` tasks (one per 2-D weight tile,
each bound to one MVMU for the model's lifetime) feeding a
:data:`TaskKind.REDUCE` per output segment that sums the partial products.
Elementwise and unary operations become one task per segment.  CONCAT and
SLICE become GATHER tasks that assemble an output segment from pieces of
input segments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.arch.config import PumaConfig
from repro.compiler.frontend import Model, NodeKind
from repro.isa.opcodes import AluOp


class TaskKind(enum.Enum):
    INPUT_SEG = "input"     # one segment of a model input (memory resident)
    CONST_SEG = "const"     # one segment of a constant vector
    MVM_TILE = "mvm"        # one 2-D weight tile on one MVMU
    REDUCE = "reduce"       # sum of MVM partials for one output segment
    EWISE = "ewise"         # elementwise binary over one segment
    EWISE_IMM = "ewise_imm"
    UNARY = "unary"
    RANDOM = "random"
    GATHER = "gather"       # assemble a segment from pieces (concat/slice)
    OUTPUT_SEG = "output"   # store one output segment at its final address


@dataclass(frozen=True)
class Piece:
    """A slice of a producer task's value: ``producer[offset:offset+length]``."""

    task_id: int
    offset: int
    length: int


@dataclass
class Task:
    """One segment-level operation in the tiled graph."""

    task_id: int
    kind: TaskKind
    width: int                       # output width (<= mvmu_dim)
    inputs: list[Piece] = field(default_factory=list)
    alu_op: Optional[AluOp] = None
    weights: Optional[np.ndarray] = None   # (dim, dim) ints for MVM_TILE
    in_width: int = 0                      # used rows of an MVM tile
    const_values: Optional[np.ndarray] = None
    immediate: int = 0
    name: str = ""                   # input/output name
    node_id: int = -1                # provenance
    seg_index: int = 0
    matvec_key: tuple[str, int, int] | None = None  # (matrix, out_seg, node)
    # All MVM invocations of one weight block share one physical MVMU:
    # crossbars are written once at configuration time (Section 3.2.5) and
    # re-fired for every use (LSTM steps, repeated layers).
    weight_key: tuple[str, int, int] | None = None  # (matrix, in_seg, out_seg)

    def input_ids(self) -> list[int]:
        return [p.task_id for p in self.inputs]


@dataclass
class TiledGraph:
    """The segment-level task graph plus vector segment bookkeeping."""

    tasks: list[Task] = field(default_factory=list)
    # node_id -> ordered task ids producing that node's segments
    node_segments: dict[int, list[int]] = field(default_factory=dict)
    # node_id -> segment start offsets (parallel to node_segments)
    node_offsets: dict[int, list[int]] = field(default_factory=dict)
    input_nodes: dict[str, int] = field(default_factory=dict)
    output_nodes: dict[str, int] = field(default_factory=dict)

    def add(self, task: Task) -> Task:
        task.task_id = len(self.tasks)
        self.tasks.append(task)
        return task

    def task(self, task_id: int) -> Task:
        return self.tasks[task_id]

    def consumers(self) -> dict[int, list[int]]:
        """Map task id -> consumer task ids (with multiplicity)."""
        out: dict[int, list[int]] = {t.task_id: [] for t in self.tasks}
        for t in self.tasks:
            if t.kind == TaskKind.RANDOM:
                continue  # length-only dependence, no data consumed
            for piece in t.inputs:
                out[piece.task_id].append(t.task_id)
        return out


def _segment_offsets(length: int, dim: int) -> list[int]:
    return list(range(0, length, dim))


def _pieces_for_range(graph: TiledGraph, node_id: int, start: int,
                      length: int, dim: int) -> list[Piece]:
    """Pieces of ``node_id``'s segments covering [start, start+length)."""
    seg_ids = graph.node_segments[node_id]
    offsets = graph.node_offsets[node_id]
    pieces = []
    remaining = length
    pos = start
    while remaining > 0:
        seg_idx = pos // dim
        seg_start = offsets[seg_idx]
        seg_width = graph.task(seg_ids[seg_idx]).width
        in_seg_off = pos - seg_start
        take = min(remaining, seg_width - in_seg_off)
        pieces.append(Piece(seg_ids[seg_idx], in_seg_off, take))
        pos += take
        remaining -= take
    return pieces


def tile_model(model: Model, config: PumaConfig) -> TiledGraph:
    """Lower a validated model DAG into the segment-level task graph."""
    model.validate()
    dim = config.core.mvmu_dim
    fmt = config.core.fixed_point
    graph = TiledGraph()
    quantized: dict[str, np.ndarray] = {}

    for node in model.nodes:
        offsets = _segment_offsets(node.length, dim)
        seg_ids: list[int] = []

        if node.kind == NodeKind.INPUT:
            for k, off in enumerate(offsets):
                width = min(dim, node.length - off)
                t = graph.add(Task(-1, TaskKind.INPUT_SEG, width,
                                   name=node.name, node_id=node.node_id,
                                   seg_index=k))
                seg_ids.append(t.task_id)
            graph.input_nodes[node.name] = node.node_id

        elif node.kind == NodeKind.CONST:
            values = fmt.quantize(node.values)
            for k, off in enumerate(offsets):
                width = min(dim, node.length - off)
                t = graph.add(Task(-1, TaskKind.CONST_SEG, width,
                                   const_values=values[off:off + width],
                                   name=node.name, node_id=node.node_id,
                                   seg_index=k))
                seg_ids.append(t.task_id)

        elif node.kind == NodeKind.MATVEC:
            # One matrix serves every time step of a recurrent model.
            weights = quantized.get(node.matrix_name)
            if weights is None:
                weights = quantized[node.matrix_name] = fmt.quantize(
                    model.matrices[node.matrix_name])
            src = node.inputs[0]
            src_offsets = graph.node_offsets[src]
            src_segs = graph.node_segments[src]
            for j, out_off in enumerate(offsets):
                out_width = min(dim, node.length - out_off)
                partials: list[Piece] = []
                for i, in_off in enumerate(src_offsets):
                    in_width = graph.task(src_segs[i]).width
                    block = np.zeros((dim, dim), dtype=np.int64)
                    block[:in_width, :out_width] = weights[
                        in_off:in_off + in_width, out_off:out_off + out_width]
                    mvm = graph.add(Task(
                        -1, TaskKind.MVM_TILE, out_width,
                        inputs=[Piece(src_segs[i], 0,
                                      graph.task(src_segs[i]).width)],
                        weights=block, in_width=in_width,
                        node_id=node.node_id, seg_index=j,
                        matvec_key=(node.matrix_name, j, node.node_id),
                        weight_key=(node.matrix_name, i, j)))
                    partials.append(Piece(mvm.task_id, 0, out_width))
                reduce_task = graph.add(Task(
                    -1, TaskKind.REDUCE, out_width, inputs=partials,
                    node_id=node.node_id, seg_index=j))
                seg_ids.append(reduce_task.task_id)

        elif node.kind in (NodeKind.EWISE, NodeKind.UNARY,
                           NodeKind.EWISE_IMM, NodeKind.RANDOM):
            kind = {NodeKind.EWISE: TaskKind.EWISE,
                    NodeKind.UNARY: TaskKind.UNARY,
                    NodeKind.EWISE_IMM: TaskKind.EWISE_IMM,
                    NodeKind.RANDOM: TaskKind.RANDOM}[node.kind]
            imm = int(fmt.quantize(node.immediate)) \
                if node.kind == NodeKind.EWISE_IMM else 0
            for k, off in enumerate(offsets):
                width = min(dim, node.length - off)
                pieces = []
                if node.kind != NodeKind.RANDOM:
                    # RANDOM's frontend input only fixes the length; the
                    # task itself consumes no data.
                    for src in node.inputs:
                        src_task = graph.node_segments[src][k]
                        pieces.append(Piece(src_task, 0, width))
                t = graph.add(Task(-1, kind, width, inputs=pieces,
                                   alu_op=node.alu_op, immediate=imm,
                                   node_id=node.node_id, seg_index=k))
                seg_ids.append(t.task_id)

        elif node.kind in (NodeKind.CONCAT, NodeKind.SLICE):
            # Build each output segment from the covering input pieces.
            if node.kind == NodeKind.CONCAT:
                spans = []  # (node_id, start) per element run
                for src in node.inputs:
                    spans.append((src, model.node(src).length))
            for k, off in enumerate(offsets):
                width = min(dim, node.length - off)
                pieces: list[Piece] = []
                if node.kind == NodeKind.SLICE:
                    pieces = _pieces_for_range(
                        graph, node.inputs[0], node.slice_start + off,
                        width, dim)
                else:
                    # Walk the concatenated inputs covering [off, off+width).
                    remaining, pos = width, off
                    for src, src_len in spans:
                        if remaining == 0:
                            break
                        if pos >= src_len:
                            pos -= src_len
                            continue
                        take = min(remaining, src_len - pos)
                        pieces.extend(_pieces_for_range(
                            graph, src, pos, take, dim))
                        remaining -= take
                        pos = 0
                t = graph.add(Task(-1, TaskKind.GATHER, width, inputs=pieces,
                                   node_id=node.node_id, seg_index=k))
                seg_ids.append(t.task_id)

        elif node.kind == NodeKind.OUTPUT:
            src = node.inputs[0]
            for k, off in enumerate(offsets):
                width = min(dim, node.length - off)
                src_task = graph.node_segments[src][k]
                t = graph.add(Task(-1, TaskKind.OUTPUT_SEG, width,
                                   inputs=[Piece(src_task, 0, width)],
                                   name=node.name, node_id=node.node_id,
                                   seg_index=k))
                seg_ids.append(t.task_id)
            graph.output_nodes[node.name] = node.node_id

        else:
            raise ValueError(f"cannot tile node kind {node.kind}")

        graph.node_segments[node.node_id] = seg_ids
        graph.node_offsets[node.node_id] = offsets

    return graph
