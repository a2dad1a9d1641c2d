"""The word-at-a-time static analysis, kept as the differential oracle.

``repro.analysis`` reasons about register and shared-memory words in
bulk (bitmasks, owner lists and per-tile arrays updated by slice).  The
bodies below are the word-level implementations it replaced, moved here
verbatim: one Python step per word, slow and easy to audit.
``tests/test_analysis_oracle.py`` holds the interval form to them — same
facts, same diagnostics, field by field and in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.checks import _loc, _word_range
from repro.analysis.commgraph import PERSISTENT_COUNT
from repro.analysis.dataflow import Effects, Interval
from repro.analysis.depgraph import StaticDependenceGraph
from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.isa.instruction import Instruction
from repro.isa.opcodes import AluOp, Opcode


@dataclass
class Definition:
    """One definite register write and what became of its words."""

    pc: int
    start: int
    width: int
    reads: int = 0
    live_words: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.live_words:
            self.live_words = set(range(self.start, self.start + self.width))


@dataclass
class StraightLineFacts:
    """Findings of the exact forward scan over a straight-line stream."""

    use_before_def: list[tuple[int, int]] = field(default_factory=list)
    dead_stores: list[Definition] = field(default_factory=list)
    clobbers: list[tuple[int, Definition]] = field(default_factory=list)
    definitions: list[Definition] = field(default_factory=list)


def scan_straight_line(instructions: list[Instruction],
                       effects: list[Effects],
                       num_registers: int,
                       predefined: bool = False) -> StraightLineFacts:
    """Exact word-level scan of a branch-free stream."""
    facts = StraightLineFacts()
    defined = [predefined] * num_registers
    maybe = [False] * num_registers
    def_of: list[Definition | None] = [None] * num_registers

    def clip(interval: Interval) -> range:
        start, width = interval
        return range(min(start, num_registers),
                     min(start + width, num_registers))

    for pc, (instr, eff) in enumerate(zip(instructions, effects)):
        for interval in eff.reads:
            for word in clip(interval):
                if not defined[word] and not maybe[word]:
                    facts.use_before_def.append((pc, word))
                if def_of[word] is not None:
                    def_of[word].reads += 1
        for interval in eff.may_reads:
            for word in clip(interval):
                if def_of[word] is not None:
                    def_of[word].reads += 1
        for interval in eff.writes:
            start = interval[0]
            width = len(clip(interval))
            if width <= 0:
                continue
            definition = Definition(pc=pc, start=start, width=width)
            facts.definitions.append(definition)
            for word in clip(interval):
                old = def_of[word]
                if old is not None:
                    old.live_words.discard(word)
                    if not old.live_words and old.reads == 0:
                        facts.clobbers.append((pc, old))
                defined[word] = True
                def_of[word] = definition
        for interval in eff.may_writes:
            for word in clip(interval):
                maybe[word] = True
                # A may-write leaves the old definition conservatively
                # live: its value might survive.
    for definition in facts.definitions:
        if definition.reads == 0 and definition.live_words:
            facts.dead_stores.append(definition)
    return facts


def may_defined_in(cfg: ControlFlowGraph, effects: list[Effects],
                   num_registers: int,
                   predefined: bool = False) -> list[set[int]]:
    """Per-block "maybe defined at entry" word sets (union fixpoint)."""
    everything = set(range(num_registers))
    gen: list[set[int]] = []
    for block in cfg.blocks:
        words: set[int] = set()
        for pc in range(block.start, block.end):
            for interval in effects[pc].all_writes():
                start, width = interval
                words.update(range(min(start, num_registers),
                                   min(start + width, num_registers)))
        gen.append(words)
    preds: list[list[int]] = [[] for _ in cfg.blocks]
    for block in cfg.blocks:
        for succ in block.successors:
            if succ >= 0:
                preds[succ].append(block.index)
    entry = everything if predefined else set()
    live_in = [set(entry) for _ in cfg.blocks]
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            new_in = set(entry) if block.index == 0 else set()
            for pred in preds[block.index]:
                new_in |= live_in[pred] | gen[pred]
            if block.index == 0:
                for pred in preds[0]:
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
        defined = set(live_in[block.index])
        for pc in range(block.start, block.end):
            eff = effects[pc]
            for interval in eff.reads:
                start, width = interval
                for word in range(min(start, num_registers),
                                  min(start + width, num_registers)):
                    if word not in defined:
                        findings.append((pc, word))
            for interval in eff.all_writes():
                start, width = interval
                defined.update(range(min(start, num_registers),
                                     min(start + width, num_registers)))
    return findings


def check_shared_memory(graph: StaticDependenceGraph) -> list[Diagnostic]:
    """Definedness and count conservation of shared-memory words."""
    out: list[Diagnostic] = []
    comm = graph.comm
    for tile_id in sorted(comm.mem_reads):
        if tile_id in comm.dynamic_tiles:
            continue
        preloaded = comm.preloaded.get(tile_id, set())
        counts: dict[int, int] = {}
        persistent: set[int] = set(preloaded)
        last_writer: dict[int, object] = {}
        for write in comm.mem_writes[tile_id]:
            for word in range(write.addr, write.addr + write.width):
                if write.count == PERSISTENT_COUNT:
                    persistent.add(word)
                else:
                    counts[word] = counts.get(word, 0) + write.count
                last_writer[word] = write
        written = set(last_writer) | preloaded
        reads: dict[int, int] = {}
        for read in comm.mem_reads[tile_id]:
            missing = [w for w in range(read.addr, read.addr + read.width)
                       if w not in written]
            if missing:
                out.append(Diagnostic(
                    "mem-load-undefined", Severity.ERROR,
                    Location(tile=read.tile, core=read.core, pc=read.pc),
                    f"reads shared-memory {_word_range(missing)} which "
                    f"nothing stores, receives, or preloads"))
            for word in range(read.addr, read.addr + read.width):
                reads[word] = reads.get(word, 0) + 1
        flagged: set[int] = set()
        for word in sorted(counts):
            if word in persistent or word in flagged:
                continue
            n_reads = reads.get(word, 0)
            if counts[word] == n_reads:
                continue
            writer = last_writer[word]
            span = [w for w in range(writer.addr,
                                     writer.addr + writer.width)
                    if counts.get(w) == counts[word]
                    and reads.get(w, 0) == n_reads
                    and w not in persistent]
            flagged.update(span)
            location = Location(tile=writer.tile, core=writer.core,
                                pc=writer.pc)
            detail = (f"{_word_range(span)} carries total consume count "
                      f"{counts[word]} but has {n_reads} static read"
                      f"{'s' if n_reads != 1 else ''}")
            if counts[word] < n_reads:
                out.append(Diagnostic(
                    "mem-count-imbalance", Severity.ERROR, location,
                    f"{detail}; a reader will block forever"))
            else:
                out.append(Diagnostic(
                    "mem-count-overprovision", Severity.WARNING, location,
                    f"{detail}; the words are never invalidated"))
    return out


def check_lut_domain(graph: StaticDependenceGraph) -> list[Diagnostic]:
    """Constants outside a ROM-LUT's domain feeding a transcendental."""
    out: list[Diagnostic] = []
    for info in graph.streams.values():
        if info.core is None or not info.is_straight_line:
            continue
        const: dict[int, int] = {}
        for pc, instr in enumerate(info.instructions):
            if instr.opcode == Opcode.ALU and instr.alu_op == AluOp.LOG:
                checked = range(instr.src1, instr.src1 + instr.vec_width)
                bad = next((w for w in checked
                            if const.get(w) is not None
                            and const[w] <= 0), None)
                if bad is not None:
                    out.append(Diagnostic(
                        "lut-domain", Severity.ERROR, _loc(info, pc),
                        f"log of non-positive constant {const[bad]} in "
                        f"r{bad} (outside the LUT domain)"))
            if instr.opcode == Opcode.SET:
                for w in range(instr.dest,
                               instr.dest + instr.vec_width):
                    const[w] = instr.imm
            elif instr.opcode == Opcode.COPY:
                for k in range(instr.vec_width):
                    value = const.get(instr.src1 + k)
                    if value is None:
                        const.pop(instr.dest + k, None)
                    else:
                        const[instr.dest + k] = value
            else:
                for start, width in info.effects[pc].all_writes():
                    for w in range(start, start + width):
                        const.pop(w, None)
    return out
