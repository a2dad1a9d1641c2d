"""The checker suite: every static check, each emitting typed diagnostics.

Checks consume a :class:`~repro.analysis.depgraph.StaticDependenceGraph`
(streams + communication graph) and return
:class:`~repro.analysis.diagnostics.Diagnostic` lists.  The catalog below
is the contract rendered in ``docs/analysis.md``; check ids are stable —
tests and lint baselines key on them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analysis.commgraph import PERSISTENT_COUNT
from repro.analysis.dataflow import (
    _bits,
    loop_use_before_def,
    scan_straight_line,
)
from repro.analysis.depgraph import StaticDependenceGraph, StreamInfo
from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.isa.opcodes import AluOp, Opcode

# check id -> (severity, one-line description); the docs page renders this.
CHECK_CATALOG: dict[str, tuple[Severity, str]] = {
    "reg-use-before-def": (
        Severity.ERROR,
        "a core instruction reads a register no instruction has written"),
    "reg-dead-store": (
        Severity.WARNING,
        "a register value is written but never read before the stream ends"),
    "reg-clobber-before-consume": (
        Severity.ERROR,
        "a register value is completely overwritten before any read"),
    "noc-send-unbalanced": (
        Severity.ERROR,
        "a (tile, fifo) flow sends more words than its receives consume"),
    "noc-receive-unbalanced": (
        Severity.ERROR,
        "a (tile, fifo) flow receives more words than are ever sent"),
    "noc-width-mismatch": (
        Severity.ERROR,
        "the k-th send and k-th receive of a flow disagree on width"),
    "noc-comm-cycle": (
        Severity.INFO,
        "tiles form a communication cycle (potential deadlock shape)"),
    "mem-load-undefined": (
        Severity.ERROR,
        "a load/send reads shared-memory words nothing writes or preloads"),
    "mem-count-imbalance": (
        Severity.ERROR,
        "shared-memory words carry fewer consume counts than static "
        "reads — a reader will block forever"),
    "mem-count-overprovision": (
        Severity.WARNING,
        "shared-memory words carry more consume counts than static "
        "reads — they are never invalidated (attribute-entry leak)"),
    "lut-domain": (
        Severity.ERROR,
        "a constant outside the ROM-LUT domain feeds a transcendental"),
    "cfg-unreachable": (
        Severity.WARNING,
        "instructions can never execute (dead code)"),
    "cfg-fall-off-end": (
        Severity.WARNING,
        "execution can leave a stream without reaching hlt"),
}


def _loc(info: StreamInfo, pc: int | None = None) -> Location:
    return Location(tile=info.tile, core=info.core, pc=pc)


def _reg_range(words: list[int]) -> str:
    lo, hi = min(words), max(words)
    return f"r{lo}" if lo == hi else f"r{lo}..r{hi}"


def _group_by_pc(findings: list[tuple[int, int]]) -> dict[int, list[int]]:
    grouped: dict[int, list[int]] = {}
    for pc, word in findings:
        grouped.setdefault(pc, []).append(word)
    return grouped


def check_register_dataflow(
        graph: StaticDependenceGraph) -> list[Diagnostic]:
    """use-before-def, dead stores, clobber-before-consume (core streams).

    Tile control streams are exempt: the tile scalar file is
    zero-initialized and indexed mod 64, so every read is well-defined.
    """
    out: list[Diagnostic] = []
    for info in graph.streams.values():
        if info.core is None:
            continue
        if not info.is_straight_line:
            findings = loop_use_before_def(
                info.cfg, info.effects, info.num_registers,
                predefined=info.predefined)
            for pc, words in sorted(_group_by_pc(findings).items()):
                out.append(Diagnostic(
                    "reg-use-before-def", Severity.ERROR, _loc(info, pc),
                    f"reads {_reg_range(words)} which no path defines"))
            continue
        facts = scan_straight_line(
            info.instructions, info.effects, info.num_registers,
            predefined=info.predefined)
        for pc, words in sorted(_group_by_pc(facts.use_before_def).items()):
            out.append(Diagnostic(
                "reg-use-before-def", Severity.ERROR, _loc(info, pc),
                f"reads {_reg_range(words)} before any write defines it"))
        for pc, definition in facts.clobbers:
            span = _reg_range([definition.start,
                               definition.start + definition.width - 1])
            out.append(Diagnostic(
                "reg-clobber-before-consume", Severity.ERROR,
                _loc(info, pc),
                f"overwrites the value of {span} defined at "
                f"pc={definition.pc} before anything read it"))
        for definition in facts.dead_stores:
            span = _reg_range([definition.start,
                               definition.start + definition.width - 1])
            out.append(Diagnostic(
                "reg-dead-store", Severity.WARNING,
                _loc(info, definition.pc),
                f"value written to {span} is never read"))
    return out


def check_noc_balance(graph: StaticDependenceGraph) -> list[Diagnostic]:
    """Send/receive pairing, word balance, and width agreement per flow.

    Flows touching a *dynamic* tile (loops or register-indirect
    addressing) are skipped — their traffic repeats at runtime and only
    the tape cross-check can account for it exactly.
    """
    out: list[Diagnostic] = []
    comm = graph.comm
    for (dst, fifo), flow in sorted(comm.flows.items()):
        if (flow.src_tiles | {dst}) & comm.dynamic_tiles:
            continue
        sent, received = flow.send_words, flow.receive_words
        if sent > received:
            site = flow.sends[-1]
            out.append(Diagnostic(
                "noc-send-unbalanced", Severity.ERROR,
                Location(tile=site.src_tile, pc=site.pc),
                f"flow to t{dst} fifo {fifo} sends {sent} words but "
                f"receives only consume {received}"))
        elif received > sent:
            site = flow.receives[-1]
            out.append(Diagnostic(
                "noc-receive-unbalanced", Severity.ERROR,
                Location(tile=dst, pc=site.pc),
                f"fifo {fifo} receives {received} words but senders "
                f"only provide {sent}"))
        if len(flow.src_tiles) == 1:
            for k, (s, r) in enumerate(zip(flow.sends, flow.receives)):
                if s.width != r.width:
                    out.append(Diagnostic(
                        "noc-width-mismatch", Severity.ERROR,
                        Location(tile=dst, pc=r.pc),
                        f"receive #{k} on fifo {fifo} expects "
                        f"{r.width} words, matching send "
                        f"(t{s.src_tile}:pc={s.pc}) carries {s.width}"))
                    break
    return out


def check_noc_cycles(graph: StaticDependenceGraph) -> list[Diagnostic]:
    """Cycles in the tile communication graph (potential deadlocks)."""
    out: list[Diagnostic] = []
    for cycle in graph.comm.cycles():
        members = ", ".join(f"t{t}" for t in cycle)
        out.append(Diagnostic(
            "noc-comm-cycle", Severity.INFO, Location(tile=cycle[0]),
            f"communication cycle among {{{members}}}; safe only if the "
            f"schedule staggers the blocking sends"))
    return out


def check_shared_memory(graph: StaticDependenceGraph) -> list[Diagnostic]:
    """Definedness and count conservation of shared-memory words.

    Exact only for non-dynamic tiles.  Words written with the persistent
    count (127 — also where codegen clamps large consumer counts) are
    exempt from count conservation: they are never invalidated.
    Accounting: per-tile word arrays, one slice update per store/load.
    """
    out: list[Diagnostic] = []
    comm = graph.comm
    for tile_id in sorted(comm.mem_reads):
        if tile_id in comm.dynamic_tiles:
            continue
        writes, loads = comm.mem_writes[tile_id], comm.mem_reads[tile_id]
        preloaded = comm.preloaded.get(tile_id, set())
        words = max([a.addr + a.width for a in writes + loads]
                    + [max(preloaded, default=-1) + 1])
        counts = np.zeros(words, dtype=np.int64)
        counted = np.zeros(words, dtype=bool)
        persistent = np.zeros(words, dtype=bool)
        persistent[list(preloaded)] = True
        last_writer = np.zeros(words, dtype=np.intp)
        for index, write in enumerate(writes):
            window = slice(write.addr, write.addr + write.width)
            if write.count == PERSISTENT_COUNT:
                persistent[window] = True
            else:
                counts[window] += write.count
                counted[window] = True
            last_writer[window] = index
        # Unwritten words before each address: a load's window holds one
        # exactly when the running total moves across it.
        holes = [0] + np.cumsum(~(persistent | counted)).tolist()
        reads = np.zeros(words, dtype=np.int64)
        for read in loads:
            lo, hi = read.addr, read.addr + read.width
            if holes[hi] != holes[lo]:
                missing = [w for w in range(lo, hi)
                           if holes[w + 1] != holes[w]]
                out.append(Diagnostic(
                    "mem-load-undefined", Severity.ERROR,
                    Location(tile=read.tile, core=read.core, pc=read.pc),
                    f"reads shared-memory {_word_range(missing)} which "
                    f"nothing stores, receives, or preloads"))
            reads[lo:hi] += 1
        accountable = counted & ~persistent
        flagged = np.zeros(words, dtype=bool)
        for word in np.flatnonzero(accountable & (counts != reads)):
            if flagged[word]:
                continue
            count, n_reads = int(counts[word]), int(reads[word])
            writer = writes[last_writer[word]]
            window = slice(writer.addr, writer.addr + writer.width)
            alike = (accountable[window] & (counts[window] == count)
                     & (reads[window] == n_reads))
            span = writer.addr + np.flatnonzero(alike)
            flagged[span] = True
            location = Location(tile=writer.tile, core=writer.core,
                                pc=writer.pc)
            detail = (f"{_word_range(span)} carries total consume count "
                      f"{count} but has {n_reads} static read"
                      f"{'s' if n_reads != 1 else ''}")
            if count < n_reads:
                out.append(Diagnostic(
                    "mem-count-imbalance", Severity.ERROR, location,
                    f"{detail}; a reader will block forever"))
            else:
                out.append(Diagnostic(
                    "mem-count-overprovision", Severity.WARNING, location,
                    f"{detail}; the words are never invalidated"))
    return out


def _word_range(words) -> str:
    lo, hi = int(min(words)), int(max(words))
    if lo == hi:
        return f"word {lo}"
    return f"words [{lo}, {hi + 1})"


def check_lut_domain(graph: StaticDependenceGraph) -> list[Diagnostic]:
    """Constants outside a ROM-LUT's domain feeding a transcendental.

    Light constant propagation over straight-line core streams: ``set``
    defines constants, ``copy`` forwards them, every other write kills
    them.  ``log`` (and nothing else in the LUT family) has a restricted
    domain — a non-positive fixed-point constant can never index it.
    """
    out: list[Diagnostic] = []
    for info in graph.streams.values():
        if info.core is None or not info.is_straight_line:
            continue
        const: dict[int, int] = {}
        known = 0       # bitmask of the words ``const`` has an entry for
        for pc, instr in enumerate(info.instructions):
            w = instr.vec_width
            if (known and instr.opcode == Opcode.ALU
                    and instr.alu_op == AluOp.LOG):
                checked = range(instr.src1, instr.src1 + w)
                bad = next((r for r in checked
                            if const.get(r) is not None
                            and const[r] <= 0), None)
                if bad is not None:
                    out.append(Diagnostic(
                        "lut-domain", Severity.ERROR, _loc(info, pc),
                        f"log of non-positive constant {const[bad]} in "
                        f"r{bad} (outside the LUT domain)"))
            if instr.opcode == Opcode.SET:
                const.update(dict.fromkeys(
                    range(instr.dest, instr.dest + w), instr.imm))
                known |= ((1 << w) - 1) << instr.dest
            elif instr.opcode == Opcode.COPY:
                span = (1 << w) - 1
                if not known & (span << instr.src1 | span << instr.dest):
                    continue        # nothing to forward, nothing to kill
                for k in range(w):
                    value = const.get(instr.src1 + k)
                    if value is None:
                        const.pop(instr.dest + k, None)
                        known &= ~(1 << instr.dest + k)
                    else:
                        const[instr.dest + k] = value
                        known |= 1 << instr.dest + k
            elif known:
                for start, width in info.effects[pc].all_writes():
                    killed = known & ((1 << width) - 1) << start
                    known ^= killed
                    for word in _bits(killed):
                        del const[word]
    return out


def check_cfg(graph: StaticDependenceGraph) -> list[Diagnostic]:
    """Unreachable code and streams execution can fall off the end of."""
    out: list[Diagnostic] = []
    for info in graph.streams.values():
        if not info.instructions:
            continue
        cfg = info.cfg
        for pc in cfg.unreachable_pcs():
            out.append(Diagnostic(
                "cfg-unreachable", Severity.WARNING, _loc(info, pc),
                "instruction is unreachable"))
        for pc in cfg.falls_off_end():
            out.append(Diagnostic(
                "cfg-fall-off-end", Severity.WARNING, _loc(info, pc),
                "execution can run past the end of the stream "
                "without a hlt"))
    return out


ALL_CHECKS: list[Callable[[StaticDependenceGraph], list[Diagnostic]]] = [
    check_register_dataflow,
    check_noc_balance,
    check_noc_cycles,
    check_shared_memory,
    check_lut_domain,
    check_cfg,
]


def run_all(graph: StaticDependenceGraph) -> list[Diagnostic]:
    """Run every checker; diagnostics in checker, then program, order."""
    out: list[Diagnostic] = []
    for check in ALL_CHECKS:
        out.extend(check(graph))
    return out
