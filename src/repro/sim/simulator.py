"""PUMAsim: the event-driven execution engine.

The simulator runs a compiled :class:`~repro.isa.program.NodeProgram` on an
instantiated :class:`~repro.node.node.Node`, producing functional results
(the model outputs) and a :class:`~repro.sim.stats.SimulationStats` with
timing and energy.

Execution model: every core and every tile control unit is an *agent*.
Agents execute their streams in order; an instruction that completes
occupies its agent for the modelled latency; an instruction that blocks
(valid/count protocol, FIFO empty/full) parks the agent on the resource's
waiter list and retries when the resource changes.  A global event queue
(time-ordered heap) drives everything, including NoC packet deliveries.

Deadlock — the condition the compiler's global linearization exists to
prevent (Section 5.3.3) — is detected exactly: if the event queue drains
while unhalted agents remain parked, the simulator raises
:class:`SimulationDeadlock` naming every blocked agent and its instruction.
"""

from __future__ import annotations

import functools
import heapq
import weakref
from typing import Callable

import numpy as np

from repro.arch.config import PumaConfig
from repro.arch.core import Core, ExecOutcome, ExecStatus
from repro.arch.crossbar import CrossbarModel
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import NodeProgram
from repro.node.node import Node, NodeProgrammedState
from repro.sim.stats import SimulationStats
from repro.sim.tape import TapeRecorder
from repro.sim.trace import TraceRecorder
from repro.tile.attribute_buffer import PERSISTENT_COUNT
from repro.tile.tile import Tile


class SimulationDeadlock(RuntimeError):
    """All pending agents are blocked and no event can unblock them."""


class _Agent:
    """One instruction-stream executor (a core or a tile control unit)."""

    def __init__(self, name: str, tile: Tile, core: Core | None,
                 instructions: list[Instruction]) -> None:
        self.name = name
        self.tile = tile
        self.core = core
        self.core_id = core.core_id if core is not None else None
        self.instructions = instructions
        self.done = not instructions
        self.parked = False
        # Resolved once: which unit holds the pc and executes the stream.
        self._unit = core if core is not None else tile
        self.execute = (core.execute if core is not None
                        else tile.execute_tile_instruction)

    @property
    def pc(self) -> int:
        return self._unit.pc

    def current_instruction(self) -> Instruction | None:
        pc = self._unit.pc
        if self.done or pc >= len(self.instructions):
            return None
        return self.instructions[pc]


class Simulator:
    """Runs compiled programs on the modelled hardware.

    With ``batch > 1`` the node executes the program once while every
    data value carries one lane per batch input (SIMD over batch — PUMA
    programs are control-uniform across inputs).  Inputs become
    ``(batch, length)`` matrices, outputs come back the same way, and the
    timing model charges data instructions for the extra lanes while
    control executes once — the amortization that drives the paper's batch
    throughput results (Fig 11c/d).

    Args:
        config: accelerator configuration.
        program: compiled node program (instructions + weights + layouts).
        crossbar_model: overrides the device model (noise studies).
        seed: RNG seed for noise and the RANDOM op.
        trace: optional trace recorder.
        max_cycles: safety bound on simulated time.
        batch: number of inputs processed SIMD-style in one run.
        programmed_state: configuration-time state for the same program,
            config, crossbar model and seed
            (:meth:`~repro.node.node.NodeProgrammedState.for_program`);
            skips the crossbar programming pass bitwise-identically.
        tape_recorder: optional :class:`~repro.sim.tape.TapeRecorder` that
            captures the resolved dynamic schedule (completed instructions
            in completion order, with effective addresses) for later trace
            replay; recording costs one list append per instruction.
        stats_batch: **shadow timing**: charge every latency, word count,
            energy term, and NoC transfer as if the run carried this many
            batch lanes while the functional datapath carries ``batch``.
            Event ordering depends on the batch only through those
            latencies, so a ``batch=1, stats_batch=B`` run produces stats
            field-identical to a real ``batch=B`` run — at batch-1 cost.
            This is how the engine derives per-batch stats for a
            batch-generic execution tape (see :mod:`repro.sim.tape`).
            Defaults to ``batch``.
    """

    def __init__(self, config: PumaConfig, program: NodeProgram,
                 crossbar_model: CrossbarModel | None = None,
                 seed: int | None = None,
                 trace: TraceRecorder | None = None,
                 max_cycles: int = 2_000_000_000,
                 batch: int = 1,
                 programmed_state: "NodeProgrammedState | None" = None,
                 tape_recorder: TapeRecorder | None = None,
                 stats_batch: int | None = None
                 ) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if stats_batch is not None and stats_batch < 1:
            raise ValueError(f"stats_batch must be >= 1, got {stats_batch}")
        self.config = config
        self.program = program
        self.batch = batch
        self.stats_batch = batch if stats_batch is None else stats_batch
        self.max_cycles = max_cycles
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.tape_recorder = tape_recorder
        # (time, sequence, what): an agent to step, or a callback to call.
        self._events: list[tuple] = []
        self._event_seq = 0
        # (latency, energy, words) by cost class, resolved on first completion.
        self._costs: dict[tuple, tuple[int, EnergyBreakdown, int]] = {}
        self.now = 0
        # Weak: a strong reference closes a simulator <-> node cycle, and
        # every finished run's megabytes wait for the cycle collector.
        schedule = weakref.WeakMethod(self._schedule_delay)
        self.node = Node.for_program(config, program,
                                     lambda delay, cb: schedule()(delay, cb),
                                     crossbar_model=crossbar_model, seed=seed,
                                     batch=batch,
                                     programmed_state=programmed_state)
        if self.stats_batch != batch:
            for tile in self.node.tiles.values():
                tile.stats_lanes = self.stats_batch
        self.energy_model = EnergyModel(config)
        self.stats = SimulationStats(cycle_ns=config.cycle_ns)
        self._agents = self._build_agents()
        self._finish_time = 0

    def _build_agents(self) -> list[_Agent]:
        agents = []
        for tile_id, tile_prog in sorted(self.program.tiles.items()):
            tile = self.node.tile(tile_id)
            if tile_prog.tile_instructions:
                agents.append(_Agent(f"t{tile_id}", tile, None,
                                     tile_prog.tile_instructions))
            for core_id, core_prog in sorted(tile_prog.cores.items()):
                agents.append(_Agent(f"t{tile_id}c{core_id}", tile,
                                     tile.cores[core_id],
                                     core_prog.instructions))
        return agents

    # -- event queue -----------------------------------------------------

    def _schedule_at(self, time: int, what) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (time, self._event_seq, what))

    def _schedule_delay(self, delay: int, callback: Callable[[], None]) -> None:
        self._schedule_at(self.now + max(0, int(delay)), callback)

    # -- data movement in/out of the accelerator --------------------------

    def write_input(self, name: str, values: np.ndarray) -> None:
        """Preload one named model input (already fixed-point integers).

        Accepts ``(length,)`` — broadcast to every batch lane — or
        ``(batch, length)`` with one row per lane.
        """
        if name not in self.program.input_layout:
            raise KeyError(f"program has no input named {name!r}")
        tile_id, addr, length = self.program.input_layout[name]
        arr = np.atleast_1d(np.asarray(values, dtype=np.int64))
        if arr.ndim == 1:
            ok = arr.size == length
        else:
            ok = arr.shape == (self.batch, length)
        if not ok:
            raise ValueError(
                f"input {name!r} expects {length} words per lane — shape "
                f"({length},) or ({self.batch}, {length}) — got {arr.shape}")
        self.node.tile(tile_id).memory.preload(addr, arr, PERSISTENT_COUNT)

    def read_output(self, name: str) -> np.ndarray:
        """Read one named model output after the run.

        Returns ``(length,)`` for batch 1, ``(batch, length)`` otherwise.
        """
        if name not in self.program.output_layout:
            raise KeyError(f"program has no output named {name!r}")
        tile_id, addr, length = self.program.output_layout[name]
        return self.node.tile(tile_id).memory.peek(addr, length)

    # -- main loop --------------------------------------------------------

    def run(self, inputs: dict[str, np.ndarray] | None = None
            ) -> dict[str, np.ndarray]:
        """Execute to completion; returns the model outputs by name.

        Raises:
            SimulationDeadlock: if blocked agents can never make progress.
            RuntimeError: if ``max_cycles`` is exceeded.
        """
        for tile_id, entries in self.program.const_memory.items():
            for addr, values in entries:
                self.node.tile(tile_id).memory.preload(
                    addr, np.asarray(values, dtype=np.int64),
                    PERSISTENT_COUNT)
        for name, values in (inputs or {}).items():
            self.write_input(name, values)
        for agent in self._agents:
            if not agent.done:
                self._schedule_at(0, agent)

        events, step = self._events, self._step
        while events:
            time, _seq, what = heapq.heappop(events)
            if time > self.max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {self.max_cycles} cycles")
            self.now = time
            if type(what) is _Agent:
                step(what)
            else:
                what()

        self._check_for_deadlock()
        self.stats.cycles = self._finish_time
        self.stats.noc_flit_hops = self.node.noc.flit_hops
        self.stats.noc_packets = self.node.noc.packets_delivered
        self.stats.offchip_words = self.node.noc.offchip_words
        self.stats.energy.network += self.energy_model.network_energy(
            self.node.noc.flit_hops, self.node.noc.offchip_words)
        return {name: self.read_output(name)
                for name in self.program.output_layout}

    def _check_for_deadlock(self) -> None:
        stuck = [a for a in self._agents if not a.done]
        if not stuck:
            return
        details = []
        for agent in stuck:
            instr = agent.current_instruction()
            details.append(f"  {agent.name} pc={agent.pc}: "
                           f"{instr if instr is not None else '<end>'}")
        raise SimulationDeadlock(
            "deadlock: blocked agents with no pending events\n"
            + "\n".join(details))

    def _wake(self, agent: _Agent) -> None:
        """Resume a parked agent one cycle after the waking event."""
        if agent.parked:
            agent.parked = False
            self._schedule_at(self.now + 1, agent)

    def _cost(self, instr: Instruction,
              outcome: ExecOutcome) -> tuple[int, EnergyBreakdown, int]:
        """Latency, energy and words moved of a completed instruction:
        functions of its cost class — opcode, effective width, MVMUs
        activated, ROM access — at this run's ``stats_batch``, resolved
        once per class and shared (merged, never mutated) thereafter."""
        key = (instr.opcode, outcome.vec_width, outcome.mvm_count,
               outcome.rom_access)
        cost = self._costs.get(key)
        if cost is None:
            model, lanes = self.energy_model, self.stats_batch
            cost = self._costs[key] = (
                model.latency.cycles(instr, outcome, lanes),
                model.energy(instr, outcome, lanes),
                outcome.vec_width * lanes if instr.is_vector else 0)
        return cost

    def _step(self, agent: _Agent) -> None:
        if agent.done:
            return
        instr = agent.current_instruction()
        if instr is None:
            # Stream ended without hlt: treat as completion.
            agent.done = True
            self._finish_time = max(self._finish_time, self.now)
            return

        outcome = agent.execute(instr)
        status = outcome.status

        if status is ExecStatus.DONE:
            latency, energy, words = self._cost(instr, outcome)
            stats = self.stats
            stats.count(instr.opcode, words)
            stats.record_busy(agent.name, latency)
            stats.energy.merge(energy)
            if self.trace.enabled:
                self.trace.record(self.now, agent.name, instr, latency)
            if self.tape_recorder is not None:
                self.tape_recorder.record(agent.tile.tile_id, agent.core_id,
                                          instr, outcome.eff_addr)
            self._schedule_at(self.now + latency, agent)
            return

        if status is ExecStatus.HALTED:
            agent.done = True
            self.stats.count(Opcode.HLT)
            if self.trace.enabled:
                self.trace.record(self.now, agent.name, instr, 1)
            if self.tape_recorder is not None:
                self.tape_recorder.record(agent.tile.tile_id, agent.core_id,
                                          instr, 0)
            self._finish_time = max(self._finish_time, self.now + 1)
            return

        # Blocked: park on the resource that must change first.
        self.stats.record_stall(agent.name)
        if self.trace.enabled:
            self.trace.record(self.now, agent.name, instr, 0, blocked=True)
        agent.parked = True
        wake = functools.partial(self._wake, agent)
        if status is ExecStatus.BLOCKED_READ:
            agent.tile.memory.wait_for_read(wake)
        elif status is ExecStatus.BLOCKED_WRITE:
            agent.tile.memory.wait_for_write(wake)
        elif status is ExecStatus.BLOCKED_FIFO:
            agent.tile.receive_buffer.wait_for_packet(wake)
        else:
            raise AssertionError(f"unhandled status {status}")
