"""Simulation statistics: time, energy, instruction mix, stalls."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.energy.model import EnergyBreakdown
from repro.isa.opcodes import Opcode


@dataclass
class SimulationStats:
    """Aggregated results of one simulated execution.

    Attributes:
        cycles: end-to-end execution time in cycles.
        cycle_ns: cycle period, for wall-time conversion.
        energy: energy by component category (joules).
        dynamic_instructions: executed instruction counts by opcode.
        stall_events: blocked execution attempts by agent name.
        busy_cycles: execute-stage occupancy by agent name.
        noc_flit_hops: total flit-hops traversed on the NoC.
        noc_packets: packets delivered.
    """

    cycles: int = 0
    cycle_ns: float = 1.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    dynamic_instructions: dict[Opcode, int] = field(default_factory=dict)
    words_by_opcode: dict[Opcode, int] = field(default_factory=dict)
    stall_events: dict[str, int] = field(default_factory=dict)
    busy_cycles: dict[str, int] = field(default_factory=dict)
    noc_flit_hops: int = 0
    noc_packets: int = 0
    offchip_words: int = 0

    @property
    def time_ns(self) -> float:
        return self.cycles * self.cycle_ns

    @property
    def time_s(self) -> float:
        return self.time_ns * 1e-9

    @property
    def total_energy_j(self) -> float:
        return self.energy.total

    @property
    def total_instructions(self) -> int:
        return sum(self.dynamic_instructions.values())

    def copy(self) -> "SimulationStats":
        """A private copy: new dicts and a new :class:`EnergyBreakdown`
        with its own ``extra``.  Every value held is an ``int``,
        ``float``, ``str`` or :class:`Opcode`, so this equals
        ``copy.deepcopy`` field for field at an eighth of its cost."""
        return replace(
            self, energy=replace(self.energy, extra=dict(self.energy.extra)),
            dynamic_instructions=dict(self.dynamic_instructions),
            words_by_opcode=dict(self.words_by_opcode),
            stall_events=dict(self.stall_events),
            busy_cycles=dict(self.busy_cycles))

    def count(self, instr_opcode: Opcode, words: int = 0) -> None:
        self.dynamic_instructions[instr_opcode] = (
            self.dynamic_instructions.get(instr_opcode, 0) + 1)
        if words:
            self.words_by_opcode[instr_opcode] = (
                self.words_by_opcode.get(instr_opcode, 0) + words)

    def record_stall(self, agent: str) -> None:
        self.stall_events[agent] = self.stall_events.get(agent, 0) + 1

    def record_busy(self, agent: str, cycles: int) -> None:
        self.busy_cycles[agent] = self.busy_cycles.get(agent, 0) + cycles

    def utilization(self, agent: str) -> float:
        """Execute-stage occupancy of one agent over the whole run."""
        if self.cycles == 0:
            return 0.0
        return self.busy_cycles.get(agent, 0) / self.cycles

    def summary(self) -> str:
        """Human-readable run summary."""
        lines = [
            f"cycles: {self.cycles} ({self.time_ns:.1f} ns)",
            f"energy: {self.total_energy_j * 1e9:.3f} nJ",
            f"instructions: {self.total_instructions}",
        ]
        for opcode, n in sorted(self.dynamic_instructions.items(),
                                key=lambda kv: -kv[1]):
            lines.append(f"  {opcode.name.lower():8s} {n}")
        by_cat = {k: v for k, v in self.energy.as_dict().items() if v > 0}
        for cat, joules in sorted(by_cat.items(), key=lambda kv: -kv[1]):
            lines.append(f"  energy[{cat}] = {joules * 1e9:.3f} nJ")
        return "\n".join(lines)
