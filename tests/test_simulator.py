"""Simulator semantics: hand-written kernels, blocking, deadlock detection,
control flow, the NoC, and timing/energy accounting."""

import numpy as np
import pytest

from repro import Simulator, default_config
from repro.fixedpoint import FixedPointFormat
from repro.isa import instruction as isa
from repro.isa.opcodes import AluOp, BrnOp, Opcode
from repro.isa.program import NodeProgram
from repro.node.noc import MeshGeometry
from repro.sim import SimulationDeadlock
from repro.tile.attribute_buffer import PERSISTENT_COUNT

FMT = FixedPointFormat()
CFG = default_config()
G = CFG.core.general_base  # first general-purpose register


def make_program(core_instrs, tile_id=0, core_id=0):
    program = NodeProgram(name="kernel")
    core = program.tile(tile_id).core(core_id)
    core.extend(core_instrs)
    return program


class TestHandWrittenKernels:
    def test_load_compute_store(self):
        program = make_program([
            isa.load(G, 0, vec_width=4),
            isa.alui(AluOp.MUL, G + 4, G, FMT.quantize(2.0), vec_width=4),
            isa.store(G + 4, 16, count=PERSISTENT_COUNT, vec_width=4),
            isa.hlt(),
        ])
        program.input_layout["x"] = (0, 0, 4)
        program.output_layout["y"] = (0, 16, 4)
        sim = Simulator(CFG, program)
        out = sim.run({"x": FMT.quantize(np.array([1.0, -2.0, 0.5, 3.0]))})
        np.testing.assert_allclose(FMT.dequantize(out["y"]),
                                   [2.0, -4.0, 1.0, 6.0], atol=0.01)

    def test_loop_sums_iterations(self):
        """A counted loop: accumulate the loop counter 5 times."""
        acc, cnt, lim, one = G, G + 1, G + 2, G + 3
        program = make_program([
            isa.set_(acc, 0),
            isa.set_(cnt, 0),
            isa.set_(lim, 5),
            isa.set_(one, 1),
            # loop body (pc=4): acc += 1; cnt += 1; if cnt < lim goto 4
            isa.alu_int(AluOp.ADD, acc, acc, one),
            isa.alu_int(AluOp.ADD, cnt, cnt, one),
            isa.brn(BrnOp.LT, cnt, lim, 4),
            isa.store(acc, 0, count=PERSISTENT_COUNT),
            isa.hlt(),
        ])
        program.output_layout["n"] = (0, 0, 1)
        out = Simulator(CFG, program).run()
        assert out["n"][0] == 5

    def test_jmp_skips(self):
        program = make_program([
            isa.set_(G, 7),
            isa.jmp(3),
            isa.set_(G, 9),   # skipped
            isa.store(G, 0, count=PERSISTENT_COUNT),
            isa.hlt(),
        ])
        program.output_layout["v"] = (0, 0, 1)
        out = Simulator(CFG, program).run()
        assert out["v"][0] == 7

    def test_mvm_kernel(self):
        """Full MVM path: load inputs to XbarIn, fire, read XbarOut."""
        dim = CFG.core.mvmu_dim
        rng = np.random.default_rng(0)
        w = FMT.quantize(rng.normal(0, 0.1, size=(dim, dim)))
        x = FMT.quantize(rng.normal(0, 0.5, size=dim))
        program = make_program([
            isa.load(CFG.core.xbar_in_base(0), 0, vec_width=dim),
            isa.mvm(mask=1),
            isa.store(CFG.core.xbar_out_base(0), 512,
                      count=PERSISTENT_COUNT, vec_width=dim),
            isa.hlt(),
        ])
        program.weights[(0, 0, 0)] = w
        program.input_layout["x"] = (0, 0, dim)
        program.output_layout["y"] = (0, 512, dim)
        out = Simulator(CFG, program).run({"x": x})
        expected = FMT.dequantize(x) @ FMT.dequantize(w)
        np.testing.assert_allclose(FMT.dequantize(out["y"]), expected,
                                   atol=0.02)


class TestSynchronization:
    def test_producer_consumer_across_cores(self):
        """Core 1 blocks on the load until core 0 stores."""
        program = NodeProgram()
        tile = program.tile(0)
        tile.core(0).extend([
            isa.set_(G, 42),
            isa.store(G, 0, count=1),
            isa.hlt(),
        ])
        tile.core(1).extend([
            isa.load(G, 0),            # blocks until core 0's store
            isa.store(G, 8, count=PERSISTENT_COUNT),
            isa.hlt(),
        ])
        program.output_layout["v"] = (0, 8, 1)
        sim = Simulator(CFG, program)
        out = sim.run()
        assert out["v"][0] == 42
        assert sim.stats.stall_events.get("t0c1", 0) >= 1

    def test_deadlock_detected(self):
        """A load with no producer must raise, naming the blocked agent."""
        program = make_program([isa.load(G, 0), isa.hlt()])
        with pytest.raises(SimulationDeadlock, match="t0c0"):
            Simulator(CFG, program).run()

    def test_cross_store_deadlock_detected(self):
        """Two cores waiting on each other's data deadlock."""
        program = NodeProgram()
        tile = program.tile(0)
        tile.core(0).extend([isa.load(G, 0),
                             isa.store(G, 8, count=1), isa.hlt()])
        tile.core(1).extend([isa.load(G, 8),
                             isa.store(G, 0, count=1), isa.hlt()])
        with pytest.raises(SimulationDeadlock):
            Simulator(CFG, program).run()


class TestInterTile:
    def _two_tile_program(self):
        program = NodeProgram()
        t0 = program.tile(0)
        t0.core(0).extend([
            isa.set_(G, 11, vec_width=4),
            isa.store(G, 0, count=1, vec_width=4),
            isa.hlt(),
        ])
        t0.append_tile(isa.send(0, fifo_id=2, target=1, vec_width=4))
        t0.append_tile(isa.hlt())
        t1 = program.tile(1)
        t1.append_tile(isa.receive(0, fifo_id=2, count=1, vec_width=4))
        t1.append_tile(isa.hlt())
        t1.core(0).extend([
            isa.load(G, 0, vec_width=4),
            isa.alui(AluOp.ADD, G + 4, G, 1, vec_width=4),
            isa.store(G + 4, 16, count=PERSISTENT_COUNT, vec_width=4),
            isa.hlt(),
        ])
        program.output_layout["v"] = (1, 16, 4)
        return program

    def test_send_receive_roundtrip(self):
        sim = Simulator(CFG, self._two_tile_program())
        out = sim.run()
        np.testing.assert_array_equal(out["v"], [12, 12, 12, 12])
        assert sim.stats.noc_packets == 1
        assert sim.stats.noc_flit_hops > 0

    def test_network_energy_accounted(self):
        sim = Simulator(CFG, self._two_tile_program())
        sim.run()
        assert sim.stats.energy.network > 0

    def test_finished_run_is_freed_without_the_cycle_collector(self):
        """The node schedules NoC deliveries through the simulator; held
        strongly that is a cycle, and every interpreted run — a cold
        sweep, a stats derivation, a tape recording — would keep its
        tile memories and crossbar state until the collector next ran."""
        import gc
        import weakref

        sim = Simulator(CFG, self._two_tile_program())
        sim.run()                       # sends a packet through the node
        node = weakref.ref(sim.node)
        gc.disable()
        try:
            del sim
            assert node() is None
        finally:
            gc.enable()


class TestTimingAndEnergy:
    def test_mvm_latency_dominates(self):
        dim = CFG.core.mvmu_dim
        program = make_program([
            isa.load(CFG.core.xbar_in_base(0), 0, vec_width=dim),
            isa.mvm(mask=1),
            isa.hlt(),
        ])
        program.weights[(0, 0, 0)] = np.zeros((dim, dim), dtype=np.int64)
        program.input_layout["x"] = (0, 0, dim)
        sim = Simulator(CFG, program)
        sim.run({"x": np.zeros(dim, dtype=np.int64)})
        # 2304-cycle MVM plus the small load.
        assert 2304 <= sim.stats.cycles <= 2350

    def test_mvm_energy_is_43_97_nj(self):
        dim = CFG.core.mvmu_dim
        program = make_program([isa.mvm(mask=1), isa.hlt()])
        program.weights[(0, 0, 0)] = np.zeros((dim, dim), dtype=np.int64)
        sim = Simulator(CFG, program)
        sim.run()
        # Section 7.4.3: one MVM consumes 43.97 nJ.
        assert sim.stats.energy.mvm * 1e9 == pytest.approx(43.97, rel=0.01)

    def test_temporal_simd_latency(self):
        wide = make_program([
            isa.set_(G, 1, vec_width=256),
            isa.alu(AluOp.ADD, G + 256, G, G, vec_width=256),
            isa.hlt(),
        ])
        sim = Simulator(CFG, wide)
        sim.run()
        # VFU width 1: the 256-wide ALU op costs 256 cycles.
        assert sim.stats.cycles >= 256

    def test_coalesced_mvm_energy_doubles(self):
        dim = CFG.core.mvmu_dim
        zeros = np.zeros((dim, dim), dtype=np.int64)
        single = make_program([isa.mvm(mask=1), isa.hlt()])
        single.weights[(0, 0, 0)] = zeros
        double = make_program([isa.mvm(mask=3), isa.hlt()])
        double.weights[(0, 0, 0)] = zeros
        double.weights[(0, 0, 1)] = zeros
        sim1, sim2 = Simulator(CFG, single), Simulator(CFG, double)
        sim1.run()
        sim2.run()
        assert sim2.stats.energy.mvm == pytest.approx(
            2 * sim1.stats.energy.mvm, rel=0.01)
        # ... at the same latency (that is the point of coalescing).
        assert sim2.stats.cycles == sim1.stats.cycles


class TestMeshGeometry:
    def test_hop_counts(self):
        geo = MeshGeometry(num_tiles=138, concentration=4)
        assert geo.hops(0, 1) == 0      # same router
        assert geo.hops(0, 4) == 1      # adjacent router
        assert geo.num_routers == 35

    def test_symmetric(self):
        geo = MeshGeometry(num_tiles=16, concentration=4)
        for a in range(16):
            for b in range(16):
                assert geo.hops(a, b) == geo.hops(b, a)
