"""Node: the instantiated accelerator — tiles plus the network fabric.

A :class:`Node` instantiates only the tiles a compiled program actually
uses (a 138-tile node with all tiles built would waste simulation memory
for small models), wires their receive buffers into the NoC, and loads
crossbar weights from the program's weight map.  With
``config.num_nodes > 1`` the same object represents the whole multi-node
system: tile ids are global, and the network routes inter-node flows over
the chip-to-chip interconnect.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.arch.config import PumaConfig
from repro.arch.crossbar import CrossbarModel
from repro.arch.mvmu import MVMU
from repro.isa.program import NodeProgram
from repro.node.noc import NetworkOnChip, ScheduleFunction
from repro.tile.tile import Tile


@dataclass(frozen=True)
class NodeProgrammedState:
    """The configuration-time state of a programmed node.

    Produced by :meth:`for_program` and installed into every node built
    for the *same* (program, config, crossbar model, seed), so they skip
    crossbar programming while staying bitwise identical to a node that
    programs itself:

    Attributes:
        mvmus: per-``(tile, core, mvmu)`` programmed-state tuples
            ``(matrix, levels, conductance)`` from
            :meth:`repro.arch.mvmu.MVMU.export_programmed_state` (live
            arrays, shared — crossbars are read-only after configuration;
            ``conductance`` is ``None`` for a noiseless model).
        rng_state: the node RNG's bit-generator state *after* the
            (write-noise-consuming) programming pass, so runtime draws
            (the RANDOM op) continue from exactly where a fresh
            programming pass would have left them.
    """

    mvmus: dict[tuple[int, int, int], tuple]
    rng_state: dict

    @classmethod
    def for_program(cls, config: PumaConfig, program: NodeProgram,
                    crossbar_model: CrossbarModel | None,
                    rng: np.random.Generator) -> "NodeProgrammedState":
        """The programming pass — the only one: device writes drawing from
        ``rng`` in ``program.weights`` order, then the RNG's position.
        Builds no tiles, so an engine can program before any node exists."""
        core = config.core
        model = crossbar_model if crossbar_model is not None \
            else CrossbarModel.for_core(core)
        if model.dim != core.mvmu_dim:         # what building a Core says
            raise ValueError(
                f"crossbar dim {model.dim} != core mvmu_dim {core.mvmu_dim}")
        mvmus = {}
        for key, matrix in program.weights.items():
            mvmu = MVMU(model, core.fixed_point, rng=rng)
            mvmu.program(matrix)
            mvmus[key] = mvmu.export_programmed_state()
        return cls(mvmus=mvmus,
                   rng_state=copy.deepcopy(rng.bit_generator.state))

    def to_flat_arrays(self) -> dict[str, np.ndarray]:
        """Name the state's arrays for on-disk persistence.

        Each MVMU at ``(tile, core, mvmu)`` contributes its programmed
        matrix (``m{t}_{c}_{u}_matrix``), its ``(num_slices, dim, dim)``
        level stack (``..._lv``) and, when the model is noisy, its
        conductance stack (``..._cd``) — the arrays themselves, one per
        unit (large models have thousands of slices and per-member archive
        overhead would dominate load time).  :meth:`from_flat_arrays`
        reverses the naming.  The RNG state is JSON-safe and travels
        separately (in the artifact manifest).
        """
        arrays: dict[str, np.ndarray] = {}
        for (tile_id, core_id, mvmu_id), state in sorted(self.mvmus.items()):
            prefix = f"m{tile_id}_{core_id}_{mvmu_id}"
            for part, array in zip(("matrix", "lv", "cd"), state):
                if array is not None:
                    arrays[f"{prefix}_{part}"] = array
        return arrays

    @classmethod
    def from_flat_arrays(cls, arrays: dict[str, np.ndarray],
                         rng_state: dict) -> "NodeProgrammedState":
        """Rebuild from :meth:`to_flat_arrays` output.

        Validates structural completeness — every unit must carry a
        matrix and a level stack, and a conductance stack, when present,
        must match the levels' shape — and raises ``ValueError`` otherwise
        (the artifact store surfaces that as a load rejection).  The
        arrays are adopted as they are, so no data is copied.
        """
        if not isinstance(rng_state, dict) or "bit_generator" not in rng_state:
            raise ValueError("programmed-state RNG snapshot is malformed")
        pattern = re.compile(r"^m(\d+)_(\d+)_(\d+)_(matrix|lv|cd)$")
        units: dict[tuple[int, int, int], dict[str, np.ndarray]] = {}
        for name, array in arrays.items():
            match = pattern.match(name)
            if match is None:
                raise ValueError(f"unrecognized state array {name!r}")
            key = tuple(int(g) for g in match.groups()[:3])
            units.setdefault(key, {})[match.group(4)] = array
        if not units:
            raise ValueError("programmed state holds no MVMU entries")
        mvmus: dict[tuple[int, int, int], tuple] = {}
        for key, parts in units.items():
            missing = {"matrix", "lv"} - set(parts)
            if missing:
                raise ValueError(
                    f"MVMU {key} state is missing {sorted(missing)}")
            levels, conductance = parts["lv"], parts.get("cd")
            if levels.ndim != 3 or (conductance is not None
                                    and conductance.shape != levels.shape):
                raise ValueError(
                    f"MVMU {key} level/conductance stacks disagree: "
                    f"{levels.shape} vs {getattr(conductance, 'shape', None)}")
            mvmus[key] = (parts["matrix"], levels, conductance)
        # JSON round-trips the RNG snapshot's ints losslessly but may
        # arrive with list-typed values; numpy's bit-generator setter
        # validates the rest.
        return cls(mvmus=mvmus, rng_state=copy.deepcopy(rng_state))

    def check_covers(self, program: NodeProgram) -> None:
        """Raise ``ValueError`` unless the state programs exactly the
        MVMUs ``program`` does — a partial state would load cleanly and
        fail mid-run on the first unprogrammed unit."""
        if self.mvmus.keys() != program.weights.keys():
            missing = sorted(program.weights.keys() - self.mvmus.keys())
            extra = sorted(self.mvmus.keys() - program.weights.keys())
            raise ValueError(
                f"programmed state does not match the program's weight map "
                f"(missing MVMUs {missing}, unexpected MVMUs {extra})")


class Node:
    """The instantiated hardware for one compiled program.

    Args:
        config: accelerator configuration.
        tile_ids: which tiles to build.
        schedule: event-loop hook handed to the NoC.
        crossbar_model: device model (noise studies override the default).
        seed: RNG seed for write noise and the RANDOM op.
        batch: SIMD batch lanes carried by every tile datapath.
    """

    def __init__(self, config: PumaConfig, tile_ids: Iterable[int],
                 schedule: ScheduleFunction,
                 crossbar_model: CrossbarModel | None = None,
                 seed: int | None = None,
                 batch: int = 1) -> None:
        self.config = config
        self.batch = batch
        rng = np.random.default_rng(seed)
        self.rng = rng
        if crossbar_model is None:
            crossbar_model = CrossbarModel.for_core(config.core)
        self.crossbar_model = crossbar_model
        self.tiles: dict[int, Tile] = {}
        for tile_id in sorted(set(tile_ids)):
            if not 0 <= tile_id < config.total_tiles:
                raise ValueError(
                    f"tile id {tile_id} outside the {config.num_nodes}-node "
                    f"system's {config.total_tiles} tiles")
            self.tiles[tile_id] = Tile(
                tile_id, config.tile, send_fn=None,
                crossbar_model=crossbar_model, rng=rng, batch=batch)
        buffers = {tid: t.receive_buffer for tid, t in self.tiles.items()}
        self.noc = NetworkOnChip(config, buffers, schedule)
        for tile in self.tiles.values():
            tile.attach_network(self.noc.send)

    @classmethod
    def for_program(cls, config: PumaConfig, program: NodeProgram,
                    schedule: ScheduleFunction,
                    crossbar_model: CrossbarModel | None = None,
                    seed: int | None = None,
                    batch: int = 1,
                    programmed_state: NodeProgrammedState | None = None
                    ) -> "Node":
        """Build a node sized for ``program`` and load its weights.

        ``programmed_state`` (:meth:`NodeProgrammedState.for_program` for
        the same config, model and seed) installs the crossbar
        conductances directly instead of re-running the programming pass.
        """
        node = cls(config, program.tiles.keys(), schedule,
                   crossbar_model=crossbar_model, seed=seed, batch=batch)
        node.load_weights(program, programmed_state=programmed_state)
        return node

    def load_weights(self, program: NodeProgram,
                     programmed_state: NodeProgrammedState | None = None
                     ) -> None:
        """Program every crossbar listed in the compiled weight map.

        Without ``programmed_state`` the pass runs here, on the node's
        own RNG.  Either way each MVMU adopts the programmed arrays and
        the node RNG sits at the exact post-programming state, so runtime
        draws match across fresh and restored nodes bit for bit.
        """
        if programmed_state is None:
            programmed_state = NodeProgrammedState.for_program(
                self.config, program, self.crossbar_model, self.rng)
        programmed_state.check_covers(program)
        for key in program.weights:
            tile_id, core_id, mvmu_id = key
            tile = self.tiles.get(tile_id)
            if tile is None:
                raise KeyError(f"program references missing tile {tile_id}")
            tile.cores[core_id].mvmus[mvmu_id].restore_programmed_state(
                programmed_state.mvmus[key])
        self.rng.bit_generator.state = copy.deepcopy(
            programmed_state.rng_state)

    def tile(self, tile_id: int) -> Tile:
        return self.tiles[tile_id]

    def reset(self) -> None:
        for tile in self.tiles.values():
            tile.reset()
