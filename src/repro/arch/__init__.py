"""PUMA core microarchitecture: crossbars, MVMU, VFU, SFU, register file.

This package models the core tier of the three-tier spatial architecture
(cores / tiles / nodes, Section 3): the analog matrix-vector multiply units
built from memristor crossbars, the digital functional units that surround
them, and the in-order instruction pipeline that drives everything.
"""

from repro.arch.config import (
    CoreConfig,
    NodeConfig,
    PumaConfig,
    TileConfig,
    default_config,
)
from repro.arch.crossbar import Crossbar, CrossbarModel, CrossbarStack
from repro.arch.mvmu import MVMU
from repro.arch.rom_lut import RomLutTable, build_lut
from repro.arch.registers import RegisterFile
from repro.arch.vfu import VectorFunctionalUnit
from repro.arch.sfu import ScalarFunctionalUnit
from repro.arch.core import Core

__all__ = [
    "CoreConfig",
    "TileConfig",
    "NodeConfig",
    "PumaConfig",
    "default_config",
    "Crossbar",
    "CrossbarModel",
    "CrossbarStack",
    "MVMU",
    "RomLutTable",
    "build_lut",
    "RegisterFile",
    "VectorFunctionalUnit",
    "ScalarFunctionalUnit",
    "Core",
]
