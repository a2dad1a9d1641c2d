"""Memristor crossbar model (Figure 2).

A crossbar stores one *bit slice* of a weight matrix: each device holds
``bits_per_cell`` bits as one of ``2**bits_per_cell`` conductance levels in
``[g_min, g_max]``.  Applying row voltages produces column currents
``I_j = sum_i V_i * g_ij`` (Kirchhoff's law) — an analog MVM in one step.

Device non-ideality is modelled as *write noise*: programming a target level
leaves the conductance displaced by a Gaussian whose standard deviation is a
device property, independent of how many levels the target format squeezes
into the conductance window.  We express it as ``sigma_n`` in units of the
2-bit level separation (the paper's conservative cell choice), i.e.::

    g_programmed = g_target + N(0, sigma_n * (g_max - g_min) / 4)

This reproduces Figure 13's qualitative behaviour: 2-bit cells tolerate
``sigma_n`` up to ~0.3 while higher bit-per-cell formats lose accuracy
because their level spacing shrinks below the fixed noise floor (the
"reduction in noise margin" of Section 7.6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.adc import AdcArray, exact_adc_bits
from repro.arch.dac import DacArray

# Memristor resistance range 100 kOhm - 1 MOhm (Section 6.1).
DEFAULT_G_MIN = 1.0 / 1e6
DEFAULT_G_MAX = 1.0 / 1e5
# Write-noise sigma is calibrated in units of the 2-bit level separation.
_NOISE_REFERENCE_LEVELS = 4


@dataclass(frozen=True)
class CrossbarModel:
    """Device and converter parameters shared by the crossbars of an MVMU.

    Attributes:
        dim: rows and columns (crossbars are square in PUMA).
        bits_per_cell: stored bits per device (2 in the paper).
        bits_per_input: DAC slice width (1 in the paper).
        g_min / g_max: conductance range in siemens.
        write_noise_sigma: Gaussian write-noise sigma in units of the 2-bit
            level separation (sigma_N in Figure 13).
        adc_bits: ADC resolution; ``None`` selects lossless resolution.
        read_voltage: DAC full-scale voltage.
    """

    dim: int = 128
    bits_per_cell: int = 2
    bits_per_input: int = 1
    g_min: float = DEFAULT_G_MIN
    g_max: float = DEFAULT_G_MAX
    write_noise_sigma: float = 0.0
    adc_bits: int | None = None
    read_voltage: float = 0.5

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if self.bits_per_cell < 1:
            raise ValueError("bits_per_cell must be >= 1")
        if self.g_max <= self.g_min:
            raise ValueError("g_max must exceed g_min")
        if self.write_noise_sigma < 0:
            raise ValueError("write_noise_sigma must be non-negative")

    @classmethod
    def for_core(cls, core) -> "CrossbarModel":
        """The default (noiseless, lossless) model of a ``CoreConfig``."""
        return cls(dim=core.mvmu_dim, bits_per_cell=core.bits_per_cell,
                   bits_per_input=core.bits_per_input)

    @property
    def levels(self) -> int:
        """Conductance levels per device."""
        return 1 << self.bits_per_cell

    @property
    def level_spacing(self) -> float:
        """Conductance separation between adjacent levels."""
        return (self.g_max - self.g_min) / (self.levels - 1)

    @property
    def noise_sigma_conductance(self) -> float:
        """Absolute write-noise sigma in siemens."""
        reference_spacing = (self.g_max - self.g_min) / _NOISE_REFERENCE_LEVELS
        return self.write_noise_sigma * reference_spacing

    @property
    def effective_adc_bits(self) -> int:
        if self.adc_bits is not None:
            return self.adc_bits
        return exact_adc_bits(self.dim, self.bits_per_cell, self.bits_per_input)

    def build_dac(self) -> DacArray:
        return DacArray(bits=self.bits_per_input, read_voltage=self.read_voltage)

    def build_adc(self) -> AdcArray:
        max_sum = (self.dim * ((1 << self.bits_per_input) - 1)
                   * (self.levels - 1))
        top_code = (1 << self.effective_adc_bits) - 1
        # When the code range covers every possible column sum the ADC is
        # lossless (one code per level unit); otherwise the analog range is
        # compressed onto fewer codes and quantization error appears.
        full_scale = float(max(max_sum, top_code))
        return AdcArray(bits=self.effective_adc_bits, full_scale=full_scale)

    @property
    def is_ideal(self) -> bool:
        """True when the analog path is bit-exact (no noise, lossless ADC)."""
        lossless = self.effective_adc_bits >= exact_adc_bits(
            self.dim, self.bits_per_cell, self.bits_per_input)
        return self.write_noise_sigma == 0.0 and lossless


class CrossbarStack:
    """The programmed devices of the crossbars ganged in one MVMU.

    One record per unit: a ``(num_slices, dim, dim)`` level stack in the
    narrowest unsigned dtype (``uint8`` up to 8 bits per cell) and the
    matching conductance stack.  A noisy model's conductances carry RNG
    draws and are held from programming time on; a noiseless model's are a
    pure function of the levels, derived on the first analog read — the
    ideal datapath never reads them, so it never pays for them.

    :meth:`program` performs the device writes; :meth:`restore` adopts
    already-programmed arrays as they are (shared, not copied: devices are
    written once at configuration time and only read afterwards) without
    consuming RNG draws.
    """

    __slots__ = ("model", "levels", "_conductance", "dac", "adc")

    def __init__(self, model: CrossbarModel, levels: np.ndarray,
                 conductance: np.ndarray | None) -> None:
        self.model = model
        self.levels = levels
        self._conductance = conductance
        # The converter arrays are physical peripherals shared by every
        # read of the unit: built once here, not per column_sums call —
        # that call sits on the innermost hot path (input steps x weight
        # slices per MVM).
        self.dac = model.build_dac()
        self.adc = model.build_adc()

    @staticmethod
    def _check_levels(model: CrossbarModel, levels: np.ndarray) -> None:
        if levels.ndim != 3 or levels.shape[1:] != (model.dim, model.dim):
            raise ValueError(
                f"expected shape (slices, {model.dim}, {model.dim}), "
                f"got {levels.shape}")
        if not np.issubdtype(levels.dtype, np.integer):
            raise ValueError(
                f"levels must be integers, got dtype {levels.dtype}")
        if levels.min() < 0 or levels.max() >= model.levels:
            raise ValueError(f"levels out of range [0, {model.levels})")

    @classmethod
    def program(cls, model: CrossbarModel, levels: np.ndarray,
                rng: np.random.Generator) -> "CrossbarStack":
        """Serially write a stack of device levels (configuration time).

        Args:
            levels: ``(num_slices, dim, dim)`` integers in
                ``[0, 2**bits_per_cell)``; ``levels[s, i, j]`` is the
                device at row *i*, column *j* of slice *s*.
            rng: write-noise source.  One draw covers the whole stack, in
                slice order — the same stream, and the same generator
                position afterwards, as one draw per slice.
        """
        cls._check_levels(model, levels)
        stack = cls(model,
                    levels.astype(np.min_scalar_type(model.levels - 1)), None)
        if model.write_noise_sigma > 0.0:
            stack._conductance = stack._realise(rng.normal(
                0.0, model.noise_sigma_conductance, size=levels.shape))
        return stack

    @classmethod
    def restore(cls, model: CrossbarModel, levels: np.ndarray,
                conductance: np.ndarray | None = None) -> "CrossbarStack":
        """Adopt device state exported from an identically-programmed
        stack, validating both arrays (shape, integer levels in range,
        float conductances within the model's window) so state
        deserialized from disk cannot silently corrupt the analog path.

        ``conductance`` may be ``None`` for a noiseless model only.
        """
        cls._check_levels(model, levels)
        if conductance is None:
            if model.write_noise_sigma > 0.0:
                raise ValueError(
                    "a noisy model's conductances carry write-noise draws "
                    "and cannot be derived from the levels")
        else:
            if conductance.shape != levels.shape:
                raise ValueError(
                    f"conductance expected shape {levels.shape}, "
                    f"got {conductance.shape}")
            if not np.issubdtype(conductance.dtype, np.floating):
                raise ValueError(
                    f"conductance must be float, got dtype "
                    f"{conductance.dtype}")
            # program() clips to [g_min, g_max]; anything outside cannot
            # have come from an identically-configured crossbar.
            if (conductance.min() < model.g_min - 1e-18
                    or conductance.max() > model.g_max + 1e-18):
                raise ValueError(
                    "restored conductances fall outside the device window")
        return cls(model, levels, conductance)

    def _realise(self, noise: np.ndarray | None = None) -> np.ndarray:
        """The one definition of a programmed conductance: the level's
        target, displaced by its write noise, clipped to the window."""
        target = self.model.g_min + self.levels * self.model.level_spacing
        if noise is not None:
            target += noise
        return np.clip(target, self.model.g_min, self.model.g_max)

    @property
    def conductance(self) -> np.ndarray:
        """The ``(num_slices, dim, dim)`` programmed conductances."""
        if self._conductance is None:
            self._conductance = self._realise()
        return self._conductance

    def effective_levels(self, index: int) -> np.ndarray:
        """Continuous level values implied by slice ``index``'s programmed
        conductances."""
        return ((self.conductance[index] - self.model.g_min)
                / self.model.level_spacing)

    def column_sums(self, index: int,
                    input_slices: np.ndarray) -> np.ndarray:
        """Analog MVM of slice ``index`` for one or more input slices:
        digitized column sums.

        Implements the full chain of Figure 2a: DAC -> crossbar currents ->
        integrator -> ADC.  The returned values are in *level units*, i.e.
        estimates of ``sum_i x_i * w_ij`` where ``x`` is the digital input
        slice and ``w`` the stored levels.  With an ideal model the result
        is exact.

        Args:
            input_slices: ``(dim,)`` or ``(batch, dim)`` integers in
                ``[0, 2**bits_per_input)``.  A batch computes every lane in
                one matrix product; lane *b* of the result is bit-identical
                to a separate call on row *b* (the matmul is always issued
                as a 2-D product so the per-row reduction order does not
                depend on the batch size).

        Returns:
            Column sums with the same leading shape as the input:
            ``(dim,)`` for a single slice, ``(batch, dim)`` for a batch.
        """
        x = np.asarray(input_slices, dtype=np.int64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.model.dim:
            raise ValueError(
                f"expected shape ({self.model.dim},) or "
                f"(batch, {self.model.dim}), got {x.shape}")
        batched = x.ndim == 2
        lanes = x if batched else x[np.newaxis, :]

        voltages = self.dac.convert(lanes)
        currents = voltages @ self.conductance[index]  # I_j = sum_i V_i * g_ij

        # The integrator converts charge to a voltage proportional to the
        # column sum in level units; digital logic removes the g_min offset
        # using the digitally-computed input sum (a standard peripheral
        # arrangement, cf. ISAAC).
        input_sums = (lanes.sum(axis=-1, keepdims=True).astype(np.float64)
                      * self.dac.lsb_voltage)
        level_sums = ((currents - input_sums * self.model.g_min)
                      / (self.model.level_spacing * self.dac.lsb_voltage))

        codes = self.adc.convert(np.maximum(level_sums, 0.0))
        estimates = self.adc.reconstruct(codes)
        return estimates if batched else estimates[0]


class Crossbar:
    """One crossbar holding a single bit slice of a weight tile: a
    one-slice :class:`CrossbarStack` of its own (an MVMU reads its slices
    through its stack directly).

    The crossbar is written once at configuration time (Section 3.2.5) and
    read through :meth:`column_sums` during execution.
    """

    def __init__(self, model: CrossbarModel,
                 rng: np.random.Generator | None = None) -> None:
        self.model = model
        self._rng = rng if rng is not None else np.random.default_rng()
        self._stack: CrossbarStack | None = None

    def _programmed(self) -> CrossbarStack:
        if self._stack is None:
            raise RuntimeError("crossbar has not been programmed")
        return self._stack

    @property
    def target_levels(self) -> np.ndarray:
        """The digital levels the crossbar was asked to store (a copy)."""
        return self._programmed().levels[0].astype(np.int64)

    @property
    def conductance(self) -> np.ndarray:
        """The (possibly noisy) programmed conductances (a copy)."""
        return self._programmed().conductance[0].copy()

    def program(self, levels: np.ndarray) -> None:
        """Serially write a matrix of device levels (configuration time).

        Args:
            levels: ``(dim, dim)`` integers in ``[0, 2**bits_per_cell)``;
                ``levels[i, j]`` is the device at row *i*, column *j*.
        """
        self._stack = CrossbarStack.program(
            self.model, np.asarray(levels, dtype=np.int64)[np.newaxis],
            self._rng)

    def effective_levels(self) -> np.ndarray:
        """Continuous level values implied by the programmed conductances."""
        return self._programmed().effective_levels(0)

    def column_sums(self, input_slices: np.ndarray) -> np.ndarray:
        """Slice 0 of :meth:`CrossbarStack.column_sums`."""
        return self._programmed().column_sums(0, input_slices)
