"""Tests for the analog crossbar, converters, and the bit-sliced MVMU."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.adc import AdcArray, exact_adc_bits
from repro.arch.crossbar import Crossbar, CrossbarModel
from repro.arch.dac import DacArray
from repro.arch.mvmu import MVMU
from repro.fixedpoint import FixedPointFormat

FMT = FixedPointFormat()


def small_model(dim=8, noise=0.0, adc_bits=None):
    return CrossbarModel(dim=dim, bits_per_cell=2, bits_per_input=1,
                         write_noise_sigma=noise, adc_bits=adc_bits)


class TestDac:
    def test_one_bit(self):
        dac = DacArray(bits=1, read_voltage=0.5)
        np.testing.assert_allclose(dac.convert(np.array([0, 1])), [0.0, 0.5])

    def test_rejects_out_of_range(self):
        dac = DacArray(bits=1)
        with pytest.raises(ValueError):
            dac.convert(np.array([2]))


class TestAdc:
    def test_exact_bits(self):
        # 128 rows x 1-bit inputs x 2-bit cells -> sums up to 384 -> 9 bits.
        assert exact_adc_bits(128, 2, 1) == 9

    def test_lossless_identity(self):
        adc = AdcArray(bits=9, full_scale=511)
        values = np.arange(0, 385)
        np.testing.assert_array_equal(adc.reconstruct(adc.convert(values)),
                                      values)

    def test_narrow_adc_quantizes(self):
        adc = AdcArray(bits=4, full_scale=384)
        codes = adc.convert(np.array([100.0]))
        assert 0 <= codes[0] < 16
        err = abs(adc.reconstruct(codes)[0] - 100.0)
        assert err <= adc.lsb / 2 + 1e-9


class TestCrossbar:
    def test_program_and_readback(self):
        model = small_model()
        xbar = Crossbar(model)
        levels = np.random.default_rng(0).integers(0, 4, size=(8, 8))
        xbar.program(levels)
        np.testing.assert_array_equal(xbar.target_levels, levels)
        np.testing.assert_allclose(xbar.effective_levels(), levels, atol=1e-9)

    def test_rejects_bad_levels(self):
        xbar = Crossbar(small_model())
        with pytest.raises(ValueError):
            xbar.program(np.full((8, 8), 4))

    def test_requires_programming(self):
        xbar = Crossbar(small_model())
        with pytest.raises(RuntimeError):
            xbar.column_sums(np.zeros(8, dtype=np.int64))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_ideal_column_sums_exact(self, seed):
        rng = np.random.default_rng(seed)
        model = small_model()
        xbar = Crossbar(model, rng=rng)
        levels = rng.integers(0, 4, size=(8, 8))
        xbar.program(levels)
        x = rng.integers(0, 2, size=8)
        expected = x @ levels
        np.testing.assert_allclose(xbar.column_sums(x), expected, atol=1e-9)

    def test_write_noise_perturbs_conductance(self):
        rng = np.random.default_rng(7)
        model = small_model(noise=0.2)
        xbar = Crossbar(model, rng=rng)
        levels = np.full((8, 8), 2)
        xbar.program(levels)
        effective = xbar.effective_levels()
        assert not np.allclose(effective, levels)
        # Noise sigma = 0.2 of the 2-bit spacing: most devices stay close.
        assert np.abs(effective - levels).mean() < 1.0


class TestMvmu:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_analog_path_matches_ideal(self, seed):
        """The fully emulated bit-sliced analog path reproduces the exact
        integer product when devices and converters are ideal."""
        rng = np.random.default_rng(seed)
        dim = 8
        model = small_model(dim=dim, adc_bits=exact_adc_bits(dim, 2, 1))
        mvmu = MVMU(model, FMT, rng=rng)
        matrix = rng.integers(-2000, 2000, size=(dim, dim))
        mvmu.program(matrix)
        x = rng.integers(-2000, 2000, size=dim)

        ideal = x @ matrix
        analog = mvmu.dot(x, force_analog=True)
        np.testing.assert_allclose(analog, ideal, atol=1e-6)

    def test_execute_rescales_and_saturates(self):
        dim = 4
        mvmu = MVMU(small_model(dim=dim), FMT)
        # Identity x 1.0 in fixed point.
        eye = np.eye(dim, dtype=np.int64) * FMT.scale
        mvmu.program(eye)
        x = FMT.quantize(np.array([0.5, -1.25, 3.0, 7.9]))
        result = mvmu.execute(x)
        np.testing.assert_array_equal(result, x)

    def test_execute_matches_numpy_reference(self):
        rng = np.random.default_rng(3)
        dim = 16
        mvmu = MVMU(small_model(dim=dim), FMT)
        w = rng.normal(0, 0.2, size=(dim, dim))
        x = rng.normal(0, 0.5, size=dim)
        mvmu.program(FMT.quantize(w))
        result = FMT.dequantize(mvmu.execute(FMT.quantize(x)))
        np.testing.assert_allclose(result, x @ w, atol=0.02)

    def test_execute_rescale_matches_fixed_point_multiply(self):
        """Regression: the MVM rescale floors like ``prod >> frac_bits``.

        A negative product with odd low bits distinguishes floor from
        round-half-up: (-1 raw) * (1 raw) = -1, and -1 >> 12 == -1, whereas
        the old ``floor(x + 0.5)`` rescale returned 0.
        """
        dim = 4
        mvmu = MVMU(small_model(dim=dim), FMT)
        w = np.zeros((dim, dim), dtype=np.int64)
        w[0, 0] = -1          # one raw LSB below zero
        w[1, 1] = -4097       # odd low bits, larger magnitude
        w[2, 2] = 4095        # positive odd-LSB case floors toward zero
        mvmu.program(w)
        x = np.array([1, 3, 3, 0], dtype=np.int64)
        result = mvmu.execute(x)
        expected = np.array([FMT.multiply(x[j], w[j, j]) for j in range(dim)])
        np.testing.assert_array_equal(result, expected)
        # Explicit anchors for the shift semantics.
        assert result[0] == -1 * 1 >> 12 == -1
        assert result[1] == (-4097 * 3) >> 12 == -4
        assert result[2] == (4095 * 3) >> 12 == 2

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_batched_dot_bitwise_matches_per_lane(self, seed):
        """(batch, dim) inputs produce exactly the per-lane results, for
        both the ideal shortcut and the forced analog emulation."""
        rng = np.random.default_rng(seed)
        dim = 8
        model = small_model(dim=dim, noise=0.15,
                            adc_bits=exact_adc_bits(dim, 2, 1))
        mvmu = MVMU(model, FMT, rng=rng)
        mvmu.program(rng.integers(-2000, 2000, size=(dim, dim)))
        lanes = rng.integers(-2000, 2000, size=(5, dim))
        for force in (False, True):
            batched = mvmu.dot(lanes, force_analog=force)
            assert batched.shape == (5, dim)
            for b in range(5):
                np.testing.assert_array_equal(
                    batched[b], mvmu.dot(lanes[b], force_analog=force))
        batched_exec = mvmu.execute(lanes)
        for b in range(5):
            np.testing.assert_array_equal(batched_exec[b],
                                          mvmu.execute(lanes[b]))

    def test_crossbar_batched_column_sums(self):
        rng = np.random.default_rng(8)
        model = small_model()
        xbar = Crossbar(model, rng=rng)
        xbar.program(rng.integers(0, 4, size=(8, 8)))
        lanes = rng.integers(0, 2, size=(6, 8))
        batched = xbar.column_sums(lanes)
        assert batched.shape == (6, 8)
        for b in range(6):
            np.testing.assert_array_equal(batched[b],
                                          xbar.column_sums(lanes[b]))

    def test_noise_changes_results(self):
        rng = np.random.default_rng(11)
        dim = 16
        noisy = MVMU(small_model(dim=dim, noise=0.3), FMT,
                     rng=np.random.default_rng(1))
        clean = MVMU(small_model(dim=dim), FMT)
        w = FMT.quantize(rng.normal(0, 0.2, size=(dim, dim)))
        noisy.program(w)
        clean.program(w)
        x = FMT.quantize(rng.normal(0, 0.5, size=dim))
        assert not np.array_equal(noisy.execute(x), clean.execute(x))

    def test_shuffle_inputs_rotation(self):
        x = np.arange(8)
        shuffled = MVMU.shuffle_inputs(x, filter_length=5, stride=2)
        np.testing.assert_array_equal(shuffled, [2, 3, 4, 0, 1, 5, 6, 7])

    def test_shuffle_inputs_batched_matches_per_lane(self):
        rng = np.random.default_rng(5)
        lanes = rng.integers(0, 100, size=(6, 16))
        for filter_length, stride in [(5, 2), (4, 1), (16, 7), (3, 0)]:
            batched = MVMU.shuffle_inputs(lanes, filter_length, stride)
            for lane in range(lanes.shape[0]):
                np.testing.assert_array_equal(
                    batched[lane],
                    MVMU.shuffle_inputs(lanes[lane], filter_length, stride))

    def test_shuffle_disabled(self):
        x = np.arange(8)
        np.testing.assert_array_equal(MVMU.shuffle_inputs(x, 0, 3), x)

    def test_program_shape_check(self):
        mvmu = MVMU(small_model(dim=8), FMT)
        with pytest.raises(ValueError):
            mvmu.program(np.zeros((4, 4)))
