"""Feedback quantizer tests: codeword grids, round trips, worst-case and
mean error against brute-force oracles, range checks, and array calls
against their 0-d case."""

import numpy as np
import pytest

from beampair.feedback import (OutOfRange, codewords, quantize_differential, quantize_direct,
                               reconstruct_differential, reconstruct_direct, worst_case_error)


def _differential_round_trip(mu, center, delta, bits):
    return reconstruct_differential(quantize_differential(mu, center, delta, bits),
                                    center, delta, bits)


def _direct_round_trip(mu, sector, bits):
    return reconstruct_direct(quantize_direct(mu, sector, bits), sector, bits)


# ---------------------------------------------------------------------------
# codeword grid

class TestCodewords:
    def test_cell_centers(self):
        got = codewords(-1.0, 1.0, 2)
        assert np.allclose(got, [-0.75, -0.25, 0.25, 0.75])

    def test_count_and_bounds(self):
        for bits in (1, 3, 6):
            cw = codewords(0.2, 1.4, bits)
            assert len(cw) == 2 ** bits
            assert cw[0] > 0.2 and cw[-1] < 1.4
            assert np.allclose(np.diff(cw), 1.2 / 2 ** bits)


# ---------------------------------------------------------------------------
# differential scheme

class TestDifferential:
    def test_round_trip_is_nearest_codeword(self):
        """Quantize/reconstruct lands on the codeword nearest the offset."""
        rng = np.random.default_rng(70)
        for _ in range(1000):
            delta = rng.uniform(0.05, 1.0)
            center = rng.uniform(-1.0, 1.0)
            bits = int(rng.integers(1, 7))
            mu = center + rng.uniform(-delta, delta)
            back = _differential_round_trip(mu, center, delta, bits)
            grid = center + codewords(-delta, delta, bits)
            want = grid[np.argmin(np.abs(grid - mu))]
            assert abs(back - want) < 1e-12

    def test_tie_takes_the_lower_codeword(self):
        """An offset midway between two codewords takes the lower index, as
        an argmin over the grid does."""
        assert quantize_differential(0.3, 0.3, 0.5, 1) == 0
        assert quantize_direct(0.0, (-1.0, 1.0), 1) == 0

    def test_worst_case_error_met_exactly(self):
        """A dense sweep that hits the cell edges attains, and never
        exceeds, half a cell."""
        delta, center = 0.35, -0.2
        for bits in (2, 3, 4):
            sweep = np.linspace(center - delta, center + delta, 2 ** 12 + 1)
            errs = np.abs(_differential_round_trip(sweep, center, delta, bits) - sweep)
            wc = worst_case_error(delta, bits)
            assert abs(errs.max() - wc) < 1e-9
            assert errs.max() <= wc + 1e-12

    def test_mean_error_quarter_cell(self):
        """Uniform input: mean absolute quantization error is cell/4."""
        delta, center, bits = 0.5, 0.1, 3
        sweep = np.linspace(center - delta, center + delta, 20001)
        errs = np.abs(_differential_round_trip(sweep, center, delta, bits) - sweep)
        cell = 2 * delta / 2 ** bits
        assert abs(np.mean(errs) - cell / 4) < 0.01 * cell

    def test_out_of_range(self):
        with pytest.raises(OutOfRange, match="outside pair interval"):
            quantize_differential(1.0, 0.0, 0.5, 3)
        with pytest.raises(OutOfRange, match="estimate 1.0 outside pair interval"):
            quantize_differential(np.array([0.1, 1.0, -0.2]), 0.0, 0.5, 3)
        # the boundary itself is fine
        quantize_differential(0.5, 0.0, 0.5, 3)

    def test_center_override(self):
        """Reconstructing at another pair center moves the value by the
        difference of the centers."""
        index = quantize_differential(0.42, 0.3, 0.4, 4)
        base = reconstruct_differential(index, 0.3, 0.4, 4)
        moved = reconstruct_differential(index, 1.3, 0.4, 4)
        assert abs((moved - 1.3) - (base - 0.3)) < 1e-12

    def test_reconstruction_keeps_the_estimates_side(self):
        """The signed offset is quantized, so a round trip lands on the
        estimate's side of the pair center: an offset of +3/8 of the pair
        width comes back as +1/4 at 2 bits, where the published
        center + sign * offset gives -1/4."""
        center, delta, bits = 0.4, 1.0, 2
        for off in (3 * delta / 8, -3 * delta / 8, 0.8 * delta, -0.6 * delta):
            back = _differential_round_trip(center + off, center, delta, bits)
            assert np.sign(back - center) == np.sign(off)
        back = _differential_round_trip(center + 0.375, center, delta, bits)
        assert back == pytest.approx(center + 0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# direct scheme

class TestDirect:
    def test_round_trip_nearest(self):
        rng = np.random.default_rng(71)
        sector = (-np.pi / 3, np.pi / 3)
        for _ in range(1000):
            bits = int(rng.integers(1, 8))
            mu = rng.uniform(*sector)
            back = _direct_round_trip(mu, sector, bits)
            grid = codewords(sector[0], sector[1], bits)
            assert abs(back - grid[np.argmin(np.abs(grid - mu))]) < 1e-12

    def test_asymmetric_sector(self):
        """An off-center sector quantizes on its own grid."""
        index = quantize_direct(1.05, (0.2, 1.4), 3)
        assert index == 5
        back = reconstruct_direct(index, (0.2, 1.4), 3)
        assert back == pytest.approx(1.025)
        assert 0.2 < back < 1.4

    def test_worst_case(self):
        sector = (-0.9, 0.9)
        bits = 3
        sweep = np.linspace(*sector, 2 ** 12 + 1)
        errs = np.abs(_direct_round_trip(sweep, sector, bits) - sweep)
        assert abs(errs.max() - worst_case_error(0.9, bits)) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(OutOfRange, match="outside sector"):
            quantize_direct(0.7, (-0.5, 0.5), 2)
        with pytest.raises(OutOfRange, match="estimate -0.6 outside sector"):
            quantize_direct(np.array([0.1, -0.6]), (-0.5, 0.5), 2)


# ---------------------------------------------------------------------------
# both schemes

def test_nan_is_out_of_range():
    """A NaN estimate becomes no codeword, alone or as one element of an
    array."""
    for mu in (np.nan, np.array([0.1, np.nan, -0.1])):
        with pytest.raises(OutOfRange, match="nan outside pair interval"):
            quantize_differential(mu, 0.0, 0.5, 3)
        with pytest.raises(OutOfRange, match="nan outside sector"):
            quantize_direct(mu, (-0.5, 0.5), 3)
    with pytest.raises(OutOfRange, match="estimate 0.1 outside pair interval"):
        quantize_differential(0.1, np.array([0.0, np.nan]), 0.5, 3)  # a NaN center


@pytest.mark.parametrize("index", [-1, 8, 2.0, np.array([0, 7, -1]), np.array([1.0])],
                         ids=["minus-one", "two-to-the-bits", "float", "array-minus-one",
                              "float-array"])
def test_reconstruct_rejects_a_bad_index(index):
    """An index outside [0, 2**bits), or not an integer, is no codeword: -1
    no longer wraps to the last one (0.4375 at center 0, delta 0.5, 3
    bits), and 2**bits or a float raises OutOfRange, not IndexError."""
    with pytest.raises(OutOfRange, match=r"not an integer in \[0, 8\)"):
        reconstruct_differential(index, 0.0, 0.5, 3)
    with pytest.raises(OutOfRange, match=r"not an integer in \[0, 8\)"):
        reconstruct_direct(index, (-0.5, 0.5), 3)
    assert reconstruct_differential(np.int64(7), 0.0, 0.5, 3) == 0.4375
    assert reconstruct_direct(np.array([0, 7]), (-0.5, 0.5), 3).tolist() == [-0.4375, 0.4375]


@pytest.mark.parametrize("bits", range(1, 7))
def test_array_call_equals_scalar_calls(bits):
    """An array call gives, element by element, the index and the value of
    the 0-d call on that element; a 0-d call gives 0-d results."""
    rng = np.random.default_rng(73 + bits)
    delta, sector = 0.3, (-0.9, 1.1)
    center = rng.uniform(-0.5, 0.5, 40)
    mu = center + rng.uniform(-delta, delta, 40)
    index = quantize_differential(mu, center, delta, bits)
    back = reconstruct_differential(index, center, delta, bits)
    d_index = quantize_direct(mu, sector, bits)
    d_back = reconstruct_direct(d_index, sector, bits)
    for t in range(len(mu)):
        i = quantize_differential(mu[t], center[t], delta, bits)
        assert np.ndim(i) == 0 and i == index[t]
        assert reconstruct_differential(i, center[t], delta, bits) == back[t]
        i = quantize_direct(mu[t], sector, bits)
        assert np.ndim(i) == 0 and i == d_index[t]
        assert reconstruct_direct(i, sector, bits) == d_back[t]


def test_differential_beats_direct_at_equal_payload():
    """Same total feedback bits: quantizing the pair offset outperforms
    quantizing the whole sector whenever the pair is narrower than the
    sector, here by the ratio of their widths."""
    sector = (-np.pi / 3, np.pi / 3)
    rng = np.random.default_rng(72)
    for delta in (np.pi / 16, np.pi / 8):
        for bits in (2, 3, 4):
            center = rng.uniform(sector[0] + delta, sector[1] - delta, 400)
            mu = center + rng.uniform(-delta, delta, 400)
            d_err = np.abs(_differential_round_trip(mu, center, delta, bits) - mu)
            s_err = np.abs(_direct_round_trip(mu, sector, bits + 1) - mu)
            assert np.mean(d_err) < np.mean(s_err)
            assert worst_case_error(delta, bits) \
                < worst_case_error(0.5 * (sector[1] - sector[0]), bits + 1)
