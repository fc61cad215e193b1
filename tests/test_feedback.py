"""Feedback quantizer tests: codeword grids, sign handling, worst-case and
mean error against brute-force oracles."""

import numpy as np
import pytest

from beampair.feedback import (FeedbackWord, OutOfRange, codewords, quantize_differential,
                               quantize_direct, reconstruct, worst_case_error)

# ---------------------------------------------------------------------------
# word validation

class TestConfig:
    def test_word_index_bounds(self):
        with pytest.raises(ValueError, match="codeword index"):
            FeedbackWord(scheme="direct", codeword_index=4, bits=2,
                         center_mu=0.0, half_range=1.0)


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
    def test_sign_convention(self):
        """Estimates left of the pair center (positive ratio) set +1."""
        assert quantize_differential(0.1, 0.3, 0.5, 3).sign_bit == 1
        assert quantize_differential(0.3, 0.3, 0.5, 3).sign_bit == 1
        assert quantize_differential(0.5, 0.3, 0.5, 3).sign_bit == -1

    def test_round_trip_is_nearest_codeword(self):
        """Quantize/reconstruct lands on the codeword nearest the offset."""
        rng = np.random.default_rng(70)
        for _ in range(1000):
            delta = rng.uniform(0.05, 1.0)
            center = rng.uniform(-1.0, 1.0)
            bits = int(rng.integers(1, 7))
            mu = center + rng.uniform(-delta, delta)
            back = reconstruct(quantize_differential(mu, center, delta, bits))
            grid = center + codewords(-delta, delta, bits)
            want = grid[np.argmin(np.abs(grid - mu))]
            assert abs(back - want) < 1e-12

    def test_worst_case_error_met_exactly(self):
        """A dense sweep that hits the cell edges attains, and never
        exceeds, half a cell."""
        delta, center = 0.35, -0.2
        for bits in (2, 3, 4):
            sweep = np.linspace(center - delta, center + delta, 2 ** 12 + 1)
            errs = [abs(reconstruct(quantize_differential(m, center, delta, bits)) - m)
                    for m in sweep]
            wc = worst_case_error(delta, bits)
            assert abs(max(errs) - wc) < 1e-9
            assert max(errs) <= wc + 1e-12

    def test_mean_error_quarter_cell(self):
        """Uniform input: mean absolute quantization error is cell/4."""
        delta, center, bits = 0.5, 0.1, 3
        sweep = np.linspace(center - delta, center + delta, 20001)
        errs = [abs(reconstruct(quantize_differential(m, center, delta, bits)) - m)
                for m in sweep]
        cell = 2 * delta / 2 ** bits
        assert abs(np.mean(errs) - cell / 4) < 0.01 * cell

    def test_out_of_range(self):
        with pytest.raises(OutOfRange, match="outside pair interval"):
            quantize_differential(1.0, 0.0, 0.5, 3)
        # the boundary itself is fine
        quantize_differential(0.5, 0.0, 0.5, 3)

    def test_center_override(self):
        word = quantize_differential(0.42, 0.3, 0.4, 4)
        base = reconstruct(word)
        moved = reconstruct(word, center_mu=1.3)
        assert abs((moved - 1.3) - (base - 0.3)) < 1e-12

    def test_paper_literal_mirrors_through_center(self):
        """The published reconstruction applies the ratio-convention sign to
        the quantized magnitude. With +1 meaning left of center, that lands
        every off-center estimate on the wrong side: the literal output is
        the default one reflected through the pair center."""
        center, delta, bits = 0.4, 1.0, 2
        for off in (3 * delta / 8, -3 * delta / 8, 0.8 * delta, -0.6 * delta):
            mu = center + off
            lit = quantize_differential(mu, center, delta, bits, paper_literal=True)
            dflt = quantize_differential(mu, center, delta, bits)
            assert lit.sign_bit == (1 if off <= 0 else -1)
            assert reconstruct(lit) == pytest.approx(
                2 * center - reconstruct(dflt), abs=1e-12)
        # worked example: offset +3/8 of the pair width
        lit = quantize_differential(center + 0.375, center, delta, bits,
                                    paper_literal=True)
        assert reconstruct(lit) == pytest.approx(center - 0.25, abs=1e-12)
        dflt = quantize_differential(center + 0.375, center, delta, bits)
        assert reconstruct(dflt) == pytest.approx(center + 0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# direct scheme

class TestDirect:
    def test_round_trip_nearest(self):
        rng = np.random.default_rng(71)
        sector = (-np.pi / 3, np.pi / 3)
        for _ in range(1000):
            bits = int(rng.integers(1, 8))
            mu = rng.uniform(*sector)
            back = reconstruct(quantize_direct(mu, sector, bits))
            grid = codewords(sector[0], sector[1], bits)
            assert abs(back - grid[np.argmin(np.abs(grid - mu))]) < 1e-12

    def test_asymmetric_sector(self):
        word = quantize_direct(1.1, (0.2, 1.4), 3)
        assert word.center_mu == pytest.approx(0.8)
        assert word.half_range == pytest.approx(0.6)
        assert 0.2 < reconstruct(word) < 1.4

    def test_worst_case(self):
        sector = (-0.9, 0.9)
        bits = 3
        sweep = np.linspace(*sector, 2 ** 12 + 1)
        errs = [abs(reconstruct(quantize_direct(m, sector, bits)) - m)
                for m in sweep]
        assert abs(max(errs) - worst_case_error(0.9, bits)) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(OutOfRange, match="outside sector"):
            quantize_direct(0.7, (-0.5, 0.5), 2)


# ---------------------------------------------------------------------------
# scheme comparison

def test_differential_beats_direct_at_equal_payload():
    """Same total feedback bits: quantizing the pair offset outperforms
    quantizing the whole sector whenever the pair is narrower than the
    sector, here by the ratio of their widths."""
    sector = (-np.pi / 3, np.pi / 3)
    rng = np.random.default_rng(72)
    for delta in (np.pi / 16, np.pi / 8):
        for bits in (2, 3, 4):
            d_err, s_err = [], []
            for _ in range(400):
                center = rng.uniform(sector[0] + delta, sector[1] - delta)
                mu = center + rng.uniform(-delta, delta)
                w_d = quantize_differential(mu, center, delta, bits)
                w_s = quantize_direct(mu, sector, bits + 1)
                d_err.append(abs(reconstruct(w_d) - mu))
                s_err.append(abs(reconstruct(w_s) - mu))
            assert np.mean(d_err) < np.mean(s_err)
            assert worst_case_error(delta, bits) \
                < worst_case_error(0.5 * (sector[1] - sector[0]), bits + 1)
