"""Polyphase pilot sequences, root/shift assignment, correlators, and the
flat-gain interference bounds."""

import cmath
import math

import numpy as np
import pytest

import beampair.pilot
from beampair.pilot import (DEFAULT_ROOT_POOL, FlatGains, InvalidRoot,
                            LengthMismatch, PilotAssignment, PoolExhausted,
                            ShiftConflict, assign_pilots, correlate_zero_lag,
                            interference_bounds, zc_sequence)


def xcorr(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.sum(a * b.conj()))


# ---------------------------------------------------------------------------
# sequence generation

class TestSequences:
    def test_unit_modulus(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.choice([31, 64, 127, 512]))
            root = 25 if n != 64 else 25
            seq = zc_sequence(root, int(rng.integers(0, 2)), 6, n)
            assert seq.shape == (n,)
            assert np.max(np.abs(np.abs(seq) - 1.0)) < 1e-12

    def test_symbol_matches_sequence(self):
        """Entry k is exp(j*pi*root*(k + p*b)(k + p*b + 1)/n), written out
        with the integer exponent taken mod 2n (the exponential's period)."""
        seq = zc_sequence(29, 1, 6, 128)
        for k in (0, 1, 63, 127):
            kk = k + 6 * 1
            phase = (29 * kk * (kk + 1)) % (2 * 128)
            assert abs(cmath.exp(1j * math.pi * phase / 128) - seq[k]) < 1e-12

    def test_modular_phase_matches_analytic(self):
        """The mod-2n reduction only rewrites the exponent; at small sizes
        the direct float evaluation agrees to machine precision."""
        n, root, p, b = 31, 7, 3, 1
        seq = zc_sequence(root, b, p, n)
        k = np.arange(n) + p * b
        direct = np.exp(1j * np.pi * root * k * (k + 1) / n)
        assert np.max(np.abs(seq - direct)) < 1e-9

    def test_shift_is_circular_relabeling(self):
        """b shifts the index by p positions along the quadratic phase."""
        a = zc_sequence(25, 0, 6, 512)
        b = zc_sequence(25, 1, 6, 512)
        assert np.max(np.abs(b[: 512 - 6] - a[6:])) < 1e-12

    def test_root_validity_moduli(self):
        with pytest.raises(InvalidRoot, match="512"):
            zc_sequence(34, 0, 6, 512)
        seq = zc_sequence(34, 0, 6, 512, coprime_with="n_minus_1")
        assert seq.shape == (512,)
        with pytest.raises(InvalidRoot):
            zc_sequence(0, 0, 6, 512)
        with pytest.raises(ValueError, match="coprime_with"):
            zc_sequence(25, 0, 6, 512, coprime_with="n_plus_1")

    @pytest.mark.parametrize("dc_zero", [False, True])
    def test_array_columns_match_scalar_calls(self, dc_zero):
        """Arrays of roots and shift ids give one column per (root, b),
        bit-identical to the scalar calls; every root is validated."""
        roots, bs = np.array([25, 29, 25, 35]), np.array([0, 0, 1, 1])
        x = zc_sequence(roots, bs, 6, 512, dc_zero=dc_zero)
        assert x.shape == (512, 4)
        for j, (root, b) in enumerate(zip(roots, bs)):
            want = zc_sequence(int(root), int(b), 6, 512, dc_zero=dc_zero)
            assert np.array_equal(x[:, j], want)
        with pytest.raises(InvalidRoot, match="512"):
            zc_sequence(np.array([25, 34]), np.array([0, 1]), 6, 512)

    def test_dc_zero(self):
        seq = zc_sequence(25, 0, 6, 512, dc_zero=True)
        assert seq[256] == 0.0
        assert np.count_nonzero(seq) == 511
        assert abs(correlate_zero_lag(seq, seq, normalized=True) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# correlation identities

class TestCorrelations:
    def test_matched_autocorrelation(self):
        for n, root in ((512, 25), (511, 29), (64, 7)):
            seq = zc_sequence(root, 0, 6, n)
            ref = zc_sequence(root, 0, 6, n)
            assert abs(correlate_zero_lag(seq, ref) - n) < 1e-9
            assert abs(correlate_zero_lag(seq, ref, normalized=True) - 1.0) < 1e-12

    def test_same_root_shifted_is_zero(self):
        """A valid shift spacing makes the two pair members orthogonal;
        the geometric sum closes exactly."""
        for n in (512, 511, 509):
            a = zc_sequence(25, 0, 6, n)
            b = zc_sequence(25, 1, 6, n)
            assert abs(xcorr(a, b)) < 1e-9 * n

    def test_distinct_root_cross_level(self):
        """At length 511 both cross pairs sit at 1/sqrt(511) = 0.044237."""
        ref = zc_sequence(25, 1, 6, 511)
        for root, b in ((29, 0), (34, 1)):
            other = zc_sequence(root, b, 6, 511)
            val = abs(xcorr(other, ref)) / 511
            assert abs(val - 1.0 / np.sqrt(511)) < 5e-5

    def test_prime_length_cross_is_flat(self):
        """For prime lengths every distinct-root correlation has magnitude
        exactly sqrt(n)."""
        n = 509
        ref = zc_sequence(25, 0, 6, n)
        for root in (29, 34, 101):
            other = zc_sequence(root, 1, 6, n)
            assert abs(abs(xcorr(other, ref)) - np.sqrt(n)) < 1e-6

    def test_linearity_and_length_guard(self):
        rng = np.random.default_rng(31)
        ref = zc_sequence(25, 0, 6, 128)
        y = rng.normal(size=128) + 1j * rng.normal(size=128)
        c = correlate_zero_lag(y, ref)
        assert abs(correlate_zero_lag((2 - 1j) * y, ref) - (2 - 1j) * c) < 1e-9
        with pytest.raises(LengthMismatch):
            correlate_zero_lag(y[:100], ref)

    @pytest.mark.parametrize("dc_zero", [False, True])
    def test_matrix_correlator_matches_oracle(self, dc_zero):
        """(N, i) branches against (N, j) references give (i, j) entries
        sum_k y[k, i] x*[k, j]; normalized divides by the nonzero count of
        each reference column, n - 1 under dc_zero."""
        n = 64
        rng = np.random.default_rng(34)
        y = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        x = zc_sequence(np.array([25, 25, 29]), np.array([0, 1, 0]), 6, n,
                        dc_zero=dc_zero)
        raw = correlate_zero_lag(y, x)
        assert raw.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                assert abs(raw[i, j] - np.sum(y[:, i] * x[:, j].conj())) < 1e-12
        active = n - 1 if dc_zero else n
        assert np.max(np.abs(correlate_zero_lag(y, x, normalized=True)
                             - raw / active)) < 1e-12

    @pytest.mark.parametrize("n", [64, 511, 512])
    @pytest.mark.parametrize("dc_zero", [False, True])
    def test_normalization_is_the_nonzero_count(self, n, dc_zero):
        """normalized divides by each reference's count of nonzero entries,
        bit for bit, for a matrix and for a single column."""
        rng = np.random.default_rng(35)
        y = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        x = zc_sequence(np.array([25, 25, 29]), np.array([0, 1, 0]), 6, n,
                        dc_zero=dc_zero)
        got = correlate_zero_lag(y, x, normalized=True)
        assert got.tobytes() == (correlate_zero_lag(y, x)
                                 / np.count_nonzero(x, axis=0)).tobytes()
        one = correlate_zero_lag(y[:, 0], x[:, 2], normalized=True)
        assert one == correlate_zero_lag(y[:, 0], x[:, 2]) / np.count_nonzero(x[:, 2])

    def test_probing_correlator_matches_columns(self):
        rng = np.random.default_rng(32)
        refs = zc_sequence(np.array([25, 29]), np.array([0, 1]), 6, 128)
        y = rng.normal(size=(128, 3)) + 1j * rng.normal(size=(128, 3))
        values = correlate_zero_lag(y, refs, normalized=True)
        assert values.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                want = correlate_zero_lag(y[:, i], refs[:, j], normalized=True)
                assert abs(values[i, j] - want) < 1e-12
        with pytest.raises(LengthMismatch):
            correlate_zero_lag(y[:64], refs)

    @pytest.mark.parametrize("branches", [1, 4])
    def test_batched_branches_equal_their_correlations(self, branches):
        """Leading batch axes of the received branches (..., N, i) give
        (..., i, j), each batch entry its unbatched correlation (one vector
        when i = 1) bit for bit; branches of the wrong length are refused."""
        rng = np.random.default_rng(36)
        refs = zc_sequence(np.array([25, 25, 29, 35]), np.array([0, 1, 0, 1]), 6, 512,
                           dc_zero=True)
        y = rng.normal(size=(2, 3, 512, branches)) + 1j * rng.normal(size=(2, 3, 512, branches))
        got = correlate_zero_lag(y, refs, normalized=True)
        assert got.shape == (2, 3, branches, 4)
        for b in np.ndindex(2, 3):
            one = y[b][:, 0] if branches == 1 else y[b]
            want = correlate_zero_lag(one, refs, normalized=True)
            assert got[b].reshape(want.shape).tobytes() == want.tobytes()
        with pytest.raises(LengthMismatch, match="got 256"):
            correlate_zero_lag(y[:, :, :256], refs)


# ---------------------------------------------------------------------------
# root and shift assignment

class TestAssignment:
    def test_pairs_share_root_across_shifts(self):
        asn = assign_pilots([0, 1, 2], 512, p=6)
        x = asn.references([(0, 0), (0, 1)])
        root = asn.roots[0]
        assert np.array_equal(x[:, 0], zc_sequence(root, 0, 6, 512))
        assert np.array_equal(x[:, 1], zc_sequence(root, 1, 6, 512))
        with pytest.raises(ValueError, match="0 or 1"):
            asn.references([(0, 2)])

    def test_references_reject_shift_id_two(self):
        asn = assign_pilots([0, 1], 512, p=6)
        assert asn.references([(0, 0), (1, 1)]).shape == (512, 2)
        with pytest.raises(ValueError, match="0 or 1"):
            asn.references([(0, 0), (1, 2)])

    @pytest.mark.parametrize("dc_zero", [False, True])
    def test_reference_matrix_built_once(self, dc_zero, monkeypatch):
        """The assignment holds every reference as one (n, 2 * pairs)
        matrix, column 2k + b being shift b of the k-th pair id; a probing's
        references are its columns, taken without a zc_sequence call."""
        asn = assign_pilots([3, 1], 64, p=6, dc_zero=dc_zero)
        assert asn.refs.shape == (64, 4)
        for k, a in enumerate(asn.roots):
            for b in (0, 1):
                assert np.array_equal(asn.refs[:, 2 * k + b],
                                      zc_sequence(asn.roots[a], b, 6, 64, dc_zero))
        monkeypatch.setattr(beampair.pilot, "zc_sequence", None)
        tags = [(3, 1), (1, 0), (3, 0)]
        got = asn.references(tags)
        assert got.flags.c_contiguous  # the layout a column stack would have
        for j, (a, b) in enumerate(tags):
            k = list(asn.roots).index(a)
            assert np.array_equal(got[:, j], asn.refs[:, 2 * k + b])

    def test_default_pool_order(self):
        """Sorted pair ids take the canonical roots in order; at length 512
        the even root drops out of the default pool under the standard
        modulus and is replaced by the next coprime candidate."""
        asn = assign_pilots([2, 0, 1], 512, p=6)
        assert [asn.roots[i] for i in (0, 1, 2)] == [25, 29, 35]
        alt = assign_pilots([0, 1, 2], 512, p=6, coprime_with="n_minus_1")
        assert [alt.roots[i] for i in (0, 1, 2)] == [25, 29, 34]
        assert DEFAULT_ROOT_POOL == (25, 29, 34)

    def test_smallest_valid_shift_found(self):
        asn = assign_pilots([0, 1], 512)
        assert asn.p == 1

    def test_explicit_shift_validated(self):
        with pytest.raises(ShiftConflict, match="outside"):
            assign_pilots([0], 512, p=300)
        asn = assign_pilots([0], 512, p=6)
        assert asn.p == 6

    def test_shift_conflict_when_no_spacing_works(self):
        """A root that is a multiple of the length defeats every spacing."""
        with pytest.raises(ShiftConflict):
            assign_pilots([0], 12, root_pool=(12,), coprime_with="n_minus_1")

    def test_pool_exhausted(self):
        with pytest.raises(PoolExhausted):
            assign_pilots([0, 1, 2], 512, root_pool=(25, 29))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            assign_pilots([0, 0], 512)

    def test_invalid_pool_entry(self):
        with pytest.raises(InvalidRoot):
            assign_pilots([0], 512, root_pool=(34,))

    def test_accepts_unsorted_ids(self):
        """Pair ids in any order (here rows of a pair table) get roots from
        the pool in sorted-id order."""
        asn = assign_pilots([3, 1], 512, p=6)
        assert asn.roots == assign_pilots([1, 3], 512, p=6).roots
        assert list(asn.roots) == [1, 3]


# ---------------------------------------------------------------------------
# interference bounds

class TestBounds:
    def test_symbolic_values(self):
        asn = assign_pilots([0, 1], 1024, p=6)
        g = FlatGains(chi=0.2, sum_rho_h_vv=3 + 4j, sum_rho_h_vh=1j, n_rf=4)
        b = interference_bounds(asn, g)
        q = np.sqrt(1 / 1.2)
        assert abs(b["i0"] - 1024 * q * 5.0) < 1e-9
        assert b["i1"] == 0.0
        # roots 25/29 differ by 4 = gcd(4, 1024): crosses bounded by
        # sqrt(4 * 1024) = 64
        assert abs(b["i2"] - q * 5.0 * 1 * 64.0) < 1e-9
        assert abs(b["i3"] - q * 1.0 * 2 * 64.0) < 1e-9
        # cross-polarized share of the matched term scales as 2*sqrt(g/n)
        assert abs(b["i3"] / b["i0"] - (1 / 8) * (1.0 / 5.0)) < 1e-12

    def test_invalid_shift_keeps_full_leak_term(self):
        asn = PilotAssignment(n=12, p=12, roots={0: 5})
        g = FlatGains(chi=0.0, sum_rho_h_vv=1.0, sum_rho_h_vh=0.0, n_rf=2)
        b = interference_bounds(asn, g)
        assert b["i1"] == b["i0"] == 12.0

    @pytest.mark.parametrize("n", [256, 512])
    def test_even_length_crosses_within_bounds(self, n):
        """At even n, roots 25/29 differ by 4 = gcd(4, n), so their cross
        reaches sqrt(4n) = 2*sqrt(n), twice the flat odd-length level; the
        i2 (one other-root column) and i3 (two columns) bounds cover it."""
        asn = assign_pilots([0, 1, 2], n, p=6)
        ref = asn.references([(0, 0)])[:, 0]
        gains = FlatGains(chi=0.0, sum_rho_h_vv=1.0, sum_rho_h_vh=1.0, n_rf=4)
        bounds = interference_bounds(asn, gains)
        others = asn.references([(a, b) for a in (1, 2) for b in (0, 1)])
        crosses = sorted(abs(correlate_zero_lag(seq, ref)) for seq in others.T)
        assert abs(crosses[-1] - 2 * np.sqrt(n)) < 1e-9
        assert crosses[-1] <= bounds["i2"] + 1e-9
        assert crosses[-1] + crosses[-2] <= bounds["i3"] + 1e-9

    def test_measured_terms_never_exceed_bounds(self):
        """Simultaneous-probing correlation terms under flat gains, at a
        prime length where distinct-root products sit exactly at sqrt(n).
        Six columns: a complete v pair, one other v root, a complete h
        pair, and one other h root."""
        n, p, n_rf = 509, 6, 6
        asn = assign_pilots([0, 1, 2, 3], n, p=p)
        cols = [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (3, 0)]
        seqs = asn.references(cols).T  # seqs[i] is column i
        ref = asn.references([(0, 0)])[:, 0]
        rng = np.random.default_rng(33)
        for _ in range(30):
            vv = complex(rng.normal(), rng.normal())
            vh = complex(rng.normal(), rng.normal())
            chi = rng.uniform(0.0, 0.5)
            q = np.sqrt(1.0 / (1.0 + chi))
            beta = rng.uniform(0, 1, size=6) * np.exp(2j * np.pi * rng.random(6))
            gains = FlatGains(chi=chi, sum_rho_h_vv=vv, sum_rho_h_vh=vh, n_rf=n_rf)
            bounds = interference_bounds(asn, gains)

            i1 = abs(correlate_zero_lag(q * vv * beta[1] * seqs[1], ref))
            i2 = abs(correlate_zero_lag(q * vv * beta[2] * seqs[2], ref))
            i3 = abs(correlate_zero_lag(
                q * vh * (beta[3] * seqs[3] + beta[4] * seqs[4] + beta[5] * seqs[5]), ref))
            i0 = abs(correlate_zero_lag(q * vv * beta[0] * seqs[0], ref))
            assert i0 <= bounds["i0"] + 1e-9
            assert i1 <= 1e-9 * n
            assert i2 <= bounds["i2"] + 1e-9
            assert i3 <= bounds["i3"] + 1e-9
