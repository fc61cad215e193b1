"""Wideband channel construction tests: pulse taps, polarization blocks,
and statistical generators."""

import numpy as np
import pytest

from beampair.channel import (ClusterProfile, CrossPolConfig,
                              DimensionMismatch, EmptyProfile, InvalidChi,
                              OfdmConfig, PathParams,
                              clustered_channel_generate, copol_frequency_response,
                              crosspol_direct, crosspol_frequency_response,
                              pulse_coefficients, pulse_samples, rician_narrowband,
                              _clustered_columns, _clustered_draws, _clustered_paths,
                              _effective, _precoded, _rician_draws, _rician_paths, _steered)
from beampair.geometry import (AngleSet, ArrayConfig, angles_from_spatial_frequencies,
                               aoa_from_nu, spatial_frequencies, ula_steering, upa_steering)

CO = ArrayConfig(n_x=2, n_y=3, m_tot=2)
CROSS = ArrayConfig(n_x=2, n_y=3, m_tot=2, polarization_mode="cross")
OFDM = OfdmConfig(n_subcarriers=64, cp_length=16)


def random_angles(rng):
    return AngleSet(rng.uniform(-1.2, 1.2), rng.uniform(-3.0, 3.0),
                    rng.uniform(-1.4, 1.4))


def cgain(rng):
    return complex(rng.normal(), rng.normal())


def raw_gains(path) -> np.ndarray:
    """A path's gains as the (1, 2, 2) [[vv, vh], [hv, hh]] input of
    _effective."""
    return np.array([[[path.g_vv, path.g_vh], [path.g_hv, path.g_hh]]], dtype=complex)


def _steering(angles, arrays):
    """(a_r, conj(a_t)) of one path's (theta, phi, psi), whose outer product
    is its steering matrix."""
    sf = spatial_frequencies(angles, arrays)
    return (ula_steering(sf.nu, arrays.m_tot),
            upa_steering(sf.mu_x, sf.mu_y, arrays.n_x, arrays.n_y).conj())


def first(draws) -> list:
    """Trial 0's row of each array of a chunk's draws."""
    return [d[0] for d in draws]


def rician_with_paths(los, k_factor_db, n_nlos, seed):
    """A co-pol Rician realization on a generator seeded `seed`, and its
    per-path gains (L,) and angle rows (L, 3), LOS first, from the same
    draws on a second generator."""
    real = rician_narrowband(CO, los, k_factor_db, n_nlos, np.random.default_rng(seed))
    draws = first(_rician_draws([np.random.default_rng(seed)], n_nlos))
    g, angles = _rician_paths(CO, tuple(los), *draws, k_factor_db, None)
    return real, g, np.column_stack(angles)


# ---------------------------------------------------------------------------
# OFDM settings and pulse taps

class TestOfdm:
    def test_profiles(self):
        a = OfdmConfig.profile("125mhz")
        b = OfdmConfig.profile("250mhz")
        assert (a.n_subcarriers, a.cp_length) == (512, 64)
        assert (b.n_subcarriers, b.cp_length) == (1024, 256)
        with pytest.raises(ValueError, match="profile"):
            OfdmConfig.profile("37ghz")

    def test_cp_shorter_than_symbol(self):
        with pytest.raises(ValueError, match="cp_length"):
            OfdmConfig(n_subcarriers=64, cp_length=64)

    def test_zero_delay_is_flat(self):
        """A path at tau = 0 hits the pulse only at d = 0 (the other taps sit
        on the raised cosine's zeros), so every subcarrier sees the same
        coefficient 1."""
        unit = np.zeros(OFDM.cp_length)
        unit[0] = 1.0
        assert np.allclose(pulse_samples(0.0, OFDM), unit, rtol=0, atol=1e-15)
        assert np.allclose(pulse_coefficients(0.0, OFDM), 1.0, atol=1e-12)

    def test_unit_sample_integer_delay(self):
        """At tau = d0*Ts the raised-cosine taps are the unit sample at d0 to
        within ~1e-16, which turns the tap sum into a single twiddle
        factor."""
        d0 = 3
        unit = np.zeros(OFDM.cp_length)
        unit[d0] = 1.0
        assert np.allclose(pulse_samples(d0 * OFDM.sample_period, OFDM), unit,
                           rtol=0, atol=1e-15)
        rho = pulse_coefficients(d0 * OFDM.sample_period, OFDM)
        k = np.arange(64)
        assert np.allclose(rho, np.exp(-2j * np.pi * k * d0 / 64), atol=1e-12)

    def test_single_entry_matches_vector(self):
        """Entry k is the CP-window tap sum written out:
        sum_d p(d*T_s - tau) exp(-j*2*pi*k*d/N)."""
        tau = 2.5 * OFDM.sample_period
        rho = pulse_coefficients(tau, OFDM)
        taps = pulse_samples(tau, OFDM)
        for k in (0, 5, 63):
            want = sum(taps[d] * np.exp(-2j * np.pi * k * d / 64)
                       for d in range(OFDM.cp_length))
            assert abs(rho[k] - want) < 1e-12

    def test_delay_array_gives_one_column_each(self):
        """An array of delays gives the per-delay taps and coefficients as
        columns, bit for bit."""
        taus = np.array([0.0, 1.0, 2.5, 7.3, 11.0]) * OFDM.sample_period
        samples = pulse_samples(taus, OFDM)
        coeffs = pulse_coefficients(taus, OFDM)
        assert samples.shape == (16, 5) and coeffs.shape == (64, 5)
        for j, tau in enumerate(taus):
            assert samples[:, j].tobytes() == pulse_samples(tau, OFDM).tobytes()
            assert coeffs[:, j].tobytes() == pulse_coefficients(tau, OFDM).tobytes()

    def test_fft_matches_explicit_dft(self):
        """The length-N FFT of the zero-padded taps equals the tap sum
        sum_d p(d*Ts - tau) exp(-j*2*pi*k*d/N), written out as an N x D
        matrix product."""
        for ofdm in (OFDM, OfdmConfig(n_subcarriers=256, cp_length=64)):
            k = np.arange(ofdm.n_subcarriers)
            d = np.arange(ofdm.cp_length)
            dft = np.exp(-2j * np.pi * np.outer(k, d) / ofdm.n_subcarriers)
            for tau in (0.0, 1.0, 2.5, 7.3, 11.0):
                tau *= ofdm.sample_period
                want = dft @ pulse_samples(tau, ofdm)
                got = pulse_coefficients(tau, ofdm)
                assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# path parameters and effective gains

class TestGains:
    def test_all_zero_gains_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            PathParams(0, 0, 0, 0, 0.0, AngleSet(0.1, 0.2, 0.3))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            PathParams.single_pol(1.0, -1e-9, AngleSet(0.1, 0.2, 0.3))

    @pytest.mark.parametrize("chi", [-0.1, np.nan, np.inf])
    def test_chi_validation(self, chi):
        """A negative, NaN or infinite chi raises; NaN passes a `< 0` check."""
        with pytest.raises(InvalidChi):
            CrossPolConfig(chi=chi)

    def test_profile_rejects_negative_chi(self):
        """A cluster profile fails on construction, not in the first trial
        that builds a cross-pol channel from it."""
        for chi in (-1.0, np.nan):
            with pytest.raises(InvalidChi):
                ClusterProfile(chi=chi)
        assert ClusterProfile(chi=0.0).chi == 0.0

    def test_no_leakage_identity(self):
        """chi = 0 and zero mismatch leave the gains untouched."""
        p = PathParams(1 + 2j, 3j, -1.0, 0.5, 0.0, AngleSet(0.1, 0.2, 0.3))
        eff = _effective(raw_gains(p), CrossPolConfig(chi=0.0, varsigma=0.0))[0]
        assert eff[0, 0] == 1 + 2j and eff[1, 1] == 0.5
        assert eff[0, 1] == 0.0 and eff[1, 0] == 0.0

    def test_rotation_preserves_row_energy(self):
        """The mismatch rotation moves energy between the two blocks fed by
        each transmit polarization but never changes their sum."""
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = PathParams(cgain(rng), cgain(rng), cgain(rng), cgain(rng),
                           0.0, AngleSet(0.1, 0.2, 0.3))
            chi = rng.uniform(0.0, 0.9)
            base = _effective(raw_gains(p), CrossPolConfig(chi, 0.0))[0]
            rot = _effective(raw_gains(p),
                             CrossPolConfig(chi, rng.uniform(-np.pi, np.pi)))[0]
            for row in (0, 1):  # (vv, vh), then (hv, hh)
                e0 = abs(base[row, 0]) ** 2 + abs(base[row, 1]) ** 2
                e1 = abs(rot[row, 0]) ** 2 + abs(rot[row, 1]) ** 2
                assert abs(e0 - e1) < 1e-10

    def test_leakage_share(self):
        """A pure vh gain lands in the vh block scaled by chi/(1+chi) when
        there is no rotation; the share grows with chi."""
        p = PathParams(0.0, 2.0, 0.0, 0.0, 0.0, AngleSet(0.1, 0.2, 0.3))
        last = -1.0
        for chi in (0.1, 0.2, 0.4):
            eff = _effective(raw_gains(p), CrossPolConfig(chi, 0.0))[0]
            share = abs(eff[0, 1]) ** 2  # vh
            assert abs(share - 4.0 * chi / (1 + chi)) < 1e-12
            assert eff[0, 0] == 0.0  # vv
            assert share > last
            last = share


# ---------------------------------------------------------------------------
# frequency responses against element-wise construction

class TestFrequencyResponse:
    def test_copol_elementwise(self):
        """H[k][m][n] = sum_r rho_r[k] g_r a_r[m] conj(a_t[n]), written out."""
        rng = np.random.default_rng(12)
        paths = [PathParams.single_pol(cgain(rng), rng.uniform(0, 3) * OFDM.sample_period,
                                       random_angles(rng)) for _ in range(3)]
        real = copol_frequency_response(paths, CO, OFDM)
        for k in (0, 17, 63):
            want = np.zeros((2, 6), dtype=complex)
            for p in paths:
                sf = spatial_frequencies(p.angles, CO)
                a_r = ula_steering(sf.nu, 2)
                a_t = upa_steering(sf.mu_x, sf.mu_y, 2, 3)
                rho = pulse_coefficients(p.tau, OFDM)[k]
                for m in range(2):
                    for n in range(6):
                        want[m, n] += rho * p.g_vv * a_r[m] * np.conj(a_t[n])
            assert np.max(np.abs(real.h[k] - want)) < 1e-12

    def test_crosspol_matches_direct(self):
        """Optimized block assembly equals the masked Kronecker reference."""
        rng = np.random.default_rng(13)
        for trial in range(20):
            paths = [PathParams(cgain(rng), cgain(rng), cgain(rng), cgain(rng),
                                rng.uniform(0, 4) * OFDM.sample_period,
                                random_angles(rng))
                     for _ in range(int(rng.integers(1, 4)))]
            xp = CrossPolConfig(rng.uniform(0, 0.5), rng.uniform(-0.6, 0.6))
            fast = crosspol_frequency_response(paths, CROSS, OFDM, xp)
            ref = crosspol_direct(paths, CROSS, OFDM, xp)
            assert np.max(np.abs(fast.h - ref)) < 1e-12

    def test_block_layout(self):
        rng = np.random.default_rng(14)
        paths = [PathParams(cgain(rng), cgain(rng), cgain(rng), cgain(rng),
                            0.0, random_angles(rng))]
        xp = CrossPolConfig(0.3, 0.2)
        real = crosspol_frequency_response(paths, CROSS, OFDM, xp)
        m, nt = 2, 6
        eff = _effective(raw_gains(paths[0]), xp)[0]  # [[vv, vh], [hv, hh]]
        outer = pulse_coefficients(0.0, OFDM)[:, None, None] \
            * np.outer(*_steering(paths[0].angles, CROSS))
        assert np.allclose(real.h[:, :m, :nt], eff[0, 0] * outer)
        assert np.allclose(real.h[:, :m, nt:], eff[0, 1] * outer)
        assert np.allclose(real.h[:, m:, :nt], eff[1, 0] * outer)
        assert np.allclose(real.h[:, m:, nt:], eff[1, 1] * outer)

    def test_superposition(self):
        rng = np.random.default_rng(15)
        p1 = PathParams.single_pol(cgain(rng), 0.0, random_angles(rng))
        p2 = PathParams.single_pol(cgain(rng), 2 * OFDM.sample_period, random_angles(rng))
        both = copol_frequency_response([p1, p2], CO, OFDM)
        split = copol_frequency_response([p1], CO, OFDM).h \
            + copol_frequency_response([p2], CO, OFDM).h
        assert np.max(np.abs(both.h - split)) < 1e-12

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("mode", ["co", "cross"])
    def test_beamformed_matches_dense_oracle(self, n, mode):
        """W^H H[k] F from the path factors equals the contraction of the
        dense tensor built from the defining formulas: the masked Kronecker
        reference for cross-pol, the explicit path sum for co-pol."""
        rng = np.random.default_rng(17)
        ofdm = OfdmConfig(n_subcarriers=n, cp_length=n // 4)
        arrays = CROSS if mode == "cross" else CO
        for _ in range(10):
            paths = [PathParams(cgain(rng), cgain(rng), cgain(rng), cgain(rng),
                                rng.uniform(0, ofdm.cp_length / 2) * ofdm.sample_period,
                                random_angles(rng))
                     for _ in range(int(rng.integers(1, 5)))]
            if mode == "cross":
                xp = CrossPolConfig(rng.uniform(0.05, 0.5), rng.uniform(0.1, 0.6))
                real = crosspol_frequency_response(paths, arrays, ofdm, xp)
                dense = crosspol_direct(paths, arrays, ofdm, xp)
            else:
                real = copol_frequency_response(paths, arrays, ofdm)
                dense = sum(pulse_coefficients(p.tau, ofdm)[:, None, None]
                            * p.g_vv * np.outer(*_steering(p.angles, arrays))
                            for p in paths)
            m, nt = dense.shape[1:]
            n_w, n_f = (int(c) for c in rng.integers(1, 5, size=2))
            w = rng.normal(size=(m, n_w)) + 1j * rng.normal(size=(m, n_w))
            f = rng.normal(size=(nt, n_f)) + 1j * rng.normal(size=(nt, n_f))
            want = np.einsum("mi,kmn,nj->kij", w.conj(), dense, f)
            got = real.beamformed(w, f)
            assert got.shape == (n, n_w, n_f)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_beamformed_narrowband(self):
        """N = 1: the Rician realization against its explicit path sum."""
        rng = np.random.default_rng(18)
        for seed in range(10):
            real, g, angles = rician_with_paths(random_angles(rng), 13.2, 4, seed)
            dense = sum(gain * np.outer(*_steering(ang, CO)) for gain, ang in zip(g, angles))
            w = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            f = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
            got = real.beamformed(w, f)
            assert got.shape == (1, 3, 2)
            assert np.max(np.abs(got[0] - w.conj().T @ dense @ f)) < 1e-12

    def test_beamformed_shape_guard(self):
        real = copol_frequency_response(
            [PathParams.single_pol(1.0, 0.0, AngleSet(0.1, 0.2, 0.3))], CO, OFDM)
        assert real.shape == (64, 2, 6)
        with pytest.raises(DimensionMismatch):
            real.beamformed(np.ones((3, 1)), np.ones((6, 1)))
        with pytest.raises(DimensionMismatch):
            real.beamformed(np.ones((2, 1)), np.ones((5, 1)))

    @pytest.mark.parametrize("arrays", [
        CO, CROSS, ArrayConfig(n_x=8, n_y=16, m_tot=4, polarization_mode="cross")],
        ids=["co", "cross", "cross-8x16"])
    def test_precoded_is_the_dense_product(self, arrays):
        """_precoded's per-block products v_l^H F_p of the transmit steering
        v are the dense (I_q kron v_l)^H F bit for bit, per trial and on 5
        stacked trials, with per-trial precoders and with one set shared by
        every trial; precoders without q N_t rows are rejected."""
        prof = ClusterProfile(n_clusters=3, subpaths_per_cluster=4)
        draws = _clustered_draws(prof, [np.random.default_rng(t) for t in range(5)])
        v = _clustered_columns(prof, draws, arrays, OFDM, pulse_coefficients).v
        q, n_t = len(arrays.pols), arrays.n_tx
        assert v.shape == (5, 12, n_t)
        dense = np.zeros((5, 12, q, n_t, q), dtype=complex)  # I_q kron v_l
        for p in range(q):
            dense[..., p, :, p] = v
        dense = dense.reshape(5, 12, -1, q).conj().swapaxes(-1, -2)
        rng = np.random.default_rng(24)
        f = rng.normal(size=(5, q * n_t, 3)) + 1j * rng.normal(size=(5, q * n_t, 3))
        for per_trial in (f, f[0]):
            want = dense @ per_trial[..., None, :, :]
            got = _precoded(v, per_trial, q)
            assert got.shape == want.shape == (5, 12, q, 3)
            assert got.tobytes() == want.tobytes()
            for t in range(5):
                one = _precoded(v[t], per_trial[t] if per_trial.ndim == 3 else per_trial, q)
                assert one.tobytes() == want[t].tobytes()
        with pytest.raises(DimensionMismatch, match="blocks"):
            _precoded(v, f[:, 1:], q)

    def test_mode_guards(self):
        p = [PathParams.single_pol(1.0, 0.0, AngleSet(0.1, 0.2, 0.3))]
        with pytest.raises(DimensionMismatch):
            copol_frequency_response(p, CROSS, OFDM)
        with pytest.raises(DimensionMismatch):
            crosspol_frequency_response(p, CO, OFDM, CrossPolConfig(0.2))


# ---------------------------------------------------------------------------
# statistical generators

class TestRician:
    def test_los_power_share(self):
        """The direct path magnitude is set by the K-factor, deterministically."""
        real, g, angles = rician_with_paths(AngleSet(0.3, 0.4, 0.2), 13.2, 5, 16)
        kf = 10 ** 1.32
        assert abs(abs(g[0]) - np.sqrt(kf / (1 + kf))) < 1e-12
        assert g.shape == (6,) and angles.shape == (6, 3)
        assert real.h.shape == (1, 2, 6)
        # the LOS path is the ground truth
        assert [a.tolist() for a in real.dominant_angles] == [[0.3], [0.4], [0.2]]

    def test_total_power_normalized(self):
        rng = np.random.default_rng(17)
        acc = 0.0
        trials = 4000
        for _ in range(trials):
            g, _ = _rician_paths(CO, (0.3, 0.4, 0.2), *first(_rician_draws([rng], 4)), 6.0,
                                 None)
            acc += sum(abs(g) ** 2)
        assert abs(acc / trials - 1.0) < 0.03

    def test_stacked_realization_equals_its_trials(self):
        """A stacked realization of T Rician trials, built in one pass from
        their draws, holds each trial: the per-trial realization's
        beamformed outputs bit for bit, and its dense tensor."""
        rng = np.random.default_rng(19)
        los = [random_angles(rng) for _ in range(5)]
        singles = [rician_narrowband(CO, a, 6.0, 4, np.random.default_rng(t))
                   for t, a in enumerate(los)]
        phase, draws = _rician_draws([np.random.default_rng(t) for t in range(5)], 4)
        g, angles = _rician_paths(CO, np.array([tuple(a) for a in los]).T, phase, draws, 6.0,
                                  None)
        stacked = _steered(np.ones((1, 5)), angles, g, CO).realization(None)
        assert stacked.shape == (1, 2, 6)
        w = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        f = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        got = stacked.beamformed(w, f)
        assert got.shape == (5, 1, 3, 4) and stacked.h.shape == (5, 1, 2, 6)
        for t, single in enumerate(singles):
            assert got[t].tobytes() == single.beamformed(w, f).tobytes()
            assert np.allclose(stacked.h[t], single.h, rtol=0.0, atol=1e-15)

    def test_nlos_ranges_respected(self):
        rng = np.random.default_rng(18)
        ranges = {"mu_x": (0.1, 0.3), "mu_y": (-0.2, 0.0), "nu": (0.5, 0.6)}
        for _ in range(50):
            _, angles = _rician_paths(CO, (0.3, 0.4, 0.2), *first(_rician_draws([rng], 6)), 10.0,
                                      ranges)
            sf = spatial_frequencies([a[1:] for a in angles], CO)
            assert np.all((0.1 - 1e-9 <= sf.mu_x) & (sf.mu_x <= 0.3 + 1e-9))
            assert np.all((-0.2 - 1e-9 <= sf.mu_y) & (sf.mu_y <= 1e-9))
            assert np.all((0.5 - 1e-9 <= sf.nu) & (sf.nu <= 0.6 + 1e-9))

    def test_nlos_count_guard(self):
        with pytest.raises(ValueError, match="n_nlos"):
            rician_narrowband(CO, AngleSet(0.1, 0.2, 0.3), n_nlos=-1)


class TestClustered:
    def test_shapes_and_delays(self):
        rng = np.random.default_rng(19)
        prof = ClusterProfile(n_clusters=3, subpaths_per_cluster=4)
        max_delay = (OFDM.cp_length - 1) * OFDM.sample_period
        for _ in range(20):
            real = clustered_channel_generate(prof, rng, CROSS, OFDM)
            assert real.h.shape == (64, 4, 12)
            assert [a.shape for a in real.dominant_angles] == [(3,)] * 3
            g, delays, angles, best = _clustered_paths(
                prof, first(_clustered_draws(prof, [rng])), CROSS, OFDM)
            assert g.shape == (12, 4) and [a.shape for a in angles] == [(12,)] * 3
            assert best.shape == (3,) and delays.shape == (3,)
            assert delays[0] == 0.0
            assert np.all((0.0 <= delays) & (delays <= 0.9 * max_delay + 1e-18))
        real = clustered_channel_generate(ClusterProfile(), rng, CO, OFDM)
        assert real.h.shape == (64, 2, 6)

    def test_mean_power_normalized(self):
        rng = np.random.default_rng(20)
        prof = ClusterProfile(n_clusters=2, subpaths_per_cluster=3)
        acc, trials = 0.0, 3000
        for _ in range(trials):
            g = _clustered_paths(prof, first(_clustered_draws(prof, [rng])), CROSS, OFDM)[0]
            acc += (abs(g) ** 2).sum()
        # four i.i.d. complex gains per path share the subpath power budget
        assert abs(acc / trials - 4.0) < 0.15

    @pytest.mark.parametrize("shape", [{"n_clusters": 0}, {"subpaths_per_cluster": 0},
                                       {"n_clusters": -1, "subpaths_per_cluster": 2}])
    def test_empty_profile_rejected(self, shape):
        with pytest.raises(EmptyProfile, match=">= 1"):
            ClusterProfile(**shape)

    @pytest.mark.parametrize("subpaths", [1, 4])
    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_stacked_realization_equals_its_trials(self, arrays, subpaths):
        """A stacked realization of T trials' clustered draws, built in one
        array pass with per-trial delay taps, holds each trial's
        clustered_channel_generate realization on the same stream: its
        factors, dominant angles, dense tensor and beamformed outputs byte
        for byte. Trial 0's tensor is also the masked Kronecker reference
        (cross-pol) of its explicit paths."""
        prof = ClusterProfile(n_clusters=3, subpaths_per_cluster=subpaths)
        draws = _clustered_draws(prof, [np.random.default_rng(t) for t in range(5)])
        stacked = _clustered_columns(prof, draws, arrays, OFDM,
                                     pulse_coefficients).realization(prof)
        assert stacked.rho.shape == (5, 64, 3 * subpaths)
        rng = np.random.default_rng(23)
        w = rng.normal(size=(stacked.shape[1], 2)) + 1j * rng.normal(size=(stacked.shape[1], 2))
        f = rng.normal(size=(stacked.shape[2], 3)) + 1j * rng.normal(size=(stacked.shape[2], 3))
        got = stacked.beamformed(w, f)
        assert got.shape == (5, 64, 2, 3) and stacked.h.shape == (5, *stacked.shape)
        for t in range(5):
            single = clustered_channel_generate(prof, np.random.default_rng(t), arrays, OFDM)
            assert single.shape == stacked.shape
            for mine, want in ((stacked.rho[t], single.rho), (stacked.u[t], single.u),
                               (stacked.v[t], single.v), (got[t], single.beamformed(w, f)),
                               (stacked.h[t], single.h),
                               *zip((a[t] for a in stacked.dominant_angles),
                                    single.dominant_angles)):
                assert mine.shape == want.shape and mine.tobytes() == want.tobytes()
        if arrays is CROSS:
            g, delays, angles, _ = _clustered_paths(prof, first(draws), CROSS, OFDM)
            paths = [PathParams(*g[i], delays[i // subpaths], AngleSet(*(a[i] for a in angles)))
                     for i in range(len(g))]
            ref = crosspol_direct(paths, CROSS, OFDM, CrossPolConfig(prof.chi, prof.varsigma))
            assert np.max(np.abs(stacked.h[0] - ref)) < 1e-12

    def test_sector_clipping(self):
        rng = np.random.default_rng(22)
        prof = ClusterProfile(n_clusters=3, subpaths_per_cluster=4,
                              mu_y_range=(-0.4, 0.4))
        for _ in range(30):
            angles = _clustered_paths(prof, first(_clustered_draws(prof, [rng])), CROSS,
                                      OFDM)[2]
            sf = spatial_frequencies(angles, CROSS)
            assert np.all(abs(sf.mu_y) <= 0.4 + 1e-9)


def _scalar_generate(profile, rng, arrays, ofdm):
    """clustered_channel_generate written out as a per-cluster, per-subpath
    loop of scalar draws and scalar geometry, with per-path delay taps and
    gains: (paths, dominant angles, rho, u, v), v the transmit steering."""
    nc, ns = profile.n_clusters, profile.subpaths_per_cluster
    delays = np.concatenate([[0.0], rng.exponential(profile.delay_spread, size=nc - 1)]) \
        if nc > 1 else np.zeros(1)
    delays = np.minimum(np.sort(delays), 0.9 * (ofdm.cp_length - 1) * ofdm.sample_period)
    powers = np.exp(-delays / profile.delay_spread)
    powers = powers / powers.sum()
    paths, dominant = [], []
    for ci in range(nc):
        c_mu_x = rng.uniform(*profile.mu_x_range)
        c_mu_y = rng.uniform(*profile.mu_y_range)
        c_nu = rng.uniform(*profile.nu_range)
        off_x = rng.laplace(0.0, profile.angle_spread, size=ns)
        off_y = rng.laplace(0.0, profile.angle_spread, size=ns)
        off_n = rng.laplace(0.0, profile.angle_spread, size=ns)
        sub_p = rng.exponential(1.0, size=ns)
        sub_p = powers[ci] * sub_p / sub_p.sum()
        best = None
        for si in range(ns):
            mu_x = float(np.clip(c_mu_x + off_x[si], *profile.mu_x_range))
            mu_y = float(np.clip(c_mu_y + off_y[si], *profile.mu_y_range))
            nu = float(np.clip(c_nu + off_n[si], *profile.nu_range))
            rad = np.hypot(mu_x / (2 * np.pi * arrays.d_tx), mu_y / (2 * np.pi * arrays.d_ty))
            if rad >= 1.0:
                mu_x *= 0.999 / rad
                mu_y *= 0.999 / rad
            ang = AngleSet(*angles_from_spatial_frequencies(mu_x, mu_y, arrays),
                           aoa_from_nu(nu, arrays))
            amp = np.sqrt(sub_p[si])
            gains = [amp * (rng.normal() + 1j * rng.normal()) / np.sqrt(2) for _ in range(4)]
            paths.append(PathParams(*gains, float(delays[ci]), ang))
            strength = abs(gains[0]) ** 2 + abs(gains[1]) ** 2 + abs(gains[2]) ** 2 \
                + abs(gains[3]) ** 2
            if best is None or strength > best[0]:
                best = (strength, ang)
        dominant.append((powers[ci], best[1]))
    dominant = [ang for _, ang in sorted(dominant, key=lambda t: -t[0])]

    rho = np.column_stack([pulse_coefficients(p.tau, ofdm) for p in paths])
    sf = [spatial_frequencies(p.angles, arrays) for p in paths]
    a_r = ula_steering(np.array([f.nu for f in sf]), arrays.m_tot).T
    a_t = upa_steering(np.array([f.mu_x for f in sf]), np.array([f.mu_y for f in sf]),
                       arrays.n_x, arrays.n_y).T
    if arrays.polarization_mode == "co":
        g = np.array([p.g_vv for p in paths], dtype=complex)
        return paths, dominant, rho, (g[:, None] * a_r)[:, :, None], a_t
    q, rc = np.sqrt(1.0 / (1.0 + profile.chi)), np.sqrt(profile.chi)
    c, s = np.cos(profile.varsigma), np.sin(profile.varsigma)
    g = np.array([[[q * (p.g_vv * c + rc * p.g_vh * s), q * (-p.g_vv * s + rc * p.g_vh * c)],
                   [q * (rc * p.g_hv * c + p.g_hh * s), q * (-rc * p.g_hv * s + p.g_hh * c)]]
                  for p in paths])
    u = (g[:, :, None, :] * a_r[:, None, :, None]).reshape(len(paths), -1, 2)
    return paths, dominant, rho, u, a_t  # the transmit factor I_2 kron a_t


class TestDrawOrder:
    @pytest.mark.parametrize("n_nlos", [0, 1, 5])
    def test_rician_draws_match_scalar_calls(self, n_nlos):
        """The Rician draws of 25 trials, one generator each, are the scalar
        calls they replaced, in their order on each generator: the LOS
        phase, then per NLOS path two normals and three uniforms; same
        numbers to the last bit, same generator states."""
        rngs = [np.random.default_rng(seed) for seed in range(25)]
        phase, draws = _rician_draws(rngs, n_nlos)
        assert phase.shape == (25,) and draws.shape == (25, n_nlos, 5)
        for seed, rng in enumerate(rngs):
            ref_rng = np.random.default_rng(seed)
            assert phase[seed] == ref_rng.random()
            want = [(ref_rng.normal(), ref_rng.normal(), ref_rng.random(),
                     ref_rng.random(), ref_rng.random()) for _ in range(n_nlos)]
            assert draws[seed].tobytes() == np.array(want).reshape(n_nlos, 5).tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n_clusters", [1, 5])
    @pytest.mark.parametrize("subpaths", [1, 4])
    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_array_generator_matches_scalar_loop(self, arrays, subpaths, n_clusters):
        """Same draws in the same order, same numbers to the last bit, same
        generator state afterwards, for the parameter step (gains, delays,
        angles, dominant paths) and the realization built on it; the wide
        profile clips subpaths at the sector edges and pulls directions into
        the visible region."""
        wide = dict(mu_x_range=(-2.5, 2.5), mu_y_range=(-2.5, 2.5), angle_spread=0.4)
        for extra in ({}, wide):
            prof = ClusterProfile(n_clusters=n_clusters, subpaths_per_cluster=subpaths,
                                  **extra)
            for seed in range(25):
                rng, real_rng, ref_rng = (np.random.default_rng(seed) for _ in range(3))
                g, delays, angles, best = _clustered_paths(
                    prof, first(_clustered_draws(prof, [rng])), arrays, OFDM)
                real = clustered_channel_generate(prof, real_rng, arrays, OFDM)
                paths, dominant, rho, u, v = _scalar_generate(prof, ref_rng, arrays, OFDM)
                want_angles = np.array([tuple(p.angles) for p in paths]).T
                want_dominant = np.array([tuple(a) for a in dominant]).T
                for got, want in (
                        (g, [[p.g_vv, p.g_vh, p.g_hv, p.g_hh] for p in paths]),
                        (np.repeat(delays, subpaths), [p.tau for p in paths]),
                        (np.stack(angles), want_angles),
                        (np.stack([a[best] for a in angles]), want_dominant),
                        (np.stack(real.dominant_angles), want_dominant),
                        (real.rho, rho), (real.u, u), (real.v, v)):
                    want = np.asarray(want)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                for gen in (rng, real_rng):
                    assert gen.bit_generator.state == ref_rng.bit_generator.state

