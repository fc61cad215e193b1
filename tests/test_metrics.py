"""Metric tests: error statistics, overhead accounting, and the rate model
with an eigenvalue oracle and the per-subcarrier dense oracle."""

import numpy as np
import pytest

from beampair import metrics
from beampair import experiments
from beampair.channel import (ChannelRealization, ClusterProfile, CrossPolConfig,
                              DimensionMismatch, OfdmConfig, PathParams, _clustered_columns,
                              _clustered_draws, clustered_channel_generate,
                              copol_frequency_response, crosspol_frequency_response,
                              pulse_coefficients)
from beampair.codebook import rx_beam_vector, tx_beam_vector
from beampair.geometry import (AngleSet, ArrayConfig,
                               angles_from_spatial_frequencies, aoa_from_nu)
from beampair.metrics import (EmptyInput, OverheadModel, build_rf_beamformers,
                              ci95, maee, normalized_spectral_efficiency,
                              spectral_efficiency)

# ---------------------------------------------------------------------------
# error statistics

class TestMaee:
    def test_hand_values(self):
        assert maee([10.0, 20.0], [12.0, 16.0]) == pytest.approx(3.0)
        assert maee([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0

    def test_matches_streaming_mean(self):
        rng = np.random.default_rng(80)
        t = rng.uniform(-90, 90, size=10000)
        e = t + rng.normal(0, 2.0, size=10000)
        acc = 0.0
        for a, b in zip(t, e):
            acc += abs(a - b)
        assert maee(t, e) == pytest.approx(acc / t.size, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 9, 170, 8193])
    def test_axis_equals_one_call_per_row(self, n):
        """Along the trailing contiguous axis each mean is the one call's
        on that row, bit for bit: numpy sums each row in the same order."""
        rng = np.random.default_rng(82)
        t, e = rng.uniform(-90, 90, size=(2, 2, 3, n))
        got = maee(t, e, axis=-1)
        assert got.shape == (2, 3)
        assert got.tolist() == [[maee(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(t, e)]

    def test_guards(self):
        with pytest.raises(EmptyInput, match="no angle pairs"):
            maee([], [])
        with pytest.raises(ValueError, match="equal length"):
            maee([1.0, 2.0], [1.0])


class TestCi95:
    def test_short_inputs(self):
        assert ci95([]) == 0.0
        assert ci95([3.7]) == 0.0

    def test_formula(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        want = 1.96 * np.std(vals, ddof=1) / 2.0
        assert ci95(vals) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 9, 170, 8193])
    def test_axis_equals_one_call_per_row(self, n):
        """Along the trailing contiguous axis each half-width is the one
        call's on that row, bit for bit."""
        v = np.random.default_rng(83).normal(size=(2, 3, n))
        got = ci95(v, axis=-1)
        assert got.shape == (2, 3)
        assert got.tolist() == [[ci95(row) for row in rows] for rows in v]

    def test_axis_short_inputs(self):
        assert ci95(np.ones((2, 3, 1)), axis=-1).tolist() == [[0.0] * 3] * 2
        assert ci95(np.ones((0, 4)), axis=0).tolist() == [0.0] * 4

    def test_shrinks_with_sample_size(self):
        rng = np.random.default_rng(81)
        x = rng.normal(size=6400)
        assert ci95(x[:100]) > ci95(x) > 0


# ---------------------------------------------------------------------------
# overhead accounting

class TestOverhead:
    def test_complexities(self):
        assert OverheadModel.gob_complexity(10, 4, 3, 3) == 64000
        assert OverheadModel.abp_complexity(3, 30, 3, 25) == 6750

    def test_slot_counts(self):
        model = OverheadModel(epsilon_t=1000, t_tot=200)
        assert model.t_est(64000) == 64
        assert model.t_est(6750) == 7
        assert model.t_est(1) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            OverheadModel(epsilon_t=0)
        with pytest.raises(ValueError, match=">= 1"):
            OverheadModel(t_tot=0)

    def test_normalized_rate(self):
        model = OverheadModel(epsilon_t=1000, t_tot=200)
        assert normalized_spectral_efficiency(10.0, 64000, model) \
            == pytest.approx(10.0 * (1 - 64 / 200))
        # estimation longer than the coherence budget clamps to zero
        assert normalized_spectral_efficiency(10.0, 300000, model) == 0.0
        # an array of rates: each scaled as alone, bit for bit
        rates = np.array([0.1, 2.0 / 3.0, 7.25])
        assert normalized_spectral_efficiency(rates, 64000, model).tobytes() == np.array(
            [normalized_spectral_efficiency(float(r), 64000, model) for r in rates]).tobytes()
        with pytest.raises(ValueError, match="iteration count"):
            normalized_spectral_efficiency(1.0, -1, model)


# ---------------------------------------------------------------------------
# spectral efficiency

def _as_realization(h) -> ChannelRealization:
    """A realization whose dense tensor is h (K, M, N_t) or (M, N_t): one
    cluster per subcarrier (taps I_K), whose paths are the columns of h[k],
    each steered at a unit transmit vector."""
    h = np.asarray(h, dtype=complex)
    h = h[None] if h.ndim == 2 else h
    k, m, n_t = h.shape
    u = h.transpose(0, 2, 1).reshape(k * n_t, m, 1)
    v = np.tile(np.eye(n_t, dtype=complex), (k, 1))
    return ChannelRealization(np.eye(k, dtype=complex), u, v, ())


def _dense_rate(h: np.ndarray, f_rf: np.ndarray, w_rf: np.ndarray, gamma: float,
                n_s: int) -> float | np.ndarray:
    """The rate of a dense channel h (N, M, N_t) or (M, N_t) the way the
    kernel computed it before it moved to the tap domain, kept as its
    oracle: per-subcarrier H_TR = W* H[k] F, each lane's Gram H_TR H_TR*
    and an elimination without pivoting. Batch axes as in
    spectral_efficiency."""
    h = h[None] if h.ndim == 2 else h
    htr = np.swapaxes(w_rf.conj(), -1, -2)[..., None, :, :] @ h @ f_rf[..., None, :, :]
    *batch, n_sub, n_r, _ = htr.shape
    lanes = htr.reshape(-1, *htr.shape[-2:])
    a = (lanes @ np.swapaxes(lanes.conj(), -1, -2)).transpose(1, 2, 0) * (gamma / n_s)
    a[np.arange(n_r), np.arange(n_r)] += 1.0
    logdet = np.zeros(a.shape[-1])
    for p in range(n_r):
        pivot = a[p, p].real
        logdet += np.log(pivot)
        a[p + 1:, p + 1:] -= a[p + 1:, p, None] * (a[p, None, p + 1:] / pivot)
    rate = np.mean((logdet / np.log(2.0)).reshape(*batch, n_sub), axis=-1)
    return rate if batch else float(rate)


def _eigen_rate(h: np.ndarray, f_rf: np.ndarray, w_rf: np.ndarray, gamma: float,
                n_s: int) -> np.ndarray:
    """Per-subcarrier average of sum log2(1 + (gamma/n_s) lambda) over the
    eigenvalues of each H_TR H_TR*, H_TR = W* h[k] F; batch axes broadcast
    as in matmul."""
    htr = np.swapaxes(w_rf.conj(), -1, -2)[..., None, :, :] @ h @ f_rf[..., None, :, :]
    lam = np.linalg.eigvalsh(htr @ np.swapaxes(htr.conj(), -1, -2))
    return np.mean(np.sum(np.log2(1 + (gamma / n_s) * np.maximum(lam, 0.0)), axis=-1),
                   axis=-1)


class TestSpectralEfficiency:
    def test_scalar_channel(self):
        """1x1 link reduces to log2(1 + gamma |h|^2)."""
        rng = np.random.default_rng(82)
        for _ in range(100):
            h = complex(rng.normal(), rng.normal())
            gamma = rng.uniform(0.1, 30.0)
            got = spectral_efficiency(_as_realization([[h]]), np.ones((1, 1)),
                                      np.ones((1, 1)), gamma, 1)
            assert got == pytest.approx(np.log2(1 + gamma * abs(h) ** 2), rel=1e-12)

    def test_eigenvalue_oracle(self):
        """log det(I + c G G*) equals sum log(1 + c lambda_i) over the Gram
        eigenvalues."""
        rng = np.random.default_rng(83)
        for _ in range(100):
            k, m, n, n_s = 4, 5, 6, 3
            h = rng.normal(size=(k, m, n)) + 1j * rng.normal(size=(k, m, n))
            f = rng.normal(size=(n, n_s)) + 1j * rng.normal(size=(n, n_s))
            w = rng.normal(size=(m, n_s)) + 1j * rng.normal(size=(m, n_s))
            gamma = rng.uniform(0.5, 20.0)
            want = 0.0
            for kk in range(k):
                htr = w.conj().T @ h[kk] @ f
                lam = np.linalg.eigvalsh(htr @ htr.conj().T)
                want += np.sum(np.log2(1 + (gamma / n_s) * np.maximum(lam, 0.0)))
            want /= k
            got = spectral_efficiency(_as_realization(h), f, w, gamma, n_s)
            assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("n_s", [1, 2, 3, 4, 5])
    def test_kernel_matches_eigenvalue_oracle(self, n_s):
        """The kernel against sum log2(1 + c lambda_i) over the Gram
        eigenvalues and against the per-subcarrier oracle, on dense channels
        (receive streams n_s, transmit streams n_s + 1) and on a path-domain
        realization, whose H_TR has rank at most its path count."""
        rng = np.random.default_rng(85)
        for _ in range(20):
            h = rng.normal(size=(4, 5, 6)) + 1j * rng.normal(size=(4, 5, 6))
            f = rng.normal(size=(6, n_s + 1)) + 1j * rng.normal(size=(6, n_s + 1))
            w = rng.normal(size=(5, n_s)) + 1j * rng.normal(size=(5, n_s))
            gamma = rng.uniform(0.5, 50.0)
            got = spectral_efficiency(_as_realization(h), f, w, gamma, n_s)
            assert got == pytest.approx(_eigen_rate(h, f, w, gamma, n_s), rel=1e-12)
            assert got == pytest.approx(_dense_rate(h, f, w, gamma, n_s), rel=1e-12)
        arrays = ArrayConfig(2, 4, 3, polarization_mode="cross")
        paths = [PathParams(*(rng.normal(size=4) + 1j * rng.normal(size=4)), tau,
                            AngleSet(*rng.uniform(0.1, 1.0, size=3)))
                 for tau in (0.0, 3e-9)]
        chan = crosspol_frequency_response(paths, arrays, OfdmConfig(32, 8),
                                           CrossPolConfig(0.3, 0.1))
        f = rng.normal(size=(16, n_s)) + 1j * rng.normal(size=(16, n_s))
        w = rng.normal(size=(6, n_s)) + 1j * rng.normal(size=(6, n_s))
        want = _eigen_rate(chan.h, f, w, 10.0, n_s)
        assert spectral_efficiency(chan, f, w, 10.0, n_s) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("subpaths", [1, 4])
    @pytest.mark.parametrize("mode", ["co", "cross"])
    @pytest.mark.parametrize("n_s", [1, 2, 3, 4, 5])
    def test_tap_domain_matches_dense_oracle(self, n_s, mode, subpaths):
        """The tap-domain kernel on stacked clustered realizations (3
        clusters of `subpaths` paths, 4 trials, 2 beamformer sets; receive
        width n_s, transmit width n_s + 1) against the per-subcarrier
        oracles on their dense tensor chan.h: the eigenvalues of each
        W* H[k] F Gram and the H-domain elimination. The same paths
        ungrouped, one tap column per path (C = L), agree to 1e-12."""
        prof = ClusterProfile(n_clusters=3, subpaths_per_cluster=subpaths)
        arrays = ArrayConfig(2, 4, 3, polarization_mode=mode)
        draws = _clustered_draws(prof, [np.random.default_rng(90 + t) for t in range(4)])
        chan = _clustered_columns(prof, draws, arrays, OfdmConfig(32, 8),
                                  pulse_coefficients).realization(prof)
        assert chan.taps.shape == (4, 32, 3) and chan.u.shape[1] == 3 * subpaths
        rng = np.random.default_rng(91)
        m, n_t = chan.shape[1:]
        f = rng.normal(size=(2, 4, n_t, n_s + 1)) + 1j * rng.normal(size=(2, 4, n_t, n_s + 1))
        w = rng.normal(size=(2, 4, m, n_s)) + 1j * rng.normal(size=(2, 4, m, n_s))
        got = spectral_efficiency(chan, f, w, 30.0, n_s)
        ungrouped = ChannelRealization(chan.rho, chan.u, chan.v, ())
        assert got.shape == (2, 4)
        assert got == pytest.approx(_eigen_rate(chan.h, f, w, 30.0, n_s), rel=1e-12)
        assert got == pytest.approx(spectral_efficiency(ungrouped, f, w, 30.0, n_s), rel=1e-12)
        for t in range(4):
            assert got[:, t] == pytest.approx(
                _dense_rate(chan.h[t], f[:, t], w[:, t], 30.0, n_s), rel=1e-12)

    def test_zero_snr_is_exactly_zero(self):
        rng = np.random.default_rng(86)
        h = _as_realization(rng.normal(size=(3, 4, 8)) + 1j * rng.normal(size=(3, 4, 8)))
        f = rng.normal(size=(2, 8, 3)) + 1j * rng.normal(size=(2, 8, 3))
        w = rng.normal(size=(2, 4, 3)) + 1j * rng.normal(size=(2, 4, 3))
        assert spectral_efficiency(h, f[0], w[0], 0.0, 3) == 0.0
        assert spectral_efficiency(h, f, w, 0.0, 3).tolist() == [0.0, 0.0]

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(84)
        h = _as_realization(rng.normal(size=(2, 4, 8)) + 1j * rng.normal(size=(2, 4, 8)))
        f = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        w = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        rates = [spectral_efficiency(h, f, w, g, 2) for g in (0.0, 1.0, 10.0)]
        assert rates[0] == 0.0
        assert rates[0] < rates[1] < rates[2]

    def test_guards(self):
        h = _as_realization(np.zeros((1, 4, 8), dtype=complex))
        with pytest.raises(DimensionMismatch):
            spectral_efficiency(h, np.ones((7, 1)), np.ones((4, 1)), 1.0, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            spectral_efficiency(h, np.ones((8, 1)), np.ones((4, 1)), -1.0, 1)

    def test_non_finite_gamma_raises(self):
        """A NaN or infinite SNR has no finite rate: ValueError, not NaN."""
        h = _as_realization(np.ones((4, 2, 2), dtype=complex))
        for gamma in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                spectral_efficiency(h, np.eye(2), np.eye(2), gamma, 2)

    @staticmethod
    def _slice(per, n, n_s, n_c):
        """(trials, subcarriers) a slice, as spectral_efficiency counts
        values: per trial and subcarrier the tap planes, and per entry the
        Gram entries and their copy; per trial the coefficient products."""
        plane, coef = n_c * n_c + 2 * per * n_s * n_s, per * n_s * n_s * n_c * n_c * n_s
        step = metrics.SE_VALUES // (plane * n + coef)
        return (step, n) if step else (1, (metrics.SE_VALUES - coef) // plane)

    def test_lane_slices_move_no_bit(self):
        """Batches wider than one slice of SE_VALUES values, and no multiple
        of it, give each entry the bytes of its own call: 3 beamformer sets
        x 7 stacked trials of 4 clusters at 200 subcarriers (slices of 4
        trials), and 15 sets on one of those trials (slices of 9 sets)."""
        n, n_s, n_c = 200, 3, 4

        def step(per):  # trials a slice
            return self._slice(per, n, n_s, n_c)[0]

        for per, entries in ((3, 7), (1, 15)):
            assert 1 < step(per) < entries and entries % step(per)
        prof = ClusterProfile(n_clusters=n_c, subpaths_per_cluster=2)
        arrays = ArrayConfig(2, 4, 3, polarization_mode="cross")
        ofdm = OfdmConfig(n, 8)
        draws = _clustered_draws(prof, [np.random.default_rng(t) for t in range(7)])
        stack = _clustered_columns(prof, draws, arrays, ofdm, pulse_coefficients).realization(prof)
        rng = np.random.default_rng(89)
        f = rng.normal(size=(3, 7, 16, n_s)) + 1j * rng.normal(size=(3, 7, 16, n_s))
        w = rng.normal(size=(3, 7, 6, n_s)) + 1j * rng.normal(size=(3, 7, 6, n_s))
        rates = spectral_efficiency(stack, f, w, 10.0, n_s)
        assert rates.shape == (3, 7)
        chans = [clustered_channel_generate(prof, np.random.default_rng(t), arrays, ofdm)
                 for t in range(7)]
        for i in range(3):
            for t, chan in enumerate(chans):
                want = spectral_efficiency(chan, f[i, t], w[i, t], 10.0, n_s)
                assert rates[i, t].tobytes() == np.float64(want).tobytes()
        f, w = f.reshape(-1, 16, n_s)[:15], w.reshape(-1, 6, n_s)[:15]
        rates = spectral_efficiency(chans[0], f, w, 10.0, n_s)
        assert rates.shape == (15,)
        for i in range(15):
            want = spectral_efficiency(chans[0], f[i], w[i], 10.0, n_s)
            assert rates[i].tobytes() == np.float64(want).tobytes()

    def test_subcarrier_blocks_move_no_bit(self, monkeypatch):
        """A trial that holds more than SE_VALUES values runs in blocks of
        its subcarriers, and each entry keeps the bytes of its own call: 12
        beamformer sets x 2 stacked trials of 4 clusters at 1,000
        subcarriers (blocks of 260, the last of 220), where one set alone
        is one block of all 1,000."""
        n, n_s, n_c = 1000, 3, 4
        assert self._slice(12, n, n_s, n_c) == (1, 260)
        assert self._slice(1, n, n_s, n_c) == (1, n)
        prof = ClusterProfile(n_clusters=n_c, subpaths_per_cluster=2)
        arrays = ArrayConfig(2, 4, 3, polarization_mode="cross")
        ofdm = OfdmConfig(n, 8)
        draws = _clustered_draws(prof, [np.random.default_rng(t) for t in range(2)])
        stack = _clustered_columns(prof, draws, arrays, ofdm,
                                   pulse_coefficients).realization(prof)
        rng = np.random.default_rng(92)
        f = rng.normal(size=(12, 2, 16, n_s)) + 1j * rng.normal(size=(12, 2, 16, n_s))
        w = rng.normal(size=(12, 2, 6, n_s)) + 1j * rng.normal(size=(12, 2, 6, n_s))
        blocks, tap_planes = [], metrics._tap_planes

        def recording(taps):
            blocks.append(taps.shape[-1])
            return tap_planes(taps)

        monkeypatch.setattr(metrics, "_tap_planes", recording)
        rates = spectral_efficiency(stack, f, w, 10.0, n_s)
        assert rates.shape == (12, 2) and blocks == [260, 260, 260, 220] * 2
        for t in range(2):
            chan = clustered_channel_generate(prof, np.random.default_rng(t), arrays, ofdm)
            for i in range(12):
                want = spectral_efficiency(chan, f[i, t], w[i, t], 10.0, n_s)
                assert rates[i, t].tobytes() == np.float64(want).tobytes()

    def test_channel_realization_input(self):
        arrays = ArrayConfig(2, 4, 2)
        theta, phi = angles_from_spatial_frequencies(0.2, -0.4, arrays)
        ang = AngleSet(theta, phi, aoa_from_nu(0.3, arrays))
        chan = copol_frequency_response(
            [PathParams.single_pol(1.0, 0.0, ang)], arrays, OfdmConfig(16, 4))
        f, w = build_rf_beamformers(np.array([[0.2, -0.4, 0.3]]), arrays)
        aligned = spectral_efficiency(chan, f, w, 10.0, 1)
        f2, w2 = build_rf_beamformers(np.array([[0.2, 2.0, 0.3]]), arrays)
        assert aligned > spectral_efficiency(chan, f2, w2, 10.0, 1)


# ---------------------------------------------------------------------------
# beamformer assembly

class TestBuildBeamformers:
    def test_shapes_and_norms(self):
        arrays = ArrayConfig(2, 4, 3)
        f, w = build_rf_beamformers(np.array([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)]), arrays)
        assert f.shape == (8, 2) and w.shape == (3, 2)
        assert np.allclose(np.linalg.norm(f, axis=0), 1.0)
        assert np.allclose(np.linalg.norm(w, axis=0), 1.0)

    def test_cross_mode_alternates_halves(self):
        arrays = ArrayConfig(2, 4, 3, polarization_mode="cross")
        f, w = build_rf_beamformers(np.array([(0.1, 0.2, 0.3)] * 2), arrays)
        n = 8
        assert np.all(f[n:, 0] == 0) and np.all(f[:n, 1] == 0)
        assert np.all(w[3:, 0] == 0) and np.all(w[:3, 1] == 0)

    @pytest.mark.parametrize("mode", ["co", "cross"])
    @pytest.mark.parametrize("n_s", [1, 2, 3, 5])
    def test_one_steering_call_per_polarization(self, mode, n_s, monkeypatch):
        """Columns equal, bit for bit, the per-stream scalar steering calls
        (stream i: row i, polarization i mod 2 in cross mode), for one to
        five streams, from at most one tx_beam_vector and one rx_beam_vector
        call per polarization."""
        arrays = ArrayConfig(2, 4, 3, polarization_mode=mode)
        rows = [(0.1, 0.2, 0.3), (-0.4, 0.5, -0.6), (0.7, -0.8, 0.9), (0.3, 0.1, -0.2),
                (-0.6, -0.7, 0.4)][:n_s]
        pols = ("v", "h") if mode == "cross" else ("v",)
        want_f = [tx_beam_vector(arrays, pols[i % len(pols)], *rows[i][:2])
                  for i in range(n_s)]
        want_w = [rx_beam_vector(arrays, pols[i % len(pols)], rows[i][2])
                  for i in range(n_s)]
        calls = []

        def counted(fn):
            def wrapper(arrays, pol, *args):
                calls.append((fn.__name__, pol))
                return fn(arrays, pol, *args)
            return wrapper

        monkeypatch.setattr(metrics, "tx_beam_vector", counted(tx_beam_vector))
        monkeypatch.setattr(metrics, "rx_beam_vector", counted(rx_beam_vector))
        f, w = build_rf_beamformers(np.array(rows), arrays)
        assert f.shape[1] == w.shape[1] == n_s
        for i in range(n_s):
            assert f[:, i].tobytes() == want_f[i].tobytes()
            assert w[:, i].tobytes() == want_w[i].tobytes()
        assert len(calls) == len(set(calls)) == 2 * min(n_s, len(pols))

    def test_batch_axes_equal_separate_calls(self):
        """Direction rows with two batch axes, (2, 3, n_s, 3), in one call:
        each beamformer pair, its beamformed block and its rate equal the
        separate call on its own (n_s, 3) rows bit for bit."""
        arrays = ArrayConfig(2, 4, 3, polarization_mode="cross")
        rng = np.random.default_rng(87)
        dirs = rng.uniform(-0.9, 0.9, size=(2, 3, 3, 3))
        paths = [PathParams(*(rng.normal(size=4) + 1j * rng.normal(size=4)), tau,
                            AngleSet(*rng.uniform(0.1, 1.0, size=3)))
                 for tau in (0.0, 3e-9, 7e-9)]
        chan = crosspol_frequency_response(paths, arrays, OfdmConfig(32, 8),
                                           CrossPolConfig(0.3, 0.1))
        f, w = build_rf_beamformers(dirs, arrays)
        assert f.shape == (2, 3, 16, 3) and w.shape == (2, 3, 6, 3)
        rates = spectral_efficiency(chan, f, w, 10.0, 3)
        blocks = chan.beamformed(w, f)
        for i in np.ndindex(2, 3):
            f_i, w_i = build_rf_beamformers(dirs[i], arrays)
            assert f[i].tobytes() == f_i.tobytes() and w[i].tobytes() == w_i.tobytes()
            assert blocks[i].tobytes() == chan.beamformed(w_i, f_i).tobytes()
            rate = spectral_efficiency(chan, f_i, w_i, 10.0, 3)
            assert isinstance(rate, float) and rates[i] == rate

    def test_one_rate_call_per_chunk(self, monkeypatch):
        """A rate chunk builds the perfect, ABP and GoB beamformers of all
        its trials with one tx and one rx steering call per polarization and
        evaluates the 3 x T rates in one spectral_efficiency call."""
        cfg = experiments.ExperimentConfig(experiment="norm_se_vs_snr", trials=3,
                                           plots=False)
        s = experiments.setup_experiment(cfg)
        draws = experiments._rate_draw(s, 10.0, [np.random.default_rng(88 + t) for t in range(3)])
        calls = []

        def counted(fn, *names):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__,) + tuple(args[i] for i in names))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(metrics, "tx_beam_vector", counted(tx_beam_vector, 1))
        monkeypatch.setattr(metrics, "rx_beam_vector", counted(rx_beam_vector, 1))
        monkeypatch.setattr(experiments, "spectral_efficiency",
                            counted(spectral_efficiency))
        rates = experiments._rate_compute(s, 10.0, draws)
        assert rates.shape == (3, 1, 3) and rates.dtype == np.float64  # (trial, profile, scheme)
        assert sorted(calls) == [("rx_beam_vector", "h"), ("rx_beam_vector", "v"),
                                 ("spectral_efficiency",),
                                 ("tx_beam_vector", "h"), ("tx_beam_vector", "v")]

    def test_guards(self):
        arrays = ArrayConfig(2, 4, 3)
        for dirs in (np.empty((0, 3)), np.empty((2, 0, 3))):
            with pytest.raises(EmptyInput, match="no stream directions"):
                build_rf_beamformers(dirs, arrays)
