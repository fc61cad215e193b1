"""Ratio-metric estimation tests: the closed-form inversion, single-path and
multi-path flows, the beam-sweep baseline, and brute-force oracles."""

import dataclasses
import math
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest

import beampair.codebook
import beampair.pilot
from beampair.channel import (ChannelRealization, ClusterProfile, CrossPolConfig, OfdmConfig,
                              PathParams, _clustered_columns, _clustered_draws,
                              copol_frequency_response, crosspol_frequency_response,
                              pulse_coefficients, rician_narrowband)
from beampair.codebook import (AXES, CodebookConfig, InfeasibleCoverage, ProbingPlan,
                               _axis_book, build_codebooks, random_probing_plan, rx_beam_vector,
                               tx_beam_vector)
from beampair.estimator import (BothZero, InsufficientNeighbors, NoSignal,
                                estimate_multipath, estimate_single_path,
                                gob_estimate, invert_ratio, ratio_closed_form,
                                ratio_metric, received_symbol, tag_probing,
                                _fill_angles, _multipath_draws, _multipath_probing, _noise_like,
                                _pair_and_invert, _precoders, _probe, _sigma_from_gamma,
                                _slot_noise, _slots, _sweep, _vfq, _winner)
from beampair.channel import DimensionMismatch
from beampair.geometry import (AngleSet, ArrayConfig, angles_from_spatial_frequencies,
                               aoa_from_nu, upa_steering)
from beampair.pilot import assign_pilots, correlate_zero_lag, zc_sequence

CO = ArrayConfig(n_x=4, n_y=8, m_tot=4)
CROSS = ArrayConfig(n_x=4, n_y=8, m_tot=4, polarization_mode="cross")


def _count_calls(monkeypatch, *names) -> list:
    """Wrap every binding in the package of the named codebook functions;
    the returned list gets one name per call."""
    calls = []
    for name in names:
        original = getattr(beampair.codebook, name)

        def counting(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("beampair") and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counting)
    return calls


# pair k of a book's pair table, read off its arrays: its two beam vectors
# (member 0, then member 1), its center and its offset
Pair = namedtuple("Pair", "vectors center delta")


def _pair(book, k: int) -> Pair:
    return Pair(tuple(book.matrix[:, book.pairs[k]].T), float(book.centers[k]), book.delta)


def _pol_boresights(cbs, axis: str, pol: str = "v") -> np.ndarray:
    """Boresights of one polarization's beams of an axis, in book order."""
    book = cbs.books[axis]
    return book.boresights[book.pols == pol]


def angles_for(mu_x, mu_y, nu, arrays):
    theta, phi = angles_from_spatial_frequencies(mu_x, mu_y, arrays)
    return AngleSet(theta, phi, aoa_from_nu(nu, arrays))


def los_channel(mu_x, mu_y, nu, rng, arrays=CO):
    """Narrowband single-path channel at the given spatial frequencies."""
    return rician_narrowband(arrays, angles_for(mu_x, mu_y, nu, arrays),
                             k_factor_db=100.0, n_nlos=0, rng=rng)


def invert_inline(z, center, delta):
    """The arcsin inversion written out longhand, used as an oracle."""
    sd, cd = math.sin(delta), math.cos(delta)
    arg = (z * sd - z * math.sqrt(max(0.0, 1 - z * z)) * sd * cd) \
        / (sd * sd + z * z * cd * cd)
    return center - math.asin(arg)


# ---------------------------------------------------------------------------
# received symbol

class TestReceivedSymbol:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            h = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            w = rng.normal(size=m) + 1j * rng.normal(size=m)
            f = rng.normal(size=n) + 1j * rng.normal(size=n)
            s = complex(rng.normal(), rng.normal())
            want = (w.conj() @ h @ f) * s
            assert abs(received_symbol(w, h, f, s) - want) < 1e-12

    def test_shape_guard(self):
        h = np.zeros((3, 4), dtype=complex)
        with pytest.raises(DimensionMismatch):
            received_symbol(np.ones(2), h, np.ones(4))
        with pytest.raises(DimensionMismatch):
            received_symbol(np.ones(3), h, np.ones(5))

    def test_noise_statistics(self):
        """Post-combining noise variance is sigma^2 times the combiner
        energy."""
        rng = np.random.default_rng(41)
        h = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        det = complex(w.conj() @ h @ f)
        sigma = 0.7
        resid = np.array([received_symbol(w, h, f, 1.0, sigma, rng) - det
                          for _ in range(20000)])
        want = sigma ** 2 * float(np.vdot(w, w).real)
        assert abs(np.mean(np.abs(resid) ** 2) / want - 1.0) < 0.05
        assert abs(np.mean(resid)) < 0.05 * np.sqrt(want)


# ---------------------------------------------------------------------------
# ratio metric and closed form

class TestRatioMetric:
    def test_trivials(self):
        assert ratio_metric(2.0, 2.0) == 0.0
        assert ratio_metric(4.0, 0.0) == 1.0
        assert ratio_metric(0.0, 4.0) == -1.0

    def test_errors(self):
        with pytest.raises(BothZero):
            ratio_metric(0.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ratio_metric(-1.0, 2.0)

    def test_arrays_give_the_float_results(self):
        """ratio_metric and invert_ratio on arrays equal their float calls
        entry by entry, bit for bit; one bad entry raises for all."""
        rng = np.random.default_rng(40)
        p_d, p_s = rng.uniform(0.0, 2.0, 50), rng.uniform(0.0, 2.0, 50)
        centers = rng.uniform(-1.0, 1.0, 50)
        zeta = ratio_metric(p_d, p_s)
        mu = invert_ratio(zeta, centers, 0.3)
        assert zeta.shape == mu.shape == (50,)
        for i in range(50):
            z_i = ratio_metric(float(p_d[i]), float(p_s[i]))
            assert isinstance(z_i, float) and _bits(zeta[i]) == _bits(z_i)
            assert _bits(mu[i]) == _bits(invert_ratio(z_i, float(centers[i]), 0.3))
        with pytest.raises(BothZero):
            ratio_metric(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            ratio_metric(np.array([1.0, np.nan]), np.array([1.0, -1.0]))

    def test_closed_form_center_and_sign(self):
        for delta in (0.1, np.pi / 8, 1.2):
            assert abs(ratio_closed_form(0.3, 0.3, delta)) < 1e-15
            # left of center <=> positive metric
            assert ratio_closed_form(0.3 - 0.4 * delta, 0.3, delta) > 0
            assert ratio_closed_form(0.3 + 0.4 * delta, 0.3, delta) < 0

    def test_closed_form_strictly_decreasing(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            delta = rng.uniform(0.05, np.pi / 2 - 0.05)
            center = rng.uniform(-1.0, 1.0)
            mu = np.linspace(center - delta, center + delta, 400)
            z = ratio_closed_form(mu, center, delta)
            assert np.all(np.diff(z) < 0)
            assert abs(z[0] - 1.0) < 1e-12 and abs(z[-1] + 1.0) < 1e-12


class TestInversion:
    def test_zero_maps_to_center(self):
        assert invert_ratio(0.0, 0.42, 0.3) == pytest.approx(0.42, abs=1e-15)

    def test_round_trip(self):
        """Noiseless metric values invert back to the true offset."""
        rng = np.random.default_rng(43)
        for _ in range(1000):
            delta = rng.uniform(0.02, np.pi / 2 - 0.02)
            center = rng.uniform(-1.5, 1.5)
            mu = center + rng.uniform(-0.999, 0.999) * delta
            z = ratio_closed_form(mu, center, delta)
            assert abs(invert_ratio(z, center, delta) - mu) < 1e-9

    def test_edges_map_to_members(self):
        """|zeta| = 1 lands on the member boresights. The metric saturates
        quadratically there, so round trips through floating point carry a
        sqrt(eps)-level error; exact +-1 inputs stay exact."""
        rng = np.random.default_rng(60)
        for _ in range(200):
            delta = rng.uniform(0.02, np.pi / 2 - 0.02)
            center = rng.uniform(-1.5, 1.5)
            assert abs(invert_ratio(1.0, center, delta) - (center - delta)) < 1e-12
            assert abs(invert_ratio(-1.0, center, delta) - (center + delta)) < 1e-12
            for sign in (-1.0, 1.0):
                z = ratio_closed_form(center + sign * delta, center, delta)
                assert abs(abs(z) - 1.0) < 1e-12
                back = invert_ratio(z, center, delta)
                assert abs(back - (center + sign * delta)) < 1e-6

    def test_matches_longhand_formula(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            delta = rng.uniform(0.05, np.pi / 2 - 0.05)
            z = rng.uniform(-1, 1)
            assert abs(invert_ratio(z, 0.2, delta)
                       - invert_inline(z, 0.2, delta)) < 1e-12

    def test_containment_with_overshoot(self):
        """Values nudged past +-1 by noise clamp onto the pair interval."""
        for z in (-1.0 - 1e-9, 1.0 + 1e-9, -1.5, 1.5, 0.999999999):
            mu = invert_ratio(z, 0.1, 0.35)
            assert 0.1 - 0.35 - 1e-12 <= mu <= 0.1 + 0.35 + 1e-12

    def test_delta_domain(self):
        for bad in (0.0, np.pi / 2, 2.0, -0.1):
            with pytest.raises(ValueError, match="delta"):
                invert_ratio(0.3, 0.0, bad)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestScalarClamps:
    """The scalar min/max clamps give the np.clip results bit for bit: at
    the endpoints, just past +-1, and for NaN (which passes through)."""

    EDGES = [-1.0, 1.0, 0.0, -0.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
             1.0 + 1e-9, -1.0 - 1e-9, 1.5, -1.5, np.nan, 0.3]

    def test_ratio_metric(self):
        for pd, ps in ((1.0, 0.0), (0.0, 1.0), (2.0, 2.0), (np.nan, 1.0),
                       (1.0, np.nan), (np.inf, 1.0), (5e-324, 0.0), (0.7, 0.2)):
            want = float(np.clip((pd - ps) / (pd + ps), -1.0, 1.0))
            assert _bits(ratio_metric(pd, ps)) == _bits(want)

    def test_invert_ratio(self):
        def clipped(zeta, center, delta):
            z = float(np.clip(zeta, -1.0, 1.0))
            sd, cd = np.sin(delta), np.cos(delta)
            arg = (z * sd - z * np.sqrt(1.0 - z * z) * sd * cd) \
                / (sd * sd + z * z * cd * cd)
            mu = center - np.arcsin(np.clip(arg, -1.0, 1.0))
            return float(np.clip(mu, center - delta, center + delta))

        for z in self.EDGES:
            for center, delta in ((0.1, 0.35), (-1.2, np.pi / 8), (0.0, 1.5)):
                assert _bits(invert_ratio(z, center, delta)) == \
                    _bits(clipped(z, center, delta))

    def test_aoa_from_nu(self):
        for arrays in (CO, ArrayConfig(n_x=4, n_y=8, m_tot=4, d_r=0.7)):
            scale = 2 * np.pi * arrays.d_r
            for x in self.EDGES:
                want = float(np.arcsin(np.clip(x * scale / scale, -1.0, 1.0)))
                assert _bits(aoa_from_nu(x * scale, arrays)) == _bits(want)


def test_noise_amplitude_of_non_finite_snr():
    """An infinite SNR is the noiseless case; a NaN one has no noise
    amplitude and raises instead of making every noise draw NaN."""
    assert _sigma_from_gamma(math.inf) == _sigma_from_gamma(None) == 0.0
    assert _sigma_from_gamma(4.0) == 0.5
    with pytest.raises(ValueError, match="NaN"):
        _sigma_from_gamma(math.nan)


def test_batched_noise_matches_separate_draws():
    """One batched draw gives each entry's noise as separate calls would,
    and leaves the generator where they leave it."""
    for shape, batch in ((7, (5,)), ((6, 4), (3, 2)), ((2, 3), ())):
        rng, ref = np.random.default_rng(62), np.random.default_rng(62)
        got = _noise_like(shape, 0.3, rng, batch=batch)
        want = np.array([_noise_like(shape, 0.3, ref)
                         for _ in range(int(np.prod(batch)))])
        assert got.shape == batch + np.shape(np.empty(shape))
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_noise_is_the_complex_expression_bit_for_bit():
    """The in-place assembly gives the bits of sigma * (re + 1j im) / sqrt 2
    on the same draw."""
    for shape, batch in ((7, ()), ((64, 8), (3, 2))):
        rng, ref = np.random.default_rng(63), np.random.default_rng(63)
        z = ref.standard_normal((int(np.prod(batch)), 2) + np.shape(np.empty(shape)))
        want = (0.3 * (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)).reshape(
            batch + np.shape(np.empty(shape)))
        assert _noise_like(shape, 0.3, rng, batch=batch).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# single-path estimation

# offset family for which the pair kernels match and the inversion is exact
EXACT_CFG = CodebookConfig(arrays=CO, el_range=(-np.pi / 2, np.pi / 2),
                           az_range=(-np.pi / 2, np.pi / 2),
                           rx_range=(-np.pi / 2, np.pi / 2),
                           delta_mode="commensurate", ell=1)


class TestSinglePath:
    def test_noiseless_exactness(self):
        """Continuous angles inside the pair coverage come back exact."""
        cbs = build_codebooks(EXACT_CFG)
        rng = np.random.default_rng(45)
        for _ in range(100):
            mu_x = rng.uniform(-np.pi / 4, np.pi / 4) * 0.999
            mu_y = rng.uniform(-3 * np.pi / 8, 3 * np.pi / 8) * 0.999
            nu = rng.uniform(-np.pi / 4, np.pi / 4) * 0.999
            chan = los_channel(mu_x, mu_y, nu, rng)
            est = estimate_single_path(chan, cbs).best
            truth = angles_for(mu_x, mu_y, nu, CO)
            assert abs(np.degrees(est.theta - truth.theta)) < 1e-6
            assert abs(np.degrees(est.phi - truth.phi)) < 1e-6
            assert abs(np.degrees(est.psi - truth.psi)) < 1e-6

    def test_probe_count(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        rng = np.random.default_rng(46)
        rep = estimate_single_path(los_channel(0.1, 0.2, 0.3, rng), cbs)
        # 2 elevation x 6 azimuth transmit grid times 4 receive beams
        assert rep.iterations == 48

    def test_sweep_marginals_match_loop(self):
        """Marginal strengths per axis, indexed by book column, against an
        explicit loop over every (receive beam, same-polarization elevation
        and azimuth beam) probe; cross-polarized so indices run across both
        polarizations."""
        cbs = build_codebooks(CodebookConfig(arrays=CROSS,
                                             el_range=(-np.pi / 2, np.pi / 2)))
        rng = np.random.default_rng(60)
        paths = [PathParams(*(complex(rng.normal(), rng.normal()) for _ in range(4)),
                            0.0, angles_for(rng.uniform(-0.6, 0.6),
                                            rng.uniform(-1.0, 1.0),
                                            rng.uniform(-1.2, 1.2), CROSS))
                 for _ in range(3)]
        chan = crosspol_frequency_response(paths, CROSS, OfdmConfig(8, 2),
                                           CrossPolConfig(0.2, 0.3))
        el, az, rx = (cbs.books[axis] for axis in ("elevation", "azimuth", "receive"))
        want = {axis: np.zeros(len(book.pols)) for axis, book in cbs.books.items()}
        same_pol = [(e, a) for e in range(len(el.pols)) for a in range(len(az.pols))
                    if el.pols[e] == az.pols[a]]
        for r, w in enumerate(rx.matrix.T):
            for e, a in same_pol:
                f = tx_beam_vector(CROSS, el.pols[e], el.boresights[e], az.boresights[a])
                p = np.mean([abs(received_symbol(w, chan.h[k], f)) ** 2
                             for k in range(8)])
                want["receive"][r] += p
                want["elevation"][e] += p
                want["azimuth"][a] += p
        got, probes = _sweep(chan, cbs)
        assert len(_pol_boresights(cbs, "elevation")) > 1
        assert probes == len(rx.pols) * len(same_pol)
        for axis, s in want.items():
            assert np.allclose(got[axis], s, rtol=1e-12, atol=0.0)

    def test_estimates_stay_inside_selected_pair(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        rng = np.random.default_rng(47)
        for _ in range(1000):
            chan = los_channel(rng.uniform(-0.7, 0.7), rng.uniform(-1.0, 1.0),
                               rng.uniform(-1.5, 1.5), rng)
            rep = estimate_single_path(chan, cbs, gamma=1.0, rng=rng)
            est = rep.best
            for axis, value in (("elevation", est.mu_x), ("azimuth", est.mu_y),
                                ("receive", est.nu)):
                book = cbs.books[axis]
                center = book.centers[est.pairs[axis]]
                assert center - book.delta - 1e-12 <= value
                assert value <= center + book.delta + 1e-12

    def test_gain_scaling_invariance(self):
        """Scaling the whole channel must not move any estimate."""
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        rng = np.random.default_rng(48)
        for _ in range(1000):
            chan = los_channel(rng.uniform(-0.7, 0.7), rng.uniform(-1.0, 1.0),
                               rng.uniform(-1.5, 1.5), rng)
            scaled = dataclasses.replace(
                chan, u=chan.u * complex(rng.normal(), rng.normal()))
            a = estimate_single_path(chan, cbs).best
            b = estimate_single_path(scaled, cbs).best
            assert abs(a.mu_x - b.mu_x) < 1e-9
            assert abs(a.mu_y - b.mu_y) < 1e-9
            assert abs(a.nu - b.nu) < 1e-9
            for axis in ("elevation", "azimuth", "receive"):
                assert abs(a.zetas[axis] - b.zetas[axis]) < 1e-12

    def test_combiner_invariance(self):
        """The transmit-pair metric is the same through any receive beam."""
        cbs = build_codebooks(EXACT_CFG)
        pair = _pair(cbs.books["azimuth"], 1)
        rx = cbs.books["receive"]
        rng = np.random.default_rng(49)
        for _ in range(1000):
            mu_y = rng.uniform(pair.center - pair.delta,
                               pair.center + pair.delta)
            chan = los_channel(rng.uniform(-0.6, 0.6), mu_y,
                               rng.uniform(-1.2, 1.2), rng)
            zetas = []
            for w in (rx.matrix[:, 0], rx.matrix[:, 1],
                      rng.normal(size=4) + 1j * rng.normal(size=4)):
                powers = [abs(received_symbol(w, chan.h[0], f)) ** 2
                          for f in pair.vectors]
                if powers[0] + powers[1] == 0:
                    break
                zetas.append(ratio_metric(powers[0], powers[1]))
            else:
                assert max(zetas) - min(zetas) < 1e-9

    def test_no_signal(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        dead = ChannelRealization(taps=np.ones((1, 1)),
                                  u=np.zeros((1, 4, 1), dtype=complex),
                                  v=np.ones((1, 32), dtype=complex),
                                  dominant_angles=())
        with pytest.raises(NoSignal):
            estimate_single_path(dead, cbs)

    def test_single_beam_codebook_cannot_pair(self):
        cfg = CodebookConfig(arrays=CO, az_range=(-0.1, 0.1))
        cbs = build_codebooks(cfg)
        rng = np.random.default_rng(50)
        with pytest.raises(InsufficientNeighbors):
            estimate_single_path(los_channel(0.1, 0.0, 0.3, rng), cbs)

    def test_no_per_trial_rebuild(self, monkeypatch):
        """The estimators read the codebook set's matrices and pair tables:
        no beam vector is built per call. The counters wrap every binding of
        the two steering functions in the package."""
        calls = _count_calls(monkeypatch, "tx_beam_vector", "rx_beam_vector")
        build_codebooks(CodebookConfig(arrays=CROSS))
        assert calls, "the counters must see the build"
        calls.clear()

        def channel(arrays):
            ang = angles_for(0.3, -0.5, 0.4, arrays)
            if arrays is CO:
                return copol_frequency_response(
                    [PathParams.single_pol(1.0, 0.0, ang)], CO, OfdmConfig(64, 16))
            return crosspol_frequency_response(
                [PathParams(1.0, 0.2, 0.1, 0.8, 0.0, ang)], CROSS,
                OfdmConfig(64, 16), CrossPolConfig(0.2, 0.3))

        rng = np.random.default_rng(61)
        for cfg in (CodebookConfig(arrays=CO),
                    CodebookConfig(arrays=CROSS, el_range=(-np.pi / 2, np.pi / 2))):
            cbs = build_codebooks(cfg)
            calls.clear()
            estimate_single_path(channel(cfg.arrays), cbs, gamma=10.0, rng=rng)
            gob_estimate(channel(cfg.arrays), cbs, gamma=10.0, rng=rng)
            assert calls == []
        # one elevation beam per polarization, so no elevation stage (which
        # re-points the elevation beams at each azimuth estimate)
        cbs = build_codebooks(CodebookConfig(arrays=CROSS))
        pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
        plan = random_probing_plan(cbs, 6, 4, 2, 2, seed=0, layout="free")
        calls.clear()
        estimate_multipath(channel(CROSS), plan, pilots, 10.0, 2, rng=rng,
                           codebooks=cbs)
        assert calls == []


class TestAngleFill:
    def test_boresight_rows_get_zero_angles(self):
        """A transmit direction at (0, 0) of either sign, where
        angles_from_spatial_frequencies raises DegenerateDirection, gets
        (theta, phi) = (0, 0); the other rows are the angle maps' values."""
        mus = np.array([[0.3, -0.2, 0.1], [-0.0, 0.0, -0.4], [0.0, -0.0, 0.2],
                        [-0.0, -0.0, 0.0], [0.0, 0.5, 1.0]])
        rows = _fill_angles(mus, CO)
        assert rows.shape == (5, 6) and rows[:, :3].tobytes() == mus.tobytes()
        assert _bits(rows[1:4, 3:5]) == _bits(np.zeros((3, 2)))
        for i in (0, 4):
            theta, phi = angles_from_spatial_frequencies(mus[i, 0], mus[i, 1], CO)
            assert (rows[i, 3], rows[i, 4]) == (theta, phi)
        assert rows[:, 5].tolist() == [aoa_from_nu(nu, CO) for nu in mus[:, 2]]


def _pair_one(s: np.ndarray, win: int, book):
    """_pair_and_invert of one row of strengths s (beams,) and its winner:
    (mu, pair id, zeta) as scalars."""
    return tuple(a[0] for a in _pair_and_invert(s[None], np.array([win]), book))


class TestPairing:
    """_pair_and_invert on a codebook's pair table."""

    def test_stronger_neighbour_and_tie(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        book = cbs.books["azimuth"]
        s = np.array([1.0, 2.0, 5.0, 2.0, 1.0, 0.5])
        _, k, _ = _pair_one(s, 2, book)
        assert k == 1  # tie between beams 1 and 3: the lower wins
        assert book.pairs[1].tolist() == [1, 2]
        s[3] = np.nextafter(2.0, 3.0)
        mu, k, zeta = _pair_one(s, 2, book)
        assert k == 2
        assert zeta == ratio_metric(s[2], s[3])
        assert mu == invert_ratio(zeta, book.centers[2], book.delta)

    def test_edge_beams_have_one_candidate(self):
        """Beams 0-3 are vertical and 4-7 horizontal: the last vertical and
        the first horizontal beam never pair across the split, however
        strong the other side is."""
        cfg = CodebookConfig(arrays=CROSS, az_range=(-np.pi / 2, np.pi / 2))
        cbs = build_codebooks(cfg)
        book = cbs.books["azimuth"]
        s = np.array([1.0, 1.0, 2.0, 5.0, 9.0, 3.0, 1.0, 1.0])
        for win, want in ((0, 0), (3, 2), (4, 3), (7, 5)):
            assert _pair_one(s, win, book)[1] == want
        assert book.pairs[[0, 2, 3, 5]].tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_single_beam_axis_raises(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO, az_range=(-0.1, 0.1)))
        with pytest.raises(InsufficientNeighbors):
            _pair_one(np.ones(1), 0, cbs.books["azimuth"])

    def test_zero_rows(self):
        """Rows of strengths (0, beams) with winners (0,) pair nothing and
        give three empty arrays."""
        book = build_codebooks(CodebookConfig(arrays=CO)).books["azimuth"]
        out = _pair_and_invert(np.ones((0, len(book.pols))), np.zeros(0, dtype=int), book)
        assert [a.shape for a in out] == [(0,)] * 3


class TestCrossPolarized:
    def test_zeta_matches_closed_form(self):
        """With cross-polarized arrays the pair metric still collapses to
        the co-polarized closed form: the polarization factors are common
        to both pair members and cancel."""
        cfg = CodebookConfig(arrays=CROSS, az_range=(-np.pi / 2, np.pi / 2),
                             delta_mode="commensurate", ell=1)
        cbs = build_codebooks(cfg)
        pair = _pair(cbs.books["azimuth"], 0)
        ofdm = OfdmConfig(16, 4)
        xp = CrossPolConfig(chi=0.2, varsigma=np.radians(20.0))
        rng = np.random.default_rng(51)
        rx_beams = cbs.books["receive"].matrix.T
        for _ in range(100):
            mu_y = rng.uniform(pair.center - 0.95 * pair.delta,
                               pair.center + 0.95 * pair.delta)
            ang = angles_for(rng.uniform(-0.4, 0.4), mu_y, rng.uniform(-1, 1), CROSS)
            path = PathParams(complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()), 0.0, ang)
            chan = crosspol_frequency_response([path], CROSS, ofdm, xp)
            powers = [sum(abs(received_symbol(w, chan.h[0], f)) ** 2
                          for w in rx_beams) for f in pair.vectors]
            zeta = ratio_metric(powers[0], powers[1])
            want = ratio_closed_form(mu_y, pair.center, pair.delta)
            assert abs(zeta - want) < 1e-6

    def test_zeta_ignores_mismatch_and_imbalance(self):
        """Same path, different (chi, varsigma): the metric moves by less
        than 1e-9 because both pair beams see identical gain rotations."""
        cfg = CodebookConfig(arrays=CROSS, az_range=(-np.pi / 2, np.pi / 2),
                             delta_mode="commensurate", ell=1)
        cbs = build_codebooks(cfg)
        pair = _pair(cbs.books["azimuth"], 1)
        ofdm = OfdmConfig(16, 4)
        rng = np.random.default_rng(52)
        rx_beams = cbs.books["receive"].matrix.T
        for _ in range(100):
            mu_y = rng.uniform(pair.center - 0.9 * pair.delta,
                               pair.center + 0.9 * pair.delta)
            ang = angles_for(rng.uniform(-0.4, 0.4), mu_y, rng.uniform(-1, 1), CROSS)
            path = PathParams(complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()), 0.0, ang)
            vals = []
            for chi, vs in ((0.0, 0.0), (0.2, np.radians(20)), (0.4, np.radians(-35))):
                chan = crosspol_frequency_response([path], CROSS, ofdm,
                                                   CrossPolConfig(chi, vs))
                powers = [sum(abs(received_symbol(w, chan.h[0], f)) ** 2
                              for w in rx_beams) for f in pair.vectors]
                vals.append(ratio_metric(powers[0], powers[1]))
            assert max(vals) - min(vals) < 1e-9


# ---------------------------------------------------------------------------
# beam-sweep baseline

class TestGob:
    def test_on_boresight_is_exact(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        rng = np.random.default_rng(53)
        mu_y = _pol_boresights(cbs, "azimuth")[2]
        mu_x = _pol_boresights(cbs, "elevation")[0]
        nu = _pol_boresights(cbs, "receive")[1]
        rep = gob_estimate(los_channel(mu_x, mu_y, nu, rng), cbs)
        assert abs(rep.best.mu_y - mu_y) < 1e-12
        assert abs(rep.best.mu_x - mu_x) < 1e-12
        assert abs(rep.best.nu - nu) < 1e-12

    def test_midpoint_error_is_half_spacing(self):
        """The worst case for a pick-the-strongest sweep: truth midway
        between two boresights misses by exactly delta."""
        cfg = CodebookConfig(arrays=CO)
        cbs = build_codebooks(cfg)
        rng = np.random.default_rng(54)
        b = _pol_boresights(cbs, "azimuth")
        mid = 0.5 * (b[3] + b[4])
        nu = _pol_boresights(cbs, "receive")[0]
        rep = gob_estimate(los_channel(b[0], mid, nu, rng), cbs)
        assert abs(abs(rep.best.mu_y - mid) - cfg.delta("azimuth")) < 1e-9

    def test_iteration_model(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        rng = np.random.default_rng(55)
        chan = los_channel(0.1, 0.2, 0.3, rng)
        assert gob_estimate(chan, cbs).iterations == 48
        assert gob_estimate(chan, cbs, n_rf=2, m_rf=2).iterations == 12 ** 2 * 4 ** 2


# ---------------------------------------------------------------------------
# pilot tagging

class TestTagging:
    def test_pair_members_share_id(self):
        cfg = CodebookConfig(arrays=CROSS, az_range=(-np.pi / 2, np.pi / 2))
        cbs = build_codebooks(cfg)
        book = cbs.books["azimuth"]
        v, h = (np.flatnonzero(book.pols == pol) for pol in ("v", "h"))
        tags = tag_probing([v[0], v[1], h[0], h[2]], book.members)
        assert tags[0][0] == tags[1][0]
        assert (tags[0][1], tags[1][1]) == (0, 1)
        assert tags[2][0] != tags[3][0]
        assert tags[2][0] != tags[0][0] and tags[3][0] != tags[0][0]

    def test_unpaired_beam_rejected(self):
        cfg = CodebookConfig(arrays=CO, az_range=(-0.1, 0.1))
        cbs = build_codebooks(cfg)
        assert cbs.books["azimuth"].pols.tolist() == ["v"]
        with pytest.raises(InsufficientNeighbors):
            tag_probing([0], cbs.books["azimuth"].members)


# ---------------------------------------------------------------------------
# multi-path estimation

TOY_CFG = CodebookConfig(arrays=CO, el_range=(-3 * np.pi / 4, 3 * np.pi / 4),
                         az_range=(-3 * np.pi / 4, 3 * np.pi / 4),
                         rx_range=(-3 * np.pi / 4, 3 * np.pi / 4),
                         delta_mode="commensurate", ell=1)


def _three_cross_trials(el_range):
    """Codebooks of cross-pol arrays (under el_range when given), pilots,
    and three trials' three-path channels (N = 64) and free plans."""
    cfg = CodebookConfig(arrays=CROSS) if el_range is None else \
        CodebookConfig(arrays=CROSS, el_range=el_range)
    cbs = build_codebooks(cfg)
    pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
    rng = np.random.default_rng(66)
    chans, plans = [], []
    for seed in range(3):
        paths = [PathParams(*(rng.normal(size=4) + 1j * rng.normal(size=4)), tau,
                            angles_for(*rng.uniform(-0.8, 0.8, size=3), CROSS))
                 for tau in (0.0, 2e-9, 5e-9)]
        chans.append(crosspol_frequency_response(paths, CROSS, OfdmConfig(64, 16),
                                                 CrossPolConfig(0.3, 0.2)))
        plans.append(random_probing_plan(cbs, 6, 4, 2, 2, seed=seed, layout="free"))
    return cbs, pilots, chans, plans


def _assert_report_arrays(rep, cbs, n_paths: int, paired: set) -> None:
    """The report's array contract: est (P, 6); per axis, int pair ids (P,)
    that name a pair of the axis's table where the axis in `paired` formed
    one and are -1 elsewhere, and float zetas (P,), NaN exactly where the
    id is -1; and the paths built from the arrays equal to them."""
    assert rep.est.shape == (n_paths, 6) and not np.isnan(rep.est).any()
    assert set(rep.pairs) == set(rep.zetas) == set(AXES)
    for axis in AXES:
        k, z = rep.pairs[axis], rep.zetas[axis]
        assert k.shape == z.shape == (n_paths,), axis
        assert k.dtype.kind == "i" and z.dtype.kind == "f", axis
        assert ((k >= 0) == (axis in paired)).all() and (k < len(cbs.books[axis].pairs)).all()
        assert (np.isnan(z) == (k < 0)).all() and (np.abs(z[k >= 0]) <= 1).all(), axis
    paths = rep.paths
    assert len(paths) == n_paths and rep.best == paths[0]
    for i, path in enumerate(paths):
        assert dataclasses.astuple(path)[:6] == tuple(rep.est[i].tolist())
        assert path.pairs == {axis: rep.pairs[axis][i] for axis in paired}
        assert path.zetas == {axis: rep.zetas[axis][i] for axis in paired}


class TestReportArrays:
    """Every estimator's report holds its estimates as arrays, one row and
    one pair id and zeta per axis for each path."""

    def test_single_path_and_gob(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        chan = los_channel(0.1, 0.2, 0.3, np.random.default_rng(70))
        _assert_report_arrays(estimate_single_path(chan, cbs), cbs, 1, set(AXES))
        _assert_report_arrays(gob_estimate(chan, cbs), cbs, 1, set())

    @pytest.mark.parametrize("el_range", [None, (-np.pi / 2, np.pi / 2)],
                             ids=["azimuth", "elevation"])
    def test_multipath(self, el_range):
        """Without the elevation stage no path has an elevation pair; with
        it, in these trials, every path has one."""
        cbs, pilots, chans, plans = _three_cross_trials(el_range)
        rep = estimate_multipath(chans[0], plans[0], pilots, 10.0, 2,
                                 np.random.default_rng(71), codebooks=cbs)
        paired = set(AXES) if el_range else {"azimuth", "receive"}
        _assert_report_arrays(rep, cbs, 2, paired)


class TestMultipath:
    def test_elevation_sweep_without_energy_raises(self, monkeypatch):
        """A (trial, path) row whose elevation sweep collects no energy
        raises NoSignal, as the azimuth stage does; it kept the elevation
        range center and no elevation pair without a word. Row 1's
        elevation beams are made to see nothing, noiselessly."""
        cbs, pilots, chans, plans = _three_cross_trials((-np.pi / 2, np.pi / 2))
        made = []

        def dark_row(*args):
            out = _vfq(*args)
            made.append(out)
            if len(made) == 2:  # the elevation stage's, one per (trial, path) row
                out[1] = 0
            return out

        monkeypatch.setattr("beampair.estimator._vfq", dark_row)
        with pytest.raises(NoSignal):
            estimate_multipath(chans[0], plans[0], pilots, None, 2, codebooks=cbs)
        assert len(made) == 2 and made[1].shape[0] == 2

    def test_reduces_to_single_path(self):
        """One path, one RF chain per side: the pilot-probing flow and the
        sequential sweep give the same numbers."""
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
        ofdm = OfdmConfig(64, 16)
        rng = np.random.default_rng(56)
        for t in range(20):
            mu_x = rng.uniform(-0.35, 0.35)
            mu_y = rng.uniform(-0.9, 0.9)
            nu = rng.uniform(-1.1, 1.1)
            path = PathParams.single_pol(np.exp(2j * np.pi * rng.random()), 0.0,
                                         angles_for(mu_x, mu_y, nu, CO))
            chan = copol_frequency_response([path], CO, ofdm)
            plan = random_probing_plan(cbs, 6, 4, 1, 1, seed=t, layout="free")
            multi = estimate_multipath(chan, plan, pilots, None, 1,
                                       rng=np.random.default_rng(t),
                                       codebooks=cbs).best
            single = estimate_single_path(chan, cbs).best
            assert abs(multi.mu_x - single.mu_x) < 1e-9
            assert abs(multi.mu_y - single.mu_y) < 1e-9
            assert abs(multi.nu - single.nu) < 1e-9

    def test_two_path_toy_against_exhaustive_oracle(self):
        """Two well-separated paths: the estimator and an explicit-loop
        sweep oracle agree, and both land within a tenth of a degree."""
        cbs = build_codebooks(TOY_CFG)
        pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
        ofdm = OfdmConfig(64, 16)
        d_az = TOY_CFG.delta("azimuth")
        d_el = TOY_CFG.delta("elevation")
        # truths 0.15*delta off their pair centers, receive directions on
        # orthogonal boresights so the paths decouple across the array
        mu_a = (-0.785 - 0.15 * d_el, -np.pi / 2 + 0.15 * d_az, 0.0)
        mu_b = (0.785 + 0.15 * d_el, np.pi / 2 - 0.15 * d_az, np.pi / 2)
        p_a = PathParams.single_pol(np.exp(0.3j), 0.0, angles_for(*mu_a, CO))
        p_b = PathParams.single_pol(0.85 * np.exp(-1.1j), 0.0, angles_for(*mu_b, CO))
        chan = copol_frequency_response([p_a, p_b], CO, ofdm)
        plan = random_probing_plan(cbs, 6, 3, 1, 1, seed=3, layout="free")
        rep = estimate_multipath(chan, plan, pilots, None, 2,
                                 rng=np.random.default_rng(5), codebooks=cbs)
        assert len(rep.paths) == 2

        oracle = self._exhaustive_oracle(chan, cbs)
        for est in rep.paths:
            truth = mu_a if abs(est.mu_y - mu_a[1]) < abs(est.mu_y - mu_b[1]) else mu_b
            ta = angles_for(*truth, CO)
            assert abs(np.degrees(est.theta - ta.theta)) < 0.1
            assert abs(np.degrees(est.phi - ta.phi)) < 0.1
            mu_o = min(oracle, key=lambda o: abs(o[1] - est.mu_y))
            assert abs(est.mu_y - mu_o[1]) < 1e-9
            assert abs(est.mu_x - mu_o[0]) < 1e-9

    @staticmethod
    def _exhaustive_oracle(chan, cbs):
        """Explicit-loop sweep: probe every (transmit, receive) beam one at
        a time, rank azimuth beams, pair each winner with its stronger
        neighbor, invert longhand, then redo elevation at the azimuth
        estimate."""
        h0 = chan.h[0]  # all paths arrive at zero delay, so k=0 suffices
        rx_book, az_book = cbs.books["receive"], cbs.books["azimuth"]
        rx = rx_book.matrix[:, rx_book.pols == "v"].T
        az = _pol_boresights(cbs, "azimuth")

        def power(f_vec):
            return sum(abs(received_symbol(w, h0, f_vec)) ** 2 for w in rx)

        s_az = [power(f) for f in az_book.matrix[:, az_book.pols == "v"].T]
        order = sorted(range(len(az)), key=lambda i: -s_az[i])
        results = []
        for win in order[:2]:
            nb = [i for i in (win - 1, win + 1) if 0 <= i < len(az)]
            nb.sort(key=lambda i: -s_az[i])
            lo, hi = sorted((win, nb[0]))
            delta = 0.5 * (az[hi] - az[lo])
            center = 0.5 * (az[hi] + az[lo])
            zeta = (s_az[lo] - s_az[hi]) / (s_az[lo] + s_az[hi])
            mu_y = invert_inline(zeta, center, delta)

            el = _pol_boresights(cbs, "elevation")
            arrays = cbs.config.arrays
            s_el = [power(np.kron(
                upa_steering(mu_x, 0.0, arrays.n_x, 1)[: arrays.n_x],
                upa_steering(0.0, mu_y, 1, arrays.n_y))) for mu_x in el]
            win_e = max(range(len(el)), key=lambda i: s_el[i])
            nb_e = [i for i in (win_e - 1, win_e + 1) if 0 <= i < len(el)]
            nb_e.sort(key=lambda i: -s_el[i])
            lo_e, hi_e = sorted((win_e, nb_e[0]))
            delta_e = 0.5 * (el[hi_e] - el[lo_e])
            center_e = 0.5 * (el[hi_e] + el[lo_e])
            zeta_e = (s_el[lo_e] - s_el[hi_e]) / (s_el[lo_e] + s_el[hi_e])
            results.append((invert_inline(zeta_e, center_e, delta_e), mu_y))
        return results

    def test_iteration_accounting(self):
        cbs = build_codebooks(CodebookConfig(arrays=CROSS,
                                             az_range=(-np.pi / 2, np.pi / 2)))
        pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
        plan = random_probing_plan(cbs, 20, 20, 2, 2, seed=9)
        rng = np.random.default_rng(57)
        ang = angles_for(0.3, -0.5, 0.4, CROSS)
        path = PathParams(1.0, 0.2, 0.1, 0.8, 0.0, ang)
        chan = crosspol_frequency_response([path], CROSS, OfdmConfig(64, 16),
                                           CrossPolConfig(0.2, 0.3))
        rep = estimate_multipath(chan, plan, pilots, None, 1, rng=rng,
                                 codebooks=cbs)
        assert rep.iterations == 1600

    def test_one_zc_call_per_transmit_probing(self, monkeypatch):
        """assign_pilots builds every reference once; a transmit probing
        takes its reference matrix as columns of it and reuses it for every
        receive probing, so the estimator makes no zc_sequence call. The
        default cross-pol codebook has one elevation beam per polarization,
        so no elevation stage runs."""
        cbs = build_codebooks(CodebookConfig(arrays=CROSS))
        assert cbs.books["elevation"].pols.tolist() == ["v", "h"]
        pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
        plan = random_probing_plan(cbs, 2, 2, 3, 3, seed=0, layout="free")
        path = PathParams(1.0, 0.2, 0.1, 0.8, 0.0, angles_for(0.3, -0.5, 0.4, CROSS))
        chan = crosspol_frequency_response([path], CROSS, OfdmConfig(64, 16),
                                           CrossPolConfig(0.2, 0.3))
        calls = []

        def counting_zc(*args, **kwargs):
            calls.append(args)
            return zc_sequence(*args, **kwargs)

        monkeypatch.setattr(beampair.pilot, "zc_sequence", counting_zc)
        estimate_multipath(chan, plan, pilots, 10.0, 2,
                           rng=np.random.default_rng(59), codebooks=cbs)
        assert plan.tx_idx.shape == (2, 3)
        assert calls == []

    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_elevation_stage_builds_only_elevation_beams(self, arrays, monkeypatch):
        """The elevation stage steers the elevation book alone, at every
        (trial, path) row's azimuth estimate in one steering call per
        polarization, and builds no other beam vector (a book per path made
        one call per polarization per path). Each row's slice of the stacked
        book holds the scalar steering vectors at that row's azimuth; its
        pair table, members and delta are the default book's."""
        cfg = CodebookConfig(arrays=arrays, el_range=(-np.pi / 2, np.pi / 2))
        cbs = build_codebooks(cfg)
        assert all(len(idx) > 1 for idx in cbs.books["elevation"].by_pol.values())
        held = np.array([-0.37, 0.0, 0.81])
        got, base = _axis_book(cfg, "elevation", held), cbs.books["elevation"]
        assert got.matrix.shape == (len(held),) + base.matrix.shape
        assert got.matrix[1].tobytes() == base.matrix.tobytes()  # 0: the range center
        for r, az in enumerate(held):
            for i, (pol, mu) in enumerate(zip(got.pols, got.boresights)):
                want = tx_beam_vector(arrays, pol, mu, az)
                assert got.matrix[r, :, i].tobytes() == want.tobytes()
        assert got.boresights.tobytes() == base.boresights.tobytes()
        assert got.axis == "elevation" and np.array_equal(got.pols, base.pols)
        assert np.array_equal(got.pairs, base.pairs) and np.array_equal(got.members, base.members)
        assert got.centers.tobytes() == base.centers.tobytes() and got.delta == base.delta

        pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
        plan = random_probing_plan(cbs, 6, 4, 2, 2, seed=0, layout="free")
        path = PathParams(1.0, 0.2, 0.1, 0.8, 0.0, angles_for(0.3, -0.5, 0.4, arrays))
        ofdm = OfdmConfig(64, 16)
        chan = copol_frequency_response([path], arrays, ofdm) if arrays is CO else \
            crosspol_frequency_response([path], arrays, ofdm, CrossPolConfig(0.2, 0.3))
        calls = _count_calls(monkeypatch, "tx_beam_vector", "rx_beam_vector")
        rep = estimate_multipath(chan, plan, pilots, 10.0, 2,
                                 rng=np.random.default_rng(60), codebooks=cbs)
        assert len(rep.paths) == 2 and all("elevation" in p.pairs for p in rep.paths)
        assert calls == ["tx_beam_vector"] * len(arrays.pols)

    def test_plan_must_probe_every_beam(self):
        """A hand-built plan that skips an azimuth or receive beam is
        rejected instead of pairing against a strength of zero."""
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
        chan = copol_frequency_response(
            [PathParams.single_pol(1.0, 0.0, angles_for(0.1, 0.2, 0.3, CO))],
            CO, OfdmConfig(64, 16))
        az = np.arange(len(cbs.books["azimuth"].pols))[:, None]
        rx = np.arange(len(cbs.books["receive"].pols))[:, None]
        rep = estimate_multipath(chan, ProbingPlan(az, rx), pilots, None, 1,
                                 codebooks=cbs)
        assert set(rep.best.pairs) == {"azimuth", "receive", "elevation"}
        for tx_idx, rx_idx, missing in ((az[:-1], rx, f"azimuth beams [{len(az) - 1}]"),
                                        (az, rx[1:], "receive beams [0]")):
            with pytest.raises(InfeasibleCoverage, match=re.escape(missing)):
                estimate_multipath(chan, ProbingPlan(tx_idx, rx_idx), pilots, None,
                                   1, codebooks=cbs)

    @pytest.mark.parametrize("el_range", [None, (-np.pi / 2, np.pi / 2)],
                             ids=["azimuth", "elevation"])
    def test_stack_equals_one_trial_calls(self, el_range):
        """Three trials' channels and plans, stacked, give each trial the
        one-trial call's pairs, zetas and angles bit for bit, in the report's
        arrays and in the paths built from them, with and without the
        elevation stage, and the one-trial calls' total iterations; drawing
        each trial's noise in turn from one generator leaves it where the
        one-trial calls leave it."""
        cbs, pilots, chans, plans = _three_cross_trials(el_range)
        stack = ChannelRealization(*(np.stack([getattr(c, a) for c in chans])
                                     for a in ("rho", "u", "v")), ())
        plan = ProbingPlan(*(np.stack([getattr(p, a) for p in plans])
                             for a in ("tx_idx", "rx_idx")))
        got_rng, want_rng = np.random.default_rng(67), np.random.default_rng(67)
        got = estimate_multipath(stack, plan, pilots, 10.0, 2, got_rng, codebooks=cbs)
        want = [estimate_multipath(c, p, pilots, 10.0, 2, want_rng, codebooks=cbs)
                for c, p in zip(chans, plans)]
        assert got.iterations == sum(w.iterations for w in want)
        assert got.est.tobytes() == np.concatenate([w.est for w in want]).tobytes()
        for axis in AXES:
            for field in ("pairs", "zetas"):
                assert getattr(got, field)[axis].tobytes() == np.concatenate(
                    [getattr(w, field)[axis] for w in want]).tobytes(), (field, axis)
        want_paths = [path for w in want for path in w.paths]
        assert len(got.paths) == len(want_paths) == 6
        for g, w in zip(got.paths, want_paths):
            assert g.pairs == w.pairs and list(g.zetas) == list(w.zetas)
            assert [_bits(v) for v in g.zetas.values()] == [_bits(v) for v in w.zetas.values()]
            assert [_bits(v) for v in dataclasses.astuple(g)[:6]] == \
                [_bits(v) for v in dataclasses.astuple(w)[:6]]
        assert all(("elevation" in g.pairs) == (el_range is not None) for g in got.paths)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_stacked_plan_must_probe_every_beam_in_every_trial(self):
        """A stacked plan whose trial 1 skips an azimuth beam, or whose trial
        0 skips a receive beam, is rejected naming the trial."""
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
        chan = copol_frequency_response(
            [PathParams.single_pol(1.0, 0.0, angles_for(0.1, 0.2, 0.3, CO))],
            CO, OfdmConfig(64, 16))
        stack = ChannelRealization(chan.rho, np.stack([chan.u] * 2), np.stack([chan.v] * 2), ())
        az = np.arange(len(cbs.books["azimuth"].pols))[:, None]
        rx = np.arange(len(cbs.books["receive"].pols))[:, None]
        rep = estimate_multipath(stack, ProbingPlan(np.stack([az, az]), np.stack([rx, rx])),
                                 pilots, None, 1, codebooks=cbs)
        assert len(rep.paths) == 2
        az_gap, rx_gap = az.copy(), rx.copy()
        az_gap[-1], rx_gap[0] = 0, 1
        for tx_idx, rx_idx, missing in (
                ([az, az_gap], [rx, rx], f"azimuth beams [{len(az) - 1}] unprobed in trial 1"),
                ([az, az], [rx_gap, rx], "receive beams [0] unprobed in trial 0")):
            with pytest.raises(InfeasibleCoverage, match=re.escape(missing)):
                estimate_multipath(stack, ProbingPlan(np.stack(tx_idx), np.stack(rx_idx)),
                                   pilots, None, 1, codebooks=cbs)

    def test_n_select_guard(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
        plan = random_probing_plan(cbs, 6, 4, 1, 1, seed=0, layout="free")
        rng = np.random.default_rng(58)
        chan = copol_frequency_response(
            [PathParams.single_pol(1.0, 0.0, angles_for(0.1, 0.2, 0.3, CO))],
            CO, OfdmConfig(64, 16))
        with pytest.raises(ValueError, match="n_select"):
            estimate_multipath(chan, plan, pilots, None, 0, rng=rng, codebooks=cbs)


def _batched(channel, tx_idx, rx_idx, pilots, tx_book, rx_book, noise):
    """The probe kernel on plans tx_idx and rx_idx stacked over the rows of
    a stacked realization, their slots and V^H F Q made for this one call."""
    slots = _slots(tx_idx, rx_idx, pilots, tx_book, rx_book, channel.taps, noise)
    ul = channel.u.swapaxes(-3, -2).reshape(len(channel.u), channel.u.shape[-2], -1)
    vfq = _vfq(channel.v, _precoders(tx_book, tx_idx), slots.gram, channel.u.shape[-1])
    return _probe(ul, slots, vfq, tx_book, rx_book)


def _slot_normals(plan, n: int, m: int, sigma: float, rng):
    """Every slot's element noise of one trial's plan (n_t, m_t, N, M) in
    one draw, in loop order, as _slot_noise draws it; None when sigma is 0."""
    if sigma == 0:
        return None
    n_t, m_t = len(plan.tx_idx), len(plan.rx_idx)
    z = rng.standard_normal((n_t * m_t, 2, n, m))
    return (sigma * (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)).reshape(n_t, m_t, n, m)


def _sums(tx_book, rx_book, m_t: int) -> tuple:
    """Zeroed (tx strengths, rx strengths, probing totals) of one trial."""
    return np.zeros(len(tx_book.pols)), np.zeros(len(rx_book.pols)), np.zeros(m_t)


def _accumulate(sums, s, mt: int, t_idx, r_idx) -> None:
    """Add the |corr|^2 s (m_rf, n_rf) of the slot of tx beams t_idx and
    rx probing mt over rx beams r_idx to sums (see _sums)."""
    tx_strength, rx_strength, totals = sums
    totals[mt] += float(s.sum())
    np.add.at(tx_strength, t_idx, s.sum(axis=0))
    np.add.at(rx_strength, r_idx, s.sum(axis=1))


def _probe_loop(channel, plan, pilots, tx_book, rx_book, sigma, rng):
    """Per-slot reference for the probe kernel on one trial, in the path
    domain: per tx probing each cluster's pilot Gram Q_c = sum_k taps[k, c]
    x_k x_k^H and, per path l of cluster c, V_l^H F Q_c, with the transmit
    factor V_l = I_q kron v_l built dense, per (tx, rx) slot the correlation
    sum_l (W^H u_l) V_l^H F Q_c plus the slot's projected noise correlated
    with the pilots, |.|^2 and np.add.at accumulation."""
    n, m, _ = channel.shape
    taps, u, q = channel.taps, channel.u, channel.u.shape[-1]
    v = np.zeros((len(u), q, channel.v.shape[-1], q), dtype=complex)  # I_q kron v_l, dense
    for p in range(q):
        v[:, p, :, p] = channel.v
    v = v.reshape(len(u), -1, q)
    tx_idx, rx_idx = plan.tx_idx.tolist(), plan.rx_idx.tolist()
    sums = _sums(tx_book, rx_book, len(rx_idx))
    w_all = np.take(rx_book.matrix, np.concatenate(rx_idx), axis=1)
    wu = np.ascontiguousarray(w_all.T).conj() @ u.swapaxes(0, 1).reshape(m, -1)  # (i, L q)
    splits = np.cumsum([len(r_idx) for r_idx in rx_idx])[:-1]
    noise = _slot_normals(plan, n, m, sigma, rng)
    for nt, t_idx in enumerate(tx_idx):
        x = np.ascontiguousarray(pilots.references(tag_probing(t_idx, tx_book.members)).T)
        xc = x.conj()  # (n_rf, N), as the references' conjugates
        gram = np.repeat(((x[:, None] * xc[None]).reshape(-1, n) @ taps).T.reshape(
            -1, len(t_idx), len(t_idx)), len(u) // taps.shape[-1], axis=0)  # Q_c per path
        vf = v.conj().swapaxes(-1, -2) @ np.take(tx_book.matrix, t_idx, axis=1)
        corr_all = wu @ (vf @ gram).reshape(-1, len(t_idx))
        for mt, (r_idx, corr) in enumerate(zip(rx_idx, np.split(corr_all, splits))):
            if sigma > 0:
                z = noise[nt, mt] @ np.take(rx_book.matrix, r_idx, axis=1).conj()
                corr = corr + z.T @ xc.T
            _accumulate(sums, np.abs(corr) ** 2, mt, t_idx, r_idx)
    return sums


def _probe_and_correlate_loop(channel, plan, pilots, tx_book, rx_book, sigma, rng):
    """Per-subcarrier oracle of the probe kernel on one trial: per tx
    probing one beamformed call over every subcarrier and pilot-weighted
    sum, per (tx, rx) slot the noise projection, a zero-lag correlation
    over the N subcarriers and np.add.at accumulation."""
    n, m, _ = channel.shape
    tx_idx, rx_idx = plan.tx_idx.tolist(), plan.rx_idx.tolist()
    sums = _sums(tx_book, rx_book, len(rx_idx))
    w_all = np.take(rx_book.matrix, np.concatenate(rx_idx), axis=1)
    splits = np.cumsum([len(r_idx) for r_idx in rx_idx])[:-1]
    noise = _slot_normals(plan, n, m, sigma, rng)
    for nt, t_idx in enumerate(tx_idx):
        f_mat = np.take(tx_book.matrix, t_idx, axis=1)
        x = pilots.references(tag_probing(t_idx, tx_book.members))
        y_all = np.einsum("kij,kj->ki", channel.beamformed(w_all, f_mat), x)
        for mt, (r_idx, y) in enumerate(zip(rx_idx, np.split(y_all, splits, axis=1))):
            if sigma > 0:
                y = y + noise[nt, mt] @ np.take(rx_book.matrix, r_idx, axis=1).conj()
            _accumulate(sums, np.abs(correlate_zero_lag(y, x)) ** 2, mt, t_idx, r_idx)
    return sums


def _two_trials(arrays, tx_axis: str, plan_args: tuple, layout: str):
    """Codebooks of `arrays` under a full elevation range, the pilots of
    the tx_axis book, two trials' three-path channels (N = 64) and plans
    random_probing_plan(n_t, m_t, n_rf, m_rf) on that axis, and their
    stack."""
    cbs = build_codebooks(CodebookConfig(arrays=arrays, el_range=(-np.pi / 2, np.pi / 2)))
    pilots = assign_pilots(range(len(cbs.books[tx_axis].pairs)), 64, p=1)
    rng = np.random.default_rng(64)
    ofdm = OfdmConfig(64, 16)
    chans, plans = [], []
    for seed in (5, 6):
        paths = [PathParams(*(rng.normal(size=4) + 1j * rng.normal(size=4)), tau,
                            angles_for(*rng.uniform(-0.8, 0.8, size=3), arrays))
                 for tau in (0.0, 2e-9, 5e-9)]
        if arrays is CO:
            chans.append(copol_frequency_response(
                [PathParams.single_pol(p.g_vv, p.tau, p.angles) for p in paths], arrays, ofdm))
        else:
            chans.append(crosspol_frequency_response(paths, arrays, ofdm,
                                                     CrossPolConfig(0.3, 0.2)))
        plans.append(random_probing_plan(cbs, *plan_args, seed=seed, layout=layout,
                                         tx_axis=tx_axis))
    stack = ChannelRealization(*(np.stack([getattr(c, a) for c in chans])
                                 for a in ("rho", "u", "v")), ())
    return cbs, pilots, chans, plans, stack


def _batched_on(cbs, pilots, plans, stack, tx_axis: str, sigma: float, rng):
    """The probe kernel on the stacked plans, the trials' slot noise drawn
    from rng in turn."""
    tx_book, rx_book = cbs.books[tx_axis], cbs.books["receive"]
    noise = [_slot_noise(p.rx_idx, len(p.tx_idx), rx_book, 64, sigma, rng) for p in plans]
    return _batched(stack, np.stack([p.tx_idx for p in plans]),
                    np.stack([p.rx_idx for p in plans]), pilots, tx_book, rx_book,
                    None if sigma == 0 else noise)


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("layout,tx_axis,n_t,m_t,n_rf,m_rf", [
    ("free", "azimuth", 1, 2, 6, 2),
    ("free", "elevation", 1, 4, 4, 1),
    ("free", "azimuth", 3, 3, 3, 3),
    ("free", "azimuth", 4, 5, 2, 1),
    ("split-half", "azimuth", 4, 3, 2, 2),
    ("split-half", "elevation", 4, 3, 2, 2),
    ("free", "elevation", 2, 4, 3, 1),
])
def test_probing_matches_the_per_slot_loop(sigma, layout, tx_axis, n_t, m_t,
                                           n_rf, m_rf):
    """The batched probing of two trials, each with its own channel and plan,
    gives each trial the per-slot loop's strengths and probing totals bit
    for bit, both in the path domain (the loop on the dense transmit
    factors I_q kron v_l), and drawing the trials' slot noise in
    turn leaves the generator where the loops leave it, on free and
    split-half plans, azimuth and elevation books, m_rf = 1, and one tx
    probing (n_t = 1) as well as several, whose Grams and noise
    correlations the batched probing makes one at a time."""
    cbs, pilots, chans, plans, stack = _two_trials(CROSS, tx_axis, (n_t, m_t, n_rf, m_rf), layout)
    got_rng, want_rng = np.random.default_rng(65), np.random.default_rng(65)
    got = _batched_on(cbs, pilots, plans, stack, tx_axis, sigma, got_rng)
    for t, (chan, plan) in enumerate(zip(chans, plans)):
        want = _probe_loop(chan, plan, pilots, cbs.books[tx_axis], cbs.books["receive"], sigma,
                           want_rng)
        for g, w in zip(got, want):
            assert g[t].shape == w.shape and g[t].tobytes() == w.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("sigma", [0.0, 0.3], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("arrays,layout,tx_axis,n_t,m_t,n_rf,m_rf", [
    (CO, "free", "azimuth", 1, 2, 6, 2),
    (CO, "free", "azimuth", 3, 2, 2, 2),
    (CO, "free", "elevation", 2, 2, 2, 2),
    (CROSS, "free", "azimuth", 1, 2, 6, 2),
    (CROSS, "free", "azimuth", 3, 3, 3, 3),
    (CROSS, "split-half", "azimuth", 4, 3, 2, 2),
    (CROSS, "split-half", "elevation", 4, 3, 2, 2),
    (CROSS, "free", "elevation", 1, 4, 4, 1),
], ids=["co-az-nt1", "co-az", "co-el", "cross-az-nt1", "cross-az", "cross-split-az",
        "cross-split-el", "cross-el-nt1"])
def test_probing_matches_the_per_subcarrier_oracle(arrays, layout, tx_axis, n_t, m_t, n_rf,
                                                   m_rf, sigma):
    """The path-domain probing reorders the sums of the per-subcarrier
    math it replaced (beam outputs on every subcarrier, pilot-weighted,
    noised and correlated over N), so it is held to that math's decisions,
    not its bits: per trial, the same strongest beam on each axis, the same
    pair ids and stable strength order as the estimator reads them, and
    every strength and probing total within 1e-12 of its row's largest."""
    cbs, pilots, chans, plans, stack = _two_trials(arrays, tx_axis, (n_t, m_t, n_rf, m_rf), layout)
    tx_book, rx_book = cbs.books[tx_axis], cbs.books["receive"]
    got_rng, want_rng = np.random.default_rng(65), np.random.default_rng(65)
    got = _batched_on(cbs, pilots, plans, stack, tx_axis, sigma, got_rng)
    want = [_probe_and_correlate_loop(c, p, pilots, tx_book, rx_book, sigma, want_rng)
            for c, p in zip(chans, plans)]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for g, w, book in zip(got, map(np.array, zip(*want)), (tx_book, rx_book, None)):
        assert np.all(np.abs(g - w) <= 1e-12 * w.max(axis=1, keepdims=True))
        assert np.array_equal(np.argsort(-g, kind="stable"), np.argsort(-w, kind="stable"))
        if book is not None:
            win = _winner(w)
            assert np.array_equal(_winner(g), win)
            assert np.array_equal(_pair_and_invert(g, win, book)[1],
                                  _pair_and_invert(w, win, book)[1])


def _elevation_stage_loop(channel, draws, mu_y, codebooks, pilots) -> list:
    """Per-(trial, path) reference for the elevation stage of
    estimate_multipath on a realization stacked over trials: per row, the
    elevation book steered at that row's azimuth estimate alone, one
    probing of that trial, and one pairing. Returns (mu_x, elevation pair
    id, zeta) per row, trial-major, or None for a row with no energy."""
    rx_book = codebooks.books["receive"]
    el_pilots = assign_pilots(range(len(codebooks.books["elevation"].pairs)), pilots.n,
                              p=pilots.p, coprime_with=pilots.coprime_with,
                              dc_zero=pilots.dc_zero)
    out = []
    el_plan, el_noise = draws.el_plan, draws.el_noise
    for t in range(len(el_plan.tx_idx)):
        trial = ChannelRealization(  # trial t, as a stack of one
            channel.taps[t:t + 1] if channel.taps.ndim == 3 else channel.taps,
            channel.u[t:t + 1], channel.v[t:t + 1], ())
        for p in range(el_plan.tx_idx.shape[1]):
            el_book = _axis_book(codebooks.config, "elevation", float(mu_y[t, p]))
            el_tx, _, el_totals = _batched(
                trial, el_plan.tx_idx[t, p][None], el_plan.rx_idx[t, p][None], el_pilots,
                el_book, rx_book, None if el_noise is None else el_noise[t, p][None])
            if el_totals.sum() <= 0:
                out.append(None)
                continue
            mu_x, k, zeta = _pair_one(el_tx[0], _winner(el_tx[0]), el_book)
            out.append((float(mu_x), int(k), float(zeta)))
    return out


@pytest.mark.parametrize("gamma", [None, 10.0], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("arrays,n_rf,layout", [(CO, 2, "free"), (CROSS, 3, "free"),
                                                (CROSS, 2, "split-half")],
                         ids=["co-free", "cross-free", "cross-split-half"])
def test_elevation_stage_matches_the_per_path_loop(arrays, n_rf, layout, gamma):
    """Three stacked trials under a full elevation range, two paths each:
    the batched elevation stage gives every (trial, path) row the
    per-row loop's mu_x, elevation pair id and zeta bit for bit, and
    leaves the generator where the loop's draws leave it."""
    cbs = build_codebooks(CodebookConfig(arrays=arrays, el_range=(-np.pi / 2, np.pi / 2)))
    pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
    ofdm = OfdmConfig(64, 16)
    rng = np.random.default_rng(68)
    chans, plans = [], []
    for seed in range(3):
        angles = [angles_for(*rng.uniform(-0.8, 0.8, size=3), arrays) for _ in range(3)]
        gains = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        if arrays is CO:
            paths = [PathParams.single_pol(g[0], tau, a)
                     for g, tau, a in zip(gains, (0.0, 2e-9, 5e-9), angles)]
            chans.append(copol_frequency_response(paths, arrays, ofdm))
        else:
            paths = [PathParams(*g, tau, a) for g, tau, a in zip(gains, (0.0, 2e-9, 5e-9), angles)]
            chans.append(crosspol_frequency_response(paths, arrays, ofdm,
                                                     CrossPolConfig(0.3, 0.2)))
        plans.append(random_probing_plan(cbs, 6, 4, n_rf, 2, seed=seed, layout=layout))
    stack = ChannelRealization(*(np.stack([getattr(c, a) for c in chans])
                                 for a in ("rho", "u", "v")), ())
    plan = ProbingPlan(*(np.stack([getattr(p, a) for p in plans])
                         for a in ("tx_idx", "rx_idx")))
    got_rng, want_rng = np.random.default_rng(69), np.random.default_rng(69)
    got = estimate_multipath(stack, plan, pilots, gamma, 2, got_rng, codebooks=cbs)
    draws = _multipath_draws(cbs, plan, 64, _sigma_from_gamma(gamma), 2, [want_rng] * 3)
    mu_y = np.array([g.mu_y for g in got.paths]).reshape(3, 2)
    want = _elevation_stage_loop(stack, draws, mu_y, cbs, pilots)
    assert len(got.paths) == len(want) == 6 and None not in want
    for g, (mu_x, k, zeta) in zip(got.paths, want):
        assert _bits(g.mu_x) == _bits(mu_x)
        assert g.pairs["elevation"] == k and _bits(g.zetas["elevation"]) == _bits(zeta)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("gamma", [None, 10.0], ids=["noiseless", "noisy"])
def test_subpaths_share_their_cluster_gram(gamma):
    """Two stacked trials of 3 clusters of 4 subpaths under a full
    elevation range: both stages' pilot Grams have one entry per cluster (3,
    not 12 paths) on their path axis; the azimuth probing gives each trial
    the per-slot loop's strengths and probing totals, and the elevation
    stage each (trial, path) row the per-row loop's mu_x, pair id and zeta,
    bit for bit. The same paths ungrouped (one tap column, and one Gram,
    per path) give the same pairs and estimates within 1e-12: the Grams'
    products over N, per cluster or per path, may round apart."""
    prof = ClusterProfile(n_clusters=3, subpaths_per_cluster=4)
    cbs = build_codebooks(CodebookConfig(arrays=CROSS, el_range=(-np.pi / 2, np.pi / 2)))
    az_book, rx_book = cbs.books["azimuth"], cbs.books["receive"]
    pilots = assign_pilots(range(len(az_book.pairs)), 64, p=1)
    draws = _clustered_draws(prof, [np.random.default_rng(70 + t) for t in range(2)])
    stack = _clustered_columns(prof, draws, CROSS, OfdmConfig(64, 16),
                               pulse_coefficients).realization(prof)
    ungrouped = ChannelRealization(stack.rho, stack.u, stack.v, ())
    plans = [random_probing_plan(cbs, 6, 4, 3, 2, seed=seed, layout="free") for seed in (0, 1)]
    plan = ProbingPlan(*(np.stack([getattr(p, a) for p in plans])
                         for a in ("tx_idx", "rx_idx")))
    sigma = _sigma_from_gamma(gamma)
    # each trial's noise from its own generator, the azimuth slots' first
    est_draws = _multipath_draws(cbs, plan, 64, sigma, 2,
                                 [np.random.default_rng(71 + t) for t in range(2)])
    probings = [_multipath_probing(c, plan, pilots, cbs, est_draws) for c in (stack, ungrouped)]
    assert stack.v.shape[1] == 12 and stack.taps.shape[-1] == 3
    for probing, n_c in zip(probings, (3, 12)):
        assert probing.azimuth.gram.shape[2] == probing.elevation.gram.shape[2] == n_c
    ul = stack.u.swapaxes(-3, -2).reshape(2, stack.u.shape[-2], -1)
    got = _probe(ul, probings[0].azimuth, probings[0].vfq, az_book, rx_book)
    for t, plan_t in enumerate(plans):
        trial = ChannelRealization(stack.taps[t], stack.u[t], stack.v[t], ())
        want = _probe_loop(trial, plan_t, pilots, az_book, rx_book, sigma,
                           np.random.default_rng(71 + t))
        for g, w in zip(got, want):
            assert g[t].tobytes() == w.tobytes()
    reports = [estimate_multipath(c, plan, pilots, gamma, 2, codebooks=cbs, draws=probing)
               for c, probing in zip((stack, ungrouped), probings)]
    want = _elevation_stage_loop(stack, est_draws, reports[0].est[:, 1].reshape(2, 2), cbs,
                                 pilots)
    assert None not in want
    for g, (mu_x, k, zeta) in zip(reports[0].paths, want):
        assert _bits(g.mu_x) == _bits(mu_x)
        assert g.pairs["elevation"] == k and _bits(g.zetas["elevation"]) == _bits(zeta)
    for axis in AXES:
        assert reports[0].pairs[axis].tolist() == reports[1].pairs[axis].tolist()
    assert np.allclose(reports[0].est, reports[1].est, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("arrays,el_range", [
    (CROSS, None), (CROSS, (-np.pi / 2, np.pi / 2)), (CO, (-np.pi / 2, np.pi / 2))],
    ids=["cross", "cross-el90", "co-el90"])
def test_profile_axis_estimates_each_profile_as_alone(arrays, el_range):
    """Two noisy stacked trials of 3 clusters of 4 subpaths realized under
    three (chi, varsigma) settings at once: u carries them on a leading
    axis, each entry the bytes of that setting's own realization, and one
    estimate_multipath over the stack on the shared probing gives each
    setting's block of rows (estimates, pair ids, zetas) the bytes of an
    estimate of that setting alone, and P times its iterations."""
    prof = ClusterProfile(n_clusters=3, subpaths_per_cluster=4)
    cbs = build_codebooks(CodebookConfig(arrays=arrays, **({} if el_range is None else
                                                           {"el_range": el_range})))
    pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
    paths = _clustered_columns(prof, _clustered_draws(prof, [np.random.default_rng(80 + t)
                                                             for t in range(2)]),
                               arrays, OfdmConfig(64, 16), pulse_coefficients)
    plans = [random_probing_plan(cbs, 6, 4, 3, 2, seed=seed, layout="free") for seed in (0, 1)]
    plan = ProbingPlan(*(np.stack([getattr(p, a) for p in plans])
                         for a in ("tx_idx", "rx_idx")))
    probing = _multipath_probing(paths, plan, pilots, cbs, _multipath_draws(
        cbs, plan, 64, _sigma_from_gamma(10.0), 3, [np.random.default_rng(82 + t)
                                                    for t in range(2)]))
    settings = [CrossPolConfig(0.0, 0.0), CrossPolConfig(0.3, 0.2), CrossPolConfig(0.1, -0.7)]
    stacked = paths.realization(SimpleNamespace(chi=np.array([x.chi for x in settings]),
                                                varsigma=np.array([x.varsigma for x in settings])))
    got = estimate_multipath(stacked, plan, pilots, 10.0, 3, codebooks=cbs, draws=probing)
    assert stacked.u.shape[:2] == (3, 2) and got.est.shape == (3 * 2 * 3, 6)
    for i, xp in enumerate(settings):
        alone = paths.realization(xp)
        assert stacked.u[i].tobytes() == alone.u.tobytes()
        want = estimate_multipath(alone, plan, pilots, 10.0, 3, codebooks=cbs, draws=probing)
        rows = slice(i * 6, (i + 1) * 6)
        assert got.est[rows].tobytes() == want.est.tobytes(), f"setting {i}"
        for axis in AXES:
            assert got.pairs[axis][rows].tolist() == want.pairs[axis].tolist()
            assert got.zetas[axis][rows].tobytes() == want.zetas[axis].tobytes()
        assert got.iterations == 3 * want.iterations


# ---------------------------------------------------------------------------
# interference decay with array size

def test_cross_terms_shrink_with_array_size():
    """The unmatched-beam and cross-polarization correlation terms fall off
    relative to the matched term as the antenna product grows 8 -> 32 -> 128:
    narrower beams shrink the amplitude that distinct-root products carry.
    A prime pilot length keeps every distinct-root cross sum at exactly
    sqrt(n), so the trend isolates the beam factor."""
    n = 127
    sizes = ((2, 1), (4, 2), (8, 4))  # (n_y, m_tot): totals 8, 32, 128
    medians = []
    rng = np.random.default_rng(59)
    ofdm = OfdmConfig(n, 32)
    for n_y, m_tot in sizes:
        arrays = ArrayConfig(n_x=1, n_y=n_y, m_tot=m_tot, polarization_mode="cross")
        x0 = zc_sequence(25, 0, 6, n)
        x1 = zc_sequence(29, 0, 6, n)
        x2 = zc_sequence(35, 0, 6, n)
        ratios = []
        for _ in range(60):
            mu_y = rng.uniform(-1.0, 1.0)
            nu = rng.uniform(-1.0, 1.0)
            ang = angles_for(1e-9, mu_y, nu, arrays)
            path = PathParams(complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              0.0, ang)
            chan = crosspol_frequency_response([path], arrays, ofdm,
                                               CrossPolConfig(0.2, 0.35))
            w = rx_beam_vector(arrays, "v", nu)
            f0 = tx_beam_vector(arrays, "v", 0.0, mu_y)
            f1 = tx_beam_vector(arrays, "v", 0.0, mu_y + 0.9)
            f2 = tx_beam_vector(arrays, "h", 0.0, mu_y + 1.5)
            h0 = chan.h[0]
            lead = complex(w.conj() @ h0 @ f0) * n
            y = np.array([complex(w.conj() @ h0 @ (f0 * x0[k] + f1 * x1[k]
                                                   + f2 * x2[k]))
                          for k in range(n)])
            total = complex(np.sum(y * x0.conj()))
            ratios.append(abs(total - lead) / abs(lead))
        medians.append(float(np.median(ratios)))
    assert medians[0] > medians[1] > medians[2]
