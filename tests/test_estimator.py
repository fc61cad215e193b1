"""Ratio-metric estimation tests: the closed-form inversion, single-path and
multi-path flows, the beam-sweep baseline, and brute-force oracles."""

import math
import sys

import numpy as np
import pytest

import beampair.codebook
import beampair.pilot
from beampair.channel import (ChannelRealization, CrossPolConfig, OfdmConfig,
                              PathParams, copol_frequency_response,
                              crosspol_frequency_response, rician_narrowband)
from beampair.codebook import (CodebookConfig, InfeasibleCoverage, ProbingPlan,
                               build_codebooks, enumerate_abps,
                               random_probing_plan, rx_beam_vector, tx_beam_vector)
from beampair.estimator import (BothZero, InsufficientNeighbors, NoSignal,
                                estimate_multipath, estimate_single_path,
                                gob_estimate, invert_ratio, ratio_closed_form,
                                ratio_metric, received_symbol, tag_probing,
                                _noise_like, _pair_and_invert, _sweep)
from beampair.channel import DimensionMismatch
from beampair.geometry import (AngleSet, ArrayConfig, angles_from_spatial_frequencies,
                               aoa_from_nu, upa_steering)
from beampair.pilot import assign_pilots, zc_sequence

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
        """Marginal strengths per axis, indexed by Beam.index, against an
        explicit loop over every (receive beam, transmit grid point) probe;
        cross-polarized so indices run across both polarizations."""
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
        want = {axis: np.zeros(len(cbs.books[axis].beams))
                for axis in ("elevation", "azimuth", "receive")}
        el, az = cbs.domain("elevation"), cbs.domain("azimuth")
        for w in cbs.books["receive"].beams:
            for pol in cbs.pols:
                for eb in el[pol]:
                    for ab in az[pol]:
                        f = tx_beam_vector(CROSS, pol, eb.boresight_mu,
                                           ab.boresight_mu)
                        p = np.mean([abs(received_symbol(w, chan.h[k], f)) ** 2
                                     for k in range(8)])
                        want["receive"][w.index] += p
                        want["elevation"][eb.index] += p
                        want["azimuth"][ab.index] += p
        got, probes = _sweep(chan, cbs, 0.0, None)
        assert len(el["v"]) > 1
        assert probes == len(cbs.books["receive"].beams) * sum(
            len(el[p]) * len(az[p]) for p in cbs.pols)
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
                pair = est.pairs[axis]
                assert pair.center_mu - pair.delta - 1e-12 <= value
                assert value <= pair.center_mu + pair.delta + 1e-12

    def test_gain_scaling_invariance(self):
        """Scaling the whole channel must not move any estimate."""
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        rng = np.random.default_rng(48)
        for _ in range(1000):
            chan = los_channel(rng.uniform(-0.7, 0.7), rng.uniform(-1.0, 1.0),
                               rng.uniform(-1.5, 1.5), rng)
            scaled = ChannelRealization(
                rho=chan.rho, u=chan.u * complex(rng.normal(), rng.normal()),
                v=chan.v, paths=chan.paths, arrays=chan.arrays)
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
        pair = enumerate_abps(cbs, "azimuth")[1]
        rng = np.random.default_rng(49)
        for _ in range(1000):
            mu_y = rng.uniform(pair.center_mu - pair.delta,
                               pair.center_mu + pair.delta)
            chan = los_channel(rng.uniform(-0.6, 0.6), mu_y,
                               rng.uniform(-1.2, 1.2), rng)
            zetas = []
            for w in (cbs.domain("receive")["v"][0], cbs.domain("receive")["v"][1],
                      rng.normal(size=4) + 1j * rng.normal(size=4)):
                powers = [abs(received_symbol(w, chan.h[0], b)) ** 2
                          for b in pair.beams]
                if powers[0] + powers[1] == 0:
                    break
                zetas.append(ratio_metric(powers[0], powers[1]))
            else:
                assert max(zetas) - min(zetas) < 1e-9

    def test_no_signal(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        dead = ChannelRealization(rho=np.ones((1, 1)),
                                  u=np.zeros((1, 4, 1), dtype=complex),
                                  v=np.ones((1, 32, 1), dtype=complex),
                                  paths=[], arrays=CO)
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
        no beam vector is built and no pair list enumerated per call. The
        counters wrap every binding of the three functions in the package."""
        calls = _count_calls(monkeypatch, "tx_beam_vector", "rx_beam_vector",
                             "enumerate_abps")
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


class TestPairing:
    """_pair_and_invert on a codebook's pair table."""

    def test_stronger_neighbour_and_tie(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        book, pairs = cbs.books["azimuth"], enumerate_abps(cbs, "azimuth")
        s = np.array([1.0, 2.0, 5.0, 2.0, 1.0, 0.5])
        _, pair, _ = _pair_and_invert(s, 2, book)
        assert pair == pairs[1]  # tie between beams 1 and 3: the lower wins
        s[3] = np.nextafter(2.0, 3.0)
        mu, pair, zeta = _pair_and_invert(s, 2, book)
        assert pair == pairs[2]
        assert zeta == ratio_metric(s[2], s[3])
        assert mu == invert_ratio(zeta, pairs[2].center_mu, pairs[2].delta)

    def test_edge_beams_have_one_candidate(self):
        """Beams 0-3 are vertical and 4-7 horizontal: the last vertical and
        the first horizontal beam never pair across the split, however
        strong the other side is."""
        cfg = CodebookConfig(arrays=CROSS, az_range=(-np.pi / 2, np.pi / 2))
        cbs = build_codebooks(cfg)
        book, pairs = cbs.books["azimuth"], enumerate_abps(cbs, "azimuth")
        s = np.array([1.0, 1.0, 2.0, 5.0, 9.0, 3.0, 1.0, 1.0])
        for win, want in ((0, pairs[0]), (3, pairs[2]), (4, pairs[3]),
                          (7, pairs[5])):
            assert _pair_and_invert(s, win, book)[1] == want

    def test_single_beam_axis_raises(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO, az_range=(-0.1, 0.1)))
        with pytest.raises(InsufficientNeighbors):
            _pair_and_invert(np.ones(1), 0, cbs.books["azimuth"])


class TestCrossPolarized:
    def test_zeta_matches_closed_form(self):
        """With cross-polarized arrays the pair metric still collapses to
        the co-polarized closed form: the polarization factors are common
        to both pair members and cancel."""
        cfg = CodebookConfig(arrays=CROSS, az_range=(-np.pi / 2, np.pi / 2),
                             delta_mode="commensurate", ell=1)
        cbs = build_codebooks(cfg)
        pair = enumerate_abps(cbs, "azimuth")[0]
        ofdm = OfdmConfig(16, 4)
        xp = CrossPolConfig(chi=0.2, varsigma=np.radians(20.0))
        rng = np.random.default_rng(51)
        rx_beams = cbs.domain("receive")["v"] + cbs.domain("receive")["h"]
        for _ in range(100):
            mu_y = rng.uniform(pair.center_mu - 0.95 * pair.delta,
                               pair.center_mu + 0.95 * pair.delta)
            ang = angles_for(rng.uniform(-0.4, 0.4), mu_y, rng.uniform(-1, 1), CROSS)
            path = PathParams(complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()), 0.0, ang)
            chan = crosspol_frequency_response([path], CROSS, ofdm, xp)
            powers = [sum(abs(received_symbol(w, chan.h[0], b)) ** 2
                          for w in rx_beams) for b in pair.beams]
            zeta = ratio_metric(powers[0], powers[1])
            want = ratio_closed_form(mu_y, pair.center_mu, pair.delta)
            assert abs(zeta - want) < 1e-6

    def test_zeta_ignores_mismatch_and_imbalance(self):
        """Same path, different (chi, varsigma): the metric moves by less
        than 1e-9 because both pair beams see identical gain rotations."""
        cfg = CodebookConfig(arrays=CROSS, az_range=(-np.pi / 2, np.pi / 2),
                             delta_mode="commensurate", ell=1)
        cbs = build_codebooks(cfg)
        pair = enumerate_abps(cbs, "azimuth")[1]
        ofdm = OfdmConfig(16, 4)
        rng = np.random.default_rng(52)
        rx_beams = cbs.domain("receive")["v"] + cbs.domain("receive")["h"]
        for _ in range(100):
            mu_y = rng.uniform(pair.center_mu - 0.9 * pair.delta,
                               pair.center_mu + 0.9 * pair.delta)
            ang = angles_for(rng.uniform(-0.4, 0.4), mu_y, rng.uniform(-1, 1), CROSS)
            path = PathParams(complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()), 0.0, ang)
            vals = []
            for chi, vs in ((0.0, 0.0), (0.2, np.radians(20)), (0.4, np.radians(-35))):
                chan = crosspol_frequency_response([path], CROSS, ofdm,
                                                   CrossPolConfig(chi, vs))
                powers = [sum(abs(received_symbol(w, chan.h[0], b)) ** 2
                              for w in rx_beams) for b in pair.beams]
                vals.append(ratio_metric(powers[0], powers[1]))
            assert max(vals) - min(vals) < 1e-9


# ---------------------------------------------------------------------------
# beam-sweep baseline

class TestGob:
    def test_on_boresight_is_exact(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        rng = np.random.default_rng(53)
        mu_y = cbs.domain("azimuth")["v"][2].boresight_mu
        mu_x = cbs.domain("elevation")["v"][0].boresight_mu
        nu = cbs.domain("receive")["v"][1].boresight_mu
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
        b = [beam.boresight_mu for beam in cbs.domain("azimuth")["v"]]
        mid = 0.5 * (b[3] + b[4])
        nu = cbs.domain("receive")["v"][0].boresight_mu
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
        members = cbs.books["azimuth"].members
        v = cbs.domain("azimuth")["v"]
        h = cbs.domain("azimuth")["h"]
        tags = tag_probing([b.index for b in (v[0], v[1], h[0], h[2])], members)
        assert tags[0][0] == tags[1][0]
        assert (tags[0][1], tags[1][1]) == (0, 1)
        assert tags[2][0] != tags[3][0]
        assert tags[2][0] != tags[0][0] and tags[3][0] != tags[0][0]

    def test_unpaired_beam_rejected(self):
        cfg = CodebookConfig(arrays=CO, az_range=(-0.1, 0.1))
        cbs = build_codebooks(cfg)
        lone = cbs.domain("azimuth")["v"][0]
        with pytest.raises(InsufficientNeighbors):
            tag_probing([lone.index], cbs.books["azimuth"].members)


# ---------------------------------------------------------------------------
# multi-path estimation

TOY_CFG = CodebookConfig(arrays=CO, el_range=(-3 * np.pi / 4, 3 * np.pi / 4),
                         az_range=(-3 * np.pi / 4, 3 * np.pi / 4),
                         rx_range=(-3 * np.pi / 4, 3 * np.pi / 4),
                         delta_mode="commensurate", ell=1)


class TestMultipath:
    def test_reduces_to_single_path(self):
        """One path, one RF chain per side: the pilot-probing flow and the
        sequential sweep give the same numbers."""
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        pilots = assign_pilots(enumerate_abps(cbs, "azimuth"), 64, p=1)
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
        az_pairs = enumerate_abps(cbs, "azimuth")
        pilots = assign_pilots(az_pairs, 64, p=1)
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
        rx = [b.vector for b in cbs.domain("receive")["v"]]
        az = cbs.domain("azimuth")["v"]

        def power(f_vec):
            return sum(abs(received_symbol(w, h0, f_vec)) ** 2 for w in rx)

        s_az = [power(b.vector) for b in az]
        order = sorted(range(len(az)), key=lambda i: -s_az[i])
        results = []
        for win in order[:2]:
            nb = [i for i in (win - 1, win + 1) if 0 <= i < len(az)]
            nb.sort(key=lambda i: -s_az[i])
            lo, hi = sorted((win, nb[0]))
            delta = 0.5 * (az[hi].boresight_mu - az[lo].boresight_mu)
            center = 0.5 * (az[hi].boresight_mu + az[lo].boresight_mu)
            zeta = (s_az[lo] - s_az[hi]) / (s_az[lo] + s_az[hi])
            mu_y = invert_inline(zeta, center, delta)

            el = cbs.domain("elevation")["v"]
            arrays = cbs.config.arrays
            s_el = [power(np.kron(
                upa_steering(b.boresight_mu, 0.0, arrays.n_x, 1)[: arrays.n_x],
                upa_steering(0.0, mu_y, 1, arrays.n_y))) for b in el]
            win_e = max(range(len(el)), key=lambda i: s_el[i])
            nb_e = [i for i in (win_e - 1, win_e + 1) if 0 <= i < len(el)]
            nb_e.sort(key=lambda i: -s_el[i])
            lo_e, hi_e = sorted((win_e, nb_e[0]))
            delta_e = 0.5 * (el[hi_e].boresight_mu - el[lo_e].boresight_mu)
            center_e = 0.5 * (el[hi_e].boresight_mu + el[lo_e].boresight_mu)
            zeta_e = (s_el[lo_e] - s_el[hi_e]) / (s_el[lo_e] + s_el[hi_e])
            results.append((invert_inline(zeta_e, center_e, delta_e), mu_y))
        return results

    def test_iteration_accounting(self):
        cbs = build_codebooks(CodebookConfig(arrays=CROSS,
                                             az_range=(-np.pi / 2, np.pi / 2)))
        pilots = assign_pilots(enumerate_abps(cbs, "azimuth"), 64, p=1)
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
        assert len(cbs.domain("elevation")["v"]) == len(cbs.domain("elevation")["h"]) == 1
        pilots = assign_pilots(enumerate_abps(cbs, "azimuth"), 64, p=1)
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
        assert plan.n_t == 2
        assert calls == []

    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_elevation_stage_builds_only_elevation_beams(self, arrays, monkeypatch):
        """Each selected path re-points the elevation book alone: one
        elevation steering call per polarization per path, and no other
        beam vector (a whole codebook set per path made 4 calls per
        polarization). The re-pointed book's columns are the scalar steering
        vectors at that azimuth; the other books and the grid are shared."""
        cfg = CodebookConfig(arrays=arrays, el_range=(-np.pi / 2, np.pi / 2))
        cbs = build_codebooks(cfg)
        assert all(len(beams) > 1 for beams in cbs.domain("elevation").values())
        repointed = cbs.repointed(-0.37)
        got, base = repointed.books["elevation"], cbs.books["elevation"]
        for i, beam in enumerate(got.beams):
            want = tx_beam_vector(arrays, beam.polarization, beam.boresight_mu, -0.37)
            assert got.matrix[:, i].tobytes() == want.tobytes()
        assert got.boresights.tobytes() == base.boresights.tobytes()
        assert np.array_equal(got.members, base.members) and got.delta == base.delta
        assert repointed.books["azimuth"] is cbs.books["azimuth"]
        assert repointed.books["receive"] is cbs.books["receive"]
        assert repointed.grid is cbs.grid

        pilots = assign_pilots(enumerate_abps(cbs, "azimuth"), 64, p=1)
        plan = random_probing_plan(cbs, 6, 4, 2, 2, seed=0, layout="free")
        path = PathParams(1.0, 0.2, 0.1, 0.8, 0.0, angles_for(0.3, -0.5, 0.4, arrays))
        ofdm = OfdmConfig(64, 16)
        chan = copol_frequency_response([path], arrays, ofdm) if arrays is CO else \
            crosspol_frequency_response([path], arrays, ofdm, CrossPolConfig(0.2, 0.3))
        calls = _count_calls(monkeypatch, "tx_beam_vector", "rx_beam_vector")
        rep = estimate_multipath(chan, plan, pilots, 10.0, 2,
                                 rng=np.random.default_rng(60), codebooks=cbs)
        assert all("elevation" in p.pairs for p in rep.paths)
        assert calls == ["tx_beam_vector"] * (len(cbs.pols) * len(rep.paths))

    def test_plan_must_probe_every_beam(self):
        """A hand-built plan that skips an azimuth or receive beam is
        rejected instead of pairing against a strength of zero."""
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        pilots = assign_pilots(enumerate_abps(cbs, "azimuth"), 64, p=1)
        chan = copol_frequency_response(
            [PathParams.single_pol(1.0, 0.0, angles_for(0.1, 0.2, 0.3, CO))],
            CO, OfdmConfig(64, 16))
        az, rx = cbs.books["azimuth"].beams, cbs.books["receive"].beams

        def plan(tx_beams, rx_beams):
            return ProbingPlan(tx_beams=[[b] for b in tx_beams],
                               rx_beams=[[b] for b in rx_beams])

        rep = estimate_multipath(chan, plan(az, rx), pilots, None, 1,
                                 codebooks=cbs)
        assert set(rep.best.pairs) == {"azimuth", "receive", "elevation"}
        for tx_beams, rx_beams, axis in ((az[:-1], rx, "azimuth"),
                                         (az, rx[1:], "receive")):
            with pytest.raises(InfeasibleCoverage, match=axis):
                estimate_multipath(chan, plan(tx_beams, rx_beams), pilots, None,
                                   1, codebooks=cbs)

    def test_n_select_guard(self):
        cbs = build_codebooks(CodebookConfig(arrays=CO))
        pilots = assign_pilots(enumerate_abps(cbs, "azimuth"), 64, p=1)
        plan = random_probing_plan(cbs, 6, 4, 1, 1, seed=0, layout="free")
        rng = np.random.default_rng(58)
        chan = copol_frequency_response(
            [PathParams.single_pol(1.0, 0.0, angles_for(0.1, 0.2, 0.3, CO))],
            CO, OfdmConfig(64, 16))
        with pytest.raises(ValueError, match="n_select"):
            estimate_multipath(chan, plan, pilots, None, 0, rng=rng, codebooks=cbs)


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
