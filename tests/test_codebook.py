"""Beam grids, pair enumeration, and randomized probing plans.

Coverage ranges and boresights are spatial-frequency values; tests quote
them in radians unless a comment says otherwise.
"""

import numpy as np
import pytest

from beampair.codebook import (AuxiliaryBeamPair, CodebookConfig, CodebookSet,
                               EmptyRange, InfeasibleCoverage, build_codebooks,
                               enumerate_abps,
                               random_probing_plan, rx_beam_vector, tx_beam_vector)
from beampair.geometry import ArrayConfig

CO = ArrayConfig(n_x=4, n_y=8, m_tot=4)
CROSS = ArrayConfig(n_x=4, n_y=8, m_tot=4, polarization_mode="cross")
# coverage ranges whose centers, the transmit beams' fixed frequencies, are
# nonzero, distinct and exact in binary: elevation 0.25, azimuth -0.25
ASYM = {"el_range": (-0.25, 0.75), "az_range": (-1.0, 0.5)}


def default_cfg(arrays=CO, **kw):
    return CodebookConfig(arrays=arrays, **kw)


# ---------------------------------------------------------------------------
# spacings and grid sizes

class TestSpacing:
    def test_half_power_delta(self):
        cfg = default_cfg()
        assert abs(cfg.delta("elevation") - np.pi / 8) < 1e-15
        assert abs(cfg.delta("azimuth") - np.pi / 16) < 1e-15
        assert abs(cfg.delta("receive") - np.pi / 8) < 1e-15

    def test_commensurate_delta(self):
        """ell*pi/N keeps N*delta on the pi lattice, the family for which
        the two shifted array kernels have equal magnitude."""
        cfg = default_cfg(delta_mode="commensurate", ell=1)
        assert abs(cfg.delta("azimuth") - np.pi / 8) < 1e-15
        assert abs(cfg.delta("elevation") - np.pi / 4) < 1e-15
        cfg2 = default_cfg(delta_mode="commensurate", ell=3)
        assert abs(cfg2.delta("azimuth") - 3 * np.pi / 8) < 1e-15

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="delta_mode"):
            default_cfg(delta_mode="thirds")
        with pytest.raises(ValueError, match="ell"):
            default_cfg(ell=0)

    def test_receive_grid_size(self):
        """180 deg of mu at quarter-pi spacing gives four receive beams."""
        cbs = build_codebooks(default_cfg())
        assert len(cbs.domain("receive")["v"]) == 4
        centers = [b.boresight_mu for b in cbs.domain("receive")["v"]]
        assert np.allclose(centers, [-3 * np.pi / 8, -np.pi / 8, np.pi / 8, 3 * np.pi / 8])

    def test_azimuth_grid_size(self):
        """120 deg of mu at pi/8 spacing gives six centered azimuth beams."""
        cbs = build_codebooks(default_cfg())
        centers = np.degrees([b.boresight_mu for b in cbs.domain("azimuth")["v"]])
        assert len(centers) == 6
        assert np.allclose(centers, [-56.25, -33.75, -11.25, 11.25, 33.75, 56.25])

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            build_codebooks(default_cfg(az_range=(0.5, 0.5)))

    @pytest.mark.parametrize("axis,key", [("elevation", "el_range"),
                                          ("azimuth", "az_range"),
                                          ("receive", "rx_range")])
    @pytest.mark.parametrize("bounds", [(0.2, -0.2), (0.3, 0.3), (np.nan, 0.5),
                                        (-0.5, np.nan), (-np.inf, 0.5)])
    def test_bad_range_fails_in_the_config(self, axis, key, bounds):
        """hi <= lo, a NaN and an infinite bound are rejected by the config,
        before any codebook is built."""
        with pytest.raises(EmptyRange, match=axis):
            default_cfg(**{key: bounds})


# ---------------------------------------------------------------------------
# beam vectors

class TestBeamVectors:
    def test_cross_mode_halves(self):
        v = tx_beam_vector(CROSS, "v", 0.2, -0.4)
        h = tx_beam_vector(CROSS, "h", 0.2, -0.4)
        assert v.shape == (64,) and h.shape == (64,)
        assert np.all(v[32:] == 0) and np.all(h[:32] == 0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.allclose(v[:32], h[32:])

    def test_array_frequencies_stack_columns(self):
        mu_x = np.array([0.2, -0.1, 0.5])
        mu_y = np.array([-0.4, 0.9, 0.0])
        for arrays, pol in ((CO, "v"), (CROSS, "v"), (CROSS, "h")):
            f = tx_beam_vector(arrays, pol, mu_x, mu_y)
            assert f.shape == (arrays.n_tot, 3)
            for k in range(3):
                assert np.array_equal(f[:, k],
                                      tx_beam_vector(arrays, pol, mu_x[k], mu_y[k]))

    def test_rx_vector(self):
        w = rx_beam_vector(CROSS, "h", 0.7)
        assert w.shape == (8,)
        assert np.all(w[:4] == 0)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_azimuth_beams_share_fixed_elevation(self):
        """Every azimuth beam of both polarizations steers the elevation
        frequency at the elevation range center."""
        cbs = build_codebooks(default_cfg(arrays=CROSS, **ASYM))
        for pol, beams in cbs.domain("azimuth").items():
            for b in beams:
                assert np.array_equal(
                    b.vector, tx_beam_vector(CROSS, pol, 0.25, b.boresight_mu))

    def test_indices_unique_per_domain(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        for axis in ("elevation", "azimuth", "receive"):
            ids = [(b.polarization, b.index) for b in cbs.books[axis].beams]
            assert len(set(ids)) == len(ids)


# ---------------------------------------------------------------------------
# pair enumeration

class TestPairs:
    def test_adjacent_within_polarization(self):
        """Eight azimuth beams split 4+4 over polarizations pair as
        (0,1)(1,2)(2,3) and (4,5)(5,6)(6,7); no pair straddles the split."""
        cfg = default_cfg(arrays=CROSS, az_range=(-np.pi / 2, np.pi / 2))
        cbs = build_codebooks(cfg)
        pairs = enumerate_abps(cbs, "azimuth")
        idx = [(p.beams[0].index, p.beams[1].index) for p in pairs]
        assert idx == [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
        assert all(p.beams[0].polarization == p.beams[1].polarization for p in pairs)

    def test_geometry_of_each_pair(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        for pair in enumerate_abps(cbs):
            assert abs(pair.boresight(0) - (pair.center_mu - pair.delta)) < 1e-9
            assert abs(pair.boresight(1) - (pair.center_mu + pair.delta)) < 1e-9
            assert pair.beams[0].boresight_mu < pair.beams[1].boresight_mu

    def test_ids_are_sequential(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        pairs = enumerate_abps(cbs)
        assert [p.abp_id for p in pairs] == list(range(len(pairs)))
        axes = [p.axis for p in pairs]
        assert axes == sorted(axes, key=("elevation", "azimuth", "receive").index)

    def test_pair_intervals_tile_each_half(self):
        """Consecutive pair intervals abut exactly, so the swept range has
        no coverage holes between the first and last boresight."""
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        for axis in ("elevation", "azimuth", "receive"):
            for pol in ("v", "h"):
                pairs = [p for p in enumerate_abps(cbs, axis)
                         if p.polarization == pol]
                for a, b in zip(pairs, pairs[1:]):
                    assert abs((a.center_mu + a.delta) - (b.center_mu - b.delta)) < 1e-9

    def test_single_beam_domain_has_no_pairs(self):
        cfg = default_cfg(az_range=(-0.1, 0.1))
        cbs = build_codebooks(cfg)
        assert len(cbs.domain("azimuth")["v"]) == 1
        assert enumerate_abps(cbs, "azimuth") == []
        assert cbs.books["azimuth"].pairs.shape == (0, 2)
        assert cbs.books["azimuth"].members.tolist() == [[-1, -1]]

    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_pair_table_matches_enumerated_pairs(self, arrays):
        """Oracle: each axis's pair table holds the adjacent same-polarization
        beams in boresight order, numbered per axis (the pairing rule written
        out longhand below), and enumerate_abps lists exactly those pairs;
        the membership table inverts the pair table."""
        cbs = build_codebooks(default_cfg(arrays=arrays,
                                          el_range=(-np.pi / 2, np.pi / 2)))
        for axis in ("elevation", "azimuth", "receive"):
            book = cbs.books[axis]
            want = []
            for pol in cbs.pols:
                beams = sorted((b for b in cbs.books[axis].beams if b.polarization == pol),
                               key=lambda b: b.boresight_mu)
                want += list(zip(beams, beams[1:]))
            assert len(want) > 1
            assert book.pairs.tolist() == [[lo.index, hi.index] for lo, hi in want]
            assert book.centers.tolist() == [0.5 * (lo.boresight_mu + hi.boresight_mu)
                                             for lo, hi in want]
            assert book.delta == cbs.config.delta(axis)
            pairs = enumerate_abps(cbs, axis)
            assert [p.abp_id for p in pairs] == list(range(len(want)))
            assert [p.beams for p in pairs] == want
            assert [p.center_mu for p in pairs] == book.centers.tolist()
            assert all(p.delta == book.delta and p.axis == axis for p in pairs)
            members = np.full((len(book.beams), 2), -1)
            for k, (lo, hi) in enumerate(want):
                members[lo.index, 0] = members[hi.index, 1] = k
            assert np.array_equal(book.members, members)


# ---------------------------------------------------------------------------
# beam matrices, built once per codebook set

class TestBooks:
    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_matrix_columns_are_the_beam_vectors(self, arrays):
        """Each column equals a scalar steering call at the beam's boresight
        (transmit beams at the range center of the other axis) bit for bit,
        and each beam's vector is that column."""
        cbs = build_codebooks(default_cfg(arrays=arrays, **ASYM))
        for axis in ("elevation", "azimuth", "receive"):
            book = cbs.books[axis]
            assert book.matrix.flags.c_contiguous
            for i, beam in enumerate(book.beams):
                assert beam.index == i and beam.boresight_mu == book.boresights[i]
                mu, pol = beam.boresight_mu, beam.polarization
                want = (rx_beam_vector(arrays, pol, mu) if axis == "receive" else
                        tx_beam_vector(arrays, pol, mu, -0.25) if axis == "elevation"
                        else tx_beam_vector(arrays, pol, 0.25, mu))
                assert np.array_equal(book.matrix[:, i], want)
                assert np.shares_memory(beam.vector, book.matrix)

    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_sweep_grid_covers_every_same_pol_pair(self, arrays):
        cbs = build_codebooks(default_cfg(arrays=arrays,
                                          el_range=(-np.pi / 2, np.pi / 2)))
        el, az = cbs.books["elevation"].beams, cbs.books["azimuth"].beams
        want = [(e.index, a.index) for pol in cbs.pols for e in el for a in az
                if e.polarization == a.polarization == pol]
        assert list(zip(cbs.grid_el.tolist(), cbs.grid_az.tolist())) == want
        for k, (e, a) in enumerate(want):
            assert np.array_equal(cbs.grid[:, k], tx_beam_vector(
                arrays, el[e].polarization, el[e].boresight_mu, az[a].boresight_mu))


# ---------------------------------------------------------------------------
# probing plans

class TestProbingPlan:
    def test_deterministic_for_seed(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        a = random_probing_plan(cbs, 6, 4, 2, 2, seed=5)
        b = random_probing_plan(cbs, 6, 4, 2, 2, seed=5)
        assert a.tx_beams == b.tx_beams
        c = random_probing_plan(cbs, 6, 4, 2, 2, seed=6)
        assert any(fa != fc for fa, fc in zip(a.tx_beams, c.tx_beams))

    def test_split_half_layout(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        plan = random_probing_plan(cbs, 6, 4, 2, 2, seed=0)
        for beams in plan.tx_beams:
            assert [b.polarization for b in beams] == ["v", "h"]
        for beams in plan.rx_beams:
            assert [b.polarization for b in beams] == ["v", "h"]

    def test_split_half_needs_even_rf(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        with pytest.raises(ValueError, match="even"):
            random_probing_plan(cbs, 8, 4, 3, 2, seed=0)

    def test_coverage_exactly_once_when_budget_matches(self):
        """With probings * slots equal to the codebook size every beam
        appears exactly once."""
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        for seed in range(20):
            plan = random_probing_plan(cbs, 3, 2, 2, 2, seed=seed)
            counts = {}
            for beams in plan.tx_beams:
                for b in beams:
                    counts[b] = counts.get(b, 0) + 1
            assert all(c == 1 for c in counts.values())
            assert len(counts) == 6

    def test_coverage_at_least_once_with_slack(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        for seed in range(20):
            plan = random_probing_plan(cbs, 5, 4, 2, 2, seed=seed)
            seen = {b for beams in plan.tx_beams for b in beams}
            assert len(seen) == 6
            for beams in plan.tx_beams:
                assert len(set(beams)) == len(beams)

    def test_infeasible_budgets(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        with pytest.raises(InfeasibleCoverage, match="cover"):
            random_probing_plan(cbs, 2, 2, 2, 2, seed=0)
        small = build_codebooks(default_cfg(arrays=CROSS, rx_range=(-0.3, 0.3)))
        with pytest.raises(InfeasibleCoverage, match="distinct"):
            random_probing_plan(small, 4, 1, 2, 4, seed=0)

    def test_iteration_accounting(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        plan = random_probing_plan(cbs, 20, 20, 2, 2, seed=1)
        assert plan.n_t == 20 and plan.m_t == 20
        assert plan.iterations() == 1600

    def test_free_layout_mixes_polarizations(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        plan = random_probing_plan(cbs, 6, 4, 2, 2, seed=3, layout="free")
        pols = {b.polarization for beams in plan.tx_beams for b in beams}
        assert pols == {"v", "h"}

    def test_elevation_axis_plan(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        plan = random_probing_plan(cbs, 4, 4, 2, 2, seed=2, tx_axis="elevation")
        assert all(b.axis == "elevation" for beams in plan.tx_beams for b in beams)

