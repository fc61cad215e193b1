"""Beam grids, pair tables, and randomized probing plans.

Coverage ranges and boresights are spatial-frequency values; tests quote
them in radians unless a comment says otherwise.
"""

from collections import namedtuple

import numpy as np
import pytest

from beampair.codebook import (CodebookConfig, EmptyRange, InfeasibleCoverage,
                               build_codebooks, random_probing_plan, rx_beam_vector,
                               tx_beam_vector)
from beampair.geometry import ArrayConfig
from beampair.metrics import OverheadModel

CO = ArrayConfig(n_x=4, n_y=8, m_tot=4)
CROSS = ArrayConfig(n_x=4, n_y=8, m_tot=4, polarization_mode="cross")
# coverage ranges whose centers, the transmit beams' fixed frequencies, are
# nonzero, distinct and exact in binary: elevation 0.25, azimuth -0.25
ASYM = {"el_range": (-0.25, 0.75), "az_range": (-1.0, 0.5)}


def default_cfg(arrays=CO, **kw):
    return CodebookConfig(arrays=arrays, **kw)


# one beam of a book, read off its arrays: the references below run on these
Rec = namedtuple("Rec", "pol index boresight")


def _records(book) -> list:
    return [Rec(pol, i, mu) for i, (pol, mu)
            in enumerate(zip(book.pols.tolist(), book.boresights.tolist()))]


def _by_pol(book) -> dict:
    """Per-polarization record lists, vertical first."""
    recs = _records(book)
    return {pol: [r for r in recs if r.pol == pol] for pol in ("v", "h")
            if any(r.pol == pol for r in recs)}


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
        book = build_codebooks(default_cfg()).books["receive"]
        assert len(book.by_pol["v"]) == 4
        centers = book.boresights[book.by_pol["v"]]
        assert np.allclose(centers, [-3 * np.pi / 8, -np.pi / 8, np.pi / 8, 3 * np.pi / 8])

    def test_azimuth_grid_size(self):
        """120 deg of mu at pi/8 spacing gives six centered azimuth beams."""
        book = build_codebooks(default_cfg()).books["azimuth"]
        centers = np.degrees(book.boresights[book.by_pol["v"]])
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
        book = build_codebooks(default_cfg(arrays=CROSS, **ASYM)).books["azimuth"]
        for pol, idx in book.by_pol.items():
            for i in idx:
                assert np.array_equal(
                    book.matrix[:, i], tx_beam_vector(CROSS, pol, 0.25, book.boresights[i]))

    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_indices_unique_per_domain(self, arrays):
        """Each beam index lies in exactly one polarization's index array,
        which lists that polarization's beams in book order."""
        cbs = build_codebooks(default_cfg(arrays=arrays))
        for axis in ("elevation", "azimuth", "receive"):
            book = cbs.books[axis]
            assert book.axis == axis and list(book.by_pol) == list(arrays.pols)
            assert {pol: idx.tolist() for pol, idx in book.by_pol.items()} == \
                {pol: [r.index for r in recs] for pol, recs in _by_pol(book).items()}
            assert sorted(np.concatenate(list(book.by_pol.values())).tolist()) == \
                list(range(len(book.pols)))


# ---------------------------------------------------------------------------
# pair tables

class TestPairs:
    def test_adjacent_within_polarization(self):
        """Eight azimuth beams split 4+4 over polarizations pair as
        (0,1)(1,2)(2,3) and (4,5)(5,6)(6,7); no pair straddles the split."""
        cfg = default_cfg(arrays=CROSS, az_range=(-np.pi / 2, np.pi / 2))
        book = build_codebooks(cfg).books["azimuth"]
        assert book.pairs.tolist() == [[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [6, 7]]
        assert (book.pols[book.pairs[:, 0]] == book.pols[book.pairs[:, 1]]).all()

    def test_geometry_of_each_pair(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        for book in cbs.books.values():
            lo, hi = book.boresights[book.pairs.T]
            assert np.allclose(lo, book.centers - book.delta, rtol=0, atol=1e-9)
            assert np.allclose(hi, book.centers + book.delta, rtol=0, atol=1e-9)
            assert (lo < hi).all()

    def test_pair_intervals_tile_each_half(self):
        """Consecutive pair intervals abut exactly, so the swept range has
        no coverage holes between the first and last boresight."""
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        for book in cbs.books.values():
            for pol in ("v", "h"):
                centers = book.centers[book.pols[book.pairs[:, 0]] == pol]
                assert np.allclose(centers[:-1] + book.delta, centers[1:] - book.delta,
                                   rtol=0, atol=1e-9)

    def test_single_beam_domain_has_no_pairs(self):
        cfg = default_cfg(az_range=(-0.1, 0.1))
        cbs = build_codebooks(cfg)
        assert len(cbs.books["azimuth"].by_pol["v"]) == 1
        assert cbs.books["azimuth"].pairs.shape == (0, 2)
        assert cbs.books["azimuth"].members.tolist() == [[-1, -1]]

    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_pair_table_matches_enumerated_pairs(self, arrays):
        """Oracle: each axis's pair table holds the adjacent same-polarization
        beams in boresight order, numbered per axis (the pairing rule written
        out longhand below, on beam records); the membership table inverts
        the pair table."""
        cbs = build_codebooks(default_cfg(arrays=arrays,
                                          el_range=(-np.pi / 2, np.pi / 2)))
        for axis in ("elevation", "azimuth", "receive"):
            book = cbs.books[axis]
            want = []
            for pol in arrays.pols:
                beams = sorted((r for r in _records(book) if r.pol == pol),
                               key=lambda r: r.boresight)
                want += list(zip(beams, beams[1:]))
            assert len(want) > 1
            assert book.pairs.tolist() == [[lo.index, hi.index] for lo, hi in want]
            assert book.centers.tolist() == [0.5 * (lo.boresight + hi.boresight)
                                             for lo, hi in want]
            assert book.delta == cbs.config.delta(axis)
            members = np.full((len(book.pols), 2), -1)
            for k, (lo, hi) in enumerate(want):
                members[lo.index, 0] = members[hi.index, 1] = k
            assert np.array_equal(book.members, members)


# ---------------------------------------------------------------------------
# beam matrices, built once per codebook set

class TestBooks:
    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_matrix_columns_are_the_beam_vectors(self, arrays):
        """Each column equals a scalar steering call at the beam's boresight
        (transmit beams at the range center of the other axis) bit for bit."""
        cbs = build_codebooks(default_cfg(arrays=arrays, **ASYM))
        for axis in ("elevation", "azimuth", "receive"):
            book = cbs.books[axis]
            assert book.matrix.flags.c_contiguous
            assert book.matrix.shape[1] == len(book.boresights) == len(book.pols)
            for pol, i, mu in _records(book):
                want = (rx_beam_vector(arrays, pol, mu) if axis == "receive" else
                        tx_beam_vector(arrays, pol, mu, -0.25) if axis == "elevation"
                        else tx_beam_vector(arrays, pol, 0.25, mu))
                assert np.array_equal(book.matrix[:, i], want)

    @pytest.mark.parametrize("arrays", [CO, CROSS], ids=["co", "cross"])
    def test_sweep_grid_covers_every_same_pol_pair(self, arrays):
        cbs = build_codebooks(default_cfg(arrays=arrays,
                                          el_range=(-np.pi / 2, np.pi / 2)))
        el, az = _records(cbs.books["elevation"]), _records(cbs.books["azimuth"])
        want = [(e.index, a.index) for pol in arrays.pols for e in el for a in az
                if e.pol == a.pol == pol]
        assert list(zip(cbs.grid_el.tolist(), cbs.grid_az.tolist())) == want
        for k, (e, a) in enumerate(want):
            assert np.array_equal(cbs.grid[:, k], tx_beam_vector(
                arrays, el[e].pol, el[e].boresight, az[a].boresight))


# ---------------------------------------------------------------------------
# probing plans

class TestProbingPlan:
    def test_deterministic_for_seed(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        a = random_probing_plan(cbs, 6, 4, 2, 2, seed=5)
        b = random_probing_plan(cbs, 6, 4, 2, 2, seed=5)
        assert np.array_equal(a.tx_idx, b.tx_idx) and np.array_equal(a.rx_idx, b.rx_idx)
        c = random_probing_plan(cbs, 6, 4, 2, 2, seed=6)
        assert not np.array_equal(a.tx_idx, c.tx_idx)

    def test_split_half_layout(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        plan = random_probing_plan(cbs, 6, 4, 2, 2, seed=0)
        for idx, axis in ((plan.tx_idx, "azimuth"), (plan.rx_idx, "receive")):
            for row in idx:
                assert cbs.books[axis].pols[row].tolist() == ["v", "h"]

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
            assert plan.tx_idx.shape == (3, 2)
            assert np.bincount(plan.tx_idx.ravel()).tolist() == [1] * 6

    def test_coverage_at_least_once_with_slack(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        for seed in range(20):
            plan = random_probing_plan(cbs, 5, 4, 2, 2, seed=seed)
            assert set(plan.tx_idx.ravel().tolist()) == set(range(6))
            for row in plan.tx_idx.tolist():
                assert len(set(row)) == len(row)

    def test_infeasible_budgets(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        with pytest.raises(InfeasibleCoverage, match="cover"):
            random_probing_plan(cbs, 2, 2, 2, 2, seed=0)
        small = build_codebooks(default_cfg(arrays=CROSS, rx_range=(-0.3, 0.3)))
        with pytest.raises(InfeasibleCoverage, match="distinct"):
            random_probing_plan(small, 4, 1, 2, 4, seed=0)

    def test_iteration_accounting(self):
        """The plan's index arrays are (probings, RF chains) per side, the
        factors of the multi-RF complexity count."""
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        plan = random_probing_plan(cbs, 20, 20, 2, 2, seed=1)
        assert plan.tx_idx.shape == (20, 2) and plan.rx_idx.shape == (20, 2)
        (n_t, n_rf), (m_t, m_rf) = plan.tx_idx.shape, plan.rx_idx.shape
        assert OverheadModel.abp_complexity(n_rf, n_t, m_rf, m_t) == 1600

    def test_free_layout_mixes_polarizations(self):
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        plan = random_probing_plan(cbs, 6, 4, 2, 2, seed=3, layout="free")
        assert set(cbs.books["azimuth"].pols[plan.tx_idx.ravel()].tolist()) == {"v", "h"}

    def test_elevation_axis_plan(self):
        """tx_idx indexes the elevation book, and covers it."""
        cbs = build_codebooks(default_cfg(arrays=CROSS))
        plan = random_probing_plan(cbs, 4, 4, 2, 2, seed=2, tx_axis="elevation")
        n_el = len(cbs.books["elevation"].pols)
        assert n_el != len(cbs.books["azimuth"].pols)
        assert set(plan.tx_idx.ravel().tolist()) == set(range(n_el))


def _fill_bucket_beams(beams, n_probings, slots_per, rng):
    """The bucket fill over lists of beams that the index-array one
    replaced, kept as its reference (budget checks left out); here the beams
    are records."""
    size = len(beams)
    total = n_probings * slots_per
    pool = list(beams)
    while len(pool) < total:
        pool.append(beams[rng.integers(size)])
    pool = [pool[i] for i in rng.permutation(total)]
    out = []
    for _ in range(n_probings):
        probing = []
        i = 0
        while len(probing) < slots_per and i < len(pool):
            if pool[i] in probing:
                i += 1
            else:
                probing.append(pool.pop(i))
        for beam in beams:
            if len(probing) == slots_per:
                break
            if beam not in probing:
                probing.append(beam)
        out.append(probing)
    return out


def _beam_list_plan(codebooks, n_t, m_t, n_rf, m_rf, seed, layout, tx_axis):
    """The beam-list random_probing_plan, kept as the reference: per side,
    one list of beam records per probing."""
    rng = np.random.default_rng(seed)
    cross = codebooks.config.arrays.polarization_mode == "cross"

    def side(axis, probings, rf):
        if cross and layout == "split-half":
            dom = _by_pol(codebooks.books[axis])
            v = _fill_bucket_beams(dom["v"], probings, rf // 2, rng)
            h = _fill_bucket_beams(dom["h"], probings, rf // 2, rng)
            return [v[i] + h[i] for i in range(probings)]
        return _fill_bucket_beams(_records(codebooks.books[axis]), probings, rf, rng)

    return side(tx_axis, n_t, n_rf), side("receive", m_t, m_rf)


@pytest.mark.parametrize("tx_axis", ["azimuth", "elevation"])
@pytest.mark.parametrize("arrays,layout", [(CO, "free"), (CROSS, "free"),
                                           (CROSS, "split-half")],
                         ids=["co-free", "cross-free", "cross-split-half"])
def test_plan_matches_the_beam_list_fill(arrays, layout, tx_axis):
    """Seeds 0-199 at three slot budgets (exact cover, slack, wide
    probings): each plan's index arrays are the beam indices of the
    beam-list plan drawn from the same seed."""
    cbs = build_codebooks(default_cfg(arrays=arrays, el_range=(-np.pi / 2, np.pi / 2)))
    for sizes in ((3, 2, 2, 2), (6, 4, 2, 2), (2, 2, 4, 2)):
        for seed in range(200):
            plan = random_probing_plan(cbs, *sizes, seed=seed, layout=layout,
                                       tx_axis=tx_axis)
            want_tx, want_rx = _beam_list_plan(cbs, *sizes, seed, layout, tx_axis)
            for got, want in ((plan.tx_idx, want_tx), (plan.rx_idx, want_rx)):
                assert got.dtype.kind == "i"
                assert got.tolist() == [[b.index for b in row] for row in want]
