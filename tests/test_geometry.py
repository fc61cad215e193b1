"""Angle <-> spatial-frequency mapping and steering vector tests."""

import numpy as np
import pytest

from beampair.geometry import (AngleSet, ArrayConfig, DegenerateDirection,
                               SpatialFrequencies, angles_from_spatial_frequencies,
                               aoa_from_nu, spatial_frequencies, ula_steering,
                               upa_steering)

HALF = ArrayConfig(n_x=4, n_y=8, m_tot=4)


# ---------------------------------------------------------------------------
# forward map

class TestSpatialFrequencies:
    def test_hand_computed_case(self):
        """theta = 30 deg, phi = 45 deg at half-wavelength spacing."""
        sf = spatial_frequencies(AngleSet(np.radians(30), np.radians(45), 0.0), HALF)
        want = np.pi * 0.5 * np.sin(np.radians(30)) * np.sqrt(2)
        assert abs(sf.mu_x - want) < 1e-12
        assert abs(sf.mu_y - want) < 1e-12
        assert sf.nu == 0.0

    def test_boresight_is_zero(self):
        sf = spatial_frequencies(AngleSet(0.0, 0.3, 0.0), HALF)
        assert sf.mu_x == 0.0 and sf.mu_y == 0.0

    def test_receive_frequency_tracks_psi(self):
        sf = spatial_frequencies(AngleSet(0.1, 0.0, np.radians(90)), HALF)
        assert abs(sf.nu - np.pi) < 1e-12

    def test_spacing_scales_linearly(self):
        wide = ArrayConfig(n_x=4, n_y=8, m_tot=4, d_tx=1.0, d_ty=1.0, d_r=1.0)
        ang = AngleSet(0.4, -0.7, 0.2)
        a = spatial_frequencies(ang, HALF)
        b = spatial_frequencies(ang, wide)
        assert abs(b.mu_x - 2 * a.mu_x) < 1e-12
        assert abs(b.mu_y - 2 * a.mu_y) < 1e-12
        assert abs(b.nu - 2 * a.nu) < 1e-12


# ---------------------------------------------------------------------------
# inverse map

class TestInverse:
    def test_round_trip_random(self):
        """Forward then inverse recovers (theta, phi) for 1e3 draws."""
        rng = np.random.default_rng(7)
        for _ in range(1000):
            theta = rng.uniform(1e-3, np.pi / 2 - 1e-3)
            phi = rng.uniform(-np.pi + 1e-6, np.pi - 1e-6)
            sf = spatial_frequencies(AngleSet(theta, phi, 0.0), HALF)
            th, ph = angles_from_spatial_frequencies(sf.mu_x, sf.mu_y, HALF)
            assert abs(th - theta) < 1e-9
            assert abs(ph - phi) < 1e-9

    def test_receive_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            psi = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6)
            sf = spatial_frequencies(AngleSet(0.2, 0.1, psi), HALF)
            assert abs(aoa_from_nu(sf.nu, HALF) - psi) < 1e-9

    def test_boresight_raises(self):
        with pytest.raises(DegenerateDirection):
            angles_from_spatial_frequencies(0.0, 0.0, HALF)

    def test_outside_visible_region_clamps(self):
        """Radial overshoot maps to endfire rather than NaN."""
        th, _ = angles_from_spatial_frequencies(np.pi * 1.01, 0.0, HALF)
        assert abs(th - np.pi / 2) < 1e-12

    def test_negative_elevation_folds(self):
        sf = spatial_frequencies(AngleSet(-0.5, 0.3, 0.0), HALF)
        th, ph = angles_from_spatial_frequencies(sf.mu_x, sf.mu_y, HALF)
        back = spatial_frequencies(AngleSet(th, ph, 0.0), HALF)
        assert th >= 0
        assert abs(back.mu_x - sf.mu_x) < 1e-9
        assert abs(back.mu_y - sf.mu_y) < 1e-9


class TestArrayForms:
    """Arrays of angles or spatial frequencies give, entry by entry, the
    same bits as scalar calls; scalar calls return floats."""

    def test_inverse_maps_match_scalar_calls(self):
        rng = np.random.default_rng(9)
        mu_x, mu_y = rng.uniform(-4.0, 4.0, size=(2, 200))  # some beyond endfire
        nu = rng.uniform(-3.5, 3.5, size=200)
        for arrays in (HALF, ArrayConfig(n_x=4, n_y=8, m_tot=4, d_tx=0.6, d_r=0.7)):
            theta, phi = angles_from_spatial_frequencies(mu_x, mu_y, arrays)
            psi = aoa_from_nu(nu, arrays)
            assert theta.shape == phi.shape == psi.shape == (200,)
            for i, (x, y, n) in enumerate(zip(mu_x.tolist(), mu_y.tolist(), nu.tolist())):
                th, ph = angles_from_spatial_frequencies(x, y, arrays)
                ps = aoa_from_nu(n, arrays)
                assert type(th) is type(ph) is type(ps) is float
                assert (theta[i], phi[i], psi[i]) == (th, ph, ps)

    def test_nan_radius_clamps_like_the_scalar_form(self):
        """A NaN radius reaches endfire (the clamp keeps 1 over NaN) in both
        forms; NaN receive frequencies pass through."""
        theta, _ = angles_from_spatial_frequencies(np.array([np.nan, 0.3]),
                                                   np.array([0.2, 0.1]), HALF)
        assert theta[0] == angles_from_spatial_frequencies(np.nan, 0.2, HALF)[0] == np.pi / 2
        assert np.isnan(aoa_from_nu(np.array([np.nan]), HALF)[0])

    def test_any_boresight_entry_raises(self):
        with pytest.raises(DegenerateDirection):
            angles_from_spatial_frequencies(np.array([0.3, 0.0]), np.array([0.1, 0.0]), HALF)

    def test_angle_triple_of_arrays(self):
        """A (theta, phi, psi) triple of arrays maps entry by entry; an
        AngleSet unpacks as that triple."""
        rng = np.random.default_rng(10)
        theta = rng.uniform(-np.pi / 2, np.pi / 2, size=50)
        phi = rng.uniform(-np.pi, np.pi, size=50)
        psi = rng.uniform(-np.pi / 2, np.pi / 2, size=50)
        sf = spatial_frequencies((theta, phi, psi), HALF)
        for i in range(50):
            ang = AngleSet(theta[i], phi[i], psi[i])
            assert tuple(ang) == (theta[i], phi[i], psi[i])
            one = spatial_frequencies(ang, HALF)
            assert (sf.mu_x[i], sf.mu_y[i], sf.nu[i]) == (one.mu_x, one.mu_y, one.nu)


# ---------------------------------------------------------------------------
# steering vectors

class TestSteering:
    def test_ula_entries(self):
        nu = 0.37
        a = ula_steering(nu, 5)
        for i in range(5):
            assert abs(a[i] - np.exp(1j * i * nu) / np.sqrt(5)) < 1e-12

    def test_unit_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            nu = rng.uniform(-np.pi, np.pi)
            m = int(rng.integers(1, 33))
            assert abs(np.linalg.norm(ula_steering(nu, m)) - 1.0) < 1e-12

    def test_upa_is_elementwise_product(self):
        """Entry (i, j) of the planar vector against the two-loop definition."""
        rng = np.random.default_rng(10)
        for _ in range(100):
            mu_x = rng.uniform(-np.pi, np.pi)
            mu_y = rng.uniform(-np.pi, np.pi)
            n_x, n_y = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = upa_steering(mu_x, mu_y, n_x, n_y)
            for i in range(n_x):
                for j in range(n_y):
                    want = np.exp(1j * (i * mu_x + j * mu_y)) / np.sqrt(n_x * n_y)
                    assert abs(a[i * n_y + j] - want) < 1e-12

    def test_bad_length(self):
        with pytest.raises(ValueError, match="m must be"):
            ula_steering(0.1, 0)

    def test_array_frequencies_give_one_column_each(self):
        """Column k of an array call equals the scalar call at value k, bit
        for bit, so a batched grid reproduces per-beam vectors exactly."""
        rng = np.random.default_rng(11)
        mu_x = rng.uniform(-np.pi, np.pi, 7)
        mu_y = rng.uniform(-np.pi, np.pi, 7)
        a = ula_steering(mu_x, 5)
        u = upa_steering(mu_x, mu_y, 3, 4)
        assert a.shape == (5, 7) and u.shape == (12, 7)
        for k in range(7):
            assert np.array_equal(a[:, k], ula_steering(mu_x[k], 5))
            assert np.array_equal(u[:, k], upa_steering(mu_x[k], mu_y[k], 3, 4))


# ---------------------------------------------------------------------------
# config validation

class TestConfigs:
    def test_array_counts(self):
        with pytest.raises(ValueError, match="element counts"):
            ArrayConfig(n_x=0, n_y=8, m_tot=4)

    def test_array_spacing(self):
        with pytest.raises(ValueError, match="spacings"):
            ArrayConfig(n_x=4, n_y=8, m_tot=4, d_r=0.0)

    def test_polarization_mode(self):
        with pytest.raises(ValueError, match="polarization_mode"):
            ArrayConfig(n_x=4, n_y=8, m_tot=4, polarization_mode="circular")

    def test_polarization_labels(self):
        """Vertical first; co-polarized arrays carry the vertical label only."""
        assert HALF.pols == ("v",)
        assert ArrayConfig(n_x=4, n_y=8, m_tot=4, polarization_mode="cross").pols == ("v", "h")

    def test_cross_mode_doubles_totals(self):
        cross = ArrayConfig(n_x=4, n_y=8, m_tot=4, polarization_mode="cross")
        assert cross.n_tx == 32
        assert cross.n_tot == 64
        assert cross.m_full == 8
        assert HALF.n_tot == 32 and HALF.m_full == 4

    def test_angle_bounds(self):
        with pytest.raises(ValueError, match="theta"):
            AngleSet(theta=2.0, phi=0.0, psi=0.0)
        with pytest.raises(ValueError, match="phi"):
            AngleSet(theta=0.0, phi=4.0, psi=0.0)
        with pytest.raises(ValueError, match="psi"):
            AngleSet(theta=0.0, phi=0.0, psi=-2.0)

    def test_frozen(self):
        sf = SpatialFrequencies(0.1, 0.2, 0.3)
        with pytest.raises(AttributeError):
            sf.mu_x = 0.5
