"""Array geometry: spatial frequencies and steering vectors.

Transmit side is a uniform planar array (x by y elements), receive side a
uniform linear array. All spacings are in wavelengths (carrier wavelength
normalized to 1), so half-wavelength spacing is d = 0.5 and the visible
spatial-frequency region is [-pi, pi].
"""

from dataclasses import dataclass

import numpy as np


class DegenerateDirection(ValueError):
    """Raised when (mu_x, mu_y) = (0, 0): azimuth is undefined at boresight."""


@dataclass(frozen=True)
class ArrayConfig:
    """Antenna setup. In cross-polarized mode the counts are per polarization
    (totals are twice these); in co-polarized mode they are the totals."""

    n_x: int
    n_y: int
    m_tot: int
    d_tx: float = 0.5
    d_ty: float = 0.5
    d_r: float = 0.5
    polarization_mode: str = "co"

    def __post_init__(self):
        if min(self.n_x, self.n_y, self.m_tot) < 1:
            raise ValueError("element counts must be >= 1")
        if min(self.d_tx, self.d_ty, self.d_r) <= 0:
            raise ValueError("element spacings must be positive")
        if self.polarization_mode not in ("co", "cross"):
            raise ValueError(f"unknown polarization_mode {self.polarization_mode!r}")

    @property
    def pols(self) -> tuple[str, ...]:
        """Polarization labels, vertical first: ("v", "h") in cross mode."""
        return ("v", "h") if self.polarization_mode == "cross" else ("v",)

    @property
    def n_tx(self) -> int:
        """Per-polarization transmit element count."""
        return self.n_x * self.n_y

    @property
    def n_tot(self) -> int:
        """Total transmit elements across polarizations."""
        return self.n_tx * (2 if self.polarization_mode == "cross" else 1)

    @property
    def m_full(self) -> int:
        """Total receive elements across polarizations."""
        return self.m_tot * (2 if self.polarization_mode == "cross" else 1)


@dataclass(frozen=True)
class AngleSet:
    """Path angles in radians: elevation AoD theta, azimuth AoD phi, AoA psi."""

    theta: float
    phi: float
    psi: float

    def __post_init__(self):
        if not (-np.pi / 2 <= self.theta <= np.pi / 2):
            raise ValueError("theta out of [-pi/2, pi/2]")
        if not (-np.pi <= self.phi <= np.pi):
            raise ValueError("phi out of [-pi, pi]")
        if not (-np.pi / 2 <= self.psi <= np.pi / 2):
            raise ValueError("psi out of [-pi/2, pi/2]")

    def __iter__(self):
        """Unpacks as the triple (theta, phi, psi)."""
        return iter((self.theta, self.phi, self.psi))


@dataclass(frozen=True)
class SpatialFrequencies:
    """Per-element phase progressions (radians/element)."""

    mu_x: float
    mu_y: float
    nu: float


def spatial_frequencies(angles, cfg: ArrayConfig) -> SpatialFrequencies:
    """Map physical angles to spatial frequencies for the configured spacings.
    `angles` is an AngleSet, or a (theta, phi, psi) triple of equal-length
    1-D arrays, which gives arrays, one entry per direction."""
    theta, phi, psi = angles
    st = np.sin(theta)
    return SpatialFrequencies(
        mu_x=2 * np.pi * cfg.d_tx * st * np.cos(phi),
        mu_y=2 * np.pi * cfg.d_ty * st * np.sin(phi),
        nu=2 * np.pi * cfg.d_r * np.sin(psi),
    )


def ula_steering(nu, m: int) -> np.ndarray:
    """Unit-norm ULA steering vector, entry i = exp(j*i*nu)/sqrt(m). A 1-D
    array of nu gives an (m, len(nu)) matrix, one column per value."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.exp(np.multiply.outer(np.arange(m), 1j * nu)) / np.sqrt(m)


def upa_steering(mu_x, mu_y, n_x: int, n_y: int) -> np.ndarray:
    """Unit-norm UPA steering vector: Kronecker product of the x (elevation)
    and y (azimuth) ULA factors, length n_x*n_y. Equal-length 1-D arrays of
    (mu_x, mu_y) give an (n_x*n_y, len) matrix, one column per pair."""
    a = ula_steering(mu_x, n_x)[:, None] * ula_steering(mu_y, n_y)[None, :]
    return a.reshape((n_x * n_y,) + a.shape[2:])


def _angles(mu_x, mu_y, cfg: ArrayConfig):
    """(theta, phi, rad) of (mu_x, mu_y), as in
    angles_from_spatial_frequencies but without raising. rad is the radial
    sine, 0 only at the direction (0, 0), whose azimuth is undefined (there
    theta is 0 and phi means nothing)."""
    sx = mu_x / (2 * np.pi * cfg.d_tx)
    sy = mu_y / (2 * np.pi * cfg.d_ty)
    rad = np.hypot(sx, sy)
    theta = np.arcsin(np.fmin(1.0, rad))  # fmin, as min(1.0, .): NaN gives 1
    return theta, np.arctan2(sy, sx), rad


def angles_from_spatial_frequencies(mu_x, mu_y, cfg: ArrayConfig):
    """Invert (mu_x, mu_y) to (theta, phi); equal-length 1-D arrays give
    arrays, floats give floats.

    phi uses the quadrant-aware arctangent; theta uses the radial form
    arcsin(|(mu_x/2pi d_tx, mu_y/2pi d_ty)|) with the argument clamped so
    noise-perturbed inputs just outside the visible region stay legal. The
    returned theta is nonnegative; directions with negative elevation map to
    the equivalent (|theta|, phi + pi) parameterization.
    """
    theta, phi, rad = _angles(mu_x, mu_y, cfg)
    if np.count_nonzero(rad) < rad.size:
        raise DegenerateDirection("azimuth undefined at mu_x = mu_y = 0")
    return (float(theta), float(phi)) if theta.ndim == 0 else (theta, phi)


def aoa_from_nu(nu, cfg: ArrayConfig):
    """Invert a receive spatial frequency to the arrival angle psi; an array
    gives an array, a float a float."""
    psi = np.arcsin(np.minimum(np.maximum(nu / (2 * np.pi * cfg.d_r), -1.0), 1.0))
    return float(psi) if psi.ndim == 0 else psi
