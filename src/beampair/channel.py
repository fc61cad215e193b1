"""Wideband frequency-selective channel synthesis.

Co-polarized and cross-polarized multi-path models, the narrowband Rician
model, and a lightweight clustered generator. A realization is stored as its
path factors, H[k] = sum_l rho[k, l] u_l v_l^H, built from explicit path
parameters; every beamformed quantity W^H H[k] F is computed from those
factors, and the dense per-subcarrier tensor is built only when read, so
tests can rebuild it entry-wise from the defining formulas.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (AngleSet, ArrayConfig, angles_from_spatial_frequencies,
                       aoa_from_nu, spatial_frequencies, ula_steering, upa_steering)


class DimensionMismatch(ValueError):
    pass


class InvalidChi(ValueError):
    pass


class EmptyProfile(ValueError):
    pass


@dataclass(frozen=True)
class OfdmConfig:
    n_subcarriers: int
    cp_length: int
    subcarrier_spacing: float = 270e3

    def __post_init__(self):
        if self.cp_length >= self.n_subcarriers:
            raise ValueError("cp_length must be < n_subcarriers")

    @property
    def sample_period(self) -> float:
        return 1.0 / (self.n_subcarriers * self.subcarrier_spacing)

    @classmethod
    def profile(cls, name: str) -> "OfdmConfig":
        """Named bandwidth profiles: '125mhz' (N=512, D=64) and
        '250mhz' (N=1024, D=256)."""
        if name == "125mhz":
            return cls(512, 64)
        if name == "250mhz":
            return cls(1024, 256)
        raise ValueError(f"unknown OFDM profile {name!r}")


@dataclass(frozen=True)
class CrossPolConfig:
    """chi is the reciprocal cross-polar discrimination (0 = no leakage),
    varsigma the polarization mismatch rotation in radians."""

    chi: float
    varsigma: float = 0.0

    def __post_init__(self):
        if self.chi < 0:
            raise InvalidChi("chi must be >= 0")


@dataclass(frozen=True)
class PathParams:
    g_vv: complex
    g_vh: complex
    g_hv: complex
    g_hh: complex
    tau: float
    angles: AngleSet

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.g_vv == 0 and self.g_vh == 0 and self.g_hv == 0 and self.g_hh == 0:
            raise ValueError("at least one gain must be nonzero")

    @classmethod
    def single_pol(cls, g: complex, tau: float, angles: AngleSet) -> "PathParams":
        """Co-polarized path: one scalar gain."""
        return cls(g, 0.0, 0.0, 0.0, tau, angles)


def _raised_cosine(t: np.ndarray, t_s: float, rolloff: float = 0.25) -> np.ndarray:
    x = t / t_s
    num = np.sinc(x) * np.cos(np.pi * rolloff * x)
    den = 1.0 - (2.0 * rolloff * x) ** 2
    # limit value at the den = 0 points: (pi/4) * sinc(1/(2*rolloff))
    out = np.full_like(x, (np.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff)))
    return np.divide(num, den, out=out, where=np.abs(den) > 1e-10)


def pulse_samples(tau, ofdm: OfdmConfig, pulse: str = "raised-cosine") -> np.ndarray:
    """p(d*T_s - tau) for d = 0..D-1; a 1-D array of delays gives a
    (D, len) matrix, one column per delay."""
    t = np.subtract.outer(np.arange(ofdm.cp_length) * ofdm.sample_period, tau)
    if pulse == "unit-sample":
        return np.where(np.isclose(t, 0.0, atol=1e-15), 1.0, 0.0)
    if pulse == "raised-cosine":
        return _raised_cosine(t, ofdm.sample_period)
    raise ValueError(f"unknown pulse {pulse!r}")


def pulse_coefficients(tau, ofdm: OfdmConfig,
                       pulse: str = "raised-cosine") -> np.ndarray:
    """Per-subcarrier delay-tap coefficients rho_tau[k] for k = 0..N-1:
    sum over CP-window taps of p(d*T_s - tau) * exp(-j*2*pi*k*d/N), i.e. the
    length-N DFT of the zero-padded taps. A 1-D array of delays gives an
    (N, len) matrix, one column per delay."""
    return np.fft.fft(pulse_samples(tau, ofdm, pulse), n=ofdm.n_subcarriers, axis=0)


def pulse_coefficient(tau: float, k: int, ofdm: OfdmConfig,
                      pulse: str = "raised-cosine") -> complex:
    """Single-subcarrier convenience wrapper around pulse_coefficients."""
    if not 0 <= k < ofdm.n_subcarriers:
        raise ValueError("subcarrier index out of range")
    return complex(pulse_coefficients(tau, ofdm, pulse)[k])


def _effective(g: np.ndarray, xp: CrossPolConfig) -> np.ndarray:
    """Effective gains [[vv, vh], [hv, hh]] of raw gains g (L, 2, 2) in the
    same layout: the power-imbalance mask [[1, rc], [rc, 1]] (rc =
    sqrt(chi)), then the polarization mismatch rotation of each row, then
    the power scaling q = sqrt(1 / (1 + chi))."""
    rc = np.sqrt(xp.chi)
    c, s = np.cos(xp.varsigma), np.sin(xp.varsigma)
    masked = g * np.array([[1.0, rc], [rc, 1.0]])
    left, right = masked[..., 0], masked[..., 1]
    rotated = np.stack([left * c + right * s, right * c - left * s], axis=-1)
    return np.sqrt(1.0 / (1.0 + xp.chi)) * rotated


def effective_gains(path: PathParams, xp: CrossPolConfig) -> dict[str, complex]:
    """Per-block path gains after the power-imbalance scaling and the
    polarization mismatch rotation are folded in."""
    g = np.array([[[path.g_vv, path.g_vh], [path.g_hv, path.g_hh]]], dtype=complex)
    return dict(zip(("vv", "vh", "hv", "hh"), _effective(g, xp).ravel().tolist()))


@dataclass
class ChannelRealization:
    """Path-domain channel plus the generating path parameters.

    H[k] = sum_l rho[k, l] u_l v_l^H, with rho (N, L) the per-path delay-tap
    coefficients and u (L, M, q), v (L, N_t, q) the receive and transmit
    factors, M and N_t the full (cross-pol stacked) dimensions. Co-pol and
    narrowband paths have q = 1 (u_l = g a_r, v_l = a_t); cross-pol paths
    have q = 2 (u_l = G_eff kron a_r, v_l = I_2 kron a_t), which places the
    vv/vh/hv/hh blocks in the top-left/top-right/bottom-left/bottom-right.
    """

    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    paths: list[PathParams]
    arrays: ArrayConfig
    ofdm: OfdmConfig | None = None
    crosspol: CrossPolConfig | None = None
    pulse: str = "raised-cosine"
    dominant_angles: list[AngleSet] = field(default_factory=list)
    # always None: each polarization block is a slice of h, not a copy
    blocks = None

    @property
    def shape(self) -> tuple[int, int, int]:
        """(N, M, N_t) of the dense tensor, without building it."""
        return self.rho.shape[0], self.u.shape[1], self.v.shape[1]

    @cached_property
    def h(self) -> np.ndarray:
        """Dense (N, M, N_t) tensor, built on first read; the experiments
        never read it, the oracles and tests do."""
        return np.tensordot(self.rho, self.u @ self.v.conj().transpose(0, 2, 1), axes=1)

    def beamformed(self, w: np.ndarray, f: np.ndarray) -> np.ndarray:
        """W^H H[k] F for every subcarrier, (N, i, j), from per-path products:
        cost O(N L i j) instead of O(N M N_t j) on the dense tensor."""
        if w.shape[0] != self.u.shape[1] or f.shape[0] != self.v.shape[1]:
            raise DimensionMismatch(
                f"beamformers {w.shape}, {f.shape} do not match the channel {self.shape}")
        per_path = (w.conj().T @ self.u) @ (self.v.conj().transpose(0, 2, 1) @ f)
        n_paths, i, j = per_path.shape
        return (self.rho @ per_path.reshape(n_paths, i * j)).reshape(-1, i, j)


def _realization(rho: np.ndarray, angles, g: np.ndarray, paths: list[PathParams],
                 arrays: ArrayConfig, xp: CrossPolConfig | None = None,
                 **meta) -> ChannelRealization:
    """Realization of L paths from their delay-tap columns rho (N, L), their
    angles ((L,) arrays theta, phi, psi) and gains, with one steering call
    per side for all paths: co-pol when xp is None (g holds the (L,) vv
    gains), cross-pol with the effective gains of the raw (L, 2, 2) g
    otherwise."""
    sf = spatial_frequencies(angles, arrays)
    a_r = ula_steering(sf.nu, arrays.m_tot).T  # (L, m)
    a_t = upa_steering(sf.mu_x, sf.mu_y, arrays.n_x, arrays.n_y).T  # (L, n)
    if xp is None:
        u, v = (g[:, None] * a_r)[:, :, None], a_t[:, :, None]
    else:
        n_paths, e = len(g), _effective(g, xp)
        u = (e[:, :, None, :] * a_r[:, None, :, None]).reshape(n_paths, -1, 2)
        v = (np.eye(2)[None, :, None, :] * a_t[:, None, :, None]).reshape(n_paths, -1, 2)
    return ChannelRealization(rho, u, v, paths, arrays, crosspol=xp, **meta)


def _from_paths(paths: list[PathParams], arrays: ArrayConfig, ofdm: OfdmConfig | None,
                pulse: str, xp: CrossPolConfig | None = None) -> ChannelRealization:
    """Realization of explicit paths; narrowband (a single subcarrier of
    unit taps) when ofdm is None, else one delay-tap column per distinct
    delay, shared by the paths at that delay."""
    paths = list(paths)
    angles = np.array([tuple(p.angles) for p in paths]).T
    if xp is None:
        g = np.array([p.g_vv for p in paths], dtype=complex)
    else:
        g = np.array([[[p.g_vv, p.g_vh], [p.g_hv, p.g_hh]] for p in paths], dtype=complex)
    if ofdm is None:
        return _realization(np.ones((1, len(paths))), angles, g, paths, arrays, xp)
    taus, col = np.unique([p.tau for p in paths], return_inverse=True)
    rho = np.take(pulse_coefficients(taus, ofdm, pulse), col, axis=1)
    return _realization(rho, angles, g, paths, arrays, xp, ofdm=ofdm, pulse=pulse)


def copol_frequency_response(paths: list[PathParams], arrays: ArrayConfig,
                             ofdm: OfdmConfig, pulse: str = "raised-cosine") -> ChannelRealization:
    """H[k] = sum_r g_r * rho_{tau_r}[k] * a_r(psi_r) a_t*(theta_r, phi_r)."""
    if arrays.polarization_mode != "co":
        raise DimensionMismatch("co-polarized arrays required")
    return _from_paths(paths, arrays, ofdm, pulse)


def crosspol_frequency_response(paths: list[PathParams], arrays: ArrayConfig,
                                ofdm: OfdmConfig, xp: CrossPolConfig,
                                pulse: str = "raised-cosine") -> ChannelRealization:
    """Cross-polarized model: per-block responses H^ab[k] built from the
    effective gains, stacked into the full 2m x 2n matrix."""
    if arrays.polarization_mode != "cross":
        raise DimensionMismatch("cross-polarized arrays required")
    return _from_paths(paths, arrays, ofdm, pulse, xp)


def crosspol_direct(paths: list[PathParams], arrays: ArrayConfig, ofdm: OfdmConfig,
                    xp: CrossPolConfig, pulse: str = "raised-cosine") -> np.ndarray:
    """Reference construction of the cross-pol model as written: Hadamard
    product with the imbalance mask, Kronecker gain expansion, and the
    mismatch rotation applied on the right. Kept as an oracle for tests."""
    m, nt = arrays.m_tot, arrays.n_tx
    q = np.sqrt(1.0 / (1.0 + xp.chi))
    rc = np.sqrt(xp.chi)
    x_mask = np.kron(np.array([[1.0, rc], [rc, 1.0]]), np.ones((m, nt))) * q
    c, s = np.cos(xp.varsigma), np.sin(xp.varsigma)
    r_givens = np.kron(np.array([[c, -s], [s, c]]), np.eye(nt))
    n = ofdm.n_subcarriers
    h = np.zeros((n, 2 * m, 2 * nt), dtype=complex)
    for path in paths:
        rho = pulse_coefficients(path.tau, ofdm, pulse)
        sf = spatial_frequencies(path.angles, arrays)
        outer = np.outer(ula_steering(sf.nu, m),
                         upa_steering(sf.mu_x, sf.mu_y, arrays.n_x, arrays.n_y).conj())
        gains = np.array([[path.g_vv, path.g_vh], [path.g_hv, path.g_hh]])
        core = (x_mask * np.kron(gains, outer)) @ r_givens
        h += rho[:, None, None] * core[None, :, :]
    return h


def _visible(mu_x: np.ndarray, mu_y: np.ndarray, nu: np.ndarray,
             arrays: ArrayConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, phi, psi) arrays of directions given in spatial frequencies,
    with each (mu_x, mu_y) outside the visible region pulled just inside it
    along its own direction."""
    rad = np.hypot(mu_x / (2 * np.pi * arrays.d_tx), mu_y / (2 * np.pi * arrays.d_ty))
    scl = np.where(rad >= 1.0, 0.999 / np.maximum(rad, 1.0), 1.0)  # x * 1.0 is exact
    return (*angles_from_spatial_frequencies(mu_x * scl, mu_y * scl, arrays),
            aoa_from_nu(nu, arrays))


def _angle_sets(theta: np.ndarray, phi: np.ndarray, psi: np.ndarray) -> list[AngleSet]:
    """One AngleSet of floats per entry."""
    return [AngleSet(*a) for a in zip(theta.tolist(), phi.tolist(), psi.tolist())]


def rician_narrowband(arrays: ArrayConfig, los_angles: AngleSet,
                      k_factor_db: float = 13.2, n_nlos: int = 5,
                      rng: np.random.Generator | None = None,
                      nlos_mu_ranges: dict[str, tuple[float, float]] | None = None
                      ) -> ChannelRealization:
    """Narrowband Rician model: deterministic-magnitude LOS term plus n_nlos
    Rayleigh terms, weighted so the K-factor sets the LOS power share and the
    total mean power is 1. Returned realization has a single subcarrier."""
    if n_nlos < 0:
        raise ValueError("n_nlos must be >= 0")
    rng = np.random.default_rng() if rng is None else rng
    kf = 10.0 ** (k_factor_db / 10.0)
    w_los = np.sqrt(kf / (1.0 + kf))
    w_nlos = np.sqrt(1.0 / (1.0 + kf))

    g_los = w_los * np.exp(2j * np.pi * rng.random())
    ranges = nlos_mu_ranges or {}
    lo, hi = np.array([ranges.get(key, (-np.pi / 2, np.pi / 2))
                       for key in ("mu_x", "mu_y", "nu")]).T[:, :, None]
    # per path: the gain's real and imaginary parts, then mu_x, mu_y and nu,
    # uniform(lo, hi) draws being lo + (hi - lo) * random()
    draws = np.array([(rng.normal(), rng.normal(), rng.random(), rng.random(), rng.random())
                      for _ in range(n_nlos)]).reshape(n_nlos, 5).T
    g = np.concatenate([[g_los], w_nlos * (draws[0] + 1j * draws[1])
                        / np.sqrt(2 * max(n_nlos, 1))])
    nlos = _visible(*(lo + (hi - lo) * draws[2:]), arrays)
    paths = [PathParams.single_pol(gain, 0.0, ang)
             for gain, ang in zip(g.tolist(), [los_angles, *_angle_sets(*nlos)])]
    angles = [np.concatenate([[a], b]) for a, b in zip(los_angles, nlos)]
    return _realization(np.ones((1, len(paths))), angles, g, paths, arrays,
                        dominant_angles=[los_angles])


@dataclass(frozen=True)
class ClusterProfile:
    """Clustered multi-path generator settings. Angular quantities are in
    spatial-frequency radians; sectors are (low, high) mu intervals."""

    n_clusters: int = 3
    subpaths_per_cluster: int = 4
    delay_spread: float = 30e-9
    angle_spread: float = 0.02
    mu_x_range: tuple[float, float] = (-np.pi / 4, np.pi / 4)
    mu_y_range: tuple[float, float] = (-np.pi / 3, np.pi / 3)
    nu_range: tuple[float, float] = (-np.pi / 2, np.pi / 2)
    chi: float = 0.2
    varsigma: float = np.radians(20.0)

    def __post_init__(self):
        if self.n_clusters < 1 or self.subpaths_per_cluster < 1:
            raise EmptyProfile("n_clusters and subpaths_per_cluster must be >= 1")
        CrossPolConfig(self.chi, self.varsigma)  # InvalidChi for chi < 0


def clustered_channel_generate(profile: ClusterProfile, rng: np.random.Generator,
                               arrays: ArrayConfig, ofdm: OfdmConfig,
                               pulse: str = "raised-cosine") -> ChannelRealization:
    """Draw a clustered realization: exponential cluster delays (first cluster
    at zero delay), exponential power-delay profile, cluster centers uniform
    over the configured sectors, Laplacian subpath offsets, complex Gaussian
    subpath gains. Total mean path power is normalized to 1. The strongest
    subpath of each cluster is recorded as that cluster's ground truth.

    Draws per cluster: the (mu_x, mu_y, nu) sector centers, the (mu_x, mu_y,
    nu) x subpath offsets, the subpath powers, then per subpath the real and
    imaginary parts of g_vv, g_vh, g_hv, g_hh. Everything after the draws is
    one array pass over all L = clusters x subpaths paths."""
    nc, ns = profile.n_clusters, profile.subpaths_per_cluster
    delays = np.zeros(nc)  # the first cluster at zero delay
    delays[1:] = rng.exponential(profile.delay_spread, size=nc - 1)
    delays.sort()
    max_delay = (ofdm.cp_length - 1) * ofdm.sample_period
    delays = np.minimum(delays, 0.9 * max_delay)
    powers = np.exp(-delays / max(profile.delay_spread, 1e-12))
    powers = powers / powers.sum()

    lo, hi = np.array([profile.mu_x_range, profile.mu_y_range, profile.nu_range]).T
    draws = [(rng.random(3), rng.laplace(0.0, profile.angle_spread, size=(3, ns)),
              rng.exponential(1.0, size=ns), rng.normal(size=(ns, 8)))
             for _ in range(nc)]
    unit, offsets, sub_p, parts = (np.array(d) for d in zip(*draws))
    # uniform(lo, hi) draws are lo + (hi - lo) * random()
    mus = (lo + (hi - lo) * unit)[:, :, None] + offsets  # (nc, 3, ns)
    mus = np.minimum(np.maximum(mus, lo[:, None]), hi[:, None])
    theta, phi, psi = _visible(*mus.transpose(1, 0, 2).reshape(3, -1), arrays)

    amp = np.sqrt(powers[:, None] * sub_p / sub_p.sum(axis=1, keepdims=True))
    g = amp.reshape(-1, 1) * (parts[..., 0::2] + 1j * parts[..., 1::2]).reshape(-1, 4) \
        / np.sqrt(2)
    power = np.abs(g) ** 2
    strength = power[:, 0] + power[:, 1] + power[:, 2] + power[:, 3]
    angle_sets = _angle_sets(theta, phi, psi)
    paths = [PathParams(*gains, tau, ang) for gains, tau, ang in
             zip(g.tolist(), np.repeat(delays, ns).tolist(), angle_sets)]
    # sorted delays make the clusters' powers non-increasing, so clusters
    # are already in decreasing-power order
    best = strength.reshape(nc, ns).argmax(axis=1) + ns * np.arange(nc)
    dominant = [angle_sets[i] for i in best.tolist()]

    # one delay-tap column per cluster, shared by its subpaths
    rho = np.take(pulse_coefficients(delays, ofdm, pulse), np.repeat(np.arange(nc), ns),
                  axis=1)
    if arrays.polarization_mode == "cross":
        g, xp = g.reshape(-1, 2, 2), CrossPolConfig(profile.chi, profile.varsigma)
    else:
        g, xp = g[:, 0], None  # co-pol arrays see the vv gain only
    return _realization(rho, (theta, phi, psi), g, paths, arrays, xp,
                        ofdm=ofdm, pulse=pulse, dominant_angles=dominant)

