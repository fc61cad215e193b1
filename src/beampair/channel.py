"""Wideband frequency-selective channel synthesis.

Co-polarized and cross-polarized multi-path models, the narrowband Rician
model, and a lightweight clustered generator. A realization is stored as its
path factors, H[k] = sum_l rho[k, l] u_l v_l^H, built from per-path arrays
of gains, delays and angles (explicit PathParams are one source of them);
every beamformed quantity W^H H[k] F is computed from those factors, and the
dense per-subcarrier tensor is built only when read, so tests can rebuild it
entry-wise from the defining formulas.
"""

from dataclasses import dataclass
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
        """Named bandwidth profiles: 'desk' (N=256, D=64), '125mhz' (N=512,
        D=64) and '250mhz' (N=1024, D=256)."""
        sizes = {"desk": (256, 64), "125mhz": (512, 64), "250mhz": (1024, 256)}
        if name not in sizes:
            raise ValueError(f"unknown OFDM profile {name!r}")
        return cls(*sizes[name])


@dataclass(frozen=True)
class CrossPolConfig:
    """chi is the reciprocal cross-polar discrimination (0 = no leakage),
    varsigma the polarization mismatch rotation in radians."""

    chi: float
    varsigma: float = 0.0

    def __post_init__(self):
        if not 0 <= self.chi < np.inf:  # NaN fails too
            raise InvalidChi("chi must be finite and >= 0")


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


def pulse_samples(tau, ofdm: OfdmConfig) -> np.ndarray:
    """Raised-cosine (rolloff 0.25) taps p(d*T_s - tau) for d = 0..D-1; an
    array of delays gives a (D, *shape) array, one column per delay."""
    rolloff = 0.25
    x = np.subtract.outer(np.arange(ofdm.cp_length) * ofdm.sample_period, tau) \
        / ofdm.sample_period
    num = np.sinc(x) * np.cos(np.pi * rolloff * x)
    den = 1.0 - (2.0 * rolloff * x) ** 2
    # limit value at the den = 0 points: (pi/4) * sinc(1/(2*rolloff))
    out = np.full_like(x, (np.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff)))
    return np.divide(num, den, out=out, where=np.abs(den) > 1e-10)


def pulse_coefficients(tau, ofdm: OfdmConfig) -> np.ndarray:
    """Per-subcarrier delay-tap coefficients rho_tau[k] for k = 0..N-1:
    sum over CP-window taps of p(d*T_s - tau) * exp(-j*2*pi*k*d/N), i.e. the
    length-N DFT of the zero-padded taps. An array of delays gives an
    (N, *shape) array, one column per delay."""
    return np.fft.fft(pulse_samples(tau, ofdm), n=ofdm.n_subcarriers, axis=0)


def _effective(g: np.ndarray, xp: CrossPolConfig) -> np.ndarray:
    """Effective gains [[vv, vh], [hv, hh]] of raw gains g (..., 2, 2) in the
    same layout: the power-imbalance mask [[1, rc], [rc, 1]] (rc =
    sqrt(chi)), then the polarization mismatch rotation of each row, then
    the power scaling q = sqrt(1 / (1 + chi))."""
    rc = np.sqrt(xp.chi)
    c, s = np.cos(xp.varsigma), np.sin(xp.varsigma)
    masked = g * np.array([[1.0, rc], [rc, 1.0]])
    left, right = masked[..., 0], masked[..., 1]
    rotated = np.stack([left * c + right * s, right * c - left * s], axis=-1)
    return np.sqrt(1.0 / (1.0 + xp.chi)) * rotated


@dataclass
class ChannelRealization:
    """Path-domain channel: H[k] = sum_l rho[k, l] u_l v_l^H.

    rho (N, L) holds the per-path delay-tap coefficients and u (L, M, q),
    v (L, N_t, q) the receive and transmit factors, M and N_t the full
    (cross-pol stacked) dimensions. Co-pol and narrowband paths have q = 1
    (u_l = g a_r, v_l = a_t); cross-pol paths have q = 2 (u_l = G_eff kron
    a_r, v_l = I_2 kron a_t), which places the vv/vh/hv/hh blocks in the
    top-left/top-right/bottom-left/bottom-right. dominant_angles holds the
    (theta, phi, psi) arrays (K,) of the paths that are the realization's
    ground truth, strongest first (empty for explicit paths). A stacked
    realization holds T trials' factors u (T, L, M, q) and v (T, L, N_t, q),
    over one rho (N, L) or per-trial taps rho (T, N, L), and any dominant
    angles as (T, K) arrays.
    """

    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dominant_angles: tuple
    # always None: each polarization block is a slice of h, not a copy
    blocks = None

    @property
    def shape(self) -> tuple[int, int, int]:
        """(N, M, N_t) of the dense tensor (per trial when stacked), without
        building it."""
        return self.rho.shape[-2], self.u.shape[-2], self.v.shape[-2]

    @cached_property
    def h(self) -> np.ndarray:
        """Dense (N, M, N_t) tensor ((T, N, M, N_t) when stacked), built on
        first read; the experiments never read it, the oracles and tests do."""
        per_path = self.u @ self.v.conj().swapaxes(-1, -2)
        *batch, n_paths, m, n_t = per_path.shape
        return (self.rho @ per_path.reshape(*batch, n_paths, m * n_t)).reshape(*batch, -1, m, n_t)

    def beamformed(self, w: np.ndarray, f: np.ndarray) -> np.ndarray:
        """W^H H[k] F for every subcarrier, (..., N, i, j), from per-path
        products: cost O(N L i j), not O(N M N_t j) on the dense tensor. Batch
        axes of w (..., M, i) and f (..., N_t, j), and a stacked realization's
        trial axis, broadcast as in matmul, bit for bit."""
        if (w.shape[-2], f.shape[-2]) != self.shape[1:]:
            raise DimensionMismatch(
                f"beamformers {w.shape}, {f.shape} do not match the channel {self.shape}")
        vf = _precoded(self.v, f)
        wu = np.swapaxes(w.conj(), -1, -2)[..., None, :, :] @ self.u
        per_path = wu @ vf
        *batch, n_paths, i, j = per_path.shape
        return (self.rho @ per_path.reshape(*batch, n_paths, i * j)).reshape(*batch, -1, i, j)


def _precoded(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V^H F per path, (..., L, q, j), of transmit factors v (..., L, N_t, q)
    and precoders f (..., N_t, j), batch axes broadcasting as in matmul."""
    return v.conj().swapaxes(-1, -2) @ f[..., None, :, :]


@dataclass(frozen=True)
class SteeredPaths:
    """A realization less its receive factors u: the delay taps rho, the
    raw gains g ((..., L) co-pol, (..., L, 2, 2) cross-pol), the receive
    steering a_r (..., L, M), the transmit factors v and the dominant angles,
    as in ChannelRealization. None of them reads chi or varsigma, so the
    points of a sweep over those share one SteeredPaths and differ only in
    realization(xp)."""

    rho: np.ndarray
    g: np.ndarray
    a_r: np.ndarray
    v: np.ndarray
    dominant_angles: tuple

    def realization(self, xp) -> ChannelRealization:
        """The realization under cross-pol settings xp (anything with chi and
        varsigma: a CrossPolConfig or a ClusterProfile); co-pol paths (q = 1)
        take their gains as they are and ignore xp."""
        if self.v.shape[-1] == 1:
            u = (self.g[..., None] * self.a_r)[..., None]
        else:
            e = _effective(self.g, xp)
            u = (e[..., None, :] * self.a_r[..., None, :, None]).reshape(*self.g.shape[:-2], -1, 2)
        return ChannelRealization(self.rho, u, self.v, self.dominant_angles)


def _steered(rho: np.ndarray, angles, g: np.ndarray, arrays: ArrayConfig, cross: bool,
             dominant=slice(0)) -> SteeredPaths:
    """Steered paths of L paths from their delay-tap columns rho (N, L), their
    angles ((L,) arrays theta, phi, psi) and raw gains g, with one steering
    call per side for all paths: co-pol transmit factors, or cross-pol ones
    (I_2 kron a_t) when `cross`. `dominant` indexes the paths whose angles
    are the ground truth (none by default). Angles and gains with leading
    axes (T, L) give the paths of T stacked trials, and so do per-trial
    delay taps rho (T, N, L); `dominant` then indexes the flattened,
    trial-major paths."""
    sf = spatial_frequencies(angles, arrays)
    lead = np.shape(sf.nu)  # (L,), or (T, L) stacked
    a_r = ula_steering(sf.nu.ravel(), arrays.m_tot).T.reshape(*lead, arrays.m_tot)
    a_t = upa_steering(sf.mu_x.ravel(), sf.mu_y.ravel(), arrays.n_x,
                       arrays.n_y).T.reshape(*lead, arrays.n_tx)
    if cross:
        v = (np.eye(2)[:, None, :] * a_t[..., None, :, None]).reshape(*lead, -1, 2)
    else:
        v = a_t[..., None]
    return SteeredPaths(rho, g, a_r, v, tuple(np.ravel(a)[dominant] for a in angles))


def _realization(rho: np.ndarray, angles, g: np.ndarray, arrays: ArrayConfig,
                 xp: CrossPolConfig | None = None, dominant=slice(0)) -> ChannelRealization:
    """Realization of paths as in _steered: co-pol when xp is None (g holds
    the (L,) vv gains), cross-pol with the effective gains of the raw
    (L, 2, 2) g otherwise."""
    return _steered(rho, angles, g, arrays, xp is not None, dominant).realization(xp)


def _from_paths(paths: list[PathParams], arrays: ArrayConfig, ofdm: OfdmConfig,
                xp: CrossPolConfig | None = None) -> ChannelRealization:
    """Realization of explicit paths: one delay-tap column per distinct
    delay, shared by the paths at that delay."""
    paths = list(paths)
    angles = np.array([tuple(p.angles) for p in paths]).T
    if xp is None:
        g = np.array([p.g_vv for p in paths], dtype=complex)
    else:
        g = np.array([[[p.g_vv, p.g_vh], [p.g_hv, p.g_hh]] for p in paths], dtype=complex)
    taus, col = np.unique([p.tau for p in paths], return_inverse=True)
    rho = np.take(pulse_coefficients(taus, ofdm), col, axis=1)
    return _realization(rho, angles, g, arrays, xp)


def copol_frequency_response(paths: list[PathParams], arrays: ArrayConfig,
                             ofdm: OfdmConfig) -> ChannelRealization:
    """H[k] = sum_r g_r * rho_{tau_r}[k] * a_r(psi_r) a_t*(theta_r, phi_r)."""
    if arrays.polarization_mode != "co":
        raise DimensionMismatch("co-polarized arrays required")
    return _from_paths(paths, arrays, ofdm)


def crosspol_frequency_response(paths: list[PathParams], arrays: ArrayConfig,
                                ofdm: OfdmConfig, xp: CrossPolConfig) -> ChannelRealization:
    """Cross-polarized model: per-block responses H^ab[k] built from the
    effective gains, stacked into the full 2m x 2n matrix."""
    if arrays.polarization_mode != "cross":
        raise DimensionMismatch("cross-polarized arrays required")
    return _from_paths(paths, arrays, ofdm, xp)


def crosspol_direct(paths: list[PathParams], arrays: ArrayConfig, ofdm: OfdmConfig,
                    xp: CrossPolConfig) -> np.ndarray:
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
        rho = pulse_coefficients(path.tau, ofdm)
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


def _rician_draws(rng: np.random.Generator, n_nlos: int) -> tuple[float, np.ndarray]:
    """A Rician realization's draws: the LOS phase (a fraction of a turn),
    then per NLOS path the gain's real and imaginary parts and the uniform
    fractions of its mu_x, mu_y and nu ranges, as an (n_nlos, 5) array."""
    phase = rng.random()
    draws = np.empty((n_nlos, 5))
    for row in draws:
        rng.standard_normal(out=row[:2])
        rng.random(out=row[2:])
    return phase, draws


def _rician_paths(arrays: ArrayConfig, los_angles, phase, draws: np.ndarray,
                  k_factor_db: float, nlos_mu_ranges: dict | None):
    """Gains (..., L) and (theta, phi, psi) arrays (..., L) of Rician
    realizations from their draws (see _rician_draws), the LOS path first.
    Leading axes of the LOS angles, the phase and the draws are trial axes."""
    kf = 10.0 ** (k_factor_db / 10.0)
    w_los = np.sqrt(kf / (1.0 + kf))
    w_nlos = np.sqrt(1.0 / (1.0 + kf))
    n_nlos = draws.shape[-2]
    ranges = nlos_mu_ranges or {}
    lo, hi = np.array([ranges.get(key, (-np.pi / 2, np.pi / 2))
                       for key in ("mu_x", "mu_y", "nu")]).T
    # uniform(lo, hi) draws are lo + (hi - lo) * random()
    nlos = _visible(*np.moveaxis(lo + (hi - lo) * draws[..., 2:], -1, 0), arrays)
    g = np.concatenate([(w_los * np.exp(2j * np.pi * np.asarray(phase)))[..., None],
                        w_nlos * (draws[..., 0] + 1j * draws[..., 1])
                        / np.sqrt(2 * max(n_nlos, 1))], axis=-1)
    angles = [np.concatenate([np.asarray(a)[..., None], b], axis=-1)
              for a, b in zip(los_angles, nlos)]
    return g, angles


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
    phase, draws = _rician_draws(rng, n_nlos)
    g, angles = _rician_paths(arrays, tuple(los_angles), phase, draws, k_factor_db,
                              nlos_mu_ranges)
    return _realization(np.ones((1, len(g))), angles, g, arrays,
                        dominant=slice(1))  # the LOS path


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
        CrossPolConfig(self.chi, self.varsigma)  # InvalidChi for a bad chi


def _clustered_draws(profile: ClusterProfile, rng: np.random.Generator):
    """A clustered realization's draws, in order: the exponential delays of
    every cluster but the first, then per cluster the uniform fractions of
    the (mu_x, mu_y, nu) sector centers, the (mu_x, mu_y, nu) x subpath
    Laplacian offsets, the exponential subpath powers and per subpath the
    real and imaginary parts of g_vv, g_vh, g_hv, g_hh. Returned as arrays
    (nc - 1,), (nc, 3), (nc, ns, 3) (the offsets subpath-major),
    (nc, ns) and (nc, ns, 8)."""
    delays = rng.exponential(profile.delay_spread, size=profile.n_clusters - 1)
    ns = profile.subpaths_per_cluster
    draws = [(rng.random(3), rng.laplace(0.0, profile.angle_spread, size=(3, ns)).T,
              rng.exponential(1.0, size=ns), rng.normal(size=(ns, 8)))
             for _ in range(profile.n_clusters)]
    return (delays, *(np.array(d) for d in zip(*draws)))


def _clustered_paths(profile: ClusterProfile, draws, arrays: ArrayConfig, ofdm: OfdmConfig):
    """Clustered realizations' path parameters from their draws (see
    _clustered_draws), in one array pass: the raw gains (..., L, 4) in (vv,
    vh, hv, hh) order, the sorted cluster delays (..., n_clusters), the
    (theta, phi, psi) arrays (..., L) and the index of each cluster's
    strongest subpath (..., n_clusters), L = clusters x subpaths, cluster by
    cluster. A leading axis of the draws is a trial axis; the indices then
    count the flattened, trial-major paths (trial t's from t * L)."""
    delay_draws, unit, offsets, sub_p, parts = draws
    lead, ns = delay_draws.shape[:-1], profile.subpaths_per_cluster
    delays = np.zeros((*lead, profile.n_clusters))  # the first cluster at zero delay
    delays[..., 1:] = delay_draws
    delays.sort(axis=-1)
    max_delay = (ofdm.cp_length - 1) * ofdm.sample_period
    delays = np.minimum(delays, 0.9 * max_delay)
    powers = np.exp(-delays / max(profile.delay_spread, 1e-12))
    powers = powers / powers.sum(axis=-1, keepdims=True)

    lo, hi = np.array([profile.mu_x_range, profile.mu_y_range, profile.nu_range]).T
    # uniform(lo, hi) draws are lo + (hi - lo) * random()
    mus = (lo + (hi - lo) * unit)[..., None, :] + offsets  # (..., nc, ns, 3)
    mus = np.minimum(np.maximum(mus, lo), hi).reshape(*lead, -1, 3)
    angles = _visible(mus[..., 0], mus[..., 1], mus[..., 2], arrays)

    amp = np.sqrt(powers[..., None] * sub_p / sub_p.sum(axis=-1, keepdims=True))
    g = amp.reshape(*lead, -1, 1) \
        * (parts[..., 0::2] + 1j * parts[..., 1::2]).reshape(*lead, -1, 4) / np.sqrt(2)
    power = np.abs(g) ** 2
    strength = power[..., 0] + power[..., 1] + power[..., 2] + power[..., 3]
    # sorted delays make the clusters' powers non-increasing, so clusters
    # are already in decreasing-power order
    best = strength.reshape(-1, ns).argmax(axis=-1) + ns * np.arange(strength.size // ns)
    return g, delays, angles, best.reshape(delays.shape)


def _clustered_steered(profile: ClusterProfile, draws, arrays: ArrayConfig,
                       ofdm: OfdmConfig) -> SteeredPaths:
    """Steered paths of clustered draws (see _clustered_draws): one trial's,
    or T trials' stacked on a leading axis, with per-trial delay taps rho
    (T, N, L). All delays share one pulse_coefficients call, and each side
    one steering call. The profile's chi and varsigma are not read."""
    g, delays, angles, best = _clustered_paths(profile, draws, arrays, ofdm)
    # one delay-tap column per cluster, shared by its subpaths; the taps
    # (N, T, nc) of stacked trials are read as (T, N, nc), and with one
    # subpath per cluster they are rho as they are, without a copy
    taps = pulse_coefficients(delays, ofdm).swapaxes(0, -2)
    ns = profile.subpaths_per_cluster
    rho = taps if ns == 1 else np.repeat(taps, ns, axis=-1)
    cross = arrays.polarization_mode == "cross"
    g = g.reshape(*g.shape[:-1], 2, 2) if cross else g[..., 0]
    return _steered(rho, angles, g, arrays, cross, dominant=best)


def _clustered_realization(profile: ClusterProfile, draws, arrays: ArrayConfig,
                           ofdm: OfdmConfig) -> ChannelRealization:
    """Realization of clustered draws (see _clustered_steered) under the
    profile's chi and varsigma."""
    return _clustered_steered(profile, draws, arrays, ofdm).realization(profile)


def clustered_channel_generate(profile: ClusterProfile, rng: np.random.Generator,
                               arrays: ArrayConfig, ofdm: OfdmConfig) -> ChannelRealization:
    """Draw a clustered realization: exponential cluster delays (first
    cluster at zero delay), exponential power-delay profile, cluster centers
    uniform over the configured sectors, Laplacian subpath offsets, complex
    Gaussian subpath gains. Total mean path power is normalized to 1. The
    strongest subpath of each cluster is that cluster's ground truth. Co-pol
    arrays see the vv gains only."""
    return _clustered_realization(profile, _clustered_draws(profile, rng), arrays, ofdm)
