"""Experiment families: configuration, Monte-Carlo execution, CSV output.

Config files are flat key=value text with dotted section prefixes; unset
keys fall back to the evaluated defaults (half-power offsets, 120/90/180
degree sectors, K = 13.2 dB, chi = 0.2, mismatch 20 degrees, shift spacing
p = 6, roots 25/29/34, 3-bit differential quantizer).

Each family is a setup -> draw -> compute -> reduce declaration (Family)
run by one loop, which alone makes the per-trial RNG streams and walks the
trials in chunks (see CHUNK_SUBCARRIERS), each chunk at every point: a draw
step per trial on its own stream, then one compute step over the chunk.
Trial t of point i draws from the stream of
SeedSequence([master_seed, family_id, i, t]), state for state; the loop
seeds a chunk's streams in one array pass (see _trial_rngs). A robustness
family's chi or varsigma sweep is no point of the loop: its one compute
step per chunk evaluates every swept profile on the chunk's draws. Each
family declares the config fields it reads (Family.reads), and
setup_experiment rejects any other field that a config text wrote or that
differs from its default.
"""

import csv
import math
import os
import sys
from collections import namedtuple
from dataclasses import InitVar, dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channel import (ClusterProfile, OfdmConfig, _clustered_draws, _clustered_realization,
                      _clustered_steered, _realization, _rician_draws, _rician_paths)
from .codebook import (AXES, AxisBook, CodebookConfig, CodebookSet, InfeasibleCoverage,
                       ProbingPlan, build_codebooks, random_probing_plan)
from .estimator import (_abp_rows, _fill_angles, _gob_rows, _multipath_draws,
                        _multipath_probing, _noise_like, _sigma_from_gamma, _sweep,
                        _sweep_normals, estimate_multipath)
from .feedback import (quantize_differential, quantize_direct, reconstruct_differential,
                       reconstruct_direct, worst_case_error)
from .geometry import ArrayConfig, spatial_frequencies
from .metrics import (EmptyInput, OverheadModel, build_rf_beamformers, ci95,
                      maee, normalized_spectral_efficiency, spectral_efficiency)
from .pilot import (COPRIME_WITH, assign_pilots, correlate_zero_lag,
                    zc_sequence)

EXPERIMENTS = ("maee_vs_snr", "maqe_bits", "pilot_correlation", "pilot_vs_tdm",
               "norm_se_vs_snr", "robustness_mismatch", "robustness_xpd")

# Family ids in the per-trial RNG streams. Fixed here, not derived from the
# position in EXPERIMENTS, so adding or reordering families moves no stream.
FAMILY_IDS = {"maee_vs_snr": 0, "maqe_bits": 1, "pilot_correlation": 2,
              "pilot_vs_tdm": 3, "norm_se_vs_snr": 4, "robustness_mismatch": 5,
              "robustness_xpd": 6}

ONE_SNR_FAMILIES = ("pilot_vs_tdm", "robustness_mismatch", "robustness_xpd")

# positional pairing of stream count with the probing totals used in the
# complexity accounting
STREAMS_TO_PROBINGS = {2: (20, 20), 3: (30, 25)}

# Trials per compute step: at most TRIAL_CHUNK, and at most CHUNK_SUBCARRIERS
# trial-subcarrier rows (trials x the subcarrier rows that a trial's arrays
# hold at once, see _chunk_trials). Larger chunks amortize more of the
# per-trial numpy dispatch, but a chunk's per-subcarrier arrays (noise, delay
# taps, pilot products) grow with trials x rows, so the second bound holds them
# near one size at any bandwidth: a pilot_vs_tdm trial holds N rows, so
# 4,096 / 512 = 8 trials at N = 512 and 4,096 / 1,024 = 4 at N = 1,024; a rate
# trial's probing, built once per chunk, stacks one tx probing's slot noise
# at a time, one N-row block per rx probing, to correlate it with the pilots
# (per profile it builds nothing per subcarrier), so 4,096 / (2 x 256) = 8 at
# the default probing; a narrowband family (one row) keeps TRIAL_CHUNK = 64.
# See README for the throughput and peak-memory trade-offs that set both
# values.
TRIAL_CHUNK = 64
CHUNK_SUBCARRIERS = 4096

# The largest quantizer.bits: maqe_bits' worst-case sweep holds 2^bits x 512
# + 1 points, some 130 MB at 12 bits and 4 times that per 2 bits more.
MAX_BITS = 12


class ConfigError(ValueError):
    pass


class ParseError(ValueError):
    pass


class IoError(OSError):
    pass


class StreamMismatch(RuntimeError):
    """The chunk seeding no longer reproduces numpy's SeedSequence streams."""


def parse_snr_grid(text: str) -> tuple:
    """'start:step:stop' inclusive, or a comma list, or a single value."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"snr grid {text!r} is not start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ParseError("snr grid step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + step * i for i in range(count))
    if "," in text:
        return tuple(float(p) for p in text.split(","))
    return (float(text),)


def _parse_pair(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"range {text!r} is not lo:hi")
    return (float(parts[0]), float(parts[1]))


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ParseError(f"{text!r} is not a boolean")


def _parse_ints(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def _key(section: str | None, parse, default=None):
    """A config field, read from key '<section>.<field name>' (the bare field
    name when section is None) and parsed from its text by `parse`."""
    return field(default=default, metadata={"section": section, "parse": parse})


@dataclass
class ExperimentConfig:
    experiment: str = _key(None, str, "maee_vs_snr")
    trials: int = _key(None, int, 500)
    seed: int = _key(None, int, 1)
    snr_db: tuple | None = _key(None, parse_snr_grid)  # family default when unset
    n_x: int = _key("arrays", int, 4)
    n_y: int = _key("arrays", int, 8)
    m_tot: int = _key("arrays", int, 4)
    polarization: str | None = _key("arrays", str)  # family default when unset
    k_factor_db: float = _key("channel", float, 13.2)
    n_nlos: int = _key("channel", int, 5)
    bandwidth: str | None = _key("channel", str)  # family default when unset
    n_clusters: int = _key("channel", int, 3)
    subpaths: int = _key("channel", int, 1)
    chi: float = _key("channel", float, 0.2)
    varsigma_deg: float = _key("channel", float, 20.0)
    # coverage in spatial-frequency degrees
    az_range_deg: tuple = _key("codebook", _parse_pair, (-60.0, 60.0))
    el_range_deg: tuple = _key("codebook", _parse_pair, (-45.0, 45.0))
    rx_range_deg: tuple = _key("codebook", _parse_pair, (-90.0, 90.0))
    delta_mode: str = _key("codebook", str, "half-power")
    ell: int = _key("codebook", int, 1)
    p: int = _key("pilot", int, 6)
    roots: tuple | None = _key("pilot", _parse_ints)
    coprime_with: str = _key("pilot", str, "n")
    dc_zero: bool = _key("pilot", _parse_bool, False)
    bits: int = _key("quantizer", int, 3)
    epsilon_t: int = _key("overhead", int, 1000)
    t_tot: int = _key("overhead", int, 200)
    n_bm: int = _key("overhead", int, 10)
    m_bm: int = _key("overhead", int, 4)
    n_s: int = _key("overhead", int, 3)
    n_tx_total: int | None = _key("overhead", int)
    m_rx_total: int | None = _key("overhead", int)
    n_t: int | None = _key("probing", int)
    m_t: int | None = _key("probing", int)
    n_select: int | None = _key("probing", int)
    plots: bool = _key(None, _parse_bool, True)
    # the fields a config text wrote, each set whatever its value (no key)
    written: InitVar[frozenset] = frozenset()

    def __post_init__(self, written):
        self.written = frozenset(written)
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not 1 <= self.trials < 2 ** 32:  # a trial is one word of its stream's entropy
            raise ConfigError("trials must lie in 1..2**32 - 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.snr_db == ():
            raise ConfigError("snr grid is empty")
        for x in self.snr_db or ():
            try:  # inf (noiseless), or a finite positive linear SNR and sqrt(1 / SNR)
                ok = x == math.inf or 0 < 1.0 / 10.0 ** (x / 10.0) < math.inf
            except (OverflowError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ConfigError(f"snr_db = {x:g} dB is outside the float range: use inf "
                                  "or a number within about +-3,082 dB")
        for key in ("k_factor_db", "chi", "varsigma_deg"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"channel.{key} must be finite")
        if self.coprime_with not in COPRIME_WITH:
            raise ConfigError(f"pilot.coprime_with must be one of {COPRIME_WITH}")
        if self.n_s < 1:
            raise ConfigError("overhead.n_s must be >= 1")
        if self.n_clusters < 1:
            raise ConfigError("channel.n_clusters must be >= 1")
        if not 1 <= self.bits <= MAX_BITS:
            raise ConfigError(f"quantizer.bits must lie in 1..{MAX_BITS}")
        try:  # the array, codebook, bandwidth and overhead settings validate themselves
            _codebook_config(self, _arrays(self, "co"))
            if self.bandwidth is not None:
                OfdmConfig.profile(self.bandwidth)
            OverheadModel(epsilon_t=self.epsilon_t, t_tot=self.t_tot)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _dotted(f) -> str:
    """A config field's key as written: '<section>.<field name>'."""
    return ".".join(filter(None, (f.metadata["section"], f.name)))


def validate_config(raw: str) -> ExperimentConfig:
    """Parse the flat key=value text format; empty input yields the default
    configuration. A U+2212 minus reads as '-' in every value. The config
    records the fields the text wrote (ExperimentConfig.written)."""
    by_key = {_dotted(f): f for f in fields(ExperimentConfig)}
    values = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip().replace("−", "-")
        if key not in by_key:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        try:
            values[by_key[key].name] = by_key[key].metadata["parse"](val)
        except ParseError:
            raise
        except (TypeError, ValueError) as exc:
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values, written=values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return validate_config(fh.read())


@dataclass
class ResultTable:
    name: str
    columns: list
    rows: list = field(default_factory=list)

    def add(self, *row):
        if len(row) != len(self.columns):
            raise ValueError("row width does not match columns")
        self.rows.append(tuple(row))


def emit_outputs(table: ResultTable, out_dir: str) -> str:
    """Write one table as UTF-8 CSV with a header row; returns the path."""
    if not table.rows:
        raise IoError(f"table {table.name} is empty")
    path = os.path.join(out_dir, f"{table.name}.csv")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.columns)
            writer.writerows(table.rows)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return path


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


# numpy.random.SeedSequence's hash-mix constants and pool size (4 uint32 words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The calls + 1 hash constants of `calls` successive hashmix calls: call
    k xors by constant k and multiplies by constant k + 1."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of words (trials,), or of rows (calls,
    trials), once per call with that call's constants, (calls, trials)."""
    out = words ^ consts[:-1, None]
    out *= consts[1:, None]
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    out ^= out >> 16
    return out


def _stream_states(cfg: ExperimentConfig, point: int, trials) -> np.ndarray:
    """SeedSequence([cfg.seed, family, point, t]).generate_state(4, np.uint64)
    of every trial t, (trials, 4): numpy's steps run once over the trial
    axis in wrapping uint32 arithmetic. Each key is its little-endian
    32-bit words, so a seed may span several; a trial is one word
    (ExperimentConfig keeps trials below 2**32). The entropy's first words
    fill the pool through hashmix (INIT_A / MULT_A), every pool word is then
    mixed into every other, any further word into each, and the state is
    the pool hashed out twice over (INIT_B / MULT_B)."""
    t = np.asarray(trials, dtype=np.uint32)
    n_seed = max(1, (cfg.seed.bit_length() + 31) // 32)
    seed = [cfg.seed >> 32 * i & _MASK32 for i in range(n_seed)]
    entropy = np.empty((len(seed) + 3, t.size), np.uint32)
    entropy[:-1] = np.array([*seed, FAMILY_IDS[cfg.experiment], point], np.uint32)[:, None]
    entropy[-1] = t
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * len(entropy))  # 4 + 12 + 4 per extra word
    pool = _hashmix(entropy[:_POOL], a[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k:k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, a[k:k + _POOL + 1]))
        k += _POOL
    state = _hashmix(np.concatenate([pool, pool]), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _State(ISeedSequence):
    """A seed sequence whose generate_state is one precomputed state row."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _check_stream(cfg: ExperimentConfig, point: int, trial: int, rng) -> None:
    """Raise StreamMismatch unless rng is in the state of
    default_rng(SeedSequence([cfg.seed, family, point, trial]))."""
    key = [cfg.seed, FAMILY_IDS[cfg.experiment], point, trial]
    if rng.bit_generator.state != np.random.default_rng(np.random.SeedSequence(key)).bit_generator.state:
        raise StreamMismatch(f"stream {key}: the chunk seeding differs from numpy "
                             f"{np.__version__}'s SeedSequence")


def _trial_rngs(cfg: ExperimentConfig, point: int, trials) -> list:
    """The generators of a chunk of trials at a point, each equal state for
    state to default_rng(SeedSequence([cfg.seed, family, point, trial])):
    _stream_states seeds the chunk in one pass, and PCG64 seeds itself
    from each state row. A chunk that starts its point checks its first
    generator against SeedSequence itself (see _check_stream)."""
    rngs = [np.random.Generator(np.random.PCG64(_State(row)))
            for row in _stream_states(cfg, point, trials)]
    if trials[0] == 0:
        _check_stream(cfg, point, 0, rngs[0])
    return rngs


def _arrays(cfg: ExperimentConfig, default_pol: str) -> ArrayConfig:
    return ArrayConfig(n_x=cfg.n_x, n_y=cfg.n_y, m_tot=cfg.m_tot,
                       polarization_mode=cfg.polarization or default_pol)


def _codebook_config(cfg: ExperimentConfig, arrays: ArrayConfig) -> CodebookConfig:
    rad = np.radians
    return CodebookConfig(
        arrays=arrays,
        el_range=(rad(cfg.el_range_deg[0]), rad(cfg.el_range_deg[1])),
        az_range=(rad(cfg.az_range_deg[0]), rad(cfg.az_range_deg[1])),
        rx_range=(rad(cfg.rx_range_deg[0]), rad(cfg.rx_range_deg[1])),
        delta_mode=cfg.delta_mode, ell=cfg.ell)


def _codebooks(cfg: ExperimentConfig, arrays: ArrayConfig,
               paired=()) -> CodebookSet:
    """The family's codebook set. Every beam of a `paired` axis, one on which
    the trials pair a beam with a neighbour, must belong to a pair."""
    cbs = build_codebooks(_codebook_config(cfg, arrays))
    for axis in paired:
        lone = np.flatnonzero((cbs.books[axis].members < 0).all(axis=1))
        if lone.size:
            raise ConfigError(f"{axis} beams {lone.tolist()} belong to no pair")
    return cbs


def snr_grid(cfg: ExperimentConfig) -> tuple:
    """The SNR points of the family: snr_db as set or, unset, the family's
    default, 10, 15 and 20 dB. A family in ONE_SNR_FAMILIES runs at 10 dB
    unset and rejects a grid of more than one value."""
    if cfg.experiment not in ONE_SNR_FAMILIES:
        return cfg.snr_db or (10.0, 15.0, 20.0)
    if cfg.snr_db is not None and len(cfg.snr_db) > 1:
        raise ConfigError(f"{cfg.experiment} runs at one SNR; snr_db holds "
                          f"{len(cfg.snr_db)} values")
    return cfg.snr_db or (10.0,)


def _span(codebooks, axis: str) -> tuple:
    """Lowest to highest boresight of one axis, across polarizations."""
    mus = codebooks.books[axis].boresights
    return (float(mus.min()), float(mus.max()))


def _cluster_profile(cfg: ExperimentConfig, codebooks) -> ClusterProfile:
    """Clustered-channel profile whose path directions span the codebooks'
    coverage."""
    return ClusterProfile(
        n_clusters=cfg.n_clusters, subpaths_per_cluster=cfg.subpaths,
        mu_y_range=_span(codebooks, "azimuth"),
        mu_x_range=_span(codebooks, "elevation"),
        nu_range=_span(codebooks, "receive"),
        chi=cfg.chi, varsigma=math.radians(cfg.varsigma_deg))


# ---------------------------------------------------------------------------
# families: setup(cfg) -> draw(setup, point, rng) per trial
# -> compute(setup, point, draws) per chunk and point -> reduce(setup, results)

_DOMAINS = ("elevation", "azimuth", "receive", "theta", "phi", "psi")


def _maee_setup(cfg: ExperimentConfig):
    arrays = _arrays(cfg, "co")  # the Rician channel is co-polarized
    if cfg.n_nlos < 0:
        raise ConfigError("channel.n_nlos must be >= 0")
    cbs = _codebooks(cfg, arrays, paired=AXES)
    # co-pol: one polarization, whose beams all pair, so each axis covers
    # one interval
    cov = {ax: _span(cbs, ax) for ax in AXES}
    lo, hi = np.array([cov[ax] for ax in AXES]).T
    return SimpleNamespace(
        cfg=cfg, points=snr_grid(cfg), arrays=arrays, cbs=cbs, cov=cov, lo=lo, width=hi - lo,
        nlos_ranges={"mu_x": cov["elevation"], "mu_y": cov["azimuth"], "nu": cov["receive"]})


def _maee_draw(s, snr: float, rng) -> tuple:
    """One trial's draws, in the order of the per-trial flow: the true
    spatial frequencies (mu_x redrawn while (mu_x, mu_y) = (0, 0)), the
    Rician channel's draws, then the normals of the ABP and the GoB sweep
    noise (None at infinite SNR). The three uniforms are one random(3)
    scaled as rng.uniform(lo, hi) scales its one: lo + (hi - lo) * r."""
    mu_x, mu_y, nu = s.lo + s.width * rng.random(3)
    while mu_x == 0.0 and mu_y == 0.0:
        mu_x = rng.uniform(*s.cov["elevation"])
    phase, nlos = _rician_draws(rng, s.cfg.n_nlos)
    normals = _sweep_normals(1, s.cbs, 10.0 ** (snr / 10.0), rng, batch=(2,))
    return (mu_x, mu_y, nu), phase, nlos, normals


def _maee_compute(s, snr: float, draws: list) -> np.ndarray:
    """True, ABP-estimated and GoB-estimated directions of a chunk of
    trials, (T, 3, 6) in _DOMAINS order: one stacked Rician realization,
    one sweep pass for both schemes' noise draws."""
    mus, phase, nlos, normals = zip(*draws)
    truth = _fill_angles(np.array(mus), s.arrays)  # no (0, 0): the draw redraws it
    g, angles = _rician_paths(s.arrays, truth[:, 3:].T, np.array(phase), np.array(nlos),
                              s.cfg.k_factor_db, s.nlos_ranges)
    chan = _realization(np.ones((1, g.shape[-1])), angles, g, s.arrays)
    if normals[0] is None:  # infinite SNR: both schemes read the noiseless sweep
        abp_s = gob_s = _sweep(chan, s.cbs)[0]
    else:  # normals (T, scheme, ...) -> (scheme, T, ...): one sweep per scheme
        both, _ = _sweep(chan, s.cbs, np.array(normals).swapaxes(0, 1),
                         10.0 ** (snr / 10.0))
        abp_s, gob_s = ({ax: v[i] for ax, v in both.items()} for i in (0, 1))
    return np.stack([truth, _abp_rows(abp_s, s.cbs)[0], _gob_rows(gob_s, s.cbs)], axis=1)


def _maee_reduce(s, results):
    table = ResultTable("maee_vs_snr",
                        ["snr_db", "scheme", "domain", "maee_deg", "ci95"])
    for snr, trials in zip(s.points, results):
        deg = np.degrees(trials)  # (trial, truth/abp/gob, domain)
        for i, sch in enumerate(("abp", "gob"), start=1):
            for d, dom in enumerate(_DOMAINS):
                t_arr, e_arr = deg[:, 0, d], deg[:, i, d]
                table.add(_fmt(snr), sch, dom, _fmt(maee(t_arr, e_arr)),
                          _fmt(ci95(np.abs(e_arr - t_arr))))
    return {"maee_vs_snr": table}


_MAQE_N_Y = (8, 16)


def _maqe_setup(cfg: ExperimentConfig):
    """One point per transmit array width: its co-polarized azimuth book."""
    arrays = _arrays(cfg, "co")
    books = [_codebooks(cfg, replace(arrays, n_y=n_y), paired=("azimuth",)).books["azimuth"]
             for n_y in _MAQE_N_Y]
    return SimpleNamespace(
        cfg=cfg, points=books,
        sector=(math.radians(cfg.az_range_deg[0]), math.radians(cfg.az_range_deg[1])))


def _maqe_draw(s, book, rng) -> tuple:
    """One trial's pair center and the estimate drawn inside its pair."""
    center = float(book.centers[rng.integers(len(book.centers))])
    return center, center + rng.uniform(-book.delta, book.delta)


def _differential_errors(mu, center, delta: float, bits: int) -> np.ndarray:
    index = quantize_differential(mu, center, delta, bits)
    return np.abs(reconstruct_differential(index, center, delta, bits) - mu)


def _maqe_compute(s, book, draws: list) -> np.ndarray:
    """Differential and direct quantization errors of a chunk of trials,
    (T, 2)."""
    center, mu = np.array(draws).T
    bits = s.cfg.bits + 1  # the direct scheme at the differential word's bits_total
    direct = reconstruct_direct(quantize_direct(mu, s.sector, bits), s.sector, bits)
    return np.stack([_differential_errors(mu, center, book.delta, s.cfg.bits),
                     np.abs(direct - mu)], axis=1)


def _maqe_reduce(s, results):
    bits = s.cfg.bits
    deg = np.degrees
    table = ResultTable("maqe_bits",
                        ["n_y", "scheme", "bits_total", "metric", "value_deg"])
    for n_y, book, trials in zip(_MAQE_N_Y, s.points, results):
        diff_errs, direct_errs = trials.T
        table.add(n_y, "differential", bits + 1, "maqe_deg",
                  _fmt(float(deg(np.mean(diff_errs)))))
        table.add(n_y, "direct", bits + 1, "maqe_deg",
                  _fmt(float(deg(np.mean(direct_errs)))))
        # dense worst-case sweep across one pair interval
        center = float(book.centers[0])
        mu = center + np.linspace(-book.delta, book.delta, (2 ** bits) * 512 + 1)
        worst = _differential_errors(mu, center, book.delta, bits).max()
        table.add(n_y, "differential", bits + 1, "worst_case_deg",
                  _fmt(float(deg(worst))))
        table.add(n_y, "differential", bits + 1, "worst_case_bound_deg",
                  _fmt(float(deg(worst_case_error(book.delta, bits)))))
    return {"maqe_bits": table}


def fig_pilot_tags(book: AxisBook):
    """The four-beam tagging of one axis book: one complete vertical pair plus
    one member each of two different horizontal pairs. Returns the four
    beams' indices and their (pair id, b) tags."""
    pair_pols = book.pols[book.pairs[:, 0]]
    v_pairs, h_pairs = (np.flatnonzero(pair_pols == pol).tolist() for pol in ("v", "h"))
    if not v_pairs or len(h_pairs) < 2:
        raise ConfigError("need at least one vertical and two horizontal pairs")
    tags = [(v_pairs[0], 0), (v_pairs[0], 1), (h_pairs[0], 0), (h_pairs[-1], 1)]
    return [int(book.pairs[k, b]) for k, b in tags], tags


def _correlation_setup(cfg: ExperimentConfig):
    """Four-beam reference configuration: roots 25/25/29/34, shifts 0/1/0/1,
    correlated against the {25, b=1} reference. Reported for both the even
    block length 512 (root 34 needs the n_minus_1 validity variant there) and
    the odd analytic length 511 where distinct-root crosses sit at 1/sqrt(n).
    No trials: the setup builds the table."""
    table = ResultTable("pilot_correlation",
                        ["n", "beam", "root", "b", "abs_corr"])
    for n, variant in ((512, "n_minus_1"), (511, "n")):
        ref = zc_sequence(25, 1, cfg.p, n, coprime_with=variant)
        for i, (root, b) in enumerate(((25, 0), (25, 1), (29, 0), (34, 1)), start=1):
            seq = zc_sequence(root, b, cfg.p, n, coprime_with=variant)
            val = abs(np.sum(seq * ref.conj())) / n
            table.add(n, i, root, b, _fmt(float(val)))
    return SimpleNamespace(points=[], tables={"pilot_correlation": table})


def _tdm_setup(cfg: ExperimentConfig):
    arrays = _arrays(cfg, "cross")
    ofdm = OfdmConfig.profile(cfg.bandwidth or "125mhz")
    cbs = _codebooks(cfg, arrays)
    az, rx = cbs.books["azimuth"], cbs.books["receive"]
    beams, tags = fig_pilot_tags(az)
    pilots = assign_pilots(sorted({a for a, _ in tags}), ofdm.n_subcarriers,
                           root_pool=cfg.roots, p=cfg.p,
                           coprime_with=cfg.coprime_with, dc_zero=cfg.dc_zero)
    # single-RF combiner spanning both polarization element groups so the
    # horizontally polarized probing beams are not leakage-suppressed
    mid_v, mid_h = (rx.matrix[:, idx[len(idx) // 2]] for idx in rx.by_pol.values())
    return SimpleNamespace(
        cfg=cfg, points=snr_grid(cfg), arrays=arrays, ofdm=ofdm, tags=tags,
        roots=[pilots.roots[a] for a, _ in tags],
        x=pilots.references(tags),  # (N, beam)
        f=az.matrix[:, beams],
        w=(mid_v + mid_h) / np.sqrt(2),
        profile=_cluster_profile(cfg, cbs),
        trial_subcarriers=ofdm.n_subcarriers)


def _tdm_draw(s, snr: float, rng) -> tuple:
    """One trial's draws, in the order of the per-trial flow: the clustered
    channel's, then the noise rows (N,) of the pilot and of each TDM slot."""
    sigma = _sigma_from_gamma(10.0 ** (snr / 10.0))
    return (_clustered_draws(s.profile, rng),
            _noise_like(s.ofdm.n_subcarriers, sigma, rng, batch=(1 + len(s.tags),)))


def _tdm_compute(s, snr: float, draws: list) -> np.ndarray:
    """Per-beam correlation amplitudes of the pilot and the TDM scheme for a
    chunk of trials, (T, scheme, beam): one stacked realization, one
    beamformed pass and one batched correlation per scheme. Each trial's
    correlation operands keep the per-trial layout, (1, N) @ (N, beam) for
    the pilot and (beam, N) @ (N, beam) for TDM, so its amplitudes are the
    per-trial flow's bit for bit."""
    channel, noise = zip(*draws)
    chan = _clustered_realization(s.profile, [np.array(d) for d in zip(*channel)],
                                  s.arrays, s.ofdm)
    # w* H[k] f x[k] per beam: the noiseless TDM slots, summed for the pilot;
    # then each slot takes its own noise row in place, trial by trial, as a
    # stacked copy of all noise rows (320 KB at 8 trials, N = 512) would be
    # paged in afresh by every chunk
    y = chan.beamformed(s.w[:, None], s.f)[..., 0, :]  # (T, N, beam)
    y *= s.x
    y_pilot = y.sum(axis=-1) + np.array([rows[0] for rows in noise])
    for y_t, rows in zip(y, noise):
        y_t += rows[1:].T
    pilot = correlate_zero_lag(y_pilot[..., None], s.x, normalized=True)[:, 0]
    tdm = np.diagonal(correlate_zero_lag(y, s.x, normalized=True), axis1=-2, axis2=-1)
    return np.abs(np.stack([pilot, tdm], axis=1))


def _tdm_reduce(s, results):
    [trials] = results
    pilot, tdm = (sum(amps, np.zeros(len(s.tags))) for amps in zip(*trials))
    table = ResultTable("pilot_vs_tdm",
                        ["beam", "root", "b", "scheme", "mean_amplitude",
                         "rel_diff"])
    for i, (root, (_, b)) in enumerate(zip(s.roots, s.tags)):
        s_p = float(pilot[i] / len(trials))
        s_t = float(tdm[i] / len(trials))
        if not s_t > 0:
            raise EmptyInput(f"pilot_vs_tdm beam {i + 1}: mean TDM amplitude is {s_t:g}, "
                             "so its rel_diff has no value")
        rel = abs(s_p - s_t) / s_t
        table.add(i + 1, root, b, "pilot", _fmt(s_p), _fmt(rel))
        table.add(i + 1, root, b, "tdm", _fmt(s_t), _fmt(rel))
    return {"pilot_vs_tdm": table}


def _rate_setup(cfg: ExperimentConfig):
    """What the rate families' trials share: one point per SNR, codebooks
    whose azimuth and receive beams all pair, pilots, the cluster profile,
    the `profiles` each chunk is rated under (here that one) and probing
    sizes. An unset probing key takes its default; a set one must be >= 1.
    The rate at infinite SNR is unbounded, so every SNR must be finite."""
    points = snr_grid(cfg)
    if not all(map(math.isfinite, points)):
        raise ConfigError(f"{cfg.experiment} needs finite snr_db values: the rate at "
                          "infinite SNR is unbounded")
    if cfg.n_clusters < cfg.n_s:
        raise ConfigError(f"channel.n_clusters = {cfg.n_clusters} is below overhead.n_s = "
                          f"{cfg.n_s}: each stream steers at its own cluster")
    for key in ("n_t", "m_t", "n_select"):
        if getattr(cfg, key) is not None and getattr(cfg, key) < 1:
            raise ConfigError(f"probing.{key} must be >= 1")
    arrays = _arrays(cfg, "cross")
    ofdm = OfdmConfig.profile(cfg.bandwidth or "desk")
    cbs = _codebooks(cfg, arrays, paired=("azimuth", "receive"))
    pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)),
                           ofdm.n_subcarriers, root_pool=cfg.roots, p=cfg.p,
                           coprime_with=cfg.coprime_with, dc_zero=cfg.dc_zero)
    merged_az = len(cbs.books["azimuth"].pols)
    merged_rx = len(cbs.books["receive"].pols)
    n_rf, m_rf = min(cfg.n_s, merged_az), min(cfg.n_s, merged_rx)
    n_t = max(2, math.ceil(merged_az / n_rf)) if cfg.n_t is None else cfg.n_t
    m_t = max(2, math.ceil(merged_rx / m_rf)) if cfg.m_t is None else cfg.m_t
    # every trial's probing plan must probe every azimuth and receive beam
    for side, slots, beams in (("n_t", n_t * n_rf, merged_az), ("m_t", m_t * m_rf, merged_rx)):
        if slots < beams:
            raise ConfigError(f"probing.{side} gives {slots} slots for {beams} beams")
    try:  # and each path's elevation plan every elevation beam, as a noiseless trial shows
        plan = random_probing_plan(cbs, n_t, m_t, n_rf, m_rf, 0, layout="free")
        _multipath_draws(cbs, plan, 1, 0.0, 1, np.random.default_rng(0))
    except InfeasibleCoverage as exc:
        raise ConfigError(f"elevation stage at overhead.n_s = {cfg.n_s}: {exc}") from exc
    profile = _cluster_profile(cfg, cbs)
    return SimpleNamespace(
        cfg=cfg, points=points, arrays=arrays, ofdm=ofdm, cbs=cbs, pilots=pilots,
        profile=profile, profiles=[profile], n_rf=n_rf, m_rf=m_rf, n_t=n_t, m_t=m_t,
        n_select=cfg.n_s if cfg.n_select is None else cfg.n_select,
        # the probing correlates one tx probing's slot noise at a time: one
        # (N, m_rf) block per rx probing
        trial_subcarriers=m_t * ofdm.n_subcarriers)


def _rate_draw(s, snr: float, rng) -> tuple:
    """One rate trial's draws at an SNR, in the order of the per-trial
    flow: the clustered channel's, the probing plan's seed and its plan,
    then estimate_multipath's (see estimator._multipath_draws). They read
    the cluster profile's draw sizes and the SNR, never chi or varsigma, so
    they serve every profile of s.profiles."""
    channel = _clustered_draws(s.profile, rng)
    plan = random_probing_plan(s.cbs, s.n_t, s.m_t, s.n_rf, s.m_rf,
                               int(rng.integers(2 ** 31)), layout="free")
    sigma = _sigma_from_gamma(10.0 ** (snr / 10.0))
    return channel, plan, _multipath_draws(s.cbs, plan, s.ofdm.n_subcarriers, sigma,
                                           s.n_select, rng)


def _gob_directions(rep, cbs) -> np.ndarray:
    """Boresight-only estimates from the measurements of an ABP report,
    (paths, 3): per domain the stronger member of the path's pair, or the
    report's estimate (the elevation range center) where it formed none."""
    mus = rep.est[:, :3].copy()
    for i, axis in enumerate(AXES):
        book, k = cbs.books[axis], rep.pairs[axis]
        has = k >= 0
        stronger = np.where(rep.zetas[axis][has] >= 0, 0, 1)  # pair member
        mus[has, i] = book.boresights[book.pairs[k[has], stronger]]
    return mus


_SCHEMES = ("perfect", "abp", "gob")


def _rate_compute(s, snr: float, draws: list) -> np.ndarray:
    """Spectral efficiency of a chunk of trials at an SNR under each profile
    of s.profiles (its chi and varsigma), steered at the true dominant
    directions, at the ABP estimates and at the GoB estimates, (T, profile,
    scheme) in _SCHEMES order. What no profile reaches is built once: the
    stacked steered paths (path parameters, delay taps and steering), the
    stacked plan, estimate_multipath's probing (coverage checks, pilot tags,
    combiners, each stage's tap-weighted pilot Grams and noise
    correlations, the azimuth stage's V^H F Q) and the true directions.
    Per profile: one stacked realization, one estimate_multipath pass and
    one (scheme, trial, stream) direction array, stream j of ABP and GoB at
    estimated path j mod P, beamformed and rated in one call each."""
    channel, plans, estimator_draws = zip(*draws)
    n, n_s, gamma = len(draws), s.cfg.n_s, 10.0 ** (snr / 10.0)
    paths = _clustered_steered(s.profile, [np.array(d) for d in zip(*channel)],
                               s.arrays, s.ofdm)
    plan = ProbingPlan(np.array([p.tx_idx for p in plans]), np.array([p.rx_idx for p in plans]))
    probing = _multipath_probing(paths, plan, s.pilots, s.cbs, estimator_draws)
    truth = spatial_frequencies([a[:, :n_s] for a in paths.dominant_angles], s.arrays)
    perfect = np.stack([truth.mu_x, truth.mu_y, truth.nu], axis=-1)  # (T, n_s, 3)
    rates = []
    for profile in s.profiles:
        chan = paths.realization(profile)
        rep = estimate_multipath(chan, plan, s.pilots, gamma, s.n_select, codebooks=s.cbs,
                                 draws=probing)
        est = np.stack([rep.est[:, :3], _gob_directions(rep, s.cbs)]).reshape(2, n, -1, 3)
        dirs = np.concatenate([perfect[None], est[:, :, np.arange(n_s) % est.shape[2]]])
        f, w = build_rf_beamformers(dirs, s.arrays)  # (scheme, trial, ., n_s)
        rates.append(spectral_efficiency(chan, f, w, gamma, n_s))
    return np.moveaxis(np.array(rates), -1, 0)


_RATE_COLUMNS = ["experiment", "snr_db", "scheme", "metric", "value", "ci95"]


def _norm_se_setup(cfg: ExperimentConfig):
    s = _rate_setup(cfg)
    if (cfg.n_tx_total is None) != (cfg.m_rx_total is None):
        missing = "n_tx_total" if cfg.n_tx_total is None else "m_rx_total"
        raise ConfigError(f"overhead.{missing} is unset; set both probing totals or neither")
    for key in ("n_tx_total", "m_rx_total", "n_bm", "m_bm"):
        if getattr(cfg, key) is not None and getattr(cfg, key) < 1:
            raise ConfigError(f"overhead.{key} must be >= 1")
    if cfg.n_tx_total is not None:
        n_tx, m_rx = cfg.n_tx_total, cfg.m_rx_total
    elif cfg.n_s in STREAMS_TO_PROBINGS:
        n_tx, m_rx = STREAMS_TO_PROBINGS[cfg.n_s]
    else:
        raise ConfigError(
            f"no probing totals known for n_s={cfg.n_s}; set overhead.n_tx_total "
            "and overhead.m_rx_total")
    s.iters = {"perfect": 0,
               "abp": OverheadModel.abp_complexity(cfg.n_s, n_tx, cfg.n_s, m_rx),
               "gob": OverheadModel.gob_complexity(cfg.n_bm, cfg.m_bm, cfg.n_s, cfg.n_s)}
    s.overhead = OverheadModel(epsilon_t=cfg.epsilon_t, t_tot=cfg.t_tot)
    return s


def _norm_se_reduce(s, results):
    name = s.cfg.experiment
    table = ResultTable("norm_se_vs_snr", _RATE_COLUMNS)
    for snr, trials in zip(s.points, results):
        for k, sch in enumerate(_SCHEMES):
            vals = trials[:, 0, k]
            norm = normalized_spectral_efficiency(vals, s.iters[sch], s.overhead)
            table.add(name, _fmt(snr), sch, "se", _fmt(float(vals.mean())),
                      _fmt(ci95(vals)))
            table.add(name, _fmt(snr), sch, "norm_se",
                      _fmt(float(norm.mean())), _fmt(ci95(norm)))
    for sch in ("abp", "gob"):
        table.add(name, "", sch, "t_est", _fmt(s.overhead.t_est(s.iters[sch])), "0")
    return {"norm_se_vs_snr": table}


# robustness sweeps: the swept cluster-profile field, its values as written in
# the row tags, and their conversion to the profile's units
_SWEEPS = {"robustness_mismatch": ("varsigma", (0.0, 10.0, 20.0, 30.0), math.radians),
           "robustness_xpd": ("chi", (0.0, 0.1, 0.2, 0.4), float)}


def _robustness_setup(cfg: ExperimentConfig):
    """One profile per sweep value, the cluster profile with that value, at
    the one SNR point. The swept parameters reach nothing else, so each
    chunk's draws, codebooks and pilots serve every profile."""
    param, values, to_profile = _SWEEPS[cfg.experiment]
    s = _rate_setup(cfg)
    s.profiles = [replace(s.profile, **{param: to_profile(v)}) for v in values]
    return s


def _robustness_reduce(s, results):
    name = s.cfg.experiment
    param, values, *_ = _SWEEPS[name]
    table = ResultTable(name, _RATE_COLUMNS)
    [snr], [trials] = s.points, results
    for value, (perfect, abp, _) in zip(values, trials.transpose(1, 2, 0)):
        if not (perfect > 0).all():
            raise EmptyInput(f"{name} at {param}_{value:g}: {np.sum(~(perfect > 0))} of "
                             f"{len(perfect)} trials have no positive perfect rate")
        gaps = (perfect - abp) / perfect
        table.add(name, _fmt(snr), f"{param}_{value:g}", "se_gap_frac",
                  _fmt(float(np.mean(gaps))), _fmt(ci95(gaps)))
    return {name: table}


# the config fields of each layer, and the run-level ones every family takes
_CODEBOOK = {"n_x", "n_y", "m_tot", "az_range_deg", "el_range_deg", "rx_range_deg",
             "delta_mode", "ell"}
_CLUSTER = {"bandwidth", "n_clusters", "subpaths", "chi", "varsigma_deg"}
_PILOT = {"p", "roots", "coprime_with", "dc_zero"}
_RATE = {"snr_db", "polarization", "n_s", "n_t", "m_t", "n_select", *_CODEBOOK, *_CLUSTER, *_PILOT}
_RUN = {"experiment", "trials", "seed", "plots"}

# An experiment family. setup(cfg) builds once everything the trials share,
# plus `points`, the sweep; draw(setup, point, rng) makes one Monte-Carlo
# trial's draws from its stream; compute(setup, point, draws) turns a chunk
# of trials' draws, in trial order, into an array with one leading row per
# trial, and leaves the draws as they were; reduce(setup, results),
# results[i] being point i's rows in trial order, builds the tables.
# `reads` holds the config fields the family reads besides _RUN.
Family = namedtuple("Family", "setup draw compute reduce reads")
FAMILIES = {
    "maee_vs_snr": Family(_maee_setup, _maee_draw, _maee_compute, _maee_reduce,
                          {"snr_db", "k_factor_db", "n_nlos", *_CODEBOOK}),
    "maqe_bits": Family(_maqe_setup, _maqe_draw, _maqe_compute, _maqe_reduce,
                        {"az_range_deg", "delta_mode", "ell", "bits"}),
    "pilot_correlation": Family(_correlation_setup, None, None, lambda s, _: s.tables, {"p"}),
    "pilot_vs_tdm": Family(_tdm_setup, _tdm_draw, _tdm_compute, _tdm_reduce,
                           {"snr_db", *_CODEBOOK, *_CLUSTER, *_PILOT}),
    "norm_se_vs_snr": Family(_norm_se_setup, _rate_draw, _rate_compute, _norm_se_reduce,
                             {"epsilon_t", "t_tot", "n_bm", "m_bm", "n_tx_total",
                              "m_rx_total", *_RATE}),
    "robustness_mismatch": Family(_robustness_setup, _rate_draw, _rate_compute,
                                  _robustness_reduce, _RATE - {"varsigma_deg"}),
    "robustness_xpd": Family(_robustness_setup, _rate_draw, _rate_compute, _robustness_reduce,
                             _RATE - {"chi"}),
}


def setup_experiment(cfg: ExperimentConfig) -> SimpleNamespace:
    """Run the family's setup and no trial. A field that the family does
    not read and that is set, written by the config text or away from its
    default, or a value that its constructors or its pair check reject,
    raises ConfigError."""
    reads = FAMILIES[cfg.experiment].reads | _RUN
    if cfg.delta_mode != "commensurate":  # ell scales the commensurate pair offset alone
        reads = reads - {"ell"}
    for f in fields(ExperimentConfig):
        is_set = f.name in cfg.written or getattr(cfg, f.name) != f.default
        if is_set and f.name not in reads:
            raise ConfigError(f"{cfg.experiment} does not read {_dotted(f)} here; leave it unset")
    try:
        return FAMILIES[cfg.experiment].setup(cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _plot_tables(tables: dict, out_dir: str) -> list:
    """One PNG per table; without matplotlib none, said in one stderr line
    (a print, not a warning: the plots are optional, the run is fine)."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plots not written: matplotlib is not installed", file=sys.stderr)
        return []
    paths = []
    for name, table in tables.items():
        fig, ax = plt.subplots(figsize=(6, 4))
        try:
            _plot_one(ax, name, table)
            ax.set_title(name)
            fig.tight_layout()
            path = os.path.join(out_dir, f"{name}.png")
            fig.savefig(path)
        finally:
            plt.close(fig)
        paths.append(path)
    return paths


def _plot_one(ax, name: str, table: ResultTable) -> None:
    cols = {c: i for i, c in enumerate(table.columns)}
    if name == "maee_vs_snr":
        for sch in ("abp", "gob"):
            pts = [(float(r[cols["snr_db"]]), float(r[cols["maee_deg"]]))
                   for r in table.rows
                   if r[cols["scheme"]] == sch and r[cols["domain"]] == "azimuth"]
            ax.plot(*zip(*sorted(pts)), marker="o", label=sch)
        ax.set_xlabel("SNR (dB)")
        ax.set_ylabel("azimuth MAEE (deg)")
        ax.legend()
    elif name in ("norm_se_vs_snr",):
        for sch in ("perfect", "abp", "gob"):
            pts = [(float(r[cols["snr_db"]]), float(r[cols["value"]]))
                   for r in table.rows
                   if r[cols["scheme"]] == sch and r[cols["metric"]] == "norm_se"]
            ax.plot(*zip(*sorted(pts)), marker="o", label=sch)
        ax.set_xlabel("SNR (dB)")
        ax.set_ylabel("normalized SE (bit/s/Hz)")
        ax.legend()
    else:
        labels = [" ".join(str(v) for v in r[:-1]) for r in table.rows]
        vals = [float(r[-1]) for r in table.rows]  # every family's last column is numeric
        ax.bar(range(len(vals)), vals)
        ax.set_xticks(range(len(vals)))
        ax.set_xticklabels(labels, rotation=90, fontsize=5)


def _chunk_trials(s) -> int:
    """Trials per compute step for a family's setup (see CHUNK_SUBCARRIERS).
    A setup with per-subcarrier arrays states how many subcarrier rows one
    trial's hold as `trial_subcarriers`; one without is narrowband: one row
    per trial."""
    return max(1, min(TRIAL_CHUNK, CHUNK_SUBCARRIERS // getattr(s, "trial_subcarriers", 1)))


def run_experiment(cfg: ExperimentConfig, out_dir: str = ".") -> dict:
    """Run one experiment family: its setup (ConfigError before any output
    directory is made), every trial, then its tables; writes one CSV per
    result table (plus plots when cfg.plots) and returns
    {'tables': ..., 'files': ...}. A point whose trials computed a NaN or
    infinite value raises FloatingPointError, and no CSV is written."""
    family = FAMILIES[cfg.experiment]
    s = setup_experiment(cfg)
    os.makedirs(out_dir, exist_ok=True)
    chunk = _chunk_trials(s)
    results = [[] for _ in s.points]
    for start in range(0, cfg.trials, chunk):
        trials = range(start, min(start + chunk, cfg.trials))
        for pi, point in enumerate(s.points):
            draws = [family.draw(s, point, rng) for rng in _trial_rngs(cfg, pi, trials)]
            results[pi].append(family.compute(s, point, draws))
            del draws  # freed before the next point's are made
    results = [np.concatenate(rows) for rows in results]
    for pi, (point, rows) in enumerate(zip(s.points, results)):
        if not np.isfinite(rows).all():
            where = f"snr_db = {point:g}" if "snr_db" in family.reads else f"point {pi}"
            raise FloatingPointError(f"{cfg.experiment} at {where}: a trial's result is "
                                     "not finite")
    tables = family.reduce(s, results)
    files = [emit_outputs(t, out_dir) for t in tables.values()]
    if cfg.plots:
        files += _plot_tables(tables, out_dir)
    return {"tables": tables, "files": files}
