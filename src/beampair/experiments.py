"""Experiment families: configuration, Monte-Carlo execution, CSV output.

Config files are flat key=value text with dotted section prefixes; unset
keys fall back to the evaluated defaults (half-power offsets, 120/90/180
degree sectors, K = 13.2 dB, chi = 0.2, mismatch 20 degrees, shift spacing
p = 6, roots 25/29/34, 3-bit differential quantizer).

Each family is a setup -> draw -> compute -> reduce declaration (Family)
run by one loop, which alone makes the per-trial RNG streams and walks the
trials in chunks (see CHUNK_ROWS), each chunk at every point: one draw
step over the chunk's streams, which writes each trial's draws into row t
of arrays with a leading trial axis, then one compute step over them.
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

from .channel import (ChannelRealization, ClusterProfile, OfdmConfig, _clustered_draws,
                      _clustered_columns, _rician_draws, _rician_paths, _steered,
                      pulse_coefficients, pulse_samples)
from .codebook import (AXES, AxisBook, CodebookConfig, CodebookSet, InfeasibleCoverage,
                       ProbingPlan, build_codebooks, random_probing_plan)
from .estimator import (_abp_rows, _fill_angles, _gob_rows,
                        _multipath_draws, _multipath_probing, _sigma_from_gamma, _sweep,
                        estimate_multipath)
from .feedback import (quantize_differential, quantize_direct, reconstruct_differential,
                       reconstruct_direct, worst_case_error)
from .geometry import ArrayConfig, spatial_frequencies
from .metrics import (EmptyInput, OverheadModel, build_rf_beamformers, ci95,
                      maee, normalized_spectral_efficiency, spectral_efficiency)
from .pilot import COPRIME_WITH, assign_pilots, zc_sequence

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

# Trials per compute step: as many as hold CHUNK_ROWS rows, where each
# family's setup states the rows that one trial's arrays hold at once
# (trial_rows, see _chunk_trials), and at least one. Larger chunks amortize
# more of the per-trial numpy dispatch, but a chunk's arrays grow with trials
# x rows, so the one bound holds a compute step near one size in every
# family: a pilot_vs_tdm trial holds D pulse-sample rows, so 4,096 / 64 = 64
# trials at D = 64 and 16 at D = 256, fewer where its paths or clusters
# weigh more (see _tdm_setup); a rate trial's probing, built once per chunk,
# stacks one tx probing's slot noise at a time, one N-row block per rx
# probing, to correlate it with the pilots (per profile it builds nothing
# per subcarrier), so 4,096 / (2 x 256) = 8 at the default probing, fewer
# where its paths or clusters weigh more (see _rate_setup); a maee_vs_snr
# trial sweeps one receive-beam block per path, per two grid columns or per
# 12 of its per-path products, (1 + 5) x 4 = 24 rows at the defaults, so
# 170 trials (see _maee_setup); a maqe_bits trial is one row. See
# README for the throughput and peak-memory trade-offs that set the value.
CHUNK_ROWS = 4096

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
        try:  # the Rician weights read the linear K-factor 10^(K/10)
            10.0 ** (self.k_factor_db / 10.0)
        except OverflowError:
            raise ConfigError(f"channel.k_factor_db = {self.k_factor_db:g} dB is outside the "
                              "float range: use a number up to about 3,082 dB") from None
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
# families: setup(cfg) -> draw(setup, point, rngs) and compute(setup, point,
# draws) per chunk and point -> reduce(setup, results)

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
    n_rx = len(cbs.books["receive"].pols)
    return SimpleNamespace(
        cfg=cfg, points=snr_grid(cfg), arrays=arrays, cbs=cbs, cov=cov,
        lo=lo, width=hi - lo,
        nlos_ranges={"mu_x": cov["elevation"], "mu_y": cov["azimuth"], "nu": cov["receive"]},
        # the sweep normals of a trial's two schemes, as _sweep_normals draws them
        normals=(2, 2, 1, n_rx, cbs.grid.shape[1]),
        # per receive beam, the sweep's row of each path over the transmit
        # grid, or half a row per grid column, or a row per 12 of the sweep's
        # per-path products (1 + n_nlos, grid columns), whichever is more
        trial_rows=n_rx * max(1 + cfg.n_nlos, cbs.grid.shape[1] // 2,
                              (1 + cfg.n_nlos) * cbs.grid.shape[1] // 12))


def _maee_draw(s, snr: float, rngs) -> tuple:
    """A chunk's draws, trial t's from rngs[t] in the order of the per-trial
    flow: the true spatial frequencies (T, 3) (mu_x redrawn while (mu_x,
    mu_y) = (0, 0)), the Rician channel's draws (see _rician_draws), then
    the normals of the ABP and the GoB sweep noise (T, scheme, ...) (None at
    infinite SNR, the only SNR without noise). The three uniforms are one
    random(3) scaled as rng.uniform(lo, hi) scales its one: lo + (hi - lo)
    * r. A trial draws nothing between them and a redraw, so the redraws
    follow the chunk's uniforms."""
    mus = np.empty((len(rngs), 3))
    for rng, row in zip(rngs, mus):
        rng.random(out=row)
    mus = s.lo + s.width * mus
    for t in np.flatnonzero((mus[:, 0] == 0.0) & (mus[:, 1] == 0.0)):
        while mus[t, 0] == 0.0 and mus[t, 1] == 0.0:
            mus[t, 0] = rngs[t].uniform(*s.cov["elevation"])
    phase, nlos = _rician_draws(rngs, s.cfg.n_nlos)
    normals = None
    if snr != math.inf:
        normals = np.empty((len(rngs), *s.normals))
        for rng, row in zip(rngs, normals):
            rng.standard_normal(out=row)
    return mus, phase, nlos, normals


def _maee_compute(s, snr: float, draws: tuple) -> np.ndarray:
    """True, ABP-estimated and GoB-estimated directions of a chunk of
    trials, (T, 3, 6) in _DOMAINS order: one stacked Rician realization,
    one sweep pass for both schemes' noise draws."""
    mus, phase, nlos, normals = draws
    truth = _fill_angles(mus, s.arrays)  # no (0, 0): the draw redraws it
    g, angles = _rician_paths(s.arrays, truth[:, 3:].T, phase, nlos,
                              s.cfg.k_factor_db, s.nlos_ranges)
    chan = _steered(np.ones((1, g.shape[-1])), angles, g, s.arrays).realization(None)
    if normals is None:  # infinite SNR: both schemes read the noiseless sweep
        abp_s = gob_s = _sweep(chan, s.cbs)[0]
    else:  # normals (T, scheme, ...) -> (scheme, T, ...): one sweep per scheme
        both, _ = _sweep(chan, s.cbs, normals.swapaxes(0, 1), 10.0 ** (snr / 10.0))
        abp_s, gob_s = ({ax: v[i] for ax, v in both.items()} for i in (0, 1))
    return np.stack([truth, _abp_rows(abp_s, s.cbs)[0], _gob_rows(gob_s, s.cbs)], axis=1)


def _maee_reduce(s, results):
    table = ResultTable("maee_vs_snr",
                        ["snr_db", "scheme", "domain", "maee_deg", "ci95"])
    for snr, trials in zip(s.points, results):
        # (truth/abp/gob, domain, trial), the trial axis contiguous
        deg = np.degrees(np.ascontiguousarray(trials.transpose(1, 2, 0)))
        truth, est = np.broadcast_to(deg[0], deg[1:].shape), deg[1:]
        errs = maee(truth, est, axis=-1).tolist()
        cis = ci95(np.abs(est - truth), axis=-1).tolist()
        for i, sch in enumerate(("abp", "gob")):
            for d, dom in enumerate(_DOMAINS):
                table.add(_fmt(snr), sch, dom, _fmt(errs[i][d]), _fmt(cis[i][d]))
    return {"maee_vs_snr": table}


_MAQE_N_Y = (8, 16)


def _maqe_setup(cfg: ExperimentConfig):
    """One point per transmit array width: its co-polarized azimuth book."""
    arrays = _arrays(cfg, "co")
    books = [_codebooks(cfg, replace(arrays, n_y=n_y), paired=("azimuth",)).books["azimuth"]
             for n_y in _MAQE_N_Y]
    return SimpleNamespace(
        cfg=cfg, points=books,
        sector=(math.radians(cfg.az_range_deg[0]), math.radians(cfg.az_range_deg[1])),
        trial_rows=1)


def _maqe_draw(s, book, rngs) -> np.ndarray:
    """A chunk's pair centers and the estimates drawn inside their pairs,
    (T, 2), trial t's from rngs[t]."""
    out = np.empty((len(rngs), 2))
    for rng, row in zip(rngs, out):
        row[0] = book.centers[rng.integers(len(book.centers))]
        row[1] = rng.uniform(-book.delta, book.delta)
    out[:, 1] += out[:, 0]
    return out


def _differential_errors(mu, center, delta: float, bits: int) -> np.ndarray:
    index = quantize_differential(mu, center, delta, bits)
    return np.abs(reconstruct_differential(index, center, delta, bits) - mu)


def _maqe_compute(s, book, draws: np.ndarray) -> np.ndarray:
    """Differential and direct quantization errors of a chunk of trials,
    (T, 2)."""
    center, mu = draws.T
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
    """What the pilot_vs_tdm trials share, the lag table among it: the
    channel seen through combiner w and beam b's precoder is, at subcarrier
    k, sum_c taps[k, c] P_c[b] with taps[k, c] = sum_{d<D} p_d(tau_c)
    e^{-2 pi i k d / N}, so a trial's correlation of beam j's slot with
    reference b is sum_c P_c[j] sum_d p_d(tau_c) R[d, j, b], where
    R[d, j, b] = sum_k e^{-2 pi i k d / N} x[k, j] x*[k, b] is the length-N
    DFT of the reference products at the D delays of the cyclic prefix.
    `lags` holds R (D, beam^2) as real and imaginary columns, so a chunk's
    Grams are one real matmul over the D pulse samples; a trial holds no
    N-row array, only those D samples per cluster and its paths' steering
    factors (`trial_rows`)."""
    arrays = _arrays(cfg, "cross")
    ofdm = OfdmConfig.profile(cfg.bandwidth or "125mhz")
    cbs = _codebooks(cfg, arrays)
    az, rx = cbs.books["azimuth"], cbs.books["receive"]
    beams, tags = fig_pilot_tags(az)
    pilots = assign_pilots(sorted({a for a, _ in tags}), ofdm.n_subcarriers,
                           root_pool=cfg.roots, p=cfg.p,
                           coprime_with=cfg.coprime_with, dc_zero=cfg.dc_zero)
    x = pilots.references(tags)  # (N, beam)
    n, n_paths = ofdm.n_subcarriers, cfg.n_clusters * cfg.subpaths
    lags = np.fft.fft((x[:, :, None] * x.conj()[:, None, :]).reshape(n, -1), axis=0)
    # single-RF combiner spanning both polarization element groups so the
    # horizontally polarized probing beams are not leakage-suppressed
    mid_v, mid_h = (rx.matrix[:, idx[len(idx) // 2]] for idx in rx.by_pol.values())
    return SimpleNamespace(
        cfg=cfg, points=snr_grid(cfg), arrays=arrays, ofdm=ofdm, tags=tags,
        roots=[pilots.roots[a] for a, _ in tags],
        x_conj=x.conj().view(float),  # (N, 2 beam): each x*'s real, imaginary parts
        lags=lags[: ofdm.cp_length].view(float),  # (D, 2 beam^2)
        # each reference's count of nonzero entries: N, less the DC
        # subcarrier where dc_zero nulled it
        counts=n - (x[n // 2] == 0),
        f=az.matrix[:, beams],
        w=(mid_v + mid_h) / np.sqrt(2),
        profile=_cluster_profile(cfg, cbs),
        # D pulse-sample rows, or 2/3 of a row per path and transmit element
        # (the paths' factors, about 1.4 KB a path at 32 elements: a 64-trial
        # chunk peaked at 0.62 MB at the default 3 paths and 1.44 MB at 12),
        # or 4/3 of a row per path and receive element (its receive factors
        # u, (L, 2 M, 2), and the steering a_r they come from: a 64-trial
        # chunk peaked at 1.08 MB at M = 32 and 1.57 MB at 64), or a row per
        # 3 of the C x D pulse samples, whichever is more
        trial_rows=max(ofdm.cp_length, 2 * n_paths * arrays.n_tx // 3,
                       4 * n_paths * arrays.m_tot // 3, ofdm.cp_length * cfg.n_clusters // 3))


def _tdm_draw(s, snr: float, rngs) -> tuple:
    """A chunk's draws, trial t's from rngs[t] in the order of the
    per-trial flow: the clustered channel's (see _clustered_draws), then
    the noise rows (N,) of the pilot and of each TDM slot, returned already
    correlated with the references, z (T, 1 + beam, beam). Each trial's
    normals (1 + beam, 2, N), real parts before imaginary ones, meet x* as
    they are drawn, in one real (2 (1 + beam), N) @ (N, 2 beam) product; the
    chunk takes z = sigma / sqrt 2 ((re x*_r - im x*_i) + 1j (re x*_i +
    im x*_r)) from those products at once: no complex noise row is formed."""
    sigma = _sigma_from_gamma(10.0 ** (snr / 10.0))
    channel = _clustered_draws(s.profile, rngs)
    n_b = len(s.tags)
    normals = np.empty((2 * (1 + n_b), s.ofdm.n_subcarriers))
    p = np.empty((len(rngs), 1 + n_b, 2, n_b, 2))  # (T, row, re/im, beam, x*_r/x*_i)
    for rng, row in zip(rngs, p.reshape(len(rngs), len(normals), -1)):
        rng.standard_normal(out=normals)
        np.matmul(normals, s.x_conj, out=row)
    z = (p[..., 0, :, 0] - p[..., 1, :, 1]) + 1j * (p[..., 0, :, 1] + p[..., 1, :, 0])
    return channel, z * (sigma / np.sqrt(2))


def _tdm_compute(s, snr: float, draws: tuple) -> np.ndarray:
    """Per-beam correlation amplitudes of the pilot and the TDM scheme for a
    chunk of trials, (T, scheme, beam), in the delay domain (see
    _tdm_setup): each cluster's Gram G_c = sum_d p_d(tau_c) R[d] from one
    (T C, D) @ (D, beam^2) matmul, then the pilot's
    |sum_c sum_j P_c[j] G_c[j, b] + z_0[b]| / n_b and the TDM slots'
    |sum_c P_c[b] G_c[b, b] + z_{1+b}[b]| / n_b. Each trial's amplitudes
    are those of a one-trial chunk bit for bit."""
    channel, z = draws
    chan = _clustered_columns(s.profile, channel, s.arrays, s.ofdm,
                              pulse_samples).realization(s.profile)
    p = chan.clustered(s.w[:, None], s.f)[..., 0, :]  # (T, C, beam)
    n_t, n_c, n_b = p.shape
    pulses = chan.taps.swapaxes(-1, -2).reshape(n_t * n_c, -1)  # (T C, D)
    grams = (pulses @ s.lags).view(complex).reshape(n_t, n_c, n_b, n_b)
    pilot = (p.reshape(n_t, 1, -1) @ grams.reshape(n_t, -1, n_b))[:, 0] + z[:, 0]
    tdm = (p * np.diagonal(grams, axis1=-2, axis2=-1)).sum(axis=1) \
        + np.diagonal(z[:, 1:], axis1=-2, axis2=-1)
    return np.abs(np.stack([pilot, tdm], axis=1)) / s.counts


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


# robustness sweeps: the swept cluster-profile field, its values as written in
# the row tags, and their conversion to the profile's units
_SWEEPS = {"robustness_mismatch": ("varsigma", (0.0, 10.0, 20.0, 30.0), math.radians),
           "robustness_xpd": ("chi", (0.0, 0.1, 0.2, 0.4), float)}


def _rate_setup(cfg: ExperimentConfig):
    """What the rate families' trials share: one point per SNR, codebooks
    whose azimuth and receive beams all pair, pilots, the cluster profile,
    the `profiles` each chunk is rated under and probing sizes. A
    robustness family has one profile per value of its sweep (_SWEEPS), the
    cluster profile with that value, at its one SNR point: the swept
    parameters reach nothing else, so each chunk's draws, codebooks and
    pilots serve every profile. norm_se_vs_snr has the cluster profile
    alone. An unset probing key takes its default; a set one must be >= 1.
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
    n_select = cfg.n_s if cfg.n_select is None else cfg.n_select
    try:  # and each path's elevation plan every elevation beam, as a noiseless trial shows
        plan = random_probing_plan(cbs, n_t, m_t, n_rf, m_rf, 0, layout="free")
        el_plan = _multipath_draws(cbs, ProbingPlan(plan.tx_idx[None], plan.rx_idx[None]), 1,
                                   0.0, n_select, [np.random.default_rng(0)]).el_plan
    except InfeasibleCoverage as exc:
        raise ConfigError(f"elevation stage at overhead.n_s = {cfg.n_s}: {exc}") from exc
    profile = _cluster_profile(cfg, cbs)
    param, values, to_profile = _SWEEPS.get(cfg.experiment, (None, (), None))
    profiles = [replace(profile, **{param: to_profile(v)}) for v in values] or [profile]
    # the elevation stage's steered book (q N_t, beams) and precoders (q N_t,
    # its plan's n_el_t n_rf columns) of every profile and path
    el_book = cbs.books["elevation"]
    el_values = 0 if el_plan is None else len(profiles) * len(el_book.matrix) * (
        el_plan.tx_idx.shape[1] * len(el_book.pols) + el_plan.tx_idx.size)
    return SimpleNamespace(
        cfg=cfg, points=points, arrays=arrays, ofdm=ofdm, cbs=cbs, pilots=pilots,
        profile=profile, profiles=profiles, n_rf=n_rf, m_rf=m_rf, n_t=n_t, m_t=m_t,
        n_select=n_select,
        # the probing correlates one tx probing's slot noise at a time: one
        # (N, m_rf) block per rx probing; or 3/2 of a row per path and
        # transmit element (the paths' factors under every profile: an
        # 8-trial chunk of 24 paths peaked at 2.68 MB, 1.38 MB at 3 paths);
        # or a row per 30 of the rate's C^2 tap planes and coefficients per
        # subcarrier; or a row per 30 of the elevation stage's values (4
        # profiles at 8 x 16: 7 trials peaked at 4.08 MB); whichever is
        # more (the default chunk stays at 8 trials)
        trial_rows=max(m_t * ofdm.n_subcarriers,
                       3 * cfg.n_clusters * cfg.subpaths * arrays.n_tx // 2,
                       cfg.n_clusters ** 2 * ofdm.n_subcarriers // 30, el_values // 30))


def _rate_draw(s, snr: float, rngs) -> tuple:
    """A chunk of rate trials' draws at an SNR, trial t's from rngs[t] in
    the order of the per-trial flow: the clustered channel's (see
    _clustered_draws), the probing plan's seed and its plan, stacked as
    (T, n_t, n_rf) and (T, m_t, m_rf), then estimate_multipath's (see
    estimator._multipath_draws). They read the cluster profile's draw sizes
    and the SNR, never chi or varsigma, so they serve every profile of
    s.profiles."""
    channel = _clustered_draws(s.profile, rngs)
    plan = ProbingPlan(np.empty((len(rngs), s.n_t, s.n_rf), dtype=int),
                       np.empty((len(rngs), s.m_t, s.m_rf), dtype=int))
    for t, rng in enumerate(rngs):
        one = random_probing_plan(s.cbs, s.n_t, s.m_t, s.n_rf, s.m_rf,
                                  int(rng.integers(2 ** 31)), layout="free")
        plan.tx_idx[t], plan.rx_idx[t] = one.tx_idx, one.rx_idx
    sigma = _sigma_from_gamma(10.0 ** (snr / 10.0))
    return channel, plan, _multipath_draws(s.cbs, plan, s.ofdm.n_subcarriers, sigma,
                                           s.n_select, rngs)


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


def _rate_compute(s, snr: float, draws: tuple) -> np.ndarray:
    """Spectral efficiency of a chunk of trials at an SNR under each of the
    P profiles of s.profiles (its chi and varsigma), steered at the true
    dominant directions, at the ABP estimates and at the GoB estimates, (T,
    profile, scheme) in _SCHEMES order, in one pass over the profiles: the
    steered paths (path parameters, delay taps and steering), the plan,
    estimate_multipath's probing (coverage checks, pilot tags, combiners,
    each stage's tap-weighted pilot Grams and noise correlations, the
    azimuth stage's V^H F Q) and the true directions are built once and
    shared by every profile. One realization carries the profiles on a
    leading axis of its receive factors u (P, T, L, M, q), which alone the
    profiles reach; one estimate_multipath pass estimates every (profile,
    trial) row; and one (profile, scheme, trial, stream) direction array,
    stream j of ABP and GoB at estimated path j mod P, is beamformed in one
    call and rated in one call, so that the tap planes serve every
    profile."""
    channel, plan, estimator_draws = draws
    n, n_s, gamma = len(plan.tx_idx), s.cfg.n_s, 10.0 ** (snr / 10.0)
    paths = _clustered_columns(s.profile, channel, s.arrays, s.ofdm, pulse_coefficients)
    probing = _multipath_probing(paths, plan, s.pilots, s.cbs, estimator_draws)
    truth = spatial_frequencies([a[:, :n_s] for a in paths.dominant_angles], s.arrays)
    perfect = np.stack([truth.mu_x, truth.mu_y, truth.nu], axis=-1)  # (T, n_s, 3)
    chan = paths.realization(SimpleNamespace(
        **{key: np.array([getattr(p, key) for p in s.profiles]) for key in ("chi", "varsigma")}))
    rep = estimate_multipath(chan, plan, s.pilots, gamma, s.n_select, codebooks=s.cbs,
                             draws=probing)
    est = np.stack([rep.est[:, :3], _gob_directions(rep, s.cbs)]).reshape(
        2, len(s.profiles), n, -1, 3).swapaxes(0, 1)  # (profile, scheme, trial, path, 3)
    dirs = np.concatenate([np.broadcast_to(perfect, (len(s.profiles), 1, *perfect.shape)),
                           est[..., np.arange(n_s) % est.shape[-2], :]], axis=1)
    f, w = build_rf_beamformers(dirs, s.arrays)  # (profile, scheme, trial, ., n_s)
    chans = ChannelRealization(paths.taps, chan.u[:, None], paths.v, ())
    return np.moveaxis(spectral_efficiency(chans, f, w, gamma, n_s), -1, 0)


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
# plus `points`, the sweep; draw(setup, point, rngs) makes a chunk of
# Monte-Carlo trials' draws, trial t's from its stream rngs[t], into arrays
# whose row t is trial t's; compute(setup, point, draws) turns them into an
# array with one leading row per trial, and leaves the draws as they were;
# reduce(setup, results), results[i] being point i's rows in trial order,
# builds the tables.
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
    "robustness_mismatch": Family(_rate_setup, _rate_draw, _rate_compute, _robustness_reduce,
                                  _RATE - {"varsigma_deg"}),
    "robustness_xpd": Family(_rate_setup, _rate_draw, _rate_compute, _robustness_reduce,
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
    """Trials per compute step for a family's setup (see CHUNK_ROWS): as
    many as hold CHUNK_ROWS rows at the `trial_rows` rows that one trial
    holds, and at least one."""
    return max(1, CHUNK_ROWS // s.trial_rows)


def run_experiment(cfg: ExperimentConfig, out_dir: str = ".") -> dict:
    """Run one experiment family: its setup, every trial, then its tables;
    makes out_dir, writes one CSV per result table (plus plots when
    cfg.plots) and returns {'tables': ..., 'files': ...}. The trials run
    with numpy's overflow, divide-by-zero and invalid-value errors raised:
    a point whose trials meet one, or compute a NaN or infinite value,
    raises FloatingPointError naming the point. A run that fails makes no
    output directory and writes no CSV."""
    family = FAMILIES[cfg.experiment]
    s = setup_experiment(cfg)
    chunk = _chunk_trials(s) if s.points else cfg.trials  # no points, no trial rows
    results = [[] for _ in s.points]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for start in range(0, cfg.trials, chunk):
            trials = range(start, min(start + chunk, cfg.trials))
            for pi, point in enumerate(s.points):
                try:
                    draws = family.draw(s, point, _trial_rngs(cfg, pi, trials))
                    rows = family.compute(s, point, draws)
                    if not np.isfinite(rows).all():
                        raise FloatingPointError("a trial's result is not finite")
                except FloatingPointError as exc:
                    where = f"snr_db = {point:g}" if "snr_db" in family.reads else f"point {pi}"
                    raise FloatingPointError(f"{cfg.experiment} at {where}: {exc}") from exc
                results[pi].append(rows)
                del draws  # freed before the next point's are made
    results = [np.concatenate(chunks) for chunks in results]
    tables = family.reduce(s, results)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    files = [emit_outputs(t, out_dir) for t in tables.values()]
    if cfg.plots:
        files += _plot_tables(tables, out_dir)
    return {"tables": tables, "files": files}
