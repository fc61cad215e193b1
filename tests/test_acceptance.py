"""Acceptance gate: one test per release criterion. Each prints a single
pass/fail line with its headline numbers and wall time, then asserts."""

import math
import time

import numpy as np
import pytest

from beampair.channel import (CrossPolConfig, OfdmConfig, PathParams,
                              copol_frequency_response, pulse_coefficients,
                              rician_narrowband, _effective)
from beampair.codebook import CodebookConfig, build_codebooks, random_probing_plan
from beampair.estimator import (estimate_multipath, estimate_single_path,
                                invert_ratio, ratio_closed_form, ratio_metric,
                                received_symbol)
from beampair.experiments import run_experiment, validate_config
from beampair.feedback import codewords, quantize_differential, reconstruct_differential
from beampair.geometry import (AngleSet, ArrayConfig,
                               angles_from_spatial_frequencies, aoa_from_nu,
                               spatial_frequencies, ula_steering, upa_steering)
from beampair.pilot import (FlatGains, assign_pilots, correlate_zero_lag,
                            interference_bounds, zc_sequence)

ARRAYS = ArrayConfig(n_x=4, n_y=8, m_tot=4)


def _verdict(capsys, num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _angles(mu_x, mu_y, nu, arrays):
    theta, phi = angles_from_spatial_frequencies(mu_x, mu_y, arrays)
    return AngleSet(theta, phi, aoa_from_nu(nu, arrays))


def _run(text: str, tmp_path, name: str):
    cfg = validate_config(text)
    return run_experiment(cfg, str(tmp_path))["tables"][name]


# ---------------------------------------------------------------------------

def test_criterion_1_noiseless_round_trip(capsys):
    """10^3 continuous single-path draws through the offset family whose
    pair kernels match exactly: every AoD/AoA estimate within 1e-6 deg."""
    t0 = time.monotonic()
    cfg = CodebookConfig(arrays=ARRAYS,
                         el_range=(-np.pi / 2, np.pi / 2),
                         az_range=(-np.pi / 2, np.pi / 2),
                         rx_range=(-np.pi / 2, np.pi / 2),
                         delta_mode="commensurate", ell=1)
    cbs = build_codebooks(cfg)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        mu_x = rng.uniform(-np.pi / 4, np.pi / 4) * 0.999
        mu_y = rng.uniform(-3 * np.pi / 8, 3 * np.pi / 8) * 0.999
        nu = rng.uniform(-np.pi / 4, np.pi / 4) * 0.999
        truth = _angles(mu_x, mu_y, nu, ARRAYS)
        chan = rician_narrowband(ARRAYS, truth, k_factor_db=100.0, n_nlos=0,
                                 rng=rng)
        est = estimate_single_path(chan, cbs).best
        worst = max(worst,
                    abs(np.degrees(est.theta - truth.theta)),
                    abs(np.degrees(est.phi - truth.phi)),
                    abs(np.degrees(est.psi - truth.psi)))
    dt = time.monotonic() - t0
    _verdict(capsys, 1, worst < 1e-6 and dt < 30.0,
             f"max AoD/AoA error {worst:.3e} deg over 1000 draws, {dt:.1f} s")


def test_criterion_2_pilot_correlation_values(capsys):
    """Four-beam reference setup (roots 25/25/29/34, shifts 0/1/0/1, p = 6)
    against reference {25, b=1}: magnitudes 0 (same root, other shift),
    1 (matched) and 1/sqrt(511) twice (distinct roots).

    The stated cross level 0.4424 is a decimal slip for 1/sqrt(511) =
    0.044237: for odd length L and a root difference coprime with L, the
    quadratic Gauss sum gives a normalized cross level of exactly
    1/sqrt(L), and 0.4424 would need L of about 5. The flat level is
    checked at L = 511, where all three roots are valid. At the even
    block length 512, root 34 is valid only under the n_minus_1 variant,
    whose phase modulus stays 512, so there only the matched and
    same-root entries have a closed form."""
    t0 = time.monotonic()
    p = 6
    tags = ((25, 0), (25, 1), (29, 0), (34, 1))
    vals = {}
    for n, variant in ((512, "n_minus_1"), (511, "n")):
        ref = zc_sequence(25, 1, p, n, coprime_with=variant)
        vals[n] = [abs(np.sum(zc_sequence(root, b, p, n, coprime_with=variant)
                              * ref.conj())) / n
                   for root, b in tags]
    dt = time.monotonic() - t0
    # root differences 4 and 9 are coprime with 511, so the identity applies
    assert all(math.gcd(root - 25, 511) == 1 for root, _ in tags[2:])
    cross = 1.0 / math.sqrt(511)
    expected = [0.0, 1.0, cross, cross]
    ok = (all(abs(v - e) <= 1e-9 for v, e in zip(vals[511], expected))
          and all(abs(v - e) <= 1e-9 for v, e in zip(vals[512][:2], expected))
          and dt < 5.0)
    _verdict(capsys, 2, ok,
             "length 511: " + "/".join(f"{v:.6f}" for v in vals[511])
             + " vs " + "/".join(f"{e:.6f}" for e in expected)
             + "; length 512 (n_minus_1): "
             + "/".join(f"{v:.6f}" for v in vals[512][:2])
             + " vs 0.000000/1.000000; stated 0.4424 is a decimal slip for "
             f"1/sqrt(511), {dt:.1f} s")


def test_criterion_3_pilot_matches_tdm(capsys, tmp_path):
    """Simultaneous four-beam pilot probing recovers per-beam mean
    amplitudes within 5% of one-beam-at-a-time probing, 200 trials."""
    t0 = time.monotonic()
    table = _run("experiment = pilot_vs_tdm\ntrials = 200\nseed = 0\n"
                 "plots = false\n", tmp_path, "pilot_vs_tdm")
    rels = {r[0]: float(r[5]) for r in table.rows}
    worst = max(rels.values())
    dt = time.monotonic() - t0
    _verdict(capsys, 3, worst < 0.05 and dt < 120.0,
             f"worst per-beam amplitude difference {worst:.3%}, {dt:.1f} s")


def test_criterion_4_pair_estimation_beats_sweep_floor(capsys, tmp_path):
    """Rician K = 13.2 dB, SNR 10..20 dB, 500 trials/point: pair-ratio
    azimuth MAEE stays under half the sweep spacing (5.625 deg for the
    6-beam codebook) while the sweep baseline plateaus near that floor."""
    t0 = time.monotonic()
    table = _run("trials = 500\nseed = 0\nsnr_db = 10:5:20\nplots = false\n",
                 tmp_path, "maee_vs_snr")
    az = {(r[1], float(r[0])): float(r[3]) for r in table.rows
          if r[2] == "azimuth"}
    snrs = sorted({s for _, s in az})
    floor = np.degrees(np.pi / 32)  # mean |error| of the boresight quantizer
    abp = [az[("abp", s)] for s in snrs]
    gob = [az[("gob", s)] for s in snrs]
    ok = (all(a < floor for a in abp)
          and all(a < g for a, g in zip(abp, gob))
          and all(g > 0.98 * floor for g in gob)
          and gob[-1] < 1.3 * floor
          and abs(gob[-1] - gob[-2]) / gob[-2] < 0.10)
    dt = time.monotonic() - t0
    _verdict(capsys, 4, ok and dt < 600.0,
             f"abp az MAEE {'/'.join(f'{a:.2f}' for a in abp)} deg < {floor} "
             f"and sweep {'/'.join(f'{g:.2f}' for g in gob)} deg plateaus, "
             f"{dt:.1f} s")


def test_criterion_5_differential_quantizer(capsys, tmp_path):
    """Equal payload (3 bits + sign vs 4 bits): offset quantization beats
    sector quantization for both array widths, and its dense-sweep worst
    case equals the half-cell bound."""
    t0 = time.monotonic()
    table = _run("experiment = maqe_bits\ntrials = 500\nseed = 0\n"
                 "plots = false\n", tmp_path, "maqe_bits")
    by_key = {(str(r[0]), r[1], r[3]): float(r[4]) for r in table.rows}
    ok = True
    details = []
    for n_y in ("8", "16"):
        diff = by_key[(n_y, "differential", "maqe_deg")]
        direct = by_key[(n_y, "direct", "maqe_deg")]
        worst = by_key[(n_y, "differential", "worst_case_deg")]
        bound = by_key[(n_y, "differential", "worst_case_bound_deg")]
        ok = ok and diff < direct and abs(worst - bound) < 1e-9
        details.append(f"n_y={n_y}: {diff:.3f}<{direct:.3f} deg, "
                       f"|worst-bound|={abs(worst - bound):.1e}")
    dt = time.monotonic() - t0
    _verdict(capsys, 5, ok and dt < 60.0, "; ".join(details) + f", {dt:.1f} s")


def test_criterion_6_interference_bounds(capsys):
    """100 random flat-gain trials at a prime block length: measured
    correlation terms never exceed the analytic bounds, and the same-root
    different-shift term is zero to 1e-9 N."""
    t0 = time.monotonic()
    n, p, n_rf = 509, 6, 6
    asn = assign_pilots([0, 1, 2, 3], n, p=p)
    cols = [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (3, 0)]
    seqs = asn.references(cols).T  # seqs[i] is column i
    ref = asn.references([(0, 0)])[:, 0]
    rng = np.random.default_rng(33)
    ok = True
    worst_i1 = 0.0
    for _ in range(100):
        vv = complex(rng.normal(), rng.normal())
        vh = complex(rng.normal(), rng.normal())
        chi = rng.uniform(0.0, 0.5)
        q = np.sqrt(1.0 / (1.0 + chi))
        beta = rng.uniform(0, 1, size=6) * np.exp(2j * np.pi * rng.random(6))
        bounds = interference_bounds(
            asn, FlatGains(chi=chi, sum_rho_h_vv=vv, sum_rho_h_vh=vh, n_rf=n_rf))
        i0 = abs(correlate_zero_lag(q * vv * beta[0] * seqs[0], ref))
        i1 = abs(correlate_zero_lag(q * vv * beta[1] * seqs[1], ref))
        i2 = abs(correlate_zero_lag(q * vv * beta[2] * seqs[2], ref))
        i3 = abs(correlate_zero_lag(
            q * vh * (beta[3] * seqs[3] + beta[4] * seqs[4]
                      + beta[5] * seqs[5]), ref))
        worst_i1 = max(worst_i1, i1)
        ok = ok and (i0 <= bounds["i0"] + 1e-9 and i1 <= 1e-9 * n
                     and i2 <= bounds["i2"] + 1e-9 and i3 <= bounds["i3"] + 1e-9)
    dt = time.monotonic() - t0
    _verdict(capsys, 6, ok and dt < 60.0,
             f"100 trials within bounds, max same-root leak {worst_i1:.2e} "
             f"(budget {1e-9 * n:.2e}), {dt:.1f} s")


def test_criterion_7_overhead_and_rate_ordering(capsys, tmp_path):
    """Three-stream overhead arithmetic (estimation slots 7 vs 64 at 1000
    iterations/slot) and the normalized-rate ordering at every SNR point,
    N = 256 subcarriers."""
    t0 = time.monotonic()
    table = _run("experiment = norm_se_vs_snr\ntrials = 100\nseed = 0\n"
                 "snr_db = -10:5:20\nplots = false\n", tmp_path,
                 "norm_se_vs_snr")
    t_est = {r[2]: float(r[4]) for r in table.rows if r[3] == "t_est"}
    norm = {}
    for r in table.rows:
        if r[3] == "norm_se":
            norm.setdefault(float(r[1]), {})[r[2]] = float(r[4])
    margins = [norm[s]["abp"] - norm[s]["gob"] for s in sorted(norm)]
    ok = (t_est == {"abp": 7.0, "gob": 64.0}
          and len(margins) == 7 and all(m > 0 for m in margins))
    dt = time.monotonic() - t0
    _verdict(capsys, 7, ok and dt < 300.0,
             f"t_est abp/gob = {t_est.get('abp'):.0f}/{t_est.get('gob'):.0f}, "
             f"normalized-rate margin {min(margins):.3f}"
             f"..{max(margins):.3f} bit/s/Hz over 7 points, {dt:.1f} s")


def test_criterion_8_robustness_sweeps(capsys, tmp_path):
    """The rate gap between perfect-angle and estimated-angle beamforming,
    expressed as a fraction of the perfect-angle rate, moves by < 10%
    across the mismatch sweep (0..30 deg) and the leakage sweep
    (chi 0..0.4), 500 paired trials per point."""
    t0 = time.monotonic()
    spreads = {}
    for fam in ("robustness_mismatch", "robustness_xpd"):
        table = _run(f"experiment = {fam}\ntrials = 500\nseed = 0\n"
                     "plots = false\n", tmp_path, fam)
        gaps = [float(r[4]) for r in table.rows]
        spreads[fam] = max(gaps) - min(gaps)
    ok = all(s < 0.10 for s in spreads.values())
    dt = time.monotonic() - t0
    _verdict(capsys, 8, ok and dt < 600.0,
             f"gap fraction moves by {spreads['robustness_mismatch']:.4f} "
             f"over mismatch sweep, {spreads['robustness_xpd']:.4f} over "
             f"leakage sweep (budget 0.10), {dt:.1f} s")


# ---------------------------------------------------------------------------
# criterion 9: brute-force oracles and property checks, 10^3 cases each

def _sweep_invert(strengths, boresights, win=None):
    """Winner and stronger neighbor from a strength list, ratio inverted
    longhand."""
    if win is None:
        win = max(range(len(strengths)), key=lambda i: strengths[i])
    nbs = [i for i in (win - 1, win + 1) if 0 <= i < len(strengths)]
    nb = max(nbs, key=lambda i: strengths[i])
    lo, hi = sorted((win, nb))
    delta = 0.5 * (boresights[hi] - boresights[lo])
    center = 0.5 * (boresights[hi] + boresights[lo])
    z = (strengths[lo] - strengths[hi]) / (strengths[lo] + strengths[hi])
    sd, cd = math.sin(delta), math.cos(delta)
    arg = (z * sd - z * math.sqrt(max(0.0, 1 - z * z)) * sd * cd) \
        / (sd * sd + z * z * cd * cd)
    return center - math.asin(arg)


def _check_received_symbol(rng) -> bool:
    for _ in range(1000):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        w = rng.normal(size=m) + 1j * rng.normal(size=m)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        acc = 0.0 + 0.0j
        for i in range(m):
            for j in range(n):
                acc += np.conj(w[i]) * h[i, j] * f[j]
        if abs(received_symbol(w, h, f) - acc) > 1e-12:
            return False
    return True


def _check_channel_elementwise(rng) -> bool:
    arrays = ArrayConfig(2, 3, 2)
    ofdm = OfdmConfig(64, 16)
    for _ in range(5):
        paths = [PathParams.single_pol(
            complex(rng.normal(), rng.normal()),
            rng.uniform(0, 3) * ofdm.sample_period,
            AngleSet(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-1, 1)))
            for _ in range(3)]
        real = copol_frequency_response(paths, arrays, ofdm)
        for k in (0, 31):
            want = np.zeros((2, 6), dtype=complex)
            for pth in paths:
                sf = spatial_frequencies(pth.angles, arrays)
                a_r = ula_steering(sf.nu, 2)
                a_t = upa_steering(sf.mu_x, sf.mu_y, 2, 3)
                rho = pulse_coefficients(pth.tau, ofdm)[k]
                for i in range(2):
                    for j in range(6):
                        want[i, j] += rho * pth.g_vv * a_r[i] * np.conj(a_t[j])
            if np.max(np.abs(real.h[k] - want)) > 1e-12:
                return False
    return True


def _check_two_path_toy() -> bool:
    cfg = CodebookConfig(arrays=ARRAYS,
                         el_range=(-3 * np.pi / 4, 3 * np.pi / 4),
                         az_range=(-3 * np.pi / 4, 3 * np.pi / 4),
                         rx_range=(-3 * np.pi / 4, 3 * np.pi / 4),
                         delta_mode="commensurate", ell=1)
    cbs = build_codebooks(cfg)
    d_az, d_el = cfg.delta("azimuth"), cfg.delta("elevation")
    mu_a = (-0.785 - 0.15 * d_el, -np.pi / 2 + 0.15 * d_az, 0.0)
    mu_b = (0.785 + 0.15 * d_el, np.pi / 2 - 0.15 * d_az, np.pi / 2)
    paths = [PathParams.single_pol(np.exp(0.3j), 0.0, _angles(*mu_a, ARRAYS)),
             PathParams.single_pol(0.85 * np.exp(-1.1j), 0.0,
                                   _angles(*mu_b, ARRAYS))]
    chan = copol_frequency_response(paths, ARRAYS, OfdmConfig(64, 16))
    plan = random_probing_plan(cbs, 6, 3, 1, 1, seed=3, layout="free")
    pilots = assign_pilots(range(len(cbs.books["azimuth"].pairs)), 64, p=1)
    rep = estimate_multipath(chan, plan, pilots, None, 2,
                             rng=np.random.default_rng(5), codebooks=cbs)

    h0 = chan.h[0]
    rx, az, el = (cbs.books[axis] for axis in ("receive", "azimuth", "elevation"))

    def power(vec):
        return sum(abs(received_symbol(w, h0, vec)) ** 2 for w in rx.matrix.T)

    # co-polarized arrays: every beam of a book is vertical
    s_az = [power(f) for f in az.matrix.T]
    order = sorted(range(len(s_az)), key=lambda i: -s_az[i])[:2]
    bores = az.boresights.tolist()
    oracle = []
    for win in order:
        mu_y = _sweep_invert(s_az, bores, win)
        s_el = [power(np.kron(upa_steering(mu, 0.0, ARRAYS.n_x, 1),
                              upa_steering(0.0, mu_y, 1, ARRAYS.n_y)))
                for mu in el.boresights.tolist()]
        mu_x = _sweep_invert(s_el, el.boresights.tolist())
        oracle.append((mu_x, mu_y))
    for est in rep.paths:
        truth = mu_a if abs(est.mu_y - mu_a[1]) < abs(est.mu_y - mu_b[1]) else mu_b
        ta = _angles(*truth, ARRAYS)
        if abs(np.degrees(est.theta - ta.theta)) > 0.1:
            return False
        if abs(np.degrees(est.phi - ta.phi)) > 0.1:
            return False
        near = min(oracle, key=lambda o: abs(o[1] - est.mu_y))
        if abs(est.mu_y - near[1]) > 1e-9 or abs(est.mu_x - near[0]) > 1e-9:
            return False
    return True


def _check_quantizer_enumeration(rng) -> bool:
    for _ in range(1000):
        delta = rng.uniform(0.05, 1.0)
        center = rng.uniform(-1.0, 1.0)
        bits = int(rng.integers(1, 7))
        mu = center + rng.uniform(-delta, delta)
        back = reconstruct_differential(quantize_differential(mu, center, delta, bits),
                                        center, delta, bits)
        grid = center + codewords(-delta, delta, bits)
        best = min(grid, key=lambda c: abs(c - mu))
        if abs(back - best) > 1e-12:
            return False
    return True


def _check_monotonicity(rng) -> bool:
    for _ in range(1000):
        delta = rng.uniform(0.05, np.pi / 2 - 0.05)
        center = rng.uniform(-1.0, 1.0)
        mu = np.linspace(center - delta, center + delta, 200)
        if not np.all(np.diff(ratio_closed_form(mu, center, delta)) < 0):
            return False
    return True


def _check_containment(rng) -> bool:
    for _ in range(1000):
        delta = rng.uniform(0.05, np.pi / 2 - 0.05)
        center = rng.uniform(-1.0, 1.0)
        z = rng.uniform(-1.5, 1.5)
        mu = invert_ratio(z, center, delta)
        if not center - delta - 1e-12 <= mu <= center + delta + 1e-12:
            return False
    return True


def _check_invariances(rng) -> bool:
    """Scaling the channel or changing the combiner must leave the pair
    ratio untouched (single path)."""
    for _ in range(1000):
        m, n = 4, 8
        a_r = rng.normal(size=m) + 1j * rng.normal(size=m)
        a_t = rng.normal(size=n) + 1j * rng.normal(size=n)
        h = np.outer(a_r, a_t.conj()) * complex(rng.normal(), rng.normal())
        f0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        f1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        zetas = []
        for w in (rng.normal(size=m) + 1j * rng.normal(size=m),
                  rng.normal(size=m) + 1j * rng.normal(size=m)):
            for hh in (h, h * complex(rng.normal(), rng.normal())):
                p0 = abs(received_symbol(w, hh, f0)) ** 2
                p1 = abs(received_symbol(w, hh, f1)) ** 2
                if p0 + p1 == 0:
                    return False
                zetas.append(ratio_metric(p0, p1))
        if max(zetas) - min(zetas) > 1e-9:
            return False
    return True


def _check_givens_energy(rng) -> bool:
    for _ in range(1000):
        pth = PathParams(complex(rng.normal(), rng.normal()),
                         complex(rng.normal(), rng.normal()),
                         complex(rng.normal(), rng.normal()),
                         complex(rng.normal(), rng.normal()),
                         0.0, AngleSet(0.1, 0.2, 0.3))
        chi = rng.uniform(0.0, 0.9)
        g = np.array([[[pth.g_vv, pth.g_vh], [pth.g_hv, pth.g_hh]]])
        base = _effective(g, CrossPolConfig(chi, 0.0))[0]
        rot = _effective(g, CrossPolConfig(chi, rng.uniform(-np.pi, np.pi)))[0]
        for row in (0, 1):  # (vv, vh), then (hv, hh)
            e0 = abs(base[row, 0]) ** 2 + abs(base[row, 1]) ** 2
            e1 = abs(rot[row, 0]) ** 2 + abs(rot[row, 1]) ** 2
            if abs(e0 - e1) > 1e-10:
                return False
    return True


def test_criterion_9_oracle_and_property_suite(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    results = {
        "received-symbol dense product": _check_received_symbol(rng),
        "element-wise channel build": _check_channel_elementwise(rng),
        "two-path exhaustive sweep": _check_two_path_toy(),
        "quantizer enumeration": _check_quantizer_enumeration(rng),
        "ratio monotonicity": _check_monotonicity(rng),
        "inversion containment": _check_containment(rng),
        "gain/combiner invariance": _check_invariances(rng),
        "rotation energy preservation": _check_givens_energy(rng),
    }
    bad = [k for k, v in results.items() if not v]
    dt = time.monotonic() - t0
    _verdict(capsys, 9, not bad,
             (f"{len(results)} oracle/property suites pass, {dt:.1f} s")
             if not bad else f"failing: {', '.join(bad)}, {dt:.1f} s")
