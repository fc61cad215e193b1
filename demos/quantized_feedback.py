"""Differential feedback spends its bits inside one pair interval.

An estimate is reported as its signed offset from the pair center, so the
quantizer range is the pair half-width delta instead of the whole sector.
At equal total payload (offset bits plus the paper's nominal sign bit
against plain uniform bits) the differential cells are narrower by the
sector-to-pair ratio, and both the mean and the worst-case reconstruction
error shrink accordingly. Run with no arguments.
"""

import numpy as np

from beampair.feedback import (codewords, quantize_differential, quantize_direct,
                               reconstruct_differential, reconstruct_direct,
                               worst_case_error)

DELTA = np.pi / 16          # pair half-width
SECTOR = (-np.pi / 3, np.pi / 3)
CENTER = 0.15               # pair center inside the sector


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    rng = np.random.default_rng(11)

    banner("codeword placement, 2 offset bits")
    cells = codewords(-DELTA, DELTA, 2)
    print(f"pair interval [{-DELTA:+.4f}, {DELTA:+.4f}] rad, "
          f"cells at {np.round(cells, 4)}")
    print(f"worst case |error| = delta / 2^bits = "
          f"{worst_case_error(DELTA, 2):.4f} rad")

    banner("round trip of one estimate")
    mu_hat = CENTER + 0.29 * DELTA
    index = quantize_differential(mu_hat, CENTER, DELTA, bits=3)
    back = reconstruct_differential(index, CENTER, DELTA, bits=3)
    print(f"estimate {mu_hat:+.4f} -> codeword {index} -> {back:+.4f}, "
          f"|error| {abs(back - mu_hat):.2e} rad")

    banner("equal payload, 4000 draws per row")
    half_sector = 0.5 * (SECTOR[1] - SECTOR[0])
    print(f"{'payload':>7} | {'diff mean':>10} {'diff worst':>10} | "
          f"{'direct mean':>11} {'direct worst':>12}")
    for bits in (2, 3, 4):
        mu = CENTER + rng.uniform(-DELTA, DELTA, 4000)
        index = quantize_differential(mu, CENTER, DELTA, bits=bits)
        d = np.abs(reconstruct_differential(index, CENTER, DELTA, bits=bits) - mu)
        index = quantize_direct(mu, SECTOR, bits=bits + 1)
        u = np.abs(reconstruct_direct(index, SECTOR, bits=bits + 1) - mu)
        print(f"{bits + 1:>7} | {d.mean():10.5f} {d.max():10.5f} | "
              f"{u.mean():11.5f} {u.max():12.5f}")
    print(f"direct worst case at b bits is {half_sector:.4f} / 2^b over the "
          f"sector, {half_sector / DELTA:.1f}x the pair half-width")


if __name__ == "__main__":
    main()
