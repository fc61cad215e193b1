"""Zadoff-Chu pilots keep simultaneously probed beams separable.

Each beam pair gets one root; the two members share the root and differ by
a circular shift. With a prime sequence length the zero-lag correlator
lands in three exact classes: n for the matched reference, zero for the
same root at the other shift, and sqrt(n) for any distinct root. Pair
powers therefore recover cleanly from one superimposed observation, which
is what lets several beams probe in the same symbol. Run with no
arguments.
"""

import numpy as np

from beampair.estimator import invert_ratio, ratio_metric
from beampair.pilot import (FlatGains, assign_pilots, correlate_zero_lag,
                            interference_bounds)

N = 509  # prime, so every distinct-root cross sits at exactly sqrt(n)
SNR_DB = 20.0


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    rng = np.random.default_rng(3)
    asn = assign_pilots([0, 1], N)
    print(f"length n = {N}, shift spacing p = {asn.p}, "
          f"roots by pair = {asn.roots}")

    keys = [(a, b) for a in (0, 1) for b in (0, 1)]
    x = asn.references(keys)  # (N, 4): one reference column per key
    seqs = {k: x[:, i] for i, k in enumerate(keys)}

    banner("the three correlation classes against reference (0, 0)")
    m, s, c = abs(correlate_zero_lag(x[:, :3], seqs[(0, 0)]))
    print(f"matched (root 25, b=0):          {m:10.4f}   (n = {N})")
    print(f"same root, other shift (b=1):    {s:10.4e}   (exact zero)")
    print(f"other root (root 29):            {c:10.4f}   "
          f"(sqrt(n) = {np.sqrt(N):.4f})")

    banner("four beams superimposed in one symbol, 20 dB")
    gains = {(0, 0): 1.00, (0, 1): 0.55, (1, 0): 0.80, (1, 1): 0.40}
    phases = {k: np.exp(2j * np.pi * rng.random()) for k in keys}
    y = sum(gains[k] * phases[k] * seqs[k] for k in keys)
    sigma = 10.0 ** (-SNR_DB / 20.0)
    y = y + sigma * (rng.standard_normal(N)
                     + 1j * rng.standard_normal(N)) / np.sqrt(2)

    print(f"{'beam':<10} {'true |g|':>9} {'recovered':>10} {'rel err':>9}")
    powers = {}
    for k, corr in zip(keys, correlate_zero_lag(y, x)):
        powers[k] = abs(corr) ** 2
        g_hat = abs(corr) / N
        print(f"{str(k):<10} {gains[k]:9.3f} {g_hat:10.4f} "
              f"{abs(g_hat - gains[k]) / gains[k]:9.2%}")
    print("residual error is the sqrt(n)-level leakage from the other "
          "root plus correlator noise")

    banner("pair power ratio straight from the correlator")
    met = ratio_metric(powers[(0, 0)], powers[(0, 1)])
    true = ratio_metric(gains[(0, 0)] ** 2, gains[(0, 1)] ** 2)
    print(f"zeta from superimposed symbol: {met:8.4f}")
    print(f"zeta from the true gains:      {true:8.4f}")
    delta = np.pi / 16
    print(f"inverted offset, pair (center 0, delta pi/16): "
          f"{invert_ratio(met, 0.0, delta):8.4f} rad "
          f"vs {invert_ratio(true, 0.0, delta):8.4f} rad from truth")

    banner("analytic budget for a 4-chain probing with flat gains")
    asn4 = assign_pilots([0, 1, 2, 3], N)
    gains4 = FlatGains(chi=0.2, sum_rho_h_vv=1.0, sum_rho_h_vh=0.3, n_rf=4)
    bounds = interference_bounds(asn4, gains4)
    print(f"matched term        i0 = {bounds['i0']:10.2f}   (scales with n)")
    print(f"same root bound     i1 = {bounds['i1']:10.2f}   "
          "(zero, shift spacing is valid)")
    print(f"other roots, co-pol i2 = {bounds['i2']:10.2f}   "
          "(scales with sqrt(n))")
    print(f"cross-pol           i3 = {bounds['i3']:10.2f}   "
          "(scales with sqrt(n))")
    print(f"worst-case interference over matched: "
          f"{(bounds['i1'] + bounds['i2'] + bounds['i3']) / bounds['i0']:.4f}")


if __name__ == "__main__":
    main()
