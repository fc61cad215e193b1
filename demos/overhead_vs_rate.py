"""Training overhead is what separates the two estimators at the link level.

Exhaustive beam search over every RF-chain combination scales like
(beam count)^(chains), while the paired sweep stays a product of per-end
counts. This demo first does the overhead arithmetic, then runs a small
Monte-Carlo of the spectral-efficiency experiment and prints the rates
before and after the training time is charged against the frame budget.
Run with no arguments; takes a few seconds.
"""

import tempfile

import numpy as np

from beampair.experiments import run_experiment, validate_config
from beampair.metrics import OverheadModel

CONFIG = """
experiment = norm_se_vs_snr
trials = 40
seed = 0
snr_db = -10:5:20
plots = false
"""


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    banner("overhead arithmetic, 3 streams each end")
    model = OverheadModel(epsilon_t=1000, t_tot=200)
    e_gob = OverheadModel.gob_complexity(n_bm=10, m_bm=4, n_rf=3, m_rf=3)
    e_abp = OverheadModel.abp_complexity(n_rf=3, n_tx=30, m_rf=3, m_rx=25)
    for name, e in (("beam search", e_gob), ("paired sweep", e_abp)):
        t = model.t_est(e)
        print(f"{name:<13} {e:6d} iterations -> {t:3d} of {model.t_tot} "
              f"frame slots ({t / model.t_tot:.1%} spent training)")

    banner("monte-carlo rates at 40 trials per SNR point")
    cfg = validate_config(CONFIG)
    with tempfile.TemporaryDirectory(prefix="beampair_demo_") as out_dir:
        out = run_experiment(cfg, out_dir=out_dir)
        table = out["tables"]["norm_se_vs_snr"]

        vals = {}
        t_est = {}
        for row in table.rows:
            _, snr, scheme, metric, value, _ = row
            if metric == "t_est":
                t_est[scheme] = float(value)
            else:
                vals[(str(snr), scheme, metric)] = float(value)

        snrs = sorted({k[0] for k in vals}, key=float)
        print(f"{'snr':>6} | {'se perfect':>10} {'se abp':>8} {'se gob':>8} | "
              f"{'norm abp':>8} {'norm gob':>8}")
        for snr in snrs:
            print(f"{snr:>6} | {vals[(snr, 'perfect', 'se')]:10.3f} "
                  f"{vals[(snr, 'abp', 'se')]:8.3f} "
                  f"{vals[(snr, 'gob', 'se')]:8.3f} | "
                  f"{vals[(snr, 'abp', 'norm_se')]:8.3f} "
                  f"{vals[(snr, 'gob', 'norm_se')]:8.3f}")
        print(f"t_est charged: abp {t_est['abp']:.0f} slots, "
              f"gob {t_est['gob']:.0f} slots")

        gains = [vals[(s, 'abp', 'norm_se')] - vals[(s, 'gob', 'norm_se')]
                 for s in snrs]
        print(f"normalized-rate margin of the paired sweep: "
              f"{min(gains):.3f}..{max(gains):.3f} bit/s/Hz across the sweep")
        print(f"csv written under {out_dir}")


if __name__ == "__main__":
    main()
