#!/usr/bin/env python3
"""Stage-2 overfit experiment.

Trains the surrogate model on a synthetic trajectory-supervised set and
reports the loss drop.  This is the desk-scale acceptance experiment: 50
samples, d=32, vocab 64, P=3, N=20, 1000 full-batch steps at lr 4.0, params
seeded 7 and data seeded 123; the final loss lands well under 10% of the
initial loss.
"""

import argparse
import json

from pite.toymodel import TrainerConfig, init_params, pack_rows, sample_arrays
from pite.trainer import run_stage, synthetic_dataset, write_loss_curve

SAMPLES = 50
DATA_SEED = 123
CONFIG = TrainerConfig(
    d_v=16, d=32, vocab=64, points=3, frames=20,
    lam=1.0, smoothing=0.0, lr=4.0, steps=1000, seed=7,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--curve", default="stage2_overfit_curve.csv")
    args = parser.parse_args()

    batch = pack_rows(sample_arrays(synthetic_dataset(2, SAMPLES, CONFIG, seed=DATA_SEED)), 2, CONFIG)
    _, curve, grad_norms = run_stage(init_params(CONFIG), batch, 2, CONFIG)
    write_loss_curve(curve, grad_norms, args.curve)
    print(
        json.dumps(
            {
                "samples": SAMPLES,
                "steps": CONFIG.steps,
                "initial_loss": curve[0],
                "final_loss": curve[-1],
                "ratio": curve[-1] / curve[0],
                "curve": args.curve,
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
