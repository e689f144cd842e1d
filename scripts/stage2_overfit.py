#!/usr/bin/env python3
"""Stage-2 overfit experiment.

Trains the surrogate model on a synthetic trajectory-supervised set and
reports the loss drop.  Defaults reproduce the desk-scale acceptance
experiment: 50 samples, d=32, vocab 64, P=3, N=20, 1000 full-batch steps;
the final loss lands well under 10% of the initial loss.
"""

import argparse
import json

from pite.toymodel import TrainerConfig, init_params
from pite.trainer import run_stage, synthetic_dataset, write_loss_curve


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--lr", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--data-seed", type=int, default=123)
    parser.add_argument("--curve", default="stage2_overfit_curve.csv")
    args = parser.parse_args()

    cfg = TrainerConfig(
        d_v=16, d=32, vocab=64, points=3, frames=20,
        lam=1.0, smoothing=0.0, lr=args.lr, steps=args.steps, seed=args.seed,
    )
    data = synthetic_dataset(2, args.samples, cfg, seed=args.data_seed)
    params = init_params(cfg)
    _, curve, grad_norms = run_stage(params, data, 2, cfg)
    write_loss_curve(curve, grad_norms, args.curve)
    print(
        json.dumps(
            {
                "samples": args.samples,
                "steps": args.steps,
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
