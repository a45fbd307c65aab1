"""The train_ablate process: calls rewardroute.beta_ablation on request.

Run as `python ablate_worker.py '<json job>'` with rewardroute on the path.
It prints "ready" once it can take an operation, then answers each "run"
line on stdin with one JSON line holding the ablation table, and exits on
"exit" or end of input.
"""

import json
import sys


def main() -> int:
    job = json.loads(sys.argv[1])
    from rewardroute import SyntheticSpec, TrainConfig, beta_ablation

    spec = SyntheticSpec(**job["spec"])
    config = TrainConfig(seed=job["train_seed"])
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            break
        result = beta_ablation(spec, job["betas"], config)
        print(json.dumps({"betas": result.betas, "accuracies": result.accuracies,
                          "train_rows": result.train_rows, "eval_rows": result.eval_rows}),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
