"""Meeting times of the ordered pair chain, and the bound they buy.

Two copies of the occupancy chain run under the monotone joint kernel:
started from the extreme pair (k, 0) they stay ordered and eventually
meet, and P[not met by t] upper-bounds the distance d(t).  The first
table shows the meeting-time spread; the second compares the Monte
Carlo tail with the exact distance computed from the lumped kernel.
"""

import argparse
import math

import numpy as np

from mixlab import ModelParams, replica_stream
from mixlab import coupling, lumped


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--replicas", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    params = ModelParams(args.n, args.k)
    center = args.n * math.log(args.n) / 4.0
    kernel = coupling.build_coupled_kernel(params)
    t_cap = int(4 * center)
    samples = coupling.merge_time_samples(
        kernel, args.k, 0, t_cap, args.replicas, replica_stream(args.seed, 0)
    )
    met = samples.tau[samples.merged]
    print(f"meeting time of the pair ((k, 0) start) at n={args.n}, k={args.k}")
    print(f"  replicas {args.replicas}, cap {t_cap}, unmerged {np.mean(~samples.merged):.4f}")
    qs = (0.1, 0.5, 0.9, 0.99)
    quant = np.quantile(met, qs)
    print("  quantiles " + ", ".join(f"q{q:g}={v:.0f}" for q, v in zip(qs, quant)))
    print(f"  for scale: n log n / 4 = {center:.0f}")

    print()
    print("tail of the meeting time vs the exact distance curve")
    print(f"{'t':>7} {'exact d(t)':>11} {'P[tau > t]':>11} {'stderr':>9}")
    ts = [round(alpha * center) for alpha in (0.5, 1.0, 1.5, 2.5)]
    exact = lumped.distances_at(params, ts)
    bounds = coupling.coupling_tv_upper_bound(
        params, ts, args.replicas, replica_stream(args.seed, 1)
    )
    for t, (estimate, stderr) in zip(ts, bounds):
        print(f"{t:>7} {exact[t]:>11.4f} {estimate:>11.4f} {stderr:>9.1e}")
    print()
    print("the tail must sit above the exact curve everywhere; the slack at")
    print("late t is the price of bounding via the worst starting pair.")


if __name__ == "__main__":
    main()
