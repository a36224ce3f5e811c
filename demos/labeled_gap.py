"""Tracking labels costs extra mixing time.

Watching which particle sits where (labeled) reveals strictly more than
watching only how many particles remain up front (unlabeled), so the
labeled distance can never be smaller.  Small instances show the gap
exactly.  At sizes far beyond enumeration, a fixed-point count argument
still gives a labeled lower bound: after the unlabeled statistic has
essentially equilibrated, too many labels remain where they started for
the labeled chain to be anywhere near uniform.
"""

import argparse
import math

from mixlab import LABELED, UNLABELED, ModelParams, replica_stream
from mixlab import bounds, exclusion, lumped


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--k", type=int, default=50)
    parser.add_argument("--threshold", type=int, default=5)
    parser.add_argument("--replicas", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    small = ModelParams(6, 3)
    labeled = exclusion.brute_force_tv_curve(small, LABELED, 12)
    unlabeled = exclusion.brute_force_tv_curve(small, UNLABELED, 12)
    print("exact distances at n=6, k=3 (gap = labeled - unlabeled)")
    print(f"{'t':>4} {'labeled':>9} {'unlabeled':>10} {'gap':>8}")
    for t in (0, 1, 2, 4, 8, 12):
        print(f"{t:>4} {labeled[t]:>9.5f} {unlabeled[t]:>10.5f} {labeled[t] - unlabeled[t]:>8.5f}")

    params = ModelParams(args.n, args.k)
    print()
    print(
        f"labeled lower bound vs exact unlabeled distance at n={args.n}, "
        f"k={args.k}, threshold K={args.threshold}"
    )
    center = args.n * math.log(args.k) / 2.0
    ts = sorted({round(a * center) for a in (0.0, 0.5, 1.0, 1.5, 2.0)})
    exact = lumped.distances_at(params, ts)
    print(f"{'t':>6} {'labeled lower':>14} {'unlabeled exact':>16}")
    for idx, t in enumerate(ts):
        low = bounds.labeled_tv_lower_bound(
            params, t, args.threshold, replicas=args.replicas,
            rng=replica_stream(args.seed, idx),
        )
        print(f"{t:>6} {low.value:>14.4f} {exact[t]:>16.4f}")
    print()
    print(f"unlabeled cutoff sits near n log(k)/2 = {center:.0f}; the labeled bound")
    print("is still large there, pinning the labeled mixing time strictly later.")


if __name__ == "__main__":
    main()
