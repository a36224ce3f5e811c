"""Survival of a lazy reflected walk, exactly and in the diffusion limit.

The walk holds with probability 1 - q and otherwise steps +-1 fairly;
started at m >= 1 it is absorbed at 0.  A reflection argument gives its
survival probability in closed form.  The first table cross-checks that
formula against direct dynamic programming; the second shows the
survival at start ceil(alpha * sqrt(qn)) and horizon beta * n settling
onto its Gaussian limit as n grows.
"""

import argparse
import math

from mixlab import walk


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=float, default=0.5)
    parser.add_argument("--start", type=int, default=3)
    args = parser.parse_args()

    print(f"survival from m={args.start} with move probability q={args.q}")
    print(f"{'steps':>6} {'closed form':>12} {'direct DP':>12}")
    brute = walk.survival_bruteforce(args.start, 40, args.q)
    for steps in (0, 2, 5, 10, 20, 40):
        exact = walk.survival_exact(args.start, steps, args.q)
        print(f"{steps:>6} {exact:>12.8f} {brute[steps]:>12.8f}")

    print()
    print("convergence to the Gaussian limit at start ~ alpha sqrt(qn), horizon beta n")
    grid = [(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]
    print(f"{'n':>8} {'worst gap over 3x3 (alpha, beta) grid':>38}")
    q = 0.01
    for n in (1000, 4000, 16_000, 64_000):
        scale = math.sqrt(q * n)
        worst = max(
            abs(
                walk.survival_exact(math.ceil(a * scale), int(b * n), q)
                - walk.gaussian_limit(a, b)
            )
            for a, b in grid
        )
        print(f"{n:>8} {worst:>38.5f}")
    print()
    print("the gap shrinks roughly like 1/sqrt(qn), the usual CLT rate plus")
    print("the rounding of the start to a whole site; the limit itself is the")
    print("probability a Brownian path stays positive.")


if __name__ == "__main__":
    main()
