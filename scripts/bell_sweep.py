#!/usr/bin/env python3
"""Sweep the CHSH angle family theta * (0, 2, 3, 1) on the singlet state.

Prints a CSV of the inequality's two sides and marks the violation window,
then reports the worst violation found.
"""

import argparse

from qlogic.bell import chsh_sweep
from qlogic.errors import DomainError


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=60, help="sweep resolution, at least 1")
    args = ap.parse_args()
    try:
        sweep = chsh_sweep(args.steps)
    except DomainError as exc:
        ap.exit(2, f"error: {exc}\n")

    worst = (0.0, None)
    print("theta_deg,lhs,rhs,violated")
    for theta, terms in sweep:
        gap = terms.lhs - terms.rhs
        if gap > worst[0]:
            worst = (gap, theta)
        print(f"{theta:.4f},{terms.lhs:.9f},{terms.rhs:.9f},{not terms.satisfied}")
    if worst[1] is None:
        print("# no violation in sweep")
    else:
        print(f"# largest violation {worst[0]:.6f} at theta = {worst[1]:.2f} deg")


if __name__ == "__main__":
    main()
