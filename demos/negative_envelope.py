"""Lower-bound envelope for sign-changing data on the circle.

A spatially constant negative solution relaxes toward zero along
v(t) = -1/(1/L + t) for p = 2.  The two-branch lower bound (relaxed ODE
envelope capped by a fixed negative level) must sit below it on the inner
ball for every slack delta.  The table reports the worst margin per delta.

    python3 demos/negative_envelope.py
"""

import argparse

import numpy as np

from semiheat import (
    EstimateParams,
    build_manifold,
    check_lower_bound_lemma,
    evolve,
    lemma_admissibility_min,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resolution", type=int, default=256)
    ap.add_argument("--length", type=float, default=40.0)
    args = ap.parse_args()

    m = build_manifold("circle", 1, args.length, args.resolution)
    traj = evolve(m, -np.ones(m.node_count), 0.0, 3.0, 2.0)
    print(f"torus length {args.length:g}, constant data -1, window [0, 3]")
    final = float(traj.snapshot_min[-1])
    print(f"final minimum {final:.4f} (exact -1/(1+t) gives {-1.0 / 4.0:.4f})")

    a_min = lemma_admissibility_min(m.n, 3.0, 1.0, 0.0)
    print(f"admissibility minimum for A at r0 = 1: {a_min:g} (using A = 8)")

    print(f"{'delta':>6} {'worst margin':>13} {'at t':>6}")
    for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
        params = EstimateParams(delta=delta, L=1.0, A=8.0, r0=1.0, T=3.0)
        report = check_lower_bound_lemma(traj, params, 1.0, 2.0)
        worst = report.diagnostics["worst_margin"]
        t_at = report.diagnostics["worst_time"]
        print(f"{delta:6.1f} {worst:13.4f} {t_at:6.2f}")


if __name__ == "__main__":
    main()
