#!/usr/bin/env python3
"""Search for non-CP reduced dynamics from a witness assignment map.

Builds the Hermitian, trace-consistent assignment
x -> x kron omega_E + gamma (x - tr(x) I/d_S) kron Delta, which is not CP
for any gamma > 0 at d_S = 2 (see ``witness_assignment``), then hunts over
Haar-random joint unitaries for the most negative Choi eigenvalue of the
reduced dynamics.

Usage: python scripts/find_cp_violation.py [--gamma G] [--draws N] [--seed N]
"""

import argparse
import json
import sys

import numpy as np

from cpdyn.consistency import reduced_dynamics_verdict, witness_assignment
from cpdyn.tensor import random_haar_unitary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma", type=float, default=2.0)
    parser.add_argument("--draws", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    omega = np.diag([0.7, 0.3]).astype(complex)
    delta = np.diag([1.0, -1.0]).astype(complex)
    assign = witness_assignment(omega, delta, args.gamma, 2)

    rng = np.random.default_rng(args.seed)
    best = 0.0
    best_draw = -1
    for i in range(args.draws):
        u = random_haar_unitary(4, rng)
        eig = reduced_dynamics_verdict(assign, u)[1]["min_choi_eigenvalue"]
        if eig < best:
            best, best_draw = eig, i

    out = {
        "gamma": args.gamma,
        "assignment_cp": bool(assign.cp),
        "assignment_trace_consistent": bool(assign.trace_consistent),
        "draws": args.draws,
        "best_min_choi_eigenvalue": float(best),
        "best_draw": best_draw,
        "violation_found": bool(best <= -0.01),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if out["violation_found"] else 1


if __name__ == "__main__":
    sys.exit(main())
