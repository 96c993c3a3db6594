#!/usr/bin/env python3
"""Monte Carlo oracle versus the analytic routes on a small complete graph.

Simulates the 5-node single-source benchmark system, compares every distinct
output covariance entry against the numeric Lyapunov route by
``montecarlo.agreement``, and prints the number of entries, the threshold and
the worst entry.  Exits 1 when the verdict fails, 2 on a bad argument, and 0
otherwise.

Usage:
    python3 scripts/mc_check.py [--trajectories 2000] [--seed 2024]
"""

import argparse
import sys
import time

import numpy as np

from gridfluct import LinearizedSystem, ValidationError, asymptotic_variance_numeric, canonical_complete
from gridfluct.montecarlo import agreement, default_sim_config, simulate_covariance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trajectories", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    n = 5
    noise = np.zeros(n)
    noise[1] = 0.04
    ones = np.ones(n)
    lin = LinearizedSystem(canonical_complete(n, 10.0), 0.5 * ones, 0.3 * ones, noise)

    try:
        cfg = default_sim_config(lin, trajectories=args.trajectories, master_seed=args.seed)
    except ValidationError as exc:
        print(f"mc_check: {exc}", file=sys.stderr)
        return 2
    print(f"dt={cfg.dt:.3g}  burn_in={cfg.burn_in:.3g}s  horizon={cfg.horizon:.3g}s  "
          f"trajectories={cfg.trajectories}")
    start = time.perf_counter()
    report = simulate_covariance(lin, cfg)
    elapsed = time.perf_counter() - start

    numeric = asymptotic_variance_numeric(lin)
    m = lin.line_count
    reference = np.zeros_like(report.diagnostics["moment_full"])
    reference[:m, :m] = numeric.q_delta
    reference[m:, m:] = numeric.q_omega
    reference[m:, :m] = numeric.q_delta_omega
    reference[:m, m:] = numeric.q_delta_omega.T

    check = agreement(report.diagnostics["moment_full"], report.diagnostics["stderr_full"], reference)

    print(f"simulated {cfg.trajectories} trajectories in {elapsed:.1f}s "
          f"({report.diagnostics['samples_per_trajectory']} samples each)")
    print(f"distinct covariance entries: {check.entries}, threshold z: {check.threshold:.2f}")
    print(f"worst z: {check.worst_z:.2f}, at 0-based entry {check.worst_entry} of the "
          f"{len(reference)}x{len(reference)} output covariance")
    print(f"entries flagged: {len(check.flagged)} of {check.entries}")
    print(f"frequency-block sample mean (should be ~0): "
          f"{np.abs(report.diagnostics['frequency_mean']).max():.2e}")
    return int(not check.passed)


if __name__ == "__main__":
    sys.exit(main())
