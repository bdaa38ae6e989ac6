#!/usr/bin/env python3
"""Timing harness for the numerical kernels.

Each kernel runs on inputs sized like real detector work; the table shows the
best-of-N time per kernel after one untimed run.

Every case checks the status or convergence flag its kernel returns: the
scans must run all T steps and the solvers must converge, so no row times an
early exit. The script exits non-zero if any case fails that check. The
eigensolver row times LAPACK ``eigh`` through ``_kernels.jacobi_eig``, which
keeps its old name. The Anderson-Darling cases run the default window (64,
blocks of 4096 windows) and a window of 200, whose blocks are shorter. The
EASI cases run the cubic and the tanh nonlinearity on a prewhitened
generator record at the CLI step (1e-4); the Kalman cases run a unit-noise
model and a `fit_ar1_state_space` model of a generator record, where the
scan switches to the steady-state gain.

The rows that scan T samples (AD, AR, EASI, Kalman) also show the best time
per sample in microseconds, the unit the README quotes.

Usage: python3 benchmarks/bench_kernels.py [--t 20000] [--repeats 5]
"""

import argparse
import sys
import time

import numpy as np

from nsca import _kernels as K
from nsca.cli import CLI_EASI_STEP
from nsca.detectors import fit_ar1_state_space, prewhiten
from nsca.errors import BadSpec
from nsca.synthetic import DEFAULT_BURST, default_source_specs, gen_mixture

SCANS = ("ad_sliding", "ar_sliding", "easi_scan", "kalman_scan")  # one step per sample


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best


# Each check maps a kernel's return value to None (ok) or a failure message.
def ok_pivot(out):
    return None if out[1] < 0 else f"not positive definite at column {out[1]}"


def ok_status(out):
    return None if out[-2] == 0 else f"stopped at step {out[-1]}"


def ok_converged(out):
    return None if out[-1] == 1 else f"no convergence in {out[-2]} sweeps"


def ok_finite(out):
    return None if np.isfinite(out).all() else "non-finite output"


def ok_windows(out):
    return None if out[1][-1] else "last window rejected"


def build_cases(T):
    rng = np.random.default_rng(0)
    n = 8
    G = rng.standard_normal((n, n))
    S = np.ascontiguousarray(G @ G.T + n * np.eye(n))
    L = np.linalg.cholesky(S)
    B = np.ascontiguousarray(rng.standard_normal((n, n)))
    M = np.empty((6, n, n))
    R = rng.standard_normal((n, n))
    for i in range(6):
        M[i] = R.T @ np.diag(0.5 + rng.random(n)) @ R
    weights = np.ones(6)
    x = rng.standard_normal(T)
    m = 4
    xt = np.ascontiguousarray(rng.standard_normal((T, m)))
    F = np.eye(m)
    H = np.eye(m)
    Qm = np.ascontiguousarray(0.01 * np.eye(m))
    Rm = np.ascontiguousarray(np.eye(m))
    x0 = np.zeros(m)
    P0 = np.ascontiguousarray(np.eye(m))
    rec, _ = gen_mixture(m, T, DEFAULT_BURST, default_source_specs(m), seed=0)
    white = np.ascontiguousarray(prewhiten(rec).samples.T)
    fit = fit_ar1_state_space(rec)
    fit_args = (
        np.ascontiguousarray(rec.samples.T),
        fit.transition,
        fit.observation,
        np.ascontiguousarray(fit.process_noise_cov.entries),
        np.ascontiguousarray(fit.obs_noise_cov.entries),
        fit.init_state,
        np.ascontiguousarray(fit.init_cov.entries),
    )
    return [
        ("cholesky 8x8", "cholesky", lambda f: f(S, 0.0), ok_pivot),
        ("solve_lower 8x8", "solve_lower", lambda f: f(L, B), ok_finite),
        ("LAPACK eigh 8x8", "jacobi_eig", lambda f: f(S), ok_converged),
        ("ajd_rotate K=6 n=8", "ajd_rotate", lambda f: f(M.copy(), weights, 200, 1e-10), ok_converged),
        (f"ad_sliding T={T} p=64", "ad_sliding", lambda f: f(x, 64, 0.0, 1.0, 1e-12), ok_finite),
        (f"ad_sliding T={T} p=200", "ad_sliding", lambda f: f(x, 200, 0.0, 1.0, 1e-12), ok_finite),
        (f"easi_scan cubic T={T} n={m}", "easi_scan", lambda f: f(white, CLI_EASI_STEP, 0, 1e6), ok_status),
        (f"easi_scan tanh T={T} n={m}", "easi_scan", lambda f: f(white, CLI_EASI_STEP, 1, 1e6), ok_status),
        (f"kalman_scan T={T} n={m}", "kalman_scan", lambda f: f(xt, F, H, Qm, Rm, x0, P0), ok_status),
        (f"kalman_scan fit T={T} n={m}", "kalman_scan", lambda f: f(*fit_args), ok_status),
        (f"ar_sliding T={T} w=512 q=4", "ar_sliding", lambda f: f(x, 512, 4, 1e-300), ok_windows),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t", type=int, default=20_000,
                    help="series length for the scans; it must fit the generator's default "
                         "bursts (3 windows of 600-900 samples, so T >= 2700 always does)")
    ap.add_argument("--repeats", type=int, default=5, help="best-of repeats per kernel")
    args = ap.parse_args()
    try:
        cases = build_cases(args.t)
    except BadSpec as err:
        ap.error(f"--t {args.t}: {err}")

    header = f"{'kernel':<30}{'ms':>12}{'us/step':>10}"
    print(header)
    print("-" * len(header))
    failures = []
    for label, base, call, check in cases:
        f = getattr(K, base)
        problem = check(call(f))
        if problem:
            failures.append(f"{label}: {problem}")
        t = best_of(lambda: call(f), args.repeats)
        per_step = f"{t * 1e6 / args.t:>10.2f}" if base in SCANS else ""
        print(f"{label:<30}{t * 1e3:>12.3f}{per_step}")
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
