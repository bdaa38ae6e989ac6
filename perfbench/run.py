#!/usr/bin/env python3
"""Pipeline benchmark for nsca: one closed-loop client in one process.

    python3 perfbench/run.py --workload cli_long --seed 3 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/``. Set-up generates the workload's records from ``--seed`` (several
times, keeping the median time); then identical passes over those records
run back to back until ``--seconds`` have gone by. Every record of every pass
is an operation, checked after the pass and counted as failed on any
exception, non-zero CLI exit or failed output check. Pass time is gated in
units of a fixed reference loop timed around every segment of the pass, so
that the machine's own speed drift cancels (``perfbench/README.md``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the spans of the traced ones; it also writes every
span to ``perfbench/out/spans/``. Each run writes its metrics and machine
metadata to ``perfbench/out/results/``; ``perfbench/compare.py`` compares
two sets of those files. The last line of standard output is the result as
one JSON object.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3
REF_LOOP = 50_000  # iterations of the reference loop
MIN_PASSES = 2  # cli_long compares the output bytes of two passes
MIN_TRACED = 2  # counts must repeat exactly between two traced passes


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu():
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        if size:
            caches.append(f"L{level} {kind} {size}")
    return model, caches


def _blas_threads():
    """Thread count of numpy's OpenBLAS, or None where it cannot be asked."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_rev():
    """Commit of the checkout when it is a git work tree, else None."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    rev = _read(os.path.join(ROOT, ".git", ref))
    if rev is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                rev = line.split()[0]
    return rev


def run_meta(args):
    import numpy
    import scipy

    import nsca._kernels

    model, caches = _cpu()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "have_numba": bool(nsca._kernels.HAVE_NUMBA),
        "git_rev": _git_rev(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(values):
    """``(q, value)`` for the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, sorted(values)[max(math.ceil(q * n / 100) - 1, 0)]


def reference():
    """Seconds a fixed loop takes now: the machine's speed at this moment.

    The loop mixes interpreter arithmetic with small numpy products, the two
    kinds of work the passes are made of. It takes a few milliseconds.
    """
    import numpy as np  # loaded with nsca

    a, x = np.full((5, 5), 0.1), np.ones(5)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOP):
        acc += i * 0.5
    for _ in range(REF_LOOP // 50):
        x = a @ x + 1.0
    return time.perf_counter() - t0


def run_pass(wl, tracer):
    """Time each segment of one pass, with the reference loop around each.

    Returns the raw results, the pass time (the sum of the segment times) and
    the pass time in reference units: each segment's time divided by the mean
    of the reference times just before and just after it.
    """
    raw, times, refs = [], [], [reference()]
    for segment in wl.segments():
        with tracer.span("bench.segment") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            raw.append(segment())
            times.append(time.perf_counter() - t0)
        refs.append(reference())
    units = sum(t / (0.5 * (a + b)) for t, a, b in zip(times, refs, refs[1:]))
    return raw, sum(times), units


def measure(wl, seconds, tracer):
    """Set up, then run passes until ``seconds`` have passed.

    With a tracer, passes alternate untraced and traced, and set-up is traced.
    """
    run = {"setup_s": [], "setup_ok": True, "setup_ids": [], "walls": [], "units": [],
           "traced_walls": [], "pass_ids": [], "outcomes": []}
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.install()
            run["setup_ids"].append(len(tracer.spans))
            with tracer.span("bench.setup"):
                t0 = time.perf_counter()
                wl.setup()
                run["setup_s"].append(time.perf_counter() - t0)
            tracer.uninstall()
        else:
            t0 = time.perf_counter()
            wl.setup()
            run["setup_s"].append(time.perf_counter() - t0)
        run["setup_ok"] &= wl.check_setup()

    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(run["walls"]) > len(run["traced_walls"])
        wl.prepare()
        if traced:
            tracer.install()
            run["pass_ids"].append(len(tracer.spans))
            with tracer.span("bench.pass"):
                raw, wall, _units = run_pass(wl, tracer)
            tracer.uninstall()
            run["traced_walls"].append(wall)
        else:
            raw, wall, units = run_pass(wl, None)
            run["walls"].append(wall)
            run["units"].append(units)
        run["outcomes"].extend(wl.check(raw))
        del raw
        enough = len(run["walls"]) >= (1 if tracer else MIN_PASSES)
        if tracer is not None:
            enough = enough and len(run["traced_walls"]) >= MIN_TRACED
        if enough and time.perf_counter() >= deadline:
            return run


def end_to_end(run, import_s):
    good = [o for o in run["outcomes"] if o.error is None]
    failed = len(run["outcomes"]) - len(good)
    return {
        "pass_ref": statistics.median(run["units"]),
        "setup_s": import_s + statistics.median(run["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(run["outcomes"]),
        "burst_corr": min((o.burst_corr for o in good), default=0.0),
        # Mean, not lowest: on sep_wide the lowest channel-0 envelope AUC of 24
        # records swings by 15% between seeds.
        "index_auc": statistics.fmean(o.index_auc for o in good) if good else 0.0,
    }


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "nsca", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/nsca; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nsca.cli  # noqa: F401  (numpy, scipy and every nsca layer)
    import_s = time.perf_counter() - t0
    if not os.path.abspath(nsca.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported nsca from {nsca.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    meta = run_meta(args)
    print("meta " + json.dumps(meta))

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    tracer = spans.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        run = measure(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    mismatches = []
    if tracer is None:
        values = end_to_end(run, import_s)
    else:
        values, mismatches = spans.layer_report(
            tracer.spans, run["pass_ids"], run["setup_ids"], run["walls"])
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.dump(os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.json"))
    names = [m["name"] for m in spec]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json")

    outcomes = run["outcomes"]
    errors = [o.error for o in outcomes if o.error is not None]
    correct = not errors and run["setup_ok"] and not mismatches
    walls = run["walls"] if tracer is None else run["traced_walls"]
    wall = statistics.median(walls)
    q = tail(walls)
    print(f"wall_s over {len(walls)} passes: median {wall:.6g} s, "
          + (f"p{q[0]} {q[1]:.6g} s" if q else "no percentile has ten samples beyond it")
          + f", max {max(walls):.6g} s")
    print(f"samples_per_s {wl.samples_per_pass / wall:.6g} 1/s")
    for m in spec:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    if not run["setup_ok"]:
        print("perfbench: repeated set-up with one seed gave different inputs, "
              "or an ill-conditioned mixture", file=sys.stderr)
    for name in mismatches:
        print(f"perfbench: count {name} differs between traced passes", file=sys.stderr)
    for err in errors[:5]:
        print(f"perfbench: failed operation: {err}", file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {"correct": correct, "attempted": len(outcomes), "failed": len(errors),
              "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="ascii") as fh:
        json.dump({**result, "meta": meta, "walls": walls, "untraced_walls": run["walls"],
                   "pass_ref": run["units"], "samples_per_pass": wl.samples_per_pass,
                   "setup_s": run["setup_s"], "import_s": import_s, "errors": errors[:20],
                   "count_mismatches": mismatches}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
