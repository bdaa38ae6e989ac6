#!/usr/bin/env python3
"""Compare two sets of perfbench results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``perfbench/run.py`` (it writes
them to ``perfbench/out/results/``; copy them aside between commits). For
every workload and end-to-end metric present on both sides this prints each
side's median and quartiles over its runs, the change of the median as a
share of the base median, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` -- the base's own quartile spread is wider than the bound;
* ``worse``      -- else, the new median is worse than the base by more than
  the bound;
* ``ok``         -- otherwise.

Results whose kernel path (numba or numpy) differs are not comparable: the
script refuses them and exits 2. It exits 1 when any verdict is ``worse``.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """End-to-end results by workload: ``{workload: [result, ...]}``."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="ascii") as fh:
            res = json.load(fh)
        if res["meta"]["trace"] == 0:
            runs.setdefault(res["meta"]["workload"], []).append(res)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(d) for d in argv)
    paths = {r["meta"]["have_numba"] for side in (base, new) for rs in side.values() for r in rs}
    if len(paths) > 1:
        print("compare: refusing to compare results from different kernel paths "
              "(have_numba differs)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)["end_to_end"]
    worse = False
    print(f"{'workload':<11}{'metric':<15}{'base q1/med/q3':>36}{'new q1/med/q3':>36}"
          f"{'change':>9}  verdict")
    for wl in sorted(base.keys() & new.keys()):
        for m in spec:
            b = quartiles([r["metrics"][m["name"]]["value"] for r in base[wl]])
            n = quartiles([r["metrics"][m["name"]]["value"] for r in new[wl]])
            change = (n[1] - b[1]) / b[1] if b[1] else 0.0
            loss = change if m["better"] == "lower" else -change
            spread = (b[2] - b[0]) / b[1] if b[1] else 0.0
            verdict = "unresolved" if spread > m["bound"] else (
                "worse" if loss > m["bound"] else "ok")
            worse |= verdict == "worse"
            fmt = "{:.5g}/{:.5g}/{:.5g}"
            print(f"{wl:<11}{m['name']:<15}{fmt.format(*b):>36}{fmt.format(*n):>36}"
                  f"{change:>+9.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
