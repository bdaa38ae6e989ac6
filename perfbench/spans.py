"""In-memory span tracer that wraps nsca's public functions from outside.

Every wrapped call records a span ``[name, start, end, parent, info]``;
``info`` holds facts read from the call's arguments or return value (sweep
counts, convergence flags, file sizes). Spans stay in memory until the run
writes them out.

A wrapper is installed by replacing every binding of the original function
object in every loaded ``nsca`` module. That reaches callers that bound the
name with ``from ... import`` (``nsca.cli``, ``nsca.separation``,
``nsca.detectors``) as well as callers that look it up as a module attribute
(``_kernels.<name>`` in ``detectors`` and ``linalg``). The package sources
are never edited.
"""

import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
import time

# Layers whose ``__all__`` functions are wrapped, named by their module.
LAYERS = ("io", "detectors", "linalg", "partition", "separation", "metrics", "synthetic")
# ``_kernels`` has no ``__all__``: its public names are the path-selected aliases.
KERNELS = (
    "cholesky", "solve_lower", "solve_lower_t", "jacobi_eig", "ajd_rotate",
    "ad_sliding", "easi_scan", "kalman_scan", "ar_sliding",
)
# ``cli`` exports only ``main``; its subcommands are the stage boundaries.
CLI_COMMANDS = ("cmd_synth", "cmd_detect", "cmd_separate", "cmd_eval")

NAME, START, END, PARENT, INFO = range(5)
SEGMENT = "bench.segment"  # a timed part of a pass; the pass time is their sum


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _probe_read(args, kwargs, out):
    return {"bytes_read": os.path.getsize(_path_arg(args, kwargs))}


def _probe_write(args, kwargs, out):
    return {"bytes_written": os.path.getsize(_path_arg(args, kwargs))}


def _probe_samples(args, kwargs, out):
    return {"samples": out.length}


def _probe_separation(args, kwargs, out):
    return {"whitening_error": float(out.diagnostics["whitening_error"])}


# Kernels return status instead of raising; keep what their wrappers drop.
PROBES = {
    "kernels.jacobi_eig": lambda a, k, out: {"sweeps": int(out[2]), "failed": int(not out[3])},
    "kernels.ajd_rotate": lambda a, k, out: {"sweeps": int(out[1]), "failed": int(not out[2])},
    "kernels.easi_scan": lambda a, k, out: {"failed": int(out[2] != 0)},
    "kernels.kalman_scan": lambda a, k, out: {"failed": int(out[1] != 0)},
    "detectors.kalman_innovation_index": _probe_samples,
    "detectors.easi_index": _probe_samples,
    "separation.nsca_two_class": _probe_separation,
    "separation.nsca_multi_class": _probe_separation,
    "separation.two_round_targeted": _probe_separation,
}


def _probe_for(name):
    if name.startswith("io.read_"):
        return _probe_read
    if name.startswith("io.write_"):
        return _probe_write
    return PROBES.get(name)


class Tracer:
    """Span recorder plus the patch set that routes nsca calls through it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-level span: one set-up, one pass or one segment."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        probe = _probe_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                span[INFO] = probe(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Replace every binding of each traced function in every nsca module."""
        if self._patched:
            return
        import nsca._kernels
        import nsca.cli  # noqa: F401  (loads every layer module)

        wrappers = {}

        def add(name, fn):
            if callable(fn) and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(name, fn))

        for layer in LAYERS:
            mod = sys.modules["nsca." + layer]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    add(f"{layer}.{attr}", fn)
        for attr in KERNELS:
            add("kernels." + attr, getattr(nsca._kernels, attr))
        for attr in CLI_COMMANDS:
            add("cli." + attr, getattr(nsca.cli, attr))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "nsca" or modname.startswith("nsca.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))  # the original is alive, so ids are unique
                if hit is not None:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def dump(self, path):
        """Write every span as JSON, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            {"id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
             "parent": s[PARENT], **({"info": s[INFO]} if s[INFO] else {})}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

# Inclusive time per pass: metric -> span names whose durations add up.
INCLUSIVE = {
    "cli.detect_s": ("cli.cmd_detect",),
    "cli.separate_s": ("cli.cmd_separate",),
    "cli.eval_s": ("cli.cmd_eval",),
    "io.read_record_s": ("io.read_record",),
    "io.write_record_s": ("io.write_record",),
    "io.read_index_s": ("io.read_index",),
    "io.write_index_s": ("io.write_index",),
    "io.read_mask_s": ("io.read_mask",),
    "detectors.innovation_s": ("detectors.kalman_innovation_index",),
    "detectors.fit_ar1_s": ("detectors.fit_ar1_state_space",),
    "detectors.easi_s": ("detectors.easi_index",),
    "detectors.prewhiten_s": ("detectors.prewhiten",),
    "detectors.ad_s": ("detectors.anderson_darling_index",),
    "detectors.envelope_s": ("detectors.energy_envelope",),
    "detectors.ar_s": ("detectors.ar_tracking",),
    "detectors.cumulant_s": ("detectors.cumulant_tracking",),
    "detectors.normalize_s": ("detectors.normalize_index",),
    "kernels.kalman_scan_s": ("kernels.kalman_scan",),
    "kernels.easi_scan_s": ("kernels.easi_scan",),
    "kernels.ad_sliding_s": ("kernels.ad_sliding",),
    "kernels.ar_sliding_s": ("kernels.ar_sliding",),
    "kernels.jacobi_eig_s": ("kernels.jacobi_eig",),
    "kernels.ajd_rotate_s": ("kernels.ajd_rotate",),
    "kernels.cholesky_s": ("kernels.cholesky",),
    "kernels.solve_s": ("kernels.solve_lower", "kernels.solve_lower_t"),
    "linalg.gevd_s": ("linalg.gevd",),
    "linalg.ajd_s": ("linalg.ajd",),
    "linalg.cholesky_s": ("linalg.cholesky",),
    "partition.threshold_mask_s": ("partition.threshold_mask",),
    "partition.quantile_partition_s": ("partition.quantile_partition",),
    "partition.class_covariances_s": ("partition.class_covariances",),
    "separation.two_class_s": ("separation.nsca_two_class",),
    "separation.multi_class_s": ("separation.nsca_multi_class",),
    "separation.two_round_s": ("separation.two_round_targeted",),
    "metrics.eval_separation_s": ("metrics.eval_separation",),
    "metrics.eval_index_auc_s": ("metrics.eval_index_auc",),
}
# Self time: the span minus its child spans (sym_eig runs inside gevd).
SELF = {"linalg.sym_eig_s": ("linalg.sym_eig",)}
IO_NAMED = ("io.read_record", "io.write_record", "io.read_index", "io.write_index", "io.read_mask")
CALLS = {
    f"kernels.{k}.calls": INCLUSIVE[f"kernels.{k}_s"]
    for k in ("kalman_scan", "easi_scan", "ad_sliding", "ar_sliding", "jacobi_eig",
              "ajd_rotate", "cholesky", "solve")
}
# Counts that the same code on the same inputs must reproduce exactly.
DETERMINISTIC = tuple(CALLS) + (
    "kernels.jacobi_eig.sweeps",
    "kernels.ajd_rotate.sweeps",
    "kernels.nonconverged",
    "io.bytes_read",
    "io.bytes_written",
)


def _root_of(spans):
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[PARENT] is None else root[s[PARENT]])
    return root


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def pass_metrics(spans, roots, pass_id):
    """Per-layer metrics of the pass whose benchmark span is ``pass_id``.

    ``roots[i]`` is the outermost span above span ``i``. Returns the metrics
    and the pass time, the sum of its segment spans.
    """
    incl, selft, calls, info = {}, {}, {}, {}
    wall = covered = 0.0
    for i in range(pass_id + 1, len(spans)):
        if roots[i] != pass_id:
            continue
        s = spans[i]
        d = s[END] - s[START]
        name = s[NAME]
        if name == SEGMENT:
            wall += d
            continue
        incl[name] = incl.get(name, 0.0) + d
        selft[name] = selft.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        parent = spans[s[PARENT]][NAME]
        if parent == SEGMENT:
            covered += d
        else:
            selft[parent] = selft.get(parent, 0.0) - d
        if s[INFO]:
            for key, v in s[INFO].items():
                bucket = info.setdefault(key, {})
                bucket[name] = (max(bucket.get(name, v), v) if key == "whitening_error"
                                else bucket.get(name, 0) + v)

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    def info_sum(key, names=None):
        bucket = info.get(key, {})
        return sum(v for n, v in bucket.items() if names is None or n in names)

    m = {k: total(incl, names) for k, names in INCLUSIVE.items()}
    m.update({k: total(selft, names) for k, names in SELF.items()})
    m.update({k: total(calls, names) for k, names in CALLS.items()})
    m["io.other_s"] = sum(v for n, v in incl.items() if n.startswith("io.") and n not in IO_NAMED)
    m["io.bytes_read"] = info_sum("bytes_read")
    m["io.bytes_written"] = info_sum("bytes_written")
    read_s = sum(v for n, v in incl.items() if n.startswith("io.read_"))
    write_s = sum(v for n, v in incl.items() if n.startswith("io.write_"))
    m["io.read_mb_per_s"] = _ratio(m["io.bytes_read"] / 1e6, read_s)
    m["io.write_mb_per_s"] = _ratio(m["io.bytes_written"] / 1e6, write_s)
    m["detectors.innovation_us_per_sample"] = _ratio(
        1e6 * m["detectors.innovation_s"],
        info_sum("samples", ("detectors.kalman_innovation_index",)))
    m["detectors.easi_us_per_sample"] = _ratio(
        1e6 * m["detectors.easi_s"], info_sum("samples", ("detectors.easi_index",)))
    m["kernels.jacobi_eig.sweeps"] = info_sum("sweeps", ("kernels.jacobi_eig",))
    m["kernels.ajd_rotate.sweeps"] = info_sum("sweeps", ("kernels.ajd_rotate",))
    m["kernels.nonconverged"] = info_sum("failed")
    m["separation.whitening_err"] = max(info.get("whitening_error", {}).values(), default=0.0)
    m["trace.unaccounted_frac"] = _ratio(wall - covered, wall)
    return m, wall


def layer_report(spans, pass_ids, setup_ids, untraced_walls):
    """Median per-layer metrics over the traced passes, plus determinism.

    Returns ``(metrics, mismatches)``; ``mismatches`` names every count in
    ``DETERMINISTIC`` that differed between traced passes.
    """
    roots = _root_of(spans)
    per_pass, walls = [], []
    for pid in pass_ids:
        m, wall = pass_metrics(spans, roots, pid)
        per_pass.append(m)
        walls.append(wall)
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    mismatches = [k for k in DETERMINISTIC if len({p[k] for p in per_pass}) > 1]
    out.update((k, per_pass[0][k]) for k in DETERMINISTIC)
    gen = []
    for sid in setup_ids:
        gen.append(sum(s[END] - s[START] for i, s in enumerate(spans)
                       if roots[i] == sid and s[NAME] == "synthetic.gen_mixture"))
    out["synthetic.gen_mixture_s"] = statistics.median(gen)
    out["trace.overhead_frac"] = statistics.median(walls) / statistics.median(untraced_walls) - 1.0
    return out, mismatches
