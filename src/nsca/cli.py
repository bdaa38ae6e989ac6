"""Command-line frontend.

Four subcommands cover the pipeline end to end::

    nsca synth    --n 5 --t 10000 --seed 7 --out-dir run/
    nsca detect   --record run/record.csv --out-dir run/
    nsca separate --record run/record.csv --index run/innovation.csv --theta 0.5 --out-dir run/
    nsca eval     --est run/est_sources.csv --truth run/sources.csv

Every subcommand is deterministic given identical flags, inputs and seed.
Exit codes: 0 ok, 2 usage (a flag value out of range included),
3 unreadable/malformed input, 4 numeric or model failure (every other nsca
error), 5 shape mismatch.
``separate`` forms classes from one of ``--mask``, ``--index`` and
``--two-round`` and rejects a flag that path would ignore: ``--mask`` takes
no class flag and only ``--two-round`` takes ``--lags``.
``eval`` scores ``--est-mask`` and ``--index`` against ``--truth-mask``;
either side without the other is a usage error. An output file is replaced
only once it is completely written.

The scalar detectors (distribution, envelope) read the designated reference
channel; the adaptive-separation index consumes the prewhitened record and
the innovation index runs a state-space model fitted to the full record.
Every index ``detect`` writes is centred, with no warm-up. ``--window`` sets
the envelope and innovation windows, and a run of neither rejects it; AD
keeps its own. ``detect`` runs ``ad``, ``envelope`` and ``innovation`` by
default, ``easi`` when named.
``separate --theta t`` labels the samples at least ``t`` of the way from the
index's minimum to its maximum as events.
"""

import argparse
import os
import sys

import numpy as np

from . import io
from .detectors import (
    DEFAULT_WINDOW,
    anderson_darling_index,
    easi_index,
    energy_envelope,
    fit_ar1_state_space,
    kalman_innovation_index,
    prewhiten,
)
from .errors import (
    BadChannel,
    BadClass,
    BadComponent,
    BadSpec,
    DegenerateSeries,
    InvalidWindow,
    MalformedInput,
    ModelMismatch,
    NscaError,
    ShapeMismatch,
)
from .metrics import eval_index_auc, eval_mask, eval_separation
from .partition import quantile_partition, threshold_mask
from .separation import (
    eigenratio_map,
    nsca_multi_class,
    nsca_two_class,
    two_round_targeted,
)
from .synthetic import DEFAULT_BURST, default_source_specs, gen_mixture

__all__ = ["main"]

# The bank the detector scorecard test supports; easi (most of the compute,
# never above innovation) is opt-in.
DEFAULT_DETECTORS = ("ad", "envelope", "innovation")

# The CLI feeds the adaptive separator a prewhitened record, where a step
# this small tracks bursts without risking weight blow-up. The library-level
# default (0.01) suits short stationary runs, not hour-long mixtures. The
# cubic nonlinearity diverged on every generator record of 5e4 or 1e5
# samples tried (the burst-gated source is strongly super-Gaussian) and tanh
# on none, so the CLI uses tanh; easi_index keeps cubic as its default.
CLI_EASI_STEP = 1e-4
CLI_EASI_G = "tanh"

# The exit code of each error class; every other NscaError is a numeric or
# model failure and exits 4.
EXIT_CODES = (
    ((BadSpec, BadChannel, BadClass, BadComponent, InvalidWindow), 2),
    (MalformedInput, 3),
    ((ShapeMismatch, ModelMismatch), 5),
)


def _fail(code, message):
    print(f"nsca: {message}", file=sys.stderr)
    return code


def _out_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _fmt_diag(value):
    """One-line deterministic rendering for diagnostics values."""
    if isinstance(value, np.ndarray):
        flat = value.ravel()
        return "[" + ", ".join("%.17g" % v for v in flat) + "]"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args):
    burst = dict(count=args.count, min_len=args.min_len, max_len=args.max_len,
                 amplitude=args.burst_amplitude)
    specs = args.sources.split(",") if args.sources else default_source_specs(args.n)
    record, truth = gen_mixture(args.n, args.t, burst, specs, seed=args.seed,
                                sample_rate_hz=args.sample_rate)
    io.write_record(_out_path(args, "record.csv"), record)
    io.write_record(_out_path(args, "sources.csv"), truth.sources)
    io.write_matrix(_out_path(args, "mixing.csv"), truth.mixing)
    io.write_mask(_out_path(args, "mask.csv"), truth.burst_mask)
    print(f"wrote record/sources/mixing/mask to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

# Each detector, called with the record, its reference channel and the flags;
# AD keeps its short library window, as its kernel costs O(T * window). The
# lambdas look the detector functions up when they run, so rebinding a module
# name (as a tracer does) reaches the call. A left-out --window (None) leaves
# the library default; WINDOWED names the detectors that read it.
DETECTORS = {
    "ad": lambda record, ref, args: anderson_darling_index(ref),
    "envelope": lambda record, ref, args: energy_envelope(ref, **_given(window=args.window)),
    "easi": lambda record, ref, args: easi_index(prewhiten(record), CLI_EASI_STEP, CLI_EASI_G),
    "innovation": lambda record, ref, args: kalman_innovation_index(
        record, fit_ar1_state_space(record), **_given(window=args.window)),
}
WINDOWED = ("envelope", "innovation")


def _read_record(path):
    """The record at ``path``; DegenerateSeries if a channel's sum of squares overflows."""
    record = io.read_record(path)
    with np.errstate(over="ignore"):
        energy = np.einsum("ij,ij->i", record.samples, record.samples)
    bad = np.flatnonzero(~np.isfinite(energy))
    if bad.size:
        raise DegenerateSeries(f"{path}: the second moments of channel {bad[0]} overflow "
                               "float64; rescale the record")
    return record


def cmd_detect(args):
    record = _read_record(args.record)
    names = [d.strip() for d in args.detectors.split(",") if d.strip()]
    unknown = [d for d in names if d not in DETECTORS]
    if unknown:
        raise BadSpec(f"unknown detectors: {', '.join(unknown)}")
    repeated = sorted({d for i, d in enumerate(names) if d in names[:i]})
    if repeated:
        raise BadSpec(f"repeated detectors: {', '.join(repeated)}")
    if not names:
        raise BadSpec("no detectors selected")
    if args.window is not None and not set(names) & set(WINDOWED):
        raise BadSpec(f"--window is read only by {' and '.join(WINDOWED)}")
    if not 0 <= args.ref_channel < record.channels:
        raise BadChannel(f"reference channel {args.ref_channel} out of range")
    ref = record.channel(args.ref_channel)
    # every detector runs before any output, so a failing one writes nothing
    results = [(name, DETECTORS[name](record, ref, args)) for name in names]
    for name, idx in results:
        io.write_index(_out_path(args, f"{name}.csv"), idx)
        print(f"{name} max={idx.values.max():.6g} argmax={int(np.argmax(idx.values))}")
    return 0


# ---------------------------------------------------------------------------
# separate
# ---------------------------------------------------------------------------

# separate's flags that only some ways of forming classes read; each defaults to None
CLASS_FLAGS = ("--theta", "--min-event-len", "--quantiles", "--target", "--lags")


def _check_class_flags(args):
    """BadSpec for a given flag that the chosen way of forming classes ignores."""
    if args.two_round:
        mode, reads = "--two-round", ("--theta", "--target", "--lags")
    elif args.mask is not None:
        mode, reads = "--mask", ()
    elif args.quantiles is not None:
        mode, reads = "--quantiles", ("--quantiles",)
    else:
        mode, reads = "--index", ("--theta", "--min-event-len")
    ignored = [flag for flag in CLASS_FLAGS
               if flag not in reads and getattr(args, flag[2:].replace("-", "_")) is not None]
    if ignored:
        raise BadSpec(f"{mode} does not take {', '.join(ignored)}")
    if args.two_round and args.target is None:
        raise BadSpec("--two-round needs --target")


def _given(**flags):
    """The keyword arguments whose flag was given; the rest keep the library default."""
    return {name: value for name, value in flags.items() if value is not None}


def _build_partition(args, record):
    if args.mask is not None:
        return io.read_mask(args.mask)
    idx = io.read_index(args.index)
    if idx.length != record.length:
        raise ShapeMismatch(f"index length {idx.length} != record length {record.length}")
    if args.quantiles is not None:
        return quantile_partition(idx, args.quantiles)
    return threshold_mask(idx, **_given(theta_rel=args.theta, min_event_len=args.min_event_len))


def cmd_separate(args):
    _check_class_flags(args)
    record = _read_record(args.record)
    if args.two_round:
        lags = range(1, 11) if args.lags is None else [int(v) for v in args.lags.split(",")]
        result = two_round_targeted(record, lags, args.target, reg_eps=args.reg_eps,
                                    **_given(round2_theta=args.theta))
        part = None
    else:
        part = _build_partition(args, record)
        engine = nsca_two_class if part.K == 2 else nsca_multi_class
        result = engine(record, part, reg_eps=args.reg_eps)
    io.write_matrix(_out_path(args, "demixer.csv"), result.demixer)
    io.write_record(_out_path(args, "est_sources.csv"), result.sources)
    io.write_spectra(_out_path(args, "spectra.csv"), result.spectra)
    cmap = eigenratio_map(result.spectra, result.diagnostics["weights"])
    with io._replacing(_out_path(args, "diagnostics.txt")) as fh:
        fh.write(f"order: {result.order}\n")
        for key in sorted(result.diagnostics):
            fh.write(f"{key}: {_fmt_diag(result.diagnostics[key])}\n")
        fh.write(f"class_component_map: {cmap.best_component.tolist()}\n")
        fh.write(f"one_to_one: {cmap.one_to_one}\n")
    kind = "two-round" if part is None else f"{part.K}-class"
    print(f"separated ({kind}); order={result.order}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args):
    scored = args.est_mask or args.index
    if bool(scored) != bool(args.truth_mask):
        raise BadSpec("--truth-mask goes with --est-mask or --index; each needs the other")
    est = io.read_record(args.est)
    truth_sources = io.read_record(args.truth)
    report = eval_separation(est, truth_sources)
    truth_mask = io.read_mask(args.truth_mask) if scored else None
    mask_scores = eval_mask(io.read_mask(args.est_mask), truth_mask) if args.est_mask else None
    auc = eval_index_auc(io.read_index(args.index), truth_mask) if args.index else None

    print(f"{'estimate':>10} {'truth':>8} {'corr':>8}")
    for i, j, corr in report.pairs:
        print(f"{est.channel_names[i]:>10} {truth_sources.channel_names[j]:>8} {corr:8.3f}")
    if mask_scores is not None:
        p, r, f1 = mask_scores
        print(f"mask precision={p:.3f} recall={r:.3f} f1={f1:.3f}")
    if auc is not None:
        print(f"index auc={auc:.3f}")

    print("metric,value")
    for i, j, corr in report.pairs:
        print(f"corr_{est.channel_names[i]}_{truth_sources.channel_names[j]},{corr:.17g}")
    print(f"matched_corr_min,{report.matched.min():.17g}")
    if mask_scores is not None:
        print(f"mask_precision,{mask_scores[0]:.17g}")
        print(f"mask_recall,{mask_scores[1]:.17g}")
        print(f"mask_f1,{mask_scores[2]:.17g}")
    if auc is not None:
        print(f"index_auc,{auc:.17g}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nsca",
        description="Nonstationary component analysis: synthesize, detect, separate, evaluate.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a seeded ground-truth mixture")
    p.add_argument("--n", type=int, required=True, help="channel/source count")
    p.add_argument("--t", type=int, required=True, help="samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=DEFAULT_BURST["count"])
    p.add_argument("--min-len", type=int, default=DEFAULT_BURST["min_len"])
    p.add_argument("--max-len", type=int, default=DEFAULT_BURST["max_len"])
    p.add_argument("--burst-amplitude", type=float, default=DEFAULT_BURST["amplitude"])
    p.add_argument("--sources", help="comma list of source specs")
    p.add_argument("--sample-rate", type=float, default=500.0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="run the detector bank over a record")
    p.add_argument("--record", required=True)
    p.add_argument("--detectors", default=",".join(DEFAULT_DETECTORS))
    p.add_argument("--ref-channel", type=int, default=0)
    p.add_argument("--window", type=int,
                   help=f"envelope and innovation window (default {DEFAULT_WINDOW})")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("separate", help="estimate sources from a record and a partition")
    p.add_argument("--record", required=True)
    classes = p.add_mutually_exclusive_group(required=True)
    classes.add_argument("--mask", help="partition CSV (k,label)")
    classes.add_argument("--index", help="index CSV (k,value) to threshold or quantile-split")
    classes.add_argument("--two-round", action="store_true")
    p.add_argument("--theta", type=float, help="relative threshold")
    p.add_argument("--min-event-len", type=int)
    p.add_argument("--quantiles", type=int, help="K-class quantile partition of --index")
    p.add_argument("--reg-eps", type=float, default=0.0)
    p.add_argument("--lags", help="comma-separated round-1 lags (default 1,2,...,10)")
    p.add_argument("--target", type=int, help="round-1 component to isolate")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("eval", help="score estimated sources against ground truth")
    p.add_argument("--est", required=True, help="estimated sources CSV")
    p.add_argument("--truth", required=True, help="true sources CSV")
    p.add_argument("--est-mask")
    p.add_argument("--truth-mask")
    p.add_argument("--index", help="index CSV scored against --truth-mask")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 0
    try:
        return args.func(args)
    except NscaError as err:
        code = next((code for classes, code in EXIT_CODES if isinstance(err, classes)), 4)
        _fail(code, str(err))
        if isinstance(err, BadSpec):
            print(parser.format_usage(), end="", file=sys.stderr)
        return code
    except OSError as err:
        return _fail(3, str(err))
    except ValueError as err:  # the library's check on a parameter a flag set
        return _fail(2, f"bad parameter: {err}")

if __name__ == "__main__":
    sys.exit(main())
