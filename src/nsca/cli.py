"""Command-line frontend.

Four subcommands cover the pipeline end to end::

    nsca synth    --n 5 --t 10000 --seed 7 --out-dir run/
    nsca detect   --record run/record.csv --out-dir run/
    nsca separate --record run/record.csv --index run/innovation.csv --theta 0.5 --out-dir run/
    nsca eval     --est run/est_sources.csv --truth run/sources.csv

Every subcommand is deterministic given identical flags, inputs and seed.
``NSCA_SEED`` overrides ``--seed`` when set. Exit codes: 0 ok, 2 usage,
3 unreadable/malformed input, 4 numeric or model failure, 5 shape mismatch.

The scalar detectors (distribution, envelope, cumulant, AR drift) read the
designated reference channel; the adaptive-separation index consumes the
prewhitened record and the innovation index runs a state-space model fitted
to the full record.
"""

import argparse
import os
import sys

import numpy as np

from . import io
from .detectors import (
    DEFAULT_AD_WINDOW,
    DEFAULT_AR_ORDER,
    DEFAULT_AR_WINDOW,
    DEFAULT_CUMULANT_ORDER,
    DEFAULT_CUMULANT_WINDOW,
    DEFAULT_ENVELOPE_WINDOW,
    DEFAULT_WHITENESS_WINDOW,
    anderson_darling_index,
    ar_tracking,
    cumulant_tracking,
    easi_index,
    energy_envelope,
    fit_ar1_state_space,
    kalman_innovation_index,
    normalize_index,
    prewhiten,
)
from .errors import (
    BadChannel,
    BadClass,
    BadComponent,
    BadSpec,
    ClassTooSmall,
    DegenerateIndex,
    DegenerateSeries,
    DegenerateTruth,
    Diverged,
    EmptyClass,
    InvalidWindow,
    MalformedInput,
    ModelMismatch,
    NoConvergence,
    NotPositiveDefinite,
    ShapeMismatch,
)
from .metrics import eval_index_auc, eval_mask, eval_separation
from .partition import quantile_partition, threshold_mask
from .records import Record
from .separation import (
    eigenratio_map,
    nsca_multi_class,
    nsca_two_class,
    two_round_targeted,
)
from .synthetic import DEFAULT_BURST, default_source_specs, gen_mixture

__all__ = ["main"]

# The four case-study-analog indexes run by default; the cumulant and AR
# trackers are opt-in extras.
DEFAULT_DETECTORS = ("ad", "envelope", "easi", "innovation")
KNOWN_DETECTORS = ("ad", "envelope", "easi", "innovation", "cumulant", "ar")

# The CLI feeds the adaptive separator a prewhitened record, where a step
# this small tracks bursts without risking weight blow-up. The library-level
# default (0.01) suits short stationary runs, not hour-long mixtures.
CLI_EASI_STEP = 1e-4
CLI_EASI_G = "cubic"

PLOT_POINTS = 2000


def _fail(code, message):
    print(f"nsca: {message}", file=sys.stderr)
    return code


def _resolve_seed(args):
    env = os.environ.get("NSCA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise BadSpec(f"NSCA_SEED must be an integer, got {env!r}") from None
    return args.seed


def _out_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_plot(args, name, labels, series):
    """About PLOT_POINTS evenly spaced samples of each series, as k,<labels> rows."""
    length = len(series[0])
    ks = np.arange(0, length, max(1, length // PLOT_POINTS))
    table = np.column_stack([ks] + [s[ks] for s in series])
    io._write_table(_out_path(args, name), ",".join(["k", *labels]), table,
                    "%d" + ",%.6g" * len(series))


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
    burst = {
        "count": args.count,
        "min_len": args.min_len,
        "max_len": args.max_len,
        "amplitude": args.amplitude,
    }
    specs = args.sources.split(",") if args.sources else default_source_specs(args.n)
    record, truth = gen_mixture(
        args.n,
        args.t,
        burst,
        specs,
        seed=_resolve_seed(args),
        sample_rate_hz=args.sample_rate,
    )
    io.write_record(_out_path(args, "record.csv"), record)
    io.write_record(_out_path(args, "sources.csv"), truth.sources)
    io.write_matrix(_out_path(args, "mixing.csv"), truth.mixing)
    io.write_mask(_out_path(args, "mask.csv"), truth.burst_mask)
    print(f"wrote record/sources/mixing/mask to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _run_detector(name, record, args):
    if name in ("ad", "envelope", "cumulant", "ar"):
        x = record.channel(args.ref_channel)
    if name == "ad":
        return anderson_darling_index(x, args.ad_window)
    if name == "envelope":
        return energy_envelope(x, args.envelope_window)
    if name == "cumulant":
        return cumulant_tracking(x, args.cumulant_window, args.cumulant_order)
    if name == "ar":
        return ar_tracking(x, args.ar_window, args.ar_order)
    if name == "easi":
        return easi_index(prewhiten(record), args.easi_step, args.easi_g)
    if name == "innovation":
        model = fit_ar1_state_space(record, args.obs_noise_frac)
        return kalman_innovation_index(record, model, args.whiteness_window)
    raise BadSpec(f"unknown detector {name!r}")


def cmd_detect(args):
    record = io.read_record(args.record)
    names = [d.strip() for d in args.detectors.split(",") if d.strip()]
    unknown = [d for d in names if d not in KNOWN_DETECTORS]
    if unknown:
        raise BadSpec(f"unknown detectors: {', '.join(unknown)}")
    if not names:
        raise BadSpec("no detectors selected")
    if not 0 <= args.ref_channel < record.channels:
        raise BadChannel(f"reference channel {args.ref_channel} out of range")
    # every detector runs before any output, so a failing one writes nothing
    results = []
    for name in names:
        idx = _run_detector(name, record, args)
        results.append((name, idx, normalize_index(idx)))
    for name, idx, norm in results:
        io.write_index(_out_path(args, f"{name}.csv"), idx)
        io.write_index(_out_path(args, f"{name}_norm.csv"), norm)
        valid = idx.values[idx.valid_from:]
        argmax = int(np.argmax(valid)) + idx.valid_from
        print(
            f"{name} max={valid.max():.6g} argmax={argmax} valid_from={idx.valid_from}"
        )
    if args.emit_plot_data:
        ref = record.channel(args.ref_channel)
        scale = np.abs(ref).max() or 1.0
        _write_plot(args, "plot_indexes.csv", ["reference", *names],
                    [ref / scale] + [norm.values for _, _, norm in results])
    return 0


# ---------------------------------------------------------------------------
# separate
# ---------------------------------------------------------------------------

def _build_partition(args, record):
    given = sum(x is not None for x in (args.mask, args.index))
    if given != 1:
        raise BadSpec("separate needs exactly one of --mask or --index")
    if args.mask is not None:
        return io.read_mask(args.mask)
    idx = io.read_index(args.index)
    if idx.values.shape[0] != record.length:
        raise ShapeMismatch(
            f"index length {idx.values.shape[0]} != record length {record.length}"
        )
    if args.quantiles is not None:
        return quantile_partition(idx, args.quantiles)
    return threshold_mask(idx, args.theta, args.min_event_len)


def cmd_separate(args):
    record = io.read_record(args.record)
    if args.two_round:
        if args.target is None:
            raise BadSpec("--two-round needs --target")
        lags = [int(v) for v in args.lags.split(",")]
        result = two_round_targeted(
            record,
            lags,
            args.target,
            reg_eps=args.reg_eps,
            round2_theta=args.theta,
        )
        part = None
    else:
        part = _build_partition(args, record)
        if part.labels.shape[0] != record.length:
            raise ShapeMismatch(
                f"partition length {part.labels.shape[0]} != record length {record.length}"
            )
        if part.K == 2:
            result = nsca_two_class(
                record, part, reg_eps=args.reg_eps, weight_rule=args.weight_rule
            )
        else:
            result = nsca_multi_class(
                record,
                part,
                include_total=args.include_total,
                weight_rule=args.weight_rule,
                reg_eps=args.reg_eps,
            )
    io.write_matrix(_out_path(args, "demixer.csv"), result.demixer)
    io.write_record(_out_path(args, "est_sources.csv"), result.sources)
    io.write_spectra(_out_path(args, "spectra.csv"), result.spectra)
    class_weights = np.asarray(result.diagnostics["weights"])[: result.spectra.shape[0]]
    cmap = eigenratio_map(result.spectra, class_weights)
    with open(_out_path(args, "diagnostics.txt"), "w", encoding="ascii") as fh:
        fh.write(f"order: {result.order}\n")
        for key in sorted(result.diagnostics):
            fh.write(f"{key}: {_fmt_diag(result.diagnostics[key])}\n")
        fh.write(f"class_component_map: {cmap.best_component.tolist()}\n")
        fh.write(f"one_to_one: {cmap.one_to_one}\n")
    if args.emit_plot_data:
        _write_plot(args, "plot_sources.csv", result.sources.channel_names,
                    result.sources.samples)
    kind = "two-round" if part is None else f"{part.K}-class"
    print(f"separated ({kind}); order={result.order}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args):
    est = io.read_record(args.est)
    truth_sources = io.read_record(args.truth)
    report = eval_separation(est, truth_sources)
    mask_scores = None
    if args.est_mask and args.truth_mask:
        mask_scores = eval_mask(io.read_mask(args.est_mask), io.read_mask(args.truth_mask))
    auc = None
    if args.index and args.truth_mask:
        auc = eval_index_auc(io.read_index(args.index), io.read_mask(args.truth_mask))

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
    p.add_argument("--burst-amplitude", "--amplitude", type=float,
                   default=DEFAULT_BURST["amplitude"], dest="amplitude")
    p.add_argument("--sources", help="comma list of source specs")
    p.add_argument("--sample-rate", type=float, default=500.0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="run the detector bank over a record")
    p.add_argument("--record", required=True)
    p.add_argument("--detectors", default=",".join(DEFAULT_DETECTORS))
    p.add_argument("--ref-channel", type=int, default=0)
    p.add_argument("--ad-window", type=int, default=DEFAULT_AD_WINDOW)
    p.add_argument("--envelope-window", type=int, default=DEFAULT_ENVELOPE_WINDOW)
    p.add_argument("--cumulant-window", type=int, default=DEFAULT_CUMULANT_WINDOW)
    p.add_argument("--cumulant-order", type=int, default=DEFAULT_CUMULANT_ORDER)
    p.add_argument("--ar-window", type=int, default=DEFAULT_AR_WINDOW)
    p.add_argument("--ar-order", type=int, default=DEFAULT_AR_ORDER)
    p.add_argument("--whiteness-window", type=int, default=DEFAULT_WHITENESS_WINDOW)
    p.add_argument("--obs-noise-frac", type=float, default=1e-3)
    p.add_argument("--easi-step", type=float, default=CLI_EASI_STEP)
    p.add_argument("--easi-g", choices=("cubic", "tanh"), default=CLI_EASI_G)
    p.add_argument("--emit-plot-data", action="store_true")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("separate", help="estimate sources from a record and a partition")
    p.add_argument("--record", required=True)
    p.add_argument("--mask", help="partition CSV (k,label)")
    p.add_argument("--index", help="index CSV (k,value) to threshold or quantile-split")
    p.add_argument("--theta", type=float, default=0.5, help="relative threshold")
    p.add_argument("--min-event-len", type=int, default=1)
    p.add_argument("--quantiles", type=int, help="K-class quantile partition of --index")
    p.add_argument("--weight-rule", choices=("cardinality", "uniform"), default="cardinality")
    p.add_argument("--include-total", action="store_true")
    p.add_argument("--reg-eps", type=float, default=0.0)
    p.add_argument("--two-round", action="store_true")
    p.add_argument("--lags", default=",".join(str(v) for v in range(1, 11)))
    p.add_argument("--target", type=int, help="round-1 component to isolate")
    p.add_argument("--emit-plot-data", action="store_true")
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
    except BadSpec as err:
        print(f"nsca: {err}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except (BadChannel, BadClass, BadComponent, InvalidWindow) as err:
        return _fail(2, str(err))
    except MalformedInput as err:
        return _fail(3, str(err))
    except OSError as err:
        return _fail(3, str(err))
    except ClassTooSmall as err:
        return _fail(4, f"class too small for covariance: {err}")
    except NotPositiveDefinite as err:
        return _fail(4, f"matrix not positive definite: {err}")
    except NoConvergence as err:
        return _fail(4, f"iteration did not converge: {err}")
    except (EmptyClass, Diverged, DegenerateIndex, DegenerateSeries, DegenerateTruth) as err:
        return _fail(4, str(err))
    except (ShapeMismatch, ModelMismatch) as err:
        return _fail(5, str(err))


if __name__ == "__main__":
    sys.exit(main())
