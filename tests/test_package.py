"""The package namespace, its run-time imports, and the benchmark that wraps it."""

import argparse
import importlib.util
import inspect
import os
import subprocess
import sys

import nsca
from nsca import detectors, linalg, metrics, partition, records, separation, synthetic

LAYERS = (linalg, records, detectors, partition, separation, synthetic, metrics)

# The package names of the release before the namespace was built from the
# layer lists; none of them may go. Three went on purpose:
# `reference_trigger_index` (the envelope of one channel, which is
# `energy_envelope(record.channel(ch))`), and `pooled_complement` and
# `standardize` (no caller).
EARLIER_NAMES = {
    "errors", "io", "__version__",
    "SymMatrix", "EigPair", "cholesky", "sym_eig", "gevd", "ajd", "off_diag_residual",
    "amari_index", "Record", "IndexSeries", "FittedCdf", "StateSpaceModel",
    "fit_gaussian_cdf", "anderson_darling_index", "energy_envelope", "cumulant_tracking",
    "prewhiten", "easi_index", "ar_tracking", "normalized_innovations",
    "kalman_innovation_index", "fit_ar1_state_space",
    "normalize_index", "Partition", "CovarianceSet", "threshold_mask", "quantile_partition",
    "class_covariances", "SeparationResult", "ClassComponentMap",
    "apply_separation", "nsca_two_class", "nsca_multi_class", "eigenratio_map",
    "two_round_targeted", "GroundTruth", "gen_mixture", "gen_ecg_like",
    "default_source_specs", "EvalReport", "eval_separation", "eval_mask", "eval_index_auc",
}


class TestPackageSurface:
    def test_all_is_the_union_of_the_layer_lists(self):
        layer_names = [name for layer in LAYERS for name in layer.__all__]
        assert len(nsca.__all__) == len(set(nsca.__all__))
        assert set(nsca.__all__) == {"errors", "io", "__version__", *layer_names}
        assert len(nsca.__all__) == 3 + len(layer_names)

    def test_each_name_is_the_layer_object(self):
        for layer in LAYERS:
            for name in layer.__all__:
                assert getattr(nsca, name) is getattr(layer, name), name
        assert nsca.errors is importlib.import_module("nsca.errors")
        assert nsca.io is importlib.import_module("nsca.io")

    def test_earlier_names_are_kept(self):
        assert EARLIER_NAMES <= set(nsca.__all__)


def _load_perfbench(name):
    """``perfbench/<name>.py`` as a module, with no bytecode cache written beside it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(root, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_benchmark_tracer_records_layer_spans():
    # the benchmark wraps the functions the layer lists name; a change to the
    # package that hid a call from it would drop these spans
    spans = _load_perfbench("spans")
    originals = {name: getattr(nsca, name) for name in nsca.__all__
                 if inspect.isfunction(getattr(nsca, name))}
    tracer = spans.Tracer()
    tracer.install()
    try:
        # through the package names, which the tracer rebinds as well
        record, _ = nsca.gen_mixture(3, 3000, nsca.DEFAULT_BURST, seed=1)
        env = nsca.energy_envelope(record.channel(0))
        nsca.nsca_two_class(record, nsca.threshold_mask(env))
        nsca.nsca_multi_class(record, nsca.quantile_partition(env, 3))
    finally:
        tracer.uninstall()
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"detectors.energy_envelope", "linalg.gevd", "kernels.jacobi_eig",
            "kernels.ajd_rotate"} <= names
    assert all(getattr(nsca, name) is fn for name, fn in originals.items())


def test_benchmark_runs_a_lib_readme_pass(tmp_path):
    # perfbench reads names of the package that nothing else in it uses: the
    # kernel list, HAVE_NUMBA, normalize_index and the CLI's EASI settings. One
    # traced pass of its library workload fails if a change to the package
    # removed one of them.
    run, spans, workloads = map(_load_perfbench, ("run", "spans", "workloads"))
    meta = run.run_meta(argparse.Namespace(workload="lib_readme", seed=0, seconds=0.0, trace=1))
    assert meta["have_numba"] is False
    wl = workloads.WORKLOADS["lib_readme"](0, str(tmp_path))
    wl.setup()
    tracer = spans.Tracer()
    tracer.install()
    try:
        raw, _wall, _units = run.run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    outcomes = wl.check(raw)
    assert len(outcomes) == wl.records
    assert [o.error for o in outcomes] == [None] * wl.records
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"kernels.ad_sliding", "kernels.ar_sliding", "detectors.normalize_index"} <= names


PIPELINE = """
import sys
from nsca.cli import main
d = sys.argv[1]
rec, idx = f"{d}/synth/record.csv", f"{d}/detect/innovation.csv"
for args in (
    f"synth --n 3 --t 4000 --seed 1 --out-dir {d}/synth",
    f"detect --record {rec} --out-dir {d}/detect",
    f"detect --record {rec} --detectors easi --out-dir {d}/detect2",
    f"separate --record {rec} --index {idx} --theta 0.5 --out-dir {d}/sep",
    f"separate --record {rec} --index {idx} --quantiles 3 --out-dir {d}/sep3",
    f"separate --record {rec} --two-round --target 0 --out-dir {d}/sep2",
    f"eval --est {d}/sep/est_sources.csv --truth {d}/synth/sources.csv "
    f"--truth-mask {d}/synth/mask.csv --index {idx}",
):
    assert main(args.split()) == 0, args
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_pipeline_loads_no_scipy(tmp_path):
    # every subcommand, the default and the other CLI detectors and all three
    # ways to separate, in one fresh process: numpy is the only numeric
    # dependency at run time, so only numpy's BLAS and its thread pool load
    src = os.path.dirname(os.path.dirname(nsca.__file__))
    proc = subprocess.run([sys.executable, "-c", PIPELINE, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
