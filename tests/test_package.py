"""The package namespace and the benchmark tracer that wraps it."""

import importlib.util
import inspect
import os

import nsca
from nsca import detectors, linalg, metrics, partition, records, separation, synthetic

LAYERS = (linalg, records, detectors, partition, separation, synthetic, metrics)

# The package names of the release before the namespace was built from the
# layer lists; none of them may go. Two went on purpose:
# `reference_trigger_index` (the envelope of one channel, which is
# `energy_envelope(record.channel(ch))`) and `pooled_complement` (no caller).
EARLIER_NAMES = {
    "errors", "io", "__version__",
    "SymMatrix", "EigPair", "cholesky", "sym_eig", "gevd", "ajd", "off_diag_residual",
    "amari_index", "Record", "IndexSeries", "standardize", "FittedCdf", "StateSpaceModel",
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


def _load_spans():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(root, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_records_layer_spans():
    # the benchmark wraps the functions the layer lists name; a change to the
    # package that hid a call from it would drop these spans
    spans = _load_spans()
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
