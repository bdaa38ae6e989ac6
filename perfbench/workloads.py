"""The three benchmark workloads and the checks on their outputs.

Each workload generates its inputs from the workload seed during set-up, then
runs identical passes over them. A pass is a list of ``segments``: calls that
are timed one by one and return raw results. ``check`` is untimed and turns
the raw results of a pass into one outcome per record. Library calls go
through module attributes (``detectors.easi_index``, not a name bound at
import) so that the tracer's wrappers are seen.
"""

import contextlib
import functools
import hashlib
import io as _io
import itertools
import os
import shutil
import traceback

import numpy as np

import nsca.cli
import nsca.io
from nsca import detectors, metrics, partition, separation, synthetic

BURST = dict(count=3, min_len=600, max_len=900, amplitude=4.0)
WHITENING_TOL = 1e-8  # W^T C_x W = I; observed <= 1e-12
ORACLE_CORR_FLOOR = 0.95  # acceptance criterion 06's floor on oracle-mask recovery
# The generator's default specs put the burst-gated source last.
BURST_SOURCE = -1
# Classes of the quantile partitions given to nsca_multi_class. Two classes
# whitened by their total covariance form a pencil, which the joint
# diagonalization solves like one symmetric eigenproblem. With three or more
# classes it exhausts its sweep budget on some records (README.md, known
# defect 2), and an operation that fails on some seeds has no place here.
MULTI_CLASS_K = 2
# Inputs are mixtures whose mixing matrix A has a condition number of at most
# this. Rounding alone leaves about cond(C_x) * 2e-17 in W^T C_x W - I, and
# cond(C_x) grows as cond(A)^2, so the whitening check means something only
# for well-conditioned mixtures. The generator's own floor (|det A| >= 1e-6)
# lets cond(A) reach 1.5e5 at n=8, which leaves 5.7e-7; below 1e3 the floor
# is under 1e-10. About 1 record in 100 at n=8 is passed over.
MIXING_COND_LIMIT = 1e3
SEED_STRIDE = 2**48  # a passed-over seed s is replaced by s + SEED_STRIDE
PROBE_T = 4_000  # record length that suffices to draw a seed's mixing matrix


class Outcome:
    """One record through one pass: an error, or its quality figures."""

    __slots__ = ("error", "burst_corr", "index_auc")

    def __init__(self, error=None, burst_corr=None, index_auc=None):
        self.error = error
        self.burst_corr = burst_corr
        self.index_auc = index_auc


def _failure():
    return traceback.format_exc(limit=4)


def _whitening_failures(diagnostics):
    return [
        f"{label}: whitening_error {d['whitening_error']:.3g} > {WHITENING_TOL:g}"
        for label, d in diagnostics
        if not d["whitening_error"] <= WHITENING_TOL
    ]


def _well_mixed(mixing):
    return np.linalg.cond(mixing) <= MIXING_COND_LIMIT


def _well_mixed_seed(base, n):
    """The first of ``base``, ``base + SEED_STRIDE``, ... with a well-conditioned mixing.

    The generator draws the mixing matrix from its own substream of the seed,
    so a short record has the same matrix as the full one; set-up checks it.
    """
    for k in itertools.count():
        seed = base + k * SEED_STRIDE
        if _well_mixed(synthetic.gen_mixture(n, PROBE_T, BURST, seed=seed)[1].mixing):
            return seed


def _record_seeds(seed, count, n):
    """Generator seeds of a workload seed's records; distinct workload seeds give disjoint ones."""
    return [_well_mixed_seed(seed * count + i, n) for i in range(count)]


class LibraryWorkload:
    """Records generated in memory; no files."""

    n = T = records = None

    def __init__(self, seed, workdir):
        self.seeds = _record_seeds(seed, self.records, self.n)
        self.data = []
        self.digest = None

    @property
    def samples_per_pass(self):
        return self.T * self.records

    def setup(self):
        self.data = [
            synthetic.gen_mixture(self.n, self.T, BURST, seed=s) for s in self.seeds
        ]

    def check_setup(self):
        """Repeated generation with one seed must give identical, well-mixed records."""
        h = hashlib.sha256()
        for rec, _truth in self.data:
            h.update(rec.samples.tobytes())
        if self.digest is None:
            self.digest = h.hexdigest()
        return h.hexdigest() == self.digest and all(_well_mixed(t.mixing) for _r, t in self.data)

    def prepare(self):
        pass

    def segments(self):
        """One segment per record."""
        return [functools.partial(self._guarded, rec, truth) for rec, truth in self.data]

    def _guarded(self, rec, truth):
        try:
            return self.one(rec, truth)
        except Exception:  # an operation that raises counts as failed
            return _failure()

    def check(self, raw):
        outcomes = []
        for (rec, truth), res in zip(self.data, raw):
            if isinstance(res, str):
                outcomes.append(Outcome(error=res))
            else:
                outcomes.append(self.score(res, truth))
        return outcomes


class LibReadme(LibraryWorkload):
    """README library tour, all six detectors, at n=5 and T=1e4."""

    name = "lib_readme"
    n, T, records = 5, 10_000, 6

    def one(self, rec, truth):
        x = rec.channel(0)
        indexes = [
            detectors.anderson_darling_index(x),
            detectors.energy_envelope(x),
            detectors.cumulant_tracking(x),
            detectors.ar_tracking(x),
            detectors.easi_index(detectors.prewhiten(rec), nsca.cli.CLI_EASI_STEP, nsca.cli.CLI_EASI_G),
        ]
        model = detectors.fit_ar1_state_space(rec)
        inn = detectors.kalman_innovation_index(rec, model, window=128)
        indexes.append(inn)
        for idx in indexes:
            detectors.normalize_index(idx)
        mask = partition.threshold_mask(inn, 0.5)
        quant = partition.quantile_partition(inn, MULTI_CLASS_K)
        two = separation.nsca_two_class(rec, mask)
        multi = separation.nsca_multi_class(rec, quant)
        report = metrics.eval_separation(two.sources, truth)
        auc = metrics.eval_index_auc(inn, truth.burst_mask)
        return two.diagnostics, multi.diagnostics, report, auc

    def score(self, res, truth):
        two, multi, report, auc = res
        bad = _whitening_failures((("two_class", two), ("multi_class", multi)))
        if bad:
            return Outcome(error="; ".join(bad))
        return Outcome(burst_corr=float(report.matched[BURST_SOURCE]), index_auc=auc)


class SepWide(LibraryWorkload):
    """Separation engines only, at n=8 and T=2e4."""

    name = "sep_wide"
    # 48 records keep index_auc, a mean over them, steady across workload seeds;
    # over 24 its quartile spread across ten seeds was 7% of the median.
    n, T, records = 8, 20_000, 48
    LAGS = tuple(range(1, 11))

    def one(self, rec, truth):
        two = separation.nsca_two_class(rec, truth.burst_mask)
        env = detectors.energy_envelope(rec.channel(0))
        quant = partition.quantile_partition(env, MULTI_CLASS_K)
        multi = separation.nsca_multi_class(rec, quant)
        rounds = separation.two_round_targeted(rec, self.LAGS, 0)
        # Keep only what the checks read, so held results do not inflate peak RSS.
        return two, env, multi.diagnostics, rounds.diagnostics

    def score(self, res, truth):
        two, env, multi, rounds = res
        bad = _whitening_failures((("two_class", two.diagnostics), ("multi_class", multi),
                                   ("two_round", rounds)))
        corr = float(metrics.eval_separation(two.sources, truth).matched[BURST_SOURCE])
        if not corr >= ORACLE_CORR_FLOOR:
            bad.append(f"oracle burst_corr {corr:.4f} < {ORACLE_CORR_FLOOR}")
        if bad:
            return Outcome(error="; ".join(bad))
        return Outcome(burst_corr=corr, index_auc=metrics.eval_index_auc(env, truth.burst_mask))


def _hash_tree(root):
    digests = {}
    for dirpath, _dirs, files in sorted(os.walk(root)):
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class CliLong:
    """The in-process CLI path at n=5 and T=1e5: synth, detect, separate, eval."""

    name = "cli_long"
    n, T, records = 5, 100_000, 1
    DETECTORS = "ad,envelope,innovation"  # the default set exits 4 at T >= 5e4

    def __init__(self, seed, workdir):
        self.synth_seed = _well_mixed_seed(seed, self.n)
        self.synth = os.path.join(workdir, "synth")
        self.out = os.path.join(workdir, "pass")
        self.synth_hashes = None
        self.pass_hashes = None
        s, o = self.synth, self.out
        self.commands = [
            ["detect", "--record", f"{s}/record.csv", "--detectors", self.DETECTORS,
             "--out-dir", f"{o}/detect"],
            ["separate", "--record", f"{s}/record.csv", "--index", f"{o}/detect/innovation.csv",
             "--theta", "0.5", "--out-dir", f"{o}/sep"],
            ["eval", "--est", f"{o}/sep/est_sources.csv", "--truth", f"{s}/sources.csv",
             "--truth-mask", f"{s}/mask.csv", "--index", f"{o}/detect/innovation.csv"],
        ]

    @property
    def samples_per_pass(self):
        return self.T * self.records

    @staticmethod
    def _cli(argv):
        """Run one CLI command; return its exit code, stdout and stderr."""
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nsca.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def setup(self):
        code, _out, err = self._cli([
            "synth", "--n", str(self.n), "--t", str(self.T), "--seed", str(self.synth_seed),
            "--out-dir", self.synth,
        ])
        if code != 0:
            raise RuntimeError(f"nsca synth exited {code}: {err.strip()}")

    def check_setup(self):
        """Repeated synth with one seed must write identical bytes and a well-mixed record."""
        digests = _hash_tree(self.synth)
        if self.synth_hashes is None:
            self.synth_hashes = digests
        mixing = nsca.io.read_matrix(os.path.join(self.synth, "mixing.csv"))
        return digests == self.synth_hashes and _well_mixed(mixing)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def segments(self):
        """One segment per CLI command."""
        return [functools.partial(self._cli, argv) for argv in self.commands]

    def check(self, raw):
        codes = [code for code, _out, _err in raw]
        if codes != [0, 0, 0]:
            err = " | ".join(e.strip() for _code, _out, e in raw if e.strip())
            return [Outcome(error=f"CLI exit codes {codes}: {err}")]
        out = raw[-1][1]  # eval's report
        bad = []
        with open(os.path.join(self.out, "sep", "diagnostics.txt"), encoding="ascii") as fh:
            diag = dict(line.split(": ", 1) for line in fh.read().splitlines())
        werr = float(diag["whitening_error"])
        if not werr <= WHITENING_TOL:
            bad.append(f"whitening_error {werr:.3g} > {WHITENING_TOL:g}")
        digests = _hash_tree(self.out)
        if self.pass_hashes is None:
            self.pass_hashes = digests
        elif digests != self.pass_hashes:
            changed = sorted(k for k in digests.keys() | self.pass_hashes.keys()
                             if digests.get(k) != self.pass_hashes.get(k))
            bad.append(f"outputs differ from the first pass: {', '.join(changed)}")
        table = dict(line.split(",", 1) for line in out.splitlines() if line.count(",") == 1)
        burst = f"s{self.n}"  # BURST_SOURCE, as the CLI names it
        corr = [float(v) for k, v in table.items() if k.startswith("corr_") and k.endswith("_" + burst)]
        if len(corr) != 1 or "index_auc" not in table:
            bad.append("eval printed no burst-source correlation or index_auc")
        if bad:
            return [Outcome(error="; ".join(bad))]
        return [Outcome(burst_corr=corr[0], index_auc=float(table["index_auc"]))]


WORKLOADS = {w.name: w for w in (CliLong, LibReadme, SepWide)}
