"""Separation engine tests: two-class GEVD, multi-class AJD, targeting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsca.errors import (
    BadClass,
    BadComponent,
    ClassTooSmall,
    NotPositiveDefinite,
    ShapeMismatch,
)
from nsca.linalg import SymMatrix, amari_index, cholesky, sample_cov
from nsca.partition import Partition, class_covariances
from nsca.records import Record
from nsca.separation import (
    _LAG_BLOCK,
    _lagged_covariances,
    apply_separation,
    eigenratio_map,
    nsca_multi_class,
    nsca_two_class,
    two_round_targeted,
)
from nsca.synthetic import DEFAULT_BURST, default_source_specs, gen_mixture


def _corr(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return abs(float(a @ b / np.sqrt((a @ a) * (b @ b))))


def burst_mixture(seed, T=10_000, burst_std=3.0):
    """2-channel toy: white background source plus a masked burst source."""
    rng = np.random.default_rng(seed)
    s1 = rng.normal(size=T)
    s2 = np.zeros(T)
    labels = np.zeros(T, dtype=int)
    labels[4000:5000] = 1
    s2[labels == 1] = rng.normal(scale=burst_std, size=1000)
    S = np.vstack([s1, s2])
    while True:
        A = rng.normal(size=(2, 2))
        if abs(np.linalg.det(A)) > 0.3:
            break
    return Record(A @ S), S, Partition(labels), A


class TestTwoClass:
    def test_recovers_burst_source(self):
        rec, S, mask, _ = burst_mixture(0)
        result = nsca_two_class(rec, mask)
        sel = mask.labels == 1
        assert _corr(result.sources.samples[0][sel], S[1][sel]) >= 0.95

    def test_identity_mixing_aligns_first_column(self):
        # diagonal class covariances: the leading generalized eigenvector
        # points along the bursty channel
        rng = np.random.default_rng(1)
        T = 10_000
        X = rng.normal(size=(2, T))
        labels = np.zeros(T, dtype=int)
        labels[2000:3500] = 1
        X[0, labels == 1] += rng.normal(scale=3.0, size=1500)
        result = nsca_two_class(Record(X), Partition(labels))
        w1 = result.demixer[:, 0]
        assert abs(w1[0]) / np.linalg.norm(w1) >= 0.99

    def test_whitening_contract(self):
        rec, _, mask, _ = burst_mixture(2)
        result = nsca_two_class(rec, mask)
        Cx = np.cov(rec.samples, ddof=1)
        W = result.demixer
        assert np.abs(W.T @ Cx @ W - np.eye(2)).max() <= 1e-6

    def test_eigenvalues_descending(self):
        rec, _, mask, _ = burst_mixture(3)
        vals = nsca_two_class(rec, mask).diagnostics["eigenvalues"]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_scale_invariance(self):
        rec, _, mask, _ = burst_mixture(4)
        base = nsca_two_class(rec, mask).sources.samples
        scaled = nsca_two_class(Record(7.0 * rec.samples), mask).sources.samples
        for i in range(2):
            assert _corr(base[i], scaled[i]) >= 1.0 - 1e-10

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        T = 8000
        S = np.vstack([rng.normal(size=T), rng.normal(size=T)])
        labels = np.zeros(T, dtype=int)
        labels[1000:2500] = 1
        S[1, labels == 1] *= 4.0
        A = np.array([[1.0, 0.4], [-0.3, 1.2]])
        rec = Record(A @ S)
        flipped = Record(rec.samples[::-1].copy())
        base = nsca_two_class(rec, Partition(labels)).sources.samples
        perm = nsca_two_class(flipped, Partition(labels)).sources.samples
        for i in range(2):
            assert _corr(base[i], perm[i]) >= 1.0 - 1e-7

    def test_energy_ordering(self):
        rec, _, mask, _ = burst_mixture(6)
        result = nsca_two_class(rec, mask)
        Y = result.sources.samples
        sel = mask.labels == 1
        ratios = [np.var(Y[i][sel]) / np.var(Y[i]) for i in range(2)]
        assert np.argmax(ratios) == 0

    def test_small_event_class_rejected(self):
        rng = np.random.default_rng(7)
        rec = Record(rng.normal(size=(2, 500)))
        labels = np.zeros(500, dtype=int)
        labels[10:12] = 1  # two samples: below the n+1 floor
        with pytest.raises(ClassTooSmall):
            nsca_two_class(rec, Partition(labels))

    def test_needs_two_classes(self):
        rng = np.random.default_rng(8)
        rec = Record(rng.normal(size=(2, 300)))
        labels = np.array([0] * 100 + [1] * 100 + [2] * 100)
        with pytest.raises(BadClass):
            nsca_two_class(rec, Partition(labels, K=3))


class TestMultiClass:
    def test_two_class_partition_matches_gevd_engine(self):
        rec, _, mask, _ = burst_mixture(9)
        ajd_src = nsca_multi_class(rec, mask).sources.samples
        gevd_src = nsca_two_class(rec, mask).sources.samples
        picks = []
        for i in range(2):
            corrs = [_corr(ajd_src[i], gevd_src[j]) for j in range(2)]
            picks.append(int(np.argmax(corrs)))
            assert max(corrs) >= 0.999
        assert sorted(picks) == [0, 1]

    def test_exactly_diagonalizable_classes(self):
        # per-class blocks with exact diagonal covariance, mixed by M: the
        # joint diagonalizer must recover M's inverse up to permutation/scale
        rng = np.random.default_rng(10)
        n, K, m = 4, 3, 400
        M = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        blocks, labels = [], []
        for i in range(K):
            Z = rng.normal(size=(n, m))
            Z -= Z.mean(axis=1, keepdims=True)
            E = np.linalg.cholesky(Z @ Z.T / (m - 1))
            Zw = np.linalg.solve(E, Z)
            d = rng.uniform(0.2, 5.0, size=n)
            blocks.append(M @ (np.sqrt(d)[:, None] * Zw))
            labels.extend([i] * m)
        rec = Record(np.hstack(blocks))
        part = Partition(np.array(labels), K=K)
        result = nsca_multi_class(rec, part)
        assert result.diagnostics["ajd_residual"] <= 1e-8
        assert amari_index(result.demixer.T @ M) < 1e-6
        counts = result.diagnostics["class_counts"]
        assert np.array_equal(result.diagnostics["weights"], counts / rec.length)

    def test_a_positional_bool_is_not_a_ridge(self):
        # the third parameter is reg_eps; a call written when it was
        # include_total must not run silently with a ridge of 1.0
        rec, _, mask, _ = burst_mixture(12)
        with pytest.raises(ValueError, match="reg_eps"):
            nsca_multi_class(rec, mask, True)

    def test_diagnostics_carry_residuals(self):
        rec, _, mask, _ = burst_mixture(12)
        diag = nsca_multi_class(rec, mask).diagnostics
        assert diag["ajd_residual"] >= 0.0
        assert diag["whitening_error"] <= 1e-6


class TestEigenratioMap:
    def test_direct_evaluation(self):
        spectra = np.array([[4.0, 1.0], [1.0, 1.0]])
        out = eigenratio_map(spectra, weights=[1.0, 1.0])
        assert np.allclose(out.ratios[0], [4.0, 1.0])
        assert out.best_component[0] == 0

    def test_symmetric_classes_tie_to_lowest(self):
        spectra = np.ones((2, 3))
        out = eigenratio_map(spectra, weights=[1.0, 1.0])
        assert np.allclose(out.ratios, 1.0)
        assert out.best_component.tolist() == [0, 0]
        assert out.one_to_one is False

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        S = rng.uniform(0.1, 5.0, size=(3, 4))
        w = rng.uniform(0.2, 1.0, size=3)
        out = eigenratio_map(S, w)
        for j in range(3):
            denom = sum(w[i] * S[i] for i in range(3) if i != j)
            assert np.allclose(out.ratios[j], S[j] / denom)

    def test_argmax_invariant_under_class_scaling(self):
        rng = np.random.default_rng(14)
        S = rng.uniform(0.1, 5.0, size=(3, 5))
        w = rng.uniform(0.2, 1.0, size=3)
        base = eigenratio_map(S, w).best_component.copy()
        S2 = S.copy()
        S2[1] *= 42.0
        assert eigenratio_map(S2, w).best_component[1] == base[1]

    def test_weight_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            eigenratio_map(np.ones((2, 3)), weights=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, True, np.True_])
    def test_non_finite_weight_rejected(self, bad):
        # a NaN weight makes the other classes' ratios NaN; argmax maps them to 0. A
        # negative or all-zero weight leaves the 1e-12 floor as the denominator, and a
        # bool would run as 1.0
        S = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        for weights in ([1.0, bad], [bad, bad], [0.0, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                eigenratio_map(S, weights=weights)

    @pytest.mark.filterwarnings("error")
    def test_complex_input_rejected(self):
        # a float cast would keep only the real parts, warning at most
        S = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        for spectra in (S + 5j, S.astype(complex), [[1 + 5j, 2, 3], [3, 2, 1]]):
            with pytest.raises(ValueError, match="spectra must be real"):
                eigenratio_map(spectra, weights=[1.0, 1.0])
        with pytest.raises(ValueError, match="weights must be real"):
            eigenratio_map(S, weights=[1 + 2j, 1.0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 12), n=st.integers(1, 6))
def test_eigenratio_map_matches_the_class_loop(seed, K, n):
    # the reference sums the other classes left to right, one at a time
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.0, 5.0, size=(K, n)) * 10.0 ** rng.integers(-14, 3, size=(K, 1))
    w = rng.uniform(0.0, 1.0, size=K)
    ref = np.empty((K, n))
    for j in range(K):
        denom = np.zeros(n)
        for i in range(K):
            if i != j:
                denom += w[i] * S[i]
        ref[j] = S[j] / np.maximum(denom, 1e-12)
    assert np.array_equal(eigenratio_map(S, w).ratios, ref)


class TestDegenerateTotal:
    """Three channels mixed from two sources: the total covariance has rank 2."""

    @staticmethod
    def _record():
        rng = np.random.default_rng(21)
        return Record(rng.normal(size=(3, 2)) @ rng.normal(size=(2, 900)))

    @staticmethod
    def _labels(K):
        return np.repeat(np.arange(K), 900 // K)

    def test_cholesky_fails_at_pivot_2(self):
        covset = class_covariances(self._record(), Partition(self._labels(2)))
        with pytest.raises(NotPositiveDefinite) as ei:
            cholesky(covset.total)
        assert ei.value.pivot == 2

    @pytest.mark.parametrize("K", [2, 3])
    def test_engine_keeps_the_pivot(self, K):
        engine = nsca_two_class if K == 2 else nsca_multi_class
        with pytest.raises(NotPositiveDefinite) as ei:
            engine(self._record(), Partition(self._labels(K)))
        assert ei.value.pivot == 2
        assert str(ei.value).count("pass reg_eps > 0") == 1


class TestTwoRound:
    @staticmethod
    def _ar_pair(seed, T=12_000):
        rng = np.random.default_rng(seed)
        S = np.zeros((2, T))
        for k in range(1, T):
            S[0, k] = 0.9 * S[0, k - 1] + rng.normal()
            S[1, k] = -0.5 * S[1, k - 1] + rng.normal()
        A = np.array([[1.0, 0.6], [0.5, -1.1]])
        return Record(A @ S), S

    def test_round1_separates_distinct_spectra(self):
        rec, S = self._ar_pair(15)
        result = two_round_targeted(rec, lags=range(1, 11), target_component=0)
        y1 = result.diagnostics["round1_demixer"].T @ rec.samples
        for i in range(2):
            assert max(_corr(y1[i], S[0]), _corr(y1[i], S[1])) >= 0.95

    def test_target_out_of_range(self):
        rec, _ = self._ar_pair(16)
        with pytest.raises(BadComponent):
            two_round_targeted(rec, lags=[1, 2], target_component=5)

    def test_lag_validation(self):
        rec, _ = self._ar_pair(17)
        with pytest.raises(ValueError):
            two_round_targeted(rec, lags=[], target_component=0)
        with pytest.raises(ValueError):
            two_round_targeted(rec, lags=[0], target_component=0)

    def test_fractional_lag_and_target_rejected(self):
        # int() would truncate these to lags [1, 2] and component 1
        rec, _ = self._ar_pair(17, T=2_000)
        with pytest.raises(ValueError, match="lag"):
            two_round_targeted(rec, lags=[1.5, 2], target_component=0)
        with pytest.raises(ValueError, match="target_component"):
            two_round_targeted(rec, lags=[1, 2], target_component=1.7)
        with pytest.raises(ValueError, match="target_component"):
            two_round_targeted(rec, lags=[1, 2], target_component=np.nan)
        result = two_round_targeted(rec, lags=[1.0, np.int64(2)], target_component=np.float64(1))
        assert result.diagnostics["lags"] == [1, 2]
        assert result.diagnostics["target_component"] == 1

    def test_round2_diagnostics_attached(self):
        rec, _ = self._ar_pair(18)
        result = two_round_targeted(rec, lags=range(1, 6), target_component=1)
        diag = result.diagnostics
        assert diag["target_component"] == 1
        assert diag["round2_mask_counts"].sum() == rec.length
        assert diag["round1_residual"] >= 0.0

    def test_peak_memory(self):
        # the centred copy of the record is dropped once the lag products are
        # formed; held through round 2 the peak was 2.39x the record's bytes
        rec, _ = gen_mixture(8, 20_000, DEFAULT_BURST, default_source_specs(8), seed=0)
        two_round_targeted(rec, range(1, 11), 0)
        tracemalloc.start()
        try:
            two_round_targeted(rec, range(1, 11), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * rec.samples.nbytes


class TestLaggedCovariances:
    @pytest.mark.parametrize("T", [_LAG_BLOCK - 1, _LAG_BLOCK, _LAG_BLOCK + 1, 2 * _LAG_BLOCK + 7])
    def test_matches_direct_product(self, T):
        # unsorted and repeated lags, and lags past the block where T allows
        X = sample_cov(np.random.default_rng(T).normal(size=(8, T)))[2]
        lags = [tau for tau in (1, 10, 3, 3, 9000, T - 3) if tau <= T - 3]
        got = _lagged_covariances(X, lags)
        assert len(got) == len(lags)
        for C, tau in zip(got, lags):
            A, B = X[:, : T - tau], X[:, tau:]
            ref = SymMatrix(A @ B.T / (T - tau - 1)).entries
            if T - tau <= _LAG_BLOCK:
                # one block: the bits of the single product
                assert C.entries.tobytes() == ref.tobytes()
            # blocks change only the summation order, so each entry is within
            # a rounding bound of its sum of absolute terms
            P = np.abs(A) @ np.abs(B).T
            bound = 4 * np.finfo(float).eps * (P + P.T) / 2 / (T - tau - 1)
            assert (np.abs(C.entries - ref) <= bound).all()


class TestApplySeparation:
    def test_identity(self):
        rec = Record(np.random.default_rng(19).normal(size=(3, 50)))
        out = apply_separation(np.eye(3), rec)
        assert np.array_equal(out.samples, rec.samples)

    def test_permutation(self):
        rec = Record(np.random.default_rng(20).normal(size=(3, 50)))
        P = np.zeros((3, 3))
        P[0, 2] = P[1, 0] = P[2, 1] = 1.0
        out = apply_separation(P, rec)
        # column i of P selects the channel it puts a 1 in
        for i in range(3):
            src = int(np.argmax(P[:, i]))
            assert np.array_equal(out.samples[i], rec.samples[src])

    def test_inverse_composition_recovers_input(self):
        rng = np.random.default_rng(21)
        rec = Record(rng.normal(size=(4, 200)))
        W = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
        mixed = apply_separation(W, rec)
        back = apply_separation(np.linalg.inv(W), mixed)
        assert np.abs(back.samples - rec.samples).max() <= 1e-9

    def test_shape_checked(self):
        rec = Record(np.ones((3, 10)))
        with pytest.raises(ShapeMismatch):
            apply_separation(np.eye(2), rec)

    def test_peak_memory(self):
        # the projected sources, frozen without a copy
        rng = np.random.default_rng(22)
        rec = Record(rng.normal(size=(5, 100_000)))
        W = rng.normal(size=(5, 5))
        apply_separation(W, rec)
        tracemalloc.start()
        try:
            apply_separation(W, rec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * rec.samples.nbytes

    @pytest.mark.parametrize("engine", ["two_class", "multi_class", "two_round"])
    def test_engine_sources_are_frozen_projections(self, engine):
        rec, _, part, _ = burst_mixture(23)
        result = {
            "two_class": lambda: nsca_two_class(rec, part),
            "multi_class": lambda: nsca_multi_class(rec, part),
            "two_round": lambda: two_round_targeted(rec, range(1, 6), 0),
        }[engine]()
        sources = result.sources.samples
        assert not sources.flags.writeable
        assert sources.tobytes() == (result.demixer.T @ rec.samples).tobytes()
