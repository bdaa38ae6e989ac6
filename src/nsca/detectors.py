"""Detector bank: per-sample nonstationarity indexes.

Each detector turns a record (or one of its channels) into an
:class:`~nsca.records.IndexSeries` whose large values flag samples where the
local statistics disagree with a stationary reference. Detectors differ in
what they are sensitive to:

* ``anderson_darling_index`` -- distributional drift against a fitted Gaussian;
* ``energy_envelope`` -- local power;
* ``cumulant_tracking`` -- drift of the local mean or variance;
* ``easi_index`` -- norm of the relative-gradient update of an adaptive
  separator, large whenever the mixture statistics move;
* ``ar_tracking`` -- drift of autoregressive coefficients between offset
  windows;
* ``kalman_innovation_index`` -- local mean of the normalized innovations of
  a linear state-space model, large where the data leaves the model.

Records are read whole, so every windowed index is centred on the sample it
labels (a trailing window reports an event half a window late): a moving mean
over ``[k - w // 2, k - w // 2 + w)`` truncated at the edges, or for AD and
AR the full window nearest to that one.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DegenerateSeries,
    Diverged,
    InvalidWindow,
    ModelMismatch,
    NotPositiveDefinite,
    ShapeMismatch,
)
from .linalg import SymMatrix, _whitening_factor, as_sym, sample_cov, sym_eig
from .records import IndexSeries, Record, as_int, as_record

__all__ = [
    "FittedCdf",
    "StateSpaceModel",
    "fit_gaussian_cdf",
    "anderson_darling_index",
    "energy_envelope",
    "cumulant_tracking",
    "prewhiten",
    "easi_index",
    "ar_tracking",
    "normalized_innovations",
    "kalman_innovation_index",
    "fit_ar1_state_space",
    "normalize_index",
    "DEFAULT_WINDOW",
    "DEFAULT_AD_WINDOW",
    "DEFAULT_CUMULANT_WINDOW",
    "DEFAULT_CUMULANT_ORDER",
    "DEFAULT_AR_WINDOW",
    "DEFAULT_AR_ORDER",
    "DEFAULT_EASI_STEP",
]

DEFAULT_WINDOW = 256
DEFAULT_AD_WINDOW = 64
DEFAULT_CUMULANT_WINDOW = 512
DEFAULT_CUMULANT_ORDER = 2
DEFAULT_AR_WINDOW = 512
DEFAULT_AR_ORDER = 4
DEFAULT_EASI_STEP = 0.01

EASI_DIVERGENCE_CAP = 1e6
CDF_CLAMP = 1e-12


def _as_series(series):
    if np.iscomplexobj(series):
        raise ValueError("series must be real, not complex")
    x = np.ascontiguousarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ShapeMismatch("expected a 1-D sample series")
    if not np.isfinite(x).all():
        raise ValueError("series contains non-finite samples")
    return x


def _window(window, T):
    """``window`` as an int; InvalidWindow unless ``1 <= window <= T``."""
    w = as_int(window, "window")
    if not 1 <= w <= T:
        raise InvalidWindow(f"window {w} outside [1, {T}]")
    return w


# ---------------------------------------------------------------------------
# Distribution-drift detector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FittedCdf:
    """Gaussian CDF fitted to a calibration stretch of data.

    ValueError unless ``mean`` is finite, ``0 < std < inf`` and neither is a bool.
    """

    mean: float
    std: float

    def __post_init__(self):
        if (not (math.isfinite(self.mean) and 0.0 < self.std < math.inf)
                or any(isinstance(v, (bool, np.bool_)) for v in (self.mean, self.std))):
            raise ValueError("need a finite mean and 0 < std < inf, "
                             f"got mean={self.mean!r}, std={self.std!r}")

    def cdf(self, x):
        return _kernels.normal_cdf((np.asarray(x, dtype=np.float64) - self.mean) / self.std)


def fit_gaussian_cdf(series):
    """Fit a Gaussian reference CDF to a series.

    Raises
    ------
    DegenerateSeries
        If the series is shorter than 2 samples, or its variance falls below
        1e-24 (no distribution to speak of) or overflows.
    """
    x = _as_series(series)
    if x.size < 2:
        raise DegenerateSeries("need at least 2 samples to fit a reference CDF")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = float(np.mean(x)), float(np.var(x, ddof=1))
    if not math.isfinite(var):
        raise DegenerateSeries("series variance overflows")
    if var < 1e-24:
        raise DegenerateSeries("series variance below 1e-24")
    return FittedCdf(mean=mean, std=math.sqrt(var))


def anderson_darling_index(series, window=DEFAULT_AD_WINDOW, cdf=None):
    """Sliding-window Anderson-Darling statistic against a fitted Gaussian.

    For each window of length ``p`` the samples are sorted and

        A^2 = -p - (1/p) * sum_{i=1..p} (2i - 1) *
              [ln F(z_(i)) + ln(1 - F(z_(p+1-i)))]

    with ``F`` the reference CDF, clamped to [1e-12, 1 - 1e-12] before the
    logs. The statistic is invariant under affine maps applied jointly to the
    series and the reference fit. ``F`` and both logs are computed once per
    sample; each window gathers them at its sorted ranks in the whole
    series, which gives the same values, and the same sums to the last bit,
    as sorting the window and taking ``F`` and the logs there. The windows
    run in blocks of about ``_kernels._AD_BLOCK_ELEMS`` samples, so working
    memory does not grow with ``len(series) * p``. Value ``k`` is the
    statistic of the full window nearest to ``[k - p // 2, k - p // 2 + p)``.

    Parameters
    ----------
    series : array_like, 1-D
    window : int
        Window length ``p``; ``1 <= p <= len(series)``.
    cdf : FittedCdf, optional
        Reference distribution; fitted to the whole series when omitted.
        Any other type raises ``TypeError``.
    """
    x = _as_series(series)
    p = _window(window, x.size)
    if cdf is None:
        cdf = fit_gaussian_cdf(x)
    elif not isinstance(cdf, FittedCdf):
        raise TypeError("anderson_darling_index expects a FittedCdf")
    # the kernel's value j is the window starting at j
    windows = _kernels.ad_sliding(x, p, cdf.mean, cdf.std, CDF_CLAMP)
    values = windows[np.clip(np.arange(x.size) - p // 2, 0, x.size - p)]
    return IndexSeries(
        values,
        name="anderson_darling",
        meta={"window": p, "mean": cdf.mean, "std": cdf.std},
    )


# ---------------------------------------------------------------------------
# Power and cumulant trackers
# ---------------------------------------------------------------------------

def _centred_mean(x, w):
    """Per ``k``, the mean of ``x`` over ``[k - w // 2, k - w // 2 + w)`` clipped
    to ``[0, T)``, from one running sum: rounding grows with ``T * max|x|``.

    The ``T - w + 1`` whole windows are the difference of two slices of the
    running sum divided by ``w``; only the ``w - 1`` clipped edge samples
    gather their bounds."""
    T, h = x.size, w // 2
    s = np.zeros(T + 1)
    np.cumsum(x, out=s[1:])
    out = np.empty(T)
    out[h:T - w + 1 + h] = (s[w:] - s[:T - w + 1]) / w
    edges = np.r_[0:h, T - w + 1 + h:T]
    lo, hi = np.maximum(edges - h, 0), np.minimum(edges - h + w, T)
    out[edges] = (s[hi] - s[lo]) / (hi - lo)
    return out


def energy_envelope(series, window=DEFAULT_WINDOW):
    """Centred moving average of squared samples, truncated at the edges.

    ``1 <= window <= len(series)``. Every output is a mean of squares, hence
    nonnegative, and scaling the series by ``a`` scales the envelope by
    ``a**2``.
    """
    x = _as_series(series)
    w = _window(window, x.size)
    values = _centred_mean(x * x, w)
    return IndexSeries(values, name="energy_envelope", meta={"window": w})


def cumulant_tracking(series, window=DEFAULT_CUMULANT_WINDOW, order=DEFAULT_CUMULANT_ORDER):
    """Magnitude of one sample cumulant over a centred, edge-truncated window.

    order 1: |mean|; order 2: biased variance.
    """
    x = _as_series(series)
    w = _window(window, x.size)
    order = as_int(order, "order")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    mu = _centred_mean(x, w)
    core = mu if order == 1 else _centred_mean(x * x, w) - mu * mu
    return IndexSeries(
        np.abs(core), name=f"cumulant_{order}", meta={"window": w, "order": order}
    )


# ---------------------------------------------------------------------------
# Adaptive-separation drift detector
# ---------------------------------------------------------------------------

def prewhiten(record, reg_eps=0.0):
    """Decorrelate a record by the inverse Cholesky factor of its covariance.

    The output has identity sample covariance, the canonical input scaling
    for :func:`easi_index` (whose update already contains the ``y y^T - I``
    whitening term, so any leftover global correlation would dominate the
    index). ``reg_eps >= 0`` adds a relative ridge before factoring for
    rank-deficient records.
    """
    record = as_record(record)
    L = _whitening_factor(sample_cov(record.samples)[0], reg_eps)
    return Record._wrap(_kernels.solve_lower(L, record.samples), record.sample_rate_hz)


def easi_index(record, step=DEFAULT_EASI_STEP, nonlinearity="cubic"):
    """Update-norm index of an equivariant adaptive separator.

    Runs the relative-gradient recursion ``W <- W - step * H(y) W`` with
    ``y = W x`` and ``H(y) = y y^T - I + g(y) y^T - y g(y)^T``, starting from
    the identity, and emits ``||H(y_k)||_F`` per sample. On stationary,
    pre-scaled input the index settles; moving mixture statistics keep it
    elevated. Callers should feed channels scaled to unit variance.

    Parameters
    ----------
    record : Record
        At least 2 channels.
    step : float
        Positive, finite adaptation step.
    nonlinearity : {"cubic", "tanh"}
        ``g`` in the update; cubic suits sub-Gaussian sources.

    Raises
    ------
    Diverged
        If any ``|W|`` entry exceeds 1e6; the failing step is reported.
    """
    record = as_record(record)
    if record.channels < 2:
        raise ShapeMismatch("adaptive separation needs at least 2 channels")
    if isinstance(step, (bool, np.bool_)) or not 0 < step < np.inf:
        raise ValueError("step must be positive and finite")
    if nonlinearity not in ("cubic", "tanh"):
        raise ValueError("nonlinearity must be 'cubic' or 'tanh'")
    xt = np.ascontiguousarray(record.samples.T)
    nl = 0 if nonlinearity == "cubic" else 1
    values, _W, status, where = _kernels.easi_scan(xt, float(step), nl, EASI_DIVERGENCE_CAP)
    if status:
        raise Diverged(f"separator weights left [-1e6, 1e6] at step {where}", at=where)
    return IndexSeries(
        values,
        name="easi",
        meta={"step": float(step), "nonlinearity": nonlinearity},
    )


# ---------------------------------------------------------------------------
# Autoregressive-coefficient drift detector
# ---------------------------------------------------------------------------

def ar_tracking(series, window=DEFAULT_AR_WINDOW, ar_order=DEFAULT_AR_ORDER):
    """Drift of AR coefficients between two windows ``hop`` samples apart.

    Each window of length ``w`` is demeaned, its biased autocovariances are
    fed through the Levinson-Durbin recursion, and the drift of the pair of
    windows starting at ``s`` and ``s + hop``, with ``hop = max(w // 4, 1)``,
    is the Euclidean distance between their coefficient vectors. Value ``k``
    is the drift of the pair spanning ``[s, s + w + hop)`` nearest to
    centred, ``s = clip(k - (w + hop) // 2, 0, T - w - hop)``. Windows with
    (numerically) zero power or a collapsing prediction error cannot be
    fitted; a pair with one of them drifts 0, and they are counted in
    ``meta["singular_windows"]``.
    """
    x = _as_series(series)
    w = as_int(window, "window")
    q = as_int(ar_order, "ar_order")
    if q < 1:
        raise InvalidWindow("ar_order must be >= 1")
    if w < 4 * q:
        raise InvalidWindow(f"window {w} shorter than 4 * ar_order = {4 * q}")
    hop = max(w // 4, 1)
    T = x.size
    if w + hop > T:
        raise InvalidWindow(f"window {w} plus hop {hop} longer than the series ({T})")
    coef, ok = _kernels.ar_sliding(x, w, q)
    diff = coef[hop:] - coef[:-hop]
    drift = np.where(ok[hop:] & ok[:-hop], np.sqrt(np.sum(diff * diff, axis=1)), 0.0)
    return IndexSeries(
        drift[np.clip(np.arange(T) - (w + hop) // 2, 0, T - w - hop)],
        name="ar_tracking",
        meta={"window": w, "order": q, "hop": hop, "singular_windows": int(np.sum(ok == 0))},
    )


# ---------------------------------------------------------------------------
# State-space innovation detector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpaceModel:
    """Linear time-invariant state-space model ``x' = F x + w``, ``z = H x + v``.

    Noise covariances must be symmetric positive semidefinite. A singular
    observation-noise covariance is used as given: the filter needs only each
    innovation covariance ``H P H^T + R`` to be positive definite (see
    :func:`normalized_innovations`).
    """

    transition: np.ndarray
    observation: np.ndarray
    process_noise_cov: SymMatrix
    obs_noise_cov: SymMatrix
    init_state: np.ndarray
    init_cov: SymMatrix

    def __post_init__(self):
        F = np.ascontiguousarray(self.transition, dtype=np.float64)
        H = np.ascontiguousarray(self.observation, dtype=np.float64)
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise ModelMismatch("transition must be square")
        s = F.shape[0]
        if H.ndim != 2 or H.shape[1] != s:
            raise ModelMismatch("observation must be (obs_dim, state_dim)")
        m = H.shape[0]
        Q = as_sym(self.process_noise_cov)
        R = as_sym(self.obs_noise_cov)
        P0 = as_sym(self.init_cov)
        if Q.dim != s or P0.dim != s:
            raise ModelMismatch("process_noise_cov and init_cov must match state_dim")
        if R.dim != m:
            raise ModelMismatch("obs_noise_cov must match obs_dim")
        x0 = np.ascontiguousarray(self.init_state, dtype=np.float64).reshape(-1)
        if x0.size != s:
            raise ModelMismatch("init_state must match state_dim")
        for name, c in (("process_noise_cov", Q), ("obs_noise_cov", R), ("init_cov", P0)):
            scale = max(float(np.abs(c.entries).max()), 1.0)
            if sym_eig(c).values[0] < -1e-10 * scale:
                raise ModelMismatch(f"{name} is not positive semidefinite")
        object.__setattr__(self, "transition", F)
        object.__setattr__(self, "observation", H)
        object.__setattr__(self, "process_noise_cov", Q)
        object.__setattr__(self, "obs_noise_cov", R)
        object.__setattr__(self, "init_state", x0)
        object.__setattr__(self, "init_cov", P0)

    @property
    def state_dim(self):
        return self.transition.shape[0]

    @property
    def obs_dim(self):
        return self.observation.shape[0]


def normalized_innovations(record, model):
    """Normalized squared innovations ``e_k = i_k^T S_k^{-1} i_k`` of a filter run.

    For data that actually follows the model, with every source present
    throughout, ``e`` has mean ``obs_dim`` and no serial correlation. A
    source confined to bursts is absent between them, and there the mean
    drops toward ``obs_dim - 1``; bursts that leave the model inflate and
    correlate ``e``. Raises :class:`NotPositiveDefinite` naming the first
    step whose innovation covariance ``S_k = H P_k H^T + R`` is not positive
    definite; ``R`` is used as given. The numpy scan switches to the fixed
    steady-state gain once the predicted covariance has converged to
    rounding, and runs the full filter throughout if it never does or the
    closed loop is unstable.
    """
    record = as_record(record)
    if model.obs_dim != record.channels:
        raise ModelMismatch(
            f"model observes {model.obs_dim} channels, record has {record.channels}"
        )
    zt = np.ascontiguousarray(record.samples.T)
    e, status, where = _kernels.kalman_scan(
        zt,
        model.transition,
        model.observation,
        model.process_noise_cov.entries,
        model.obs_noise_cov.entries,
        model.init_state,
        model.init_cov.entries,
    )
    if status:
        raise NotPositiveDefinite(f"innovation covariance lost definiteness at step {where}")
    return e


def kalman_innovation_index(record, model, window=DEFAULT_WINDOW):
    """Innovation index: local mean of the normalized innovations.

    The centred, edge-truncated moving mean of the model's normalized
    squared innovations ``e`` (:func:`normalized_innovations`) over
    ``window`` samples (``1 <= window <= record.length``): near ``obs_dim``
    where the record follows the model, higher where the data leaves it.
    """
    record = as_record(record)
    w = _window(window, record.length)
    values = _centred_mean(normalized_innovations(record, model), w)
    return IndexSeries(values, name="innovation", meta={"window": w})


def fit_ar1_state_space(record, obs_noise_frac=1e-3):
    """Fit a first-order vector-autoregressive state-space model to a record.

    A matched background model for the innovation detector when nothing
    better is known: the one-step transition fitted to the centered data by
    LAPACK least squares (``numpy.linalg.lstsq``), which gives the
    minimum-norm transition when the record is rank deficient (a duplicated
    channel, say); process noise from the fit residuals; a small diagonal
    observation noise of ``obs_noise_frac`` (finite, nonnegative) times the
    mean channel variance, and at least 1e-12; the channel means as the
    initial state.
    """
    if isinstance(obs_noise_frac, (bool, np.bool_)) or not 0 <= obs_noise_frac < np.inf:
        raise ValueError("obs_noise_frac must be finite and nonnegative")
    record = as_record(record)
    if record.length < record.channels + 2:
        raise ShapeMismatch("record too short to fit a transition")
    mean = record.samples.mean(axis=1)
    X = record.samples - mean[:, None]
    X0 = X[:, :-1]
    X1 = X[:, 1:]
    F = np.linalg.lstsq(X0.T, X1.T, rcond=None)[0].T
    resid = X1 - F @ X0
    Q = SymMatrix(resid @ resid.T / max(X0.shape[1] - 1, 1))
    mean_var = float(np.mean(np.var(record.samples, axis=1)))
    n = record.channels
    R = SymMatrix(max(obs_noise_frac * mean_var, 1e-12) * np.eye(n))
    P0 = SymMatrix(X @ X.T / record.length)
    return StateSpaceModel(
        transition=F,
        observation=np.eye(n),
        process_noise_cov=Q,
        obs_noise_cov=R,
        init_state=mean,
        init_cov=P0,
    )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize_index(idx):
    """Scale an index so its largest magnitude is 1 (no-op on all-zero)."""
    scale = float(np.abs(idx.values).max())
    values = idx.values / scale if scale > 0 else idx.values.copy()
    meta = dict(idx.meta)
    meta["scale"] = scale
    return IndexSeries(values, name=idx.name + "_norm", meta=meta)
