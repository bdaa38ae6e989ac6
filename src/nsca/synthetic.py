"""Ground-truth synthetic mixtures: burst sources, backgrounds, pulse trains.

Generators are deterministic given their seed (independent substreams are
split off a single root, so adding a source never reshuffles the others).
An AR(1) source ``x_t = a x_{t-1} + e_t`` comes from a prefix-doubling scan
(Blelloch, "Prefix sums and their applications", 1990) in numpy alone: about
log2(T) vectorized passes instead of T scalar steps. It is within a few units
in the last place of the exact recursion, and not bit-equal to the per-sample
loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadSpec
from .partition import Partition
from .records import Record, as_int

__all__ = [
    "GroundTruth",
    "gen_mixture",
    "gen_ecg_like",
    "default_source_specs",
    "DEFAULT_BURST",
]

DET_FLOOR = 1e-6

# CLI-facing defaults for the burst layout; chosen so windows hold a dozen
# pulse-train beats at the default rate and the detectors still see plenty of
# background between events.
DEFAULT_BURST = {"count": 3, "min_len": 600, "max_len": 900, "amplitude": 4.0}

# Gating ramp: burst windows switch on/off through a raised-cosine edge this
# many samples long (clipped to a quarter window). A hard 0/1 gate can slice
# a pulse mid-flank and the resulting step dwarfs every genuine feature.
BURST_EDGE_RAMP = 64


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows: true sources, mixer, burst labels, seed."""

    sources: Record
    mixing: np.ndarray
    burst_mask: Partition
    seed: int


def default_source_specs(n):
    """Background specs plus one pulse-train burst source in the last slot."""
    if n < 2:
        raise BadSpec("mixtures need at least 2 sources")
    backgrounds = ["ar1:0.7", "gaussian", "ar1:0.5", "ar1:0.3", "ar1:0.6", "gaussian"]
    specs = [backgrounds[i % len(backgrounds)] for i in range(n - 1)]
    specs.append("ecg:3.5:0.05")
    return specs


def _parse_spec(spec):
    kind, *fields = str(spec).strip().lower().split(":")
    try:
        params = [float(v) for v in fields]
    except ValueError:
        raise BadSpec(f"source spec parameters must be numbers: {spec!r}") from None
    if kind == "gaussian":
        if params:
            raise BadSpec(f"gaussian takes no parameters: {spec!r}")
        return ("gaussian",)
    if kind == "ar1":
        if len(params) != 1:
            raise BadSpec(f"ar1 needs a pole: {spec!r}")
        if not -1.0 < params[0] < 1.0:
            raise BadSpec(f"ar1 pole must be inside (-1, 1): {spec!r}")
        return ("ar1", params[0])
    if kind == "ecg":
        if len(params) not in (2, 3):
            raise BadSpec(f"ecg needs rate and width: {spec!r}")
        jitter = params[2] if len(params) == 3 else 10.0
        return ("ecg", params[0], params[1], jitter)
    raise BadSpec(f"unknown source spec {spec!r}")


def _synth_source(spec, T, sample_rate_hz, rng):
    kind = spec[0]
    if kind == "gaussian":
        return rng.standard_normal(T)
    if kind == "ar1":
        # x_t = a x_{t-1} + e_t as a prefix-doubling scan: after the pass
        # with offset d, x_t holds sum_{j < 2d} a^j e_{t-j}. Each term then
        # went through at most ceil(log2 T) roundings each of a power, a
        # product and a sum, so the forward error stays within
        # 2 ceil(log2 T) eps times sum_j |a|^j |e_{t-j}|. The pass's product
        # is a fresh array, so the in-place sum reads no updated sample.
        # Once |a^d| is below the smallest normal float, every later pass
        # adds only subnormal terms to samples of order 1, so the scan stops.
        a = spec[1]
        x = rng.standard_normal(T) * np.sqrt(1.0 - a * a)
        x[0] = rng.standard_normal()
        d = 1
        while d < T and abs(a ** d) >= np.finfo(float).tiny:
            x[d:] += a ** d * x[:-d]
            d *= 2
        return x
    rate, width, jitter = spec[1], spec[2], spec[3]
    return gen_ecg_like(
        rate_hz=rate,
        sample_rate_hz=sample_rate_hz,
        T=T,
        width_s=width,
        amplitude=1.0,
        jitter_pct=jitter,
        seed=rng,
    )


def _edge_taper(length):
    """Window gate: flat 1 with raised-cosine rise/fall at the edges."""
    ramp = min(BURST_EDGE_RAMP, length // 4)
    gate = np.ones(length)
    if ramp > 0:
        edge = np.sin(0.5 * np.pi * (np.arange(ramp) + 0.5) / ramp) ** 2
        gate[:ramp] = edge
        gate[length - ramp:] = edge[::-1]
    return gate


def _place_windows(T, count, min_len, max_len, rng):
    """Non-overlapping windows, deterministic: lengths drawn, gaps from sorted cuts."""
    lengths = rng.integers(min_len, max_len + 1, size=count)
    total = int(lengths.sum())
    slack = T - total
    if slack < 0:
        raise BadSpec(f"burst windows ({total} samples) do not fit in T={T}")
    cuts = np.sort(rng.integers(0, slack + 1, size=count))
    starts = cuts + np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return starts, lengths


def gen_mixture(n, T, burst, source_specs=None, seed=0, sample_rate_hz=500.0, mixing=None):
    """Generate a seeded linear mixture with one burst-confined source.

    Parameters
    ----------
    n, T : int
        Channel count and length.
    burst : dict
        Keys ``count``, ``min_len``, ``max_len``, ``amplitude`` (finite,
        nonnegative and not a bool) and optional ``source`` (index of the
        burst-confined source; defaults to the first pulse-train spec, else
        the last source).
    source_specs : sequence of str, optional
        One of ``"gaussian"``, ``"ar1:<pole>"``, ``"ecg:<rate>:<width>[:jitter]"``
        per source; :func:`default_source_specs` when omitted.
    seed : int
    sample_rate_hz : float
    mixing : ndarray, optional
        Test hook: force this mixing matrix instead of drawing one (must be
        square with ``|det| >= 1e-6``).

    Returns
    -------
    (Record, GroundTruth)
        ``record.samples == mixing @ sources.samples`` exactly; the burst
        source is identically zero outside the burst windows and scaled by
        ``burst["amplitude"]`` inside them, with raised-cosine edges
        (``BURST_EDGE_RAMP`` samples) so switching on is not itself a step
        discontinuity.
    """
    n = as_int(n, "n")
    T = as_int(T, "T")
    if n < 2 or T < 4:
        raise BadSpec("need n >= 2 and T >= 4")
    if source_specs is None:
        source_specs = default_source_specs(n)
    if len(source_specs) != n:
        raise BadSpec(f"need {n} source specs, got {len(source_specs)}")
    specs = [_parse_spec(s) for s in source_specs]
    try:
        count = as_int(burst["count"], "burst count")
        min_len = as_int(burst["min_len"], "burst min_len")
        max_len = as_int(burst["max_len"], "burst max_len")
        amplitude = float(burst["amplitude"])
    except (KeyError, TypeError) as err:
        raise BadSpec(f"burst needs count/min_len/max_len/amplitude: {err}") from err
    if (count < 1 or min_len < 1 or max_len < min_len or not 0 <= amplitude < np.inf
            or isinstance(burst["amplitude"], (bool, np.bool_))):
        raise BadSpec("burst parameters out of range")
    burst_source = burst.get("source")
    if burst_source is None:
        ecg_slots = [i for i, s in enumerate(specs) if s[0] == "ecg"]
        burst_source = ecg_slots[0] if ecg_slots else n - 1
    burst_source = as_int(burst_source, "burst source")
    if not 0 <= burst_source < n:
        raise BadSpec(f"burst source {burst_source} outside [0, {n})")

    root = np.random.SeedSequence(seed)
    ss_sources, ss_mix, ss_burst = root.spawn(3)
    source_streams = ss_sources.spawn(n)

    S = np.empty((n, T))
    for i in range(n):
        S[i] = _synth_source(specs[i], T, sample_rate_hz, np.random.default_rng(source_streams[i]))

    rng_burst = np.random.default_rng(ss_burst)
    starts, lengths = _place_windows(T, count, min_len, max_len, rng_burst)
    indicator = np.zeros(T)
    envelope = np.zeros(T)
    for s, ln in zip(starts, lengths):
        indicator[s:s + ln] = 1.0
        envelope[s:s + ln] = _edge_taper(ln)
    S[burst_source] *= amplitude * envelope

    if mixing is not None:
        A = np.array(mixing, dtype=np.float64)
        if A.shape != (n, n):
            raise BadSpec(f"mixing must be ({n}, {n})")
        if abs(np.linalg.det(A)) < DET_FLOOR:
            raise BadSpec("provided mixing matrix is numerically singular")
    else:
        rng_mix = np.random.default_rng(ss_mix)
        while True:
            A = rng_mix.standard_normal((n, n))
            A /= np.linalg.norm(A, axis=1, keepdims=True)
            if abs(np.linalg.det(A)) >= DET_FLOOR:
                break

    record = Record._wrap(A @ S, sample_rate_hz)
    truth = GroundTruth(
        sources=Record._wrap(S, sample_rate_hz, [f"s{i + 1}" for i in range(n)]),
        mixing=A,
        burst_mask=Partition(indicator.astype(np.int64), K=2),
        seed=int(seed),
    )
    return record, truth


def gen_ecg_like(rate_hz, sample_rate_hz, T, width_s, amplitude=1.0, jitter_pct=10.0, seed=0):
    """Quasi-periodic pulse train: Gaussian kernels at jittered beat times.

    Beat intervals are ``sample_rate_hz / rate_hz`` samples, each multiplied
    by an independent uniform factor in ``1 +/- jitter_pct/100``; the
    shortest interval must be at least one sample. Kernels sum where they
    overlap; ``amplitude`` must be finite. No numeric argument may be a
    bool. ``seed`` may be an int or a Generator.
    """
    T = as_int(T, "T")
    numbers = (rate_hz, sample_rate_hz, width_s, amplitude, jitter_pct)
    if any(isinstance(v, (bool, np.bool_)) for v in numbers) or not np.isfinite(amplitude):
        raise BadSpec("amplitude must be finite, and no numeric argument may be a bool")
    if not all(0 < v < np.inf for v in (rate_hz, sample_rate_hz, width_s)):
        raise BadSpec("rate, sample rate and width must be positive and finite")
    if not 0 <= jitter_pct < 100:
        raise BadSpec("jitter_pct must be in [0, 100)")
    if sample_rate_hz / rate_hz * (1.0 - jitter_pct / 100.0) < 1.0:
        raise BadSpec("beat interval below one sample at this rate and jitter")
    if rate_hz * T / sample_rate_hz < 2:
        raise BadSpec("series too short for 2 beats at this rate")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    base = sample_rate_hz / rate_hz  # samples per beat
    sigma = width_s * sample_rate_hz
    half = max(int(np.ceil(4.0 * sigma)), 1)
    out = np.zeros(T)
    t = 0.0
    while t < T:
        lo = max(int(np.floor(t)) - half, 0)
        hi = min(int(np.ceil(t)) + half + 1, T)
        if lo < hi:
            k = np.arange(lo, hi)
            out[k] += amplitude * np.exp(-0.5 * ((k - t) / sigma) ** 2)
        jitter = 1.0 + (jitter_pct / 100.0) * (2.0 * rng.random() - 1.0)
        t += base * jitter
    return out
