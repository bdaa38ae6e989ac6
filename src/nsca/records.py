"""Containers for multichannel recordings and per-sample index series."""

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Record", "IndexSeries"]


class Record:
    """A multichannel time series, stored channels-by-samples.

    The stored samples are read-only. ``Record(...)`` copies its input, so a
    caller's array stays writeable and later writes to it leave the record
    unchanged; the package wraps arrays it has just computed without a copy.

    Parameters
    ----------
    samples : array_like, shape (n_channels, n_samples)
        Finite real data; complex input raises ``ValueError``. A 1-D array
        is promoted to a single channel.
    sample_rate_hz : float
        Positive, finite sampling rate (not a bool). Defaults to 1.0 (sample units).
    channel_names : sequence of str, optional
        One name per channel; defaults to ``ch1 .. chn``.
    """

    __slots__ = ("samples", "sample_rate_hz", "channel_names")

    def __init__(self, samples, sample_rate_hz=1.0, channel_names=None):
        if np.iscomplexobj(samples):
            raise ValueError("record samples must be real, not complex")
        self._freeze(np.array(samples, dtype=np.float64), sample_rate_hz, channel_names)

    @classmethod
    def _wrap(cls, samples, sample_rate_hz, channel_names=None):
        """Record of a real array the package has just computed, frozen without a copy."""
        record = cls.__new__(cls)
        record._freeze(np.asarray(samples, dtype=np.float64), sample_rate_hz, channel_names)
        return record

    def _freeze(self, a, sample_rate_hz, channel_names):
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("samples must be a (channels, samples) array")
        if not np.isfinite(a).all():
            raise ValueError("record contains non-finite samples")
        if not 0 < sample_rate_hz < np.inf or isinstance(sample_rate_hz, (bool, np.bool_)):
            raise ValueError("sample_rate_hz must be positive and finite")
        if a.shape[0] > a.shape[1]:
            warnings.warn(
                "record has more channels than samples; covariance estimates "
                "will be rank deficient",
                stacklevel=3,
            )
        if channel_names is None:
            channel_names = [f"ch{i + 1}" for i in range(a.shape[0])]
        channel_names = [str(s) for s in channel_names]
        if len(channel_names) != a.shape[0]:
            raise ValueError("channel_names length must match channel count")
        a.setflags(write=False)
        self.samples = a
        self.sample_rate_hz = float(sample_rate_hz)
        self.channel_names = tuple(channel_names)

    @property
    def channels(self):
        return self.samples.shape[0]

    @property
    def length(self):
        return self.samples.shape[1]

    def channel(self, i):
        """Return channel ``i`` as a read-only 1-D view."""
        return self.samples[i]

    def __repr__(self):
        return (
            f"Record(channels={self.channels}, length={self.length}, "
            f"sample_rate_hz={self.sample_rate_hz})"
        )


def as_record(record):
    """Coerce an ndarray (or Record) to Record."""
    return record if isinstance(record, Record) else Record(record)


def as_int(value, name):
    """``value`` as an int; ValueError unless it is an integral number, bools excluded."""
    try:
        out = int(value)
    except (ValueError, OverflowError):  # NaN, inf, non-numeric strings
        out = None
    if out is None or out != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return out


@dataclass
class IndexSeries:
    """Per-sample nonstationarity index emitted by a detector.

    ``values[k]`` is the detector's statistic for sample ``k``. ``meta``
    carries detector diagnostics (e.g. skipped-window counts).
    """

    values: np.ndarray
    name: str
    meta: dict = field(default_factory=dict)

    valid_from = 0  # the first sample with a value; every index starts at 0

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("index values must be real, not complex")
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("index values must be a nonempty 1-D array")
        if not np.isfinite(v).all():
            raise ValueError("index has non-finite values")
        self.values = v
        self.name = str(self.name)

    @property
    def length(self):
        return self.values.size
