"""Nonstationary component analysis: detector bank, index partitioning
(a relative threshold or quantile classes), and semi-blind source separation
via class-conditional covariance diagonalization.

The package re-exports each layer module's ``__all__``, so every public
name is listed once, in the module that defines it.
"""

from . import detectors, errors, io, linalg, metrics, partition, records, separation, synthetic
from .linalg import *
from .records import *
from .detectors import *
from .partition import *
from .separation import *
from .synthetic import *
from .metrics import *

__version__ = "0.1.0"

__all__ = ["errors", "io", "__version__"]
__all__ += linalg.__all__
__all__ += records.__all__
__all__ += detectors.__all__
__all__ += partition.__all__
__all__ += separation.__all__
__all__ += synthetic.__all__
__all__ += metrics.__all__
