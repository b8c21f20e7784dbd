"""Verification laboratory for an anisotropic fractional-Laplacian model.

Closed Gamma-function forms of the operator applied to homogeneous fields,
their coupling, the Fourier symbol calculus that rederives them, and
independent principal-value quadrature oracles that cross-validate every
formula at desk scale.
"""

import ctypes
import sys

from .errors import DomainError, NotConverged, PoleEncountered, PoleError, Unsupported
from .model import FracParams, SymMatrix

# glibc raises its mmap and trim thresholds as large blocks are freed, so
# whether each quadrature pass hands its temporaries to the OS and faults them
# in again hung on allocation history; pin both where that adaptation ends.
if sys.platform.startswith("linux") and hasattr(_libc := ctypes.CDLL(None), "mallopt"):
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FracParams",
    "NotConverged",
    "PoleEncountered",
    "PoleError",
    "SymMatrix",
    "Unsupported",
    "__version__",
]
