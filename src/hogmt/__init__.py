"""Dual-eigenfunction channel decomposition, precoding and link simulation.

The package splits a 4-D multi-user time-varying channel kernel into paired
2-D spatio-temporal eigenfunctions, precodes data so each mode arrives flat
faded, characterizes channels through eigen-domain second-order statistics,
and measures bit error rates against per-instant baselines.

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them.
"""

from . import channel, errors, kernels, linksim, precoding, stats
from .errors import *
from .kernels import *
from .channel import *
from .precoding import *
from .stats import *
from .linksim import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *kernels.__all__,
    *channel.__all__,
    *precoding.__all__,
    *stats.__all__,
    *linksim.__all__,
]
