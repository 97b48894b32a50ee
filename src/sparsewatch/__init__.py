"""Online change detection for partially observed high-dimensional streams.

The package monitors a stream x_t in R^p of which only m coordinates can be
observed per step.  The normal regime follows a low-dimensional background
basis; a change adds a sparse combination of anomaly basis columns.  Each
step the monitor refits a spike-slab variational posterior over the anomaly
coefficients from exponentially decayed residual statistics, tests a
quadratic detection statistic against a calibrated threshold, and picks the
next observation subset by sampling the posterior's best guess of where the
anomaly shows.

Each module declares its public names once, in its own ``__all__``; the
package exports the names of those of ``bases``, ``inference``,
``detection``, ``sampling``, ``engine``, ``simgen`` and ``errors``, and
``__version__``.  ``geometry`` (the shared per-subset whitening) and
``cli`` are reached as modules.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import bases, detection, engine, errors, inference, sampling, simgen
from .bases import *
from .detection import *
from .engine import *
from .errors import *
from .inference import *
from .sampling import *
from .simgen import *

__all__ = [
    "__version__",
    *bases.__all__,
    *inference.__all__,
    *detection.__all__,
    *sampling.__all__,
    *engine.__all__,
    *simgen.__all__,
    *errors.__all__,
]
