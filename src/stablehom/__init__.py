"""Numerical homogenization of stable-like jump forms in random media.

The package assembles scaled nonlocal Dirichlet forms with stationary random
coefficients on a periodic grid, solves their resolvent problems, and measures
convergence toward the constant-coefficient limit form, together with the
translation-modulus and kernel-moment diagnostics of the user's coefficients.
"""

__version__ = "0.1.0"

import numpy as _np

from .errors import ConfigurationError, ConvergenceFailure, DomainError, NumericalError

# A matvec or energy allocates and frees arrays of up to a few MiB.  glibc's
# malloc starts by returning more than 128 KiB of free heap top to the kernel,
# so every CG iteration would fault its temporaries back in.  Freeing one
# untouched 16 MiB block raises its mmap threshold to that size and its trim
# threshold to twice it (mallopt(3), "dynamic mmap threshold"), which keeps
# the freed heap for reuse.  Other allocators just allocate and free it.
_np.empty(16 << 20, dtype=_np.uint8)
del _np

__all__ = [
    "ConfigurationError",
    "ConvergenceFailure",
    "DomainError",
    "NumericalError",
    "__version__",
]
