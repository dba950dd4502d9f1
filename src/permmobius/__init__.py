"""Möbius function of the permutation containment order.

Three interchangeable engines compute mu(sigma, pi): an exhaustive oracle
over the enumerated interval, a weighted contributing-set recursion for
sum-indecomposable lower bounds, and an inequality-only fast path when the
upper bound is an increasing oscillation.  On top of the fast path sits the
principal series mu(1, W_n) with its conjecture checks.

The package exports the ``__all__`` of each submodule but ``cli``; each
name is declared once, in the module that defines it.
"""

from . import analysis, engine, errors, oscillation_fast, perms, poset
from .errors import *  # noqa: F401,F403
from .perms import *  # noqa: F401,F403
from .poset import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .oscillation_fast import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, perms, poset, engine, oscillation_fast, analysis)
    for name in module.__all__
]
