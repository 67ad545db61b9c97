"""Market price-impact laboratory: order-flow generation with controlled
long memory, permanent/transient/surprise price formation, impact
estimators and kernel inversion, manipulation-cost search, and a
deterministic CLI. The package re-exports each module's `__all__`."""

from . import acceptance, estimators, exceptions, experiment, impact, manipulation, orderflow
from ._version import __version__
from .exceptions import *
from .orderflow import *
from .impact import *
from .estimators import *
from .manipulation import *
from .experiment import *
from .acceptance import *

_MODULES = (exceptions, orderflow, impact, estimators, manipulation, experiment, acceptance)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
