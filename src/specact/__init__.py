"""Taylor expansion of spectral-action trace functionals tr f(D + A) on
finite-dimensional truncations, computed through divided differences and
cross-verified against bracket, contour, and finite-difference routes.

Each module's ``__all__`` is the one list of its public names; the package
exports their union."""

from . import bounds, divdiff, errors, functions, operator_model, spectral_action
from .bounds import *  # noqa: F401,F403
from .divdiff import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .functions import *  # noqa: F401,F403
from .operator_model import *  # noqa: F401,F403
from .spectral_action import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (bounds, divdiff, errors, functions, operator_model,
                                     spectral_action) for name in module.__all__)
