"""roughvol: Monte Carlo engine for rough volatility models.

Simulates the rough Bergomi model (hybrid scheme for the singular Volterra
driver) and its n-term Markovian approximation (a sum-of-exponentials
kernel fed to the same scheme), with implied-vol analytics, ATM-skew term
structures, and second-order vol-of-vol expansions on top.

The package exports the public names of its five modules.
"""

from . import analytics, hybrid_scheme, kernel, models, sim_core
from .analytics import *  # noqa: F403
from .hybrid_scheme import *  # noqa: F403
from .kernel import *  # noqa: F403
from .models import *  # noqa: F403
from .sim_core import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *sim_core.__all__,
    *hybrid_scheme.__all__,
    *kernel.__all__,
    *models.__all__,
    *analytics.__all__,
]
