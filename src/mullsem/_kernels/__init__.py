"""The bitmask kernels the models call.

``backend`` names their implementation; the run traces report it.
"""

from .pure import BACKEND as backend
from .pure import (is_antichain, minimal_transversals, minimize_family,
                   phase_orthogonal)
