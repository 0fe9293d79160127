"""Loop amplitudes three ways.

For a graph with n loops and N = 2n+2 edges the euclidean amplitude can be
written as a direct momentum-space integral, as a parametric integral of
1/S2^2 over the simplex, or as the same simplex integral with S2 replaced
by the pfaffian of a sum of per-edge alternating forms. This package builds
all three, proves the algebraic Pf vs S2 identity exactly, and measures the
universal constants relating the representations.
"""

__version__ = "0.1.0"

from . import algebra, catalog, errors, graphs, integrate, symanzik, twistor
from .errors import *
from .algebra import *
from .graphs import *
from .catalog import *
from .symanzik import *
from .twistor import *
from .integrate import *

__all__ = [
    "__version__",
    *errors.__all__,
    *algebra.__all__,
    *graphs.__all__,
    *catalog.__all__,
    *symanzik.__all__,
    *twistor.__all__,
    *integrate.__all__,
]
