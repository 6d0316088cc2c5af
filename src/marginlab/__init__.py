"""Margin landscapes of random sign constraints.

Tools for studying sign vectors subject to two-sided (or one-sided) margin
constraints under random disorder: first-moment free-energy scans, gaussian
box probabilities, exact overlap-band tuple counts, iterated-majority and
online solvers, and the randomized stability and universality experiments
built on top of them.

Each domain module's ``__all__`` is the one list of its public names; the
package republishes every one of them.
"""

__version__ = "0.1.0"

from .errors import *
from .disorder import *
from .mvn import *
from .landscape import *
from .thresholds import *
from .solvers import *
from .experiments import *

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += disorder.__all__
__all__ += mvn.__all__
__all__ += landscape.__all__
__all__ += thresholds.__all__
__all__ += solvers.__all__
__all__ += experiments.__all__
