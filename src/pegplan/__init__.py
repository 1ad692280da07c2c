"""Progressive explanation generation for plan-model reconciliation.

A robot plans with one STRIPS model; the human it works with may hold a
different one.  This package finds an *ordered* sequence of unit model
edits that makes the robot's plan optimal in the human's updated model,
while keeping each intermediate revision as gentle as possible under a
choice of cognitive-effort proxies.
"""

from . import bench, explain, metrics, model, pddl, planner
from .bench import *
from .explain import *
from .metrics import *
from .model import *
from .pddl import *
from .planner import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = sorted(
    name for module in (bench, explain, metrics, model, pddl, planner) for name in module.__all__
)
