from .kernel import warm_up
from .solver import SatResult, solve, solve_external

__all__ = ["SatResult", "solve", "solve_external", "warm_up"]
