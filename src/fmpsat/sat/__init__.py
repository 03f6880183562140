from .kernel import warm_up
from .solver import SatResult, solve

__all__ = ["SatResult", "solve", "warm_up"]
