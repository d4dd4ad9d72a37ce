"""Numerical toolkit for deciding when reduced open-system dynamics is
completely positive: initial-state families, assignment maps, operator
subspaces and Choi-matrix verdicts."""

from . import channels, consistency, families, info, tensor

__all__ = ["channels", "consistency", "families", "info", "tensor"]
__version__ = "0.1.0"
