"""Entangler-circuit ansatz for the four-site Heisenberg ring.

Builds the layered circuit trial state, optimizes its entangler angle both
in closed form and numerically against exact diagonalization, solves the
two-magnon Bethe system of the same ring, and relates the optimal angles to
the D4 orthogonal wavelet filter.
"""

from . import bethe, checks, gates, heisenberg, mera, report, wavelet
from .errors import (
    ContractError,
    DomainError,
    MeraLabError,
    NumericError,
    ResourceError,
    ShapeError,
)
from .gates import BCFunctions, EntanglerSpec
from .heisenberg import BoundaryCondition
from .mera import IsometryParams, NuFitResult, ThetaSolution, TrialState
from .wavelet import AngleReport, ScalingFilter

__version__ = "0.1.0"

__all__ = [
    "AngleReport",
    "BCFunctions",
    "BoundaryCondition",
    "ContractError",
    "DomainError",
    "EntanglerSpec",
    "IsometryParams",
    "MeraLabError",
    "NuFitResult",
    "NumericError",
    "ResourceError",
    "ScalingFilter",
    "ShapeError",
    "ThetaSolution",
    "TrialState",
    "bethe",
    "checks",
    "gates",
    "heisenberg",
    "mera",
    "report",
    "wavelet",
]
