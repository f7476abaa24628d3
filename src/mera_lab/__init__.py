"""Entangler-circuit ansatz for the four-site Heisenberg ring.

Builds the layered circuit trial state, optimizes its entangler angle both
in closed form and numerically against exact diagonalization, solves the
two-magnon Bethe system of the same ring, and relates the optimal angles to
the D4 orthogonal wavelet filter.
"""

from . import bethe, checks, gates, heisenberg, mera, report, wavelet

__version__ = "0.1.0"

__all__ = ["bethe", "checks", "gates", "heisenberg", "mera", "report", "wavelet"]
