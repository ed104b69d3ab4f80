"""Fourier analysis on bounded Vilenkin groups at desk scale.

Exact finite models of the group, its character system, Dirichlet/Fejer
kernels, a fast mixed-radix transform, Lebesgue/Hardy quasinorms, and two
martingale families with critically slow modulus decay whose Fejer means
diverge along lacunary subsequences.
"""

__version__ = "0.1.0"
