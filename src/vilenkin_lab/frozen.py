"""Calibration constants for the pass/fail gates of the check suite.

The underlying statements are asymptotic with unspecified constants; these
finite-scale gate values were frozen from reference runs of the oracles in
the test suite and must not be retuned casually.  Each name is a
:class:`Gate` that holds one statistic's bound and the comparison the
statistic must pass.  No statistic is compared with a bound anywhere else:
the library calls ``Gate.passes``, and :func:`gated` judges and prints
every gated statistic of ``check`` and ``run``.
"""

import operator
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Gate:
    """A statistic passes when ``holds(value, bound)``, with ``holds`` one of
    ``operator.lt``, ``le`` and ``ge``; a NaN statistic fails all three."""

    bound: float
    holds: Callable[[float, float], bool]

    def passes(self, value: float) -> bool:
        return self.holds(value, self.bound)


def gated(*stats: tuple[str, float, Gate, str]) -> tuple[bool, str]:
    """Whether every ``(name, value, gate, spec)`` passes its gate, and
    ``name=value (gate bound)`` for each, value formatted by ``spec``,
    joined by spaces."""
    return (all(gate.passes(value) for _, value, gate, _ in stats),
            " ".join(f"{name}={value:{spec}} (gate {gate.bound:g})"
                     for name, value, gate, spec in stats))


# Absolute error of a quantity the library knows exactly (character Gram
# matrix, closed-form Dirichlet kernels, coefficient laws, Fejer
# coefficient algebra): stays below.
ROUNDOFF_MAX = Gate(1e-12, operator.lt)

# Relative error of Parseval's identity and of the fast transform against
# the direct one: stays below.
RELATIVE_ROUNDOFF_MAX = Gate(1e-10, operator.lt)

# Worst margin of the scaled Fejer kernel over its catalogued lower bounds:
# stays at or above (the kernel is synthesized in floating point, the
# bounds are exact).
FEJER_BOUND_MARGIN_MIN = Gate(-1e-9, operator.ge)

# H_p atom certificate: sup|a| * |I|^(1/p) stays at or below; the zero-mean
# residual over sup|a| and the leak outside I over max(sup|a|, 1) stay at or
# below the residual bound.
ATOM_SUP_RATIO_MAX = Gate(1.0 + 1e-12, operator.le)
ATOM_RESIDUAL_MAX = Gate(1e-12, operator.le)

# Weak divergence statistic of the dense family (p-powered form),
# at orders M[k] + 1 for k = 3..8, depth 10, dyadic structure: stays above.
WEAK_DIVERGENCE_MIN = Gate(0.5, operator.ge)

# Half-exponent quasinorm of the sparse-family Fejer gap at lacunary
# orders, k = 1..3, depth 3: stays above.
SPARSE_DIVERGENCE_MIN = Gate(0.05, operator.ge)

# Kernel growth scan: half-power integral divided by the level,
# levels 2..7, dyadic structure: stays above.
KERNEL_SCAN_RATIO_MIN = Gate(0.3, operator.ge)

# Modulus-to-rate ratio of the dense family (p-powered form), p = 1/4,
# depth 10, levels 1..8: stays below.
MODULUS_RATIO_POWER_MAX = Gate(4.0, operator.le)

# Modulus-to-rate ratio of the sparse family (p-powered form), depth 3,
# levels 5..16: stays below.
SPARSE_MODULUS_RATIO_POWER_MAX = Gate(8.0, operator.le)

# Convergence surrogate: relative Fejer gap at the top scale stays below
# this, and no term of the scale sweep exceeds twice its running minimum.
FINAL_GAP_MAX = Gate(0.05, operator.le)
BACKSLIDE_FACTOR_MAX = Gate(2.0, operator.le)

# Stability of the weighted-means ratio gate: coefficient of variation of
# the per-seed maxima over ten seeds stays below this.
MAX_RATIO_CV_MAX = Gate(0.10, operator.lt)

# Wall seconds of criteria 1 (orthonormality and Parseval), 3 (the
# exhaustive Fejer-kernel bounds) and 9 (the divergence gates): stay below.
CRITERION_1_SECONDS_MAX = Gate(5.0, operator.lt)
CRITERION_3_SECONDS_MAX = Gate(30.0, operator.lt)
CRITERION_9_SECONDS_MAX = Gate(60.0, operator.lt)

# Fast-vs-direct transform performance gate: the estimated speed-up of
# analyze over the direct transform at 2^16 cells stays at or above (coarse).
MIN_SPEEDUP = Gate(20.0, operator.ge)
