"""Calibration constants for the pass/fail gates of the check suite.

The underlying statements are asymptotic with unspecified constants; these
finite-scale gate values were frozen from reference runs of the oracles in
the test suite and must not be retuned casually.  Each name states the
statistic it bounds and the direction of the bound.
"""

# Absolute error of a quantity the library knows exactly (character Gram
# matrix, closed-form Dirichlet kernels, coefficient laws, Fejer
# coefficient algebra): stays below.
ROUNDOFF_MAX = 1e-12

# Relative error of Parseval's identity and of the fast transform against
# the direct one: stays below.
RELATIVE_ROUNDOFF_MAX = 1e-10

# Weak divergence statistic of the dense family (p-powered form),
# at orders M[k] + 1 for k = 3..8, depth 10, dyadic structure: stays above.
WEAK_DIVERGENCE_MIN = 0.5

# Half-exponent quasinorm of the sparse-family Fejer gap at lacunary
# orders, k = 1..3, depth 3: stays above.
SPARSE_DIVERGENCE_MIN = 0.05

# Kernel growth scan: half-power integral divided by the level,
# levels 2..7, dyadic structure: stays above.
KERNEL_SCAN_RATIO_MIN = 0.3

# Modulus-to-rate ratio of the dense family (p-powered form), p = 1/4,
# depth 10, levels 1..8: stays below.
MODULUS_RATIO_POWER_MAX = 4.0

# Modulus-to-rate ratio of the sparse family (p-powered form), depth 3,
# levels 5..16: stays below.
SPARSE_MODULUS_RATIO_POWER_MAX = 8.0

# Convergence surrogate: relative Fejer gap at the top scale stays below
# this, and no term of the scale sweep exceeds twice its running minimum.
FINAL_GAP_MAX = 0.05
BACKSLIDE_FACTOR_MAX = 2.0

# Stability of the weighted-means ratio gate: coefficient of variation of
# the per-seed maxima over ten seeds stays below this.
MAX_RATIO_CV_MAX = 0.10

# Fast-vs-direct transform performance gate: the estimated speed-up of
# analyze over the direct transform at 2^16 cells stays at or above (coarse).
MIN_SPEEDUP = 20.0
