"""Fourier analysis on bounded Vilenkin groups at desk scale.

Exact finite models of the group, its character system, Dirichlet/Fejer
kernels, a fast mixed-radix transform, Lebesgue/Hardy quasinorms, and two
martingale families with critically slow modulus decay whose Fejer means
diverge along lacunary subsequences.
"""

from .errors import CapacityError, ResolutionError
from .structure import (
    VilenkinStructure,
    cylinder_cells,
    leading_position,
)
from .transform import (
    FejerWeight,
    Spectrum,
    StepFunction,
    analyze,
    fejer_mean,
    maximal_function,
    partial_sum,
    synthesize,
    weighted_maximal_fejer,
)
from .kernels import (
    dirichlet_kernel,
    fejer_kernel,
    fejer_lower_bound_cells,
    lacunary_index,
    verify_fejer_lower_bounds,
)
from .norms import (
    AtomCertificate,
    AtomicDecomposition,
    CylinderInterval,
    NormReport,
    hardy_norm,
    lp_quasinorm,
    modulus_of_continuity,
    norm_report,
    validate_atom,
    weak_lp_quasinorm,
)
from .counterexamples import (
    block_spectrum,
    build_critical_example,
    build_sparse_critical_example,
    critical_atom,
    kernel_halfnorm_scan,
    modulus_ratio_report,
    sparse_divergence_statistic,
    sparse_modulus_ratio_report,
    weak_divergence_statistic,
)

__version__ = "0.1.0"
