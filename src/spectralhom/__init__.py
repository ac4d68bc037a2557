"""Spectral homogenization of periodic linear elasticity on integer-lattice patterns."""

from .elasticity import (
    GreenTable,
    compatible_green,
    green_coeff_batch,
    iso_stiffness,
    mandel_dim,
    periodized_green,
)
from .errors import SpectralHomError
from .geometry import (
    HashinEllipses,
    Inclusion,
    IsoPhase,
    Laminate,
    ReferenceSolution,
    VoxelMap,
    laminate_reference,
    load_reference_values,
    read_field,
    sample_stiffness,
    write_field,
)
from .lattice import (
    GeneratingSet,
    Pattern,
    PatternMatrix,
    SmithDecomposition,
    frequency_set,
    generating_set,
    pattern,
    period_shifts,
    smith_normal_form,
)
from .pfft import FftPlan, plan
from .solver import (
    ErrorMetrics,
    SolveReport,
    SolverConfig,
    error_metrics,
    ls_fixed_point,
    ve_krylov,
)
from .translates import (
    CoefficientRule,
    GeneratorSpec,
    bspline_rule,
    dirichlet_rule,
    dlvp_rule,
    make_rule,
    orthonormalize,
)

__version__ = "0.1.0"
