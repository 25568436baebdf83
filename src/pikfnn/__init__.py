"""Meshless PDE solving with physics-informed kernel-function networks.

Two-layer networks whose hidden neurons are closed-form kernels satisfying
the governing PDE; only the linear output weights are trained, on boundary
and initial data alone.  Includes the kernel catalog, geometry and node-file
tooling, Adam/Levenberg-Marquardt trainers, and a reproducible benchmark
harness (`pikfnn bench`, `pikfnn verify-kernels`).
"""

from .annihilators import SourceTerm, build_annihilator_chain
from .errors import (
    ConditioningError,
    ConfigurationError,
    DivergenceError,
    DomainError,
    NodeFileError,
    PikfnnError,
    RangeOverflowError,
    SingularityError,
    UnsupportedKernelError,
    UnsupportedSourceError,
)
from .geometry import (
    CollocationSet,
    SourceSet,
    gen_boundary,
    gen_sources,
    gen_spacetime_grid,
    load_nodes,
    save_nodes,
)
from .kernels import (
    KernelFamily,
    SpaceTimePoint,
    eval_elasticity_kernel,
    eval_kernel,
    eval_kernel_gradient,
    eval_tcomplete_member,
    tcomplete_members,
)
from .metrics import MetricsReport, metric_l2, r_squared
from .network import (
    DesignMatrix,
    PikfnnModel,
    assemble,
    forward,
    load_model,
    residual,
    save_model,
)
from .operators import HighOrderCoeffs, OperatorSpec, high_order_coeffs
from .registry import format_kernel_id, list_kernel_ids, parse_kernel_id
from .runner import run_benchmark, verify_kernels
from .special_functions import (
    assoc_legendre,
    bessel_i,
    bessel_j,
    bessel_k,
    bessel_y,
    hankel1,
)
from .training import (
    ScaledProblem,
    TrainConfig,
    TrainReport,
    grad_loss,
    init_weights,
    loss,
    train_problem,
)

__version__ = "0.1.0"
