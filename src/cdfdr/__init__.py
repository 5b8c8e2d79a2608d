"""One-step local false discovery rate estimation via comparison density.

The estimator transforms test statistics to p-values under a user-supplied
null, flattens their density with a fitted beta, models the residual with a
thresholded orthonormal Legendre series, estimates the true-null proportion
by a minimum-deviance scan, and reads the local fdr off the assembled
comparison density in a single step.
"""

from .betafit import BetaFit, fit_beta_mle, smooth_pvalues
from .density import (
    CoefficientSet,
    ComparisonDensityModel,
    eval_comparison_density_many,
    eval_smooth_density_many,
)
from .errors import (
    CdfdrError,
    ConfigError,
    DegenerateSampleError,
    DomainError,
    EstimationError,
    InputError,
    InsufficientDataError,
    PipelineError,
    SimulationError,
)
from .legendre import M_MAX, basis_matrix
from .pi0 import DeviancePath, estimate_pi0
from .pipeline import (
    CdfrModel,
    DiscoveryReport,
    EstimatorConfig,
    Evaluation,
    NullSpec,
    discoveries,
    evaluate,
    fit_cdfdr,
    integrate_nonnull_density,
    local_fdr_many,
    nonnull_density,
    t_to_z,
    to_pvalues,
)
from .simulate import (
    MixtureNormalDesign,
    MixtureUniformDesign,
    SimReport,
    gen_mixture_normal,
    gen_mixture_uniform,
    run_replicates,
    true_fdr_mixture_normal,
    true_fdr_mixture_uniform,
)
from .special import (
    beta_cdf_many,
    beta_pdf_many,
    digamma,
    normal_cdf_many,
    normal_pdf_many,
    normal_quantile_many,
    student_t_cdf_many,
    student_t_pdf_many,
)

__version__ = "0.1.0"
