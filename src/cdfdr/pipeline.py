"""End-to-end local false discovery rate pipeline.

Fits the full model in five sequential steps: rank-null transform of the
statistics to p-values, beta fit, smooth p-values, thresholded series
density, and minimum-deviance pi0.  The fitted model is immutable and keeps
every intermediate artifact for audit; evaluation operations are pure.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .betafit import BetaFit, fit_beta_mle, smooth_pvalues
from .density import (
    ComparisonDensityModel,
    _floored_density,
    comparison_density_raw_many,
    comparison_density_raw_reflected_many,
    score_coefficients,
)
from .errors import (
    CdfdrError,
    ConfigError,
    EstimationError,
    InsufficientDataError,
    PipelineError,
)
from .legendre import _check_m
from .pi0 import DeviancePath, _check_grid_step, estimate_pi0
from .quadrature import integrate_unit
from .special import (
    _blocks,
    _check_df,
    _finite_1d,
    _lower_quantile,
    _within,
    normal_cdf_many,
    normal_pdf_many,
    student_t_cdf_many,
    student_t_pdf_many,
)

__all__ = [
    "NullSpec",
    "CdfrModel",
    "DiscoveryReport",
    "EstimatorConfig",
    "Evaluation",
    "TRANSFORM_MODES",
    "t_to_z",
    "to_pvalues",
    "fit_cdfdr",
    "evaluate",
    "local_fdr_many",
    "nonnull_density",
    "integrate_nonnull_density",
    "discoveries",
]

TRANSFORM_MODES = ("pit", "two_sided")
_MIN_CASES = 100  # the fewest cases a fit takes; the simulation designs hold n to it too

# Named clamp point below which t_to_z's tail probabilities do not enter the
# normal quantile.
_QUANTILE_CLAMP = 1e-15


@dataclass(frozen=True)
class NullSpec:
    """Null model used for the rank-null transformation.

    ``kind`` is one of ``normal`` (with mu0/sigma0), ``student_t`` (with
    df), or ``precomputed_pvalues`` (inputs are already p-values and bypass
    the transform).  :meth:`standard_normal` is ``normal(0.0, 1.0)``.
    """

    kind: str
    mu0: float = 0.0
    sigma0: float = 1.0
    df: float | None = None

    def __post_init__(self):
        if self.kind not in ("normal", "student_t", "precomputed_pvalues"):
            raise ConfigError(f"unknown null kind {self.kind!r}")
        pair = (self.mu0, self.sigma0)
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in pair):
            raise ConfigError(f"mu0 and sigma0 must be real numbers, got {pair[0]!r}, {pair[1]!r}")
        if not all(map(math.isfinite, pair)):
            raise ConfigError(f"mu0 and sigma0 must be finite, got {pair[0]!r}, {pair[1]!r}")
        object.__setattr__(self, "mu0", float(self.mu0))
        object.__setattr__(self, "sigma0", float(self.sigma0))
        if self.kind == "normal" and not self.sigma0 > 0.0:
            raise ConfigError(f"sigma0 must be positive, got {self.sigma0!r}")
        if self.kind == "student_t":
            object.__setattr__(self, "df", _check_df(self.df, ConfigError))

    @staticmethod
    def standard_normal() -> "NullSpec":
        return NullSpec.normal(0.0, 1.0)

    @staticmethod
    def normal(mu0: float, sigma0: float) -> "NullSpec":
        return NullSpec(kind="normal", mu0=mu0, sigma0=sigma0)

    @staticmethod
    def student_t(df: float) -> "NullSpec":
        return NullSpec(kind="student_t", df=df)

    @staticmethod
    def precomputed() -> "NullSpec":
        return NullSpec(kind="precomputed_pvalues")

    def pdf_many(self, t) -> np.ndarray:
        """Null density at each t, as an array of at least one dimension."""
        if self.kind == "student_t":
            return student_t_pdf_many(t, self.df)
        if self.kind == "normal":
            z = (np.asarray(t, dtype=float) - self.mu0) / self.sigma0
            return normal_pdf_many(z) / self.sigma0
        # Uniform reference density on the p-value scale.
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return ((t >= 0.0) & (t <= 1.0)).astype(float)

    def median(self) -> float:
        if self.kind == "normal":
            return self.mu0
        if self.kind == "precomputed_pvalues":
            return 0.5
        return 0.0

    def cdf_many(self, t, *, fold: bool = False) -> np.ndarray:
        """Null distribution function at each t, as an array of at least one
        dimension.  With ``fold``, at the statistic folded below the null
        median, m - |t - m|: the smaller tail min(F0(t), 1 - F0(t)) of the
        symmetric null, formed directly, never as 1 - F0, so it keeps full
        relative accuracy at either end.  For the t and the normal(0, 1)
        nulls it is the same at t and -t, bit for bit."""
        if self.kind == "precomputed_pvalues":
            raise ConfigError("precomputed_pvalues null has no distribution function")
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "student_t":
            if not fold:
                return student_t_cdf_many(t, self.df)
            # A block at a time, so that -|t| takes no array of t's length.
            out = np.empty(t.shape)
            for tb, ob in _blocks(t, out):
                ob[...] = student_t_cdf_many(-np.abs(tb), self.df)
            return out
        z = t - self.mu0
        z /= self.sigma0
        if fold:
            np.negative(np.abs(z, out=z), out=z)
        return normal_cdf_many(z)


@dataclass(frozen=True)
class DiscoveryReport:
    """Cases whose estimated local fdr falls at or below the threshold: their
    positions in the query, ascending, and how many lie left of the null median."""

    threshold: float
    indices: list[int]
    n_left: int

    @property
    def n_discoveries(self) -> int:
        return len(self.indices)

    @property
    def n_right(self) -> int:
        return len(self.indices) - self.n_left


@dataclass(frozen=True)
class Evaluation:
    """The model at a query t, each array read-only and of the query's shape:
    p-values ``u`` = u(t), smooth p-values ``v`` = F_B(u), the floored
    comparison density ``d`` at u, and the local fdr min(pi0 / d, 1)."""

    u: np.ndarray
    v: np.ndarray
    d: np.ndarray
    fdr: np.ndarray


@dataclass(frozen=True)
class CdfrModel:
    """Complete fitted model with every intermediate artifact retained.

    ``fitted`` is the :class:`Evaluation` at the fitted data, computed once
    by the fit; :func:`evaluate` returns it for a query equal to that data.
    """

    null_spec: NullSpec
    cd_model: ComparisonDensityModel
    deviance_path: DeviancePath
    transform_mode: str
    stats: np.ndarray | None = field(repr=False, default=None)
    fitted: Evaluation | None = field(repr=False, default=None)

    @property
    def beta_fit(self) -> BetaFit:
        return self.cd_model.fit

    @property
    def pi0(self) -> float:
        return self.deviance_path.pi0_hat


def t_to_z(t_stats, df: float) -> np.ndarray:
    """Convert t statistics to z scale through the t CDF and normal quantile.

    One walk a block at a time: each block's exact lower tail
    F_t(-|t|) (never 1 - F), clamped below at 1e-15 (the named clamp point
    for this operation), goes through the normal quantile and takes the sign
    of t.  So ``t_to_z(-t) == -t_to_z(t)`` bit for bit, |z| is at most
    7.9413 on either side, the upper tail keeps full relative accuracy and
    no probability array of the input's length is formed.  The map is
    order-preserving and returns an array of at least one dimension.
    """
    df = _check_df(df, ConfigError)
    t = np.atleast_1d(np.asarray(t_stats, dtype=float))
    out = np.empty(t.shape)
    for tb, zb in _blocks(t, out):
        tail = student_t_cdf_many(-np.abs(tb), df)
        _lower_quantile(np.maximum(tail, _QUANTILE_CLAMP, out=tail), zb)
        np.copysign(zb, tb, out=zb)
    return out


def to_pvalues(stats, null_spec: NullSpec, mode: str = "pit") -> np.ndarray:
    """Rank-null transform of statistics to p-values.

    ``pit`` uses u = F0(t), putting signal in both tails of u; ``two_sided``
    uses u = 2 min(F0(t), 1 - F0(t)), folding signal toward 0, as twice the
    smaller tail that ``NullSpec.cdf_many(..., fold=True)`` forms directly,
    so that u keeps full relative accuracy (and, for the t and normal(0, 1)
    nulls, is the same at t and -t).  With a
    ``precomputed_pvalues`` null the input passes through after validation.
    The result has at least one dimension.
    """
    _check_mode(null_spec, mode)
    stats = _finite_1d("statistics", stats, ConfigError)
    if null_spec.kind == "precomputed_pvalues":
        if not _within(stats):
            raise ConfigError("precomputed p-values must lie in [0, 1]")
        return stats.copy()
    two_sided = mode == "two_sided"
    u = null_spec.cdf_many(stats, fold=two_sided)
    if two_sided:
        u *= 2.0
    return u


def _check_mode(null_spec: NullSpec, mode: str) -> None:
    """ConfigError for an unknown mode, or two-sided with precomputed p-values."""
    if mode not in TRANSFORM_MODES:
        raise ConfigError(f"transform mode must be one of {TRANSFORM_MODES}, got {mode!r}")
    if mode == "two_sided" and null_spec.kind == "precomputed_pvalues":
        raise ConfigError("the two-sided transform applies to statistics, not to precomputed p-values")


@dataclass(frozen=True)
class EstimatorConfig:
    """The estimator's tuning: the series length of the density (step 4),
    that of the pi0 scan and its grid step (step 5).  Its field defaults are
    the defaults of :func:`fit_cdfdr` and of the CLI flags.  ConfigError
    unless both series lengths are integers in [1, M_MAX] and the grid step
    is a real number in [1e-4, 2.5], none a bool."""

    m_density: int = 6
    m_mdc: int = 10
    grid_step: float = 0.01

    def __post_init__(self):
        _check_m(self.m_density, "m_density", ConfigError)
        _check_m(self.m_mdc, "m_mdc", ConfigError)
        _check_grid_step(self.grid_step, ConfigError)


def fit_cdfdr(data, null_spec: NullSpec, *, m_density: int = EstimatorConfig.m_density,
              m_mdc: int = EstimatorConfig.m_mdc, grid_step: float = EstimatorConfig.grid_step,
              mode: str = "pit") -> CdfrModel:
    """Run the five fitting steps in order and assemble the model.

    ``data`` holds statistics (transformed through ``null_spec``) or, with a
    ``precomputed_pvalues`` null, the p-values themselves.  Deterministic:
    identical inputs produce an identical model.
    """
    _check_mode(null_spec, mode)
    EstimatorConfig(m_density, m_mdc, grid_step)  # checks the tuning before any work
    data = np.asarray(data, dtype=float).ravel()
    if data.size < _MIN_CASES:
        raise InsufficientDataError(f"large-scale method needs n >= {_MIN_CASES}, got {data.size}")
    if data.size < 1000:
        warnings.warn(
            f"n = {data.size} is small for a large-scale method; "
            "estimates may be unstable below n = 1000",
            UserWarning,
            stacklevel=2,
        )

    def step(label, fn):
        try:
            return fn()
        except CdfdrError as exc:
            raise PipelineError(label, str(exc)) from exc

    u = step("step 1 (rank-null transform)", lambda: to_pvalues(data, null_spec, mode))
    fit = step("step 2 (beta fit)", lambda: fit_beta_mle(u))
    if not fit.converged:
        warnings.warn(
            f"step 2 (beta fit): the fit stopped unconverged after {fit.iterations} steps at "
            f"alpha = {fit.alpha:.6g}, beta = {fit.beta:.6g}; every later step rests on them",
            UserWarning,
            stacklevel=2,
        )
    if mode == "two_sided" and fit.beta < 1.0:
        warnings.warn(
            f"step 2 (beta fit): two-sided p-values fit alpha = {fit.alpha:.6g}, "
            f"beta = {fit.beta:.6g} < 1; the fitted density diverges at u = 1, the "
            "null end, so the most null-looking cases can be reported as signal",
            UserWarning,
            stacklevel=2,
        )
    v = step("step 3 (smooth p-values)", lambda: smooth_pvalues(u, fit))
    coeffs = step("step 4 (series density)", lambda: score_coefficients(v, m_density))
    cd_model = ComparisonDensityModel(fit=fit, coeffs=coeffs)
    d_hat = step("step 4 (series density)", lambda: _floored_density(cd_model, u, v))
    path = step("step 5 (pi0 estimation)",
                lambda: estimate_pi0(u, d_hat, m=m_mdc, grid_step=grid_step))

    stats = None if null_spec.kind == "precomputed_pvalues" else data.copy()
    if stats is not None:
        stats.setflags(write=False)
    return CdfrModel(
        null_spec=null_spec,
        cd_model=cd_model,
        deviance_path=path,
        transform_mode=mode,
        stats=stats,
        fitted=_evaluation(path.pi0_hat, u, v, d_hat),
    )


def _evaluation(pi0: float, u, v, d) -> Evaluation:
    """The read-only record of u, v and d, with the capped fdr at d."""
    fdr = np.minimum(pi0 / d, 1.0)
    for arr in (u, v, d, fdr):
        arr.setflags(write=False)
    return Evaluation(u=u, v=v, d=d, fdr=fdr)


def evaluate(model: CdfrModel, t) -> Evaluation:
    """u, v, d and the capped fdr at each statistic value of the query ``t``.

    A query equal bit for bit to the fitted data (the statistics, or the
    p-values for a ``precomputed_pvalues`` null) returns ``model.fitted``,
    which holds exactly what a fresh evaluation gives; any other query is
    transformed and evaluated afresh by the fit's own steps 3 and 4.
    """
    q = np.asarray(t, dtype=float)
    fitted = model.fitted
    if fitted is not None:
        data = fitted.u if model.null_spec.kind == "precomputed_pvalues" else model.stats
        if (data is not None and q.shape == data.shape
                and np.array_equal(q.view(np.uint64), data.view(np.uint64))):
            return fitted
    u = to_pvalues(q, model.null_spec, model.transform_mode)
    v = smooth_pvalues(u, model.beta_fit)
    return _evaluation(model.pi0, u, v, _floored_density(model.cd_model, u, v))


def local_fdr_many(model: CdfrModel, t) -> np.ndarray:
    """Estimated local fdr min(pi0 / d(u(t)), 1) at each statistic value, read-only.

    The raw plug-in ratio pi0 / d can exceed 1 where the estimated density
    dips below pi0; ``model.pi0 / evaluate(model, t).d`` gives it uncapped.
    """
    return evaluate(model, t).fdr


def nonnull_density(model: CdfrModel, t) -> np.ndarray:
    """Reconstructed density of the non-null cases at each statistic t.

    Weights the null density by the estimated comparison-density excess over
    pi0, clipped at zero.  Requires pi0 strictly below 1.  The result has the
    shape of the query, with at least one dimension.
    """
    if not model.pi0 < 1.0:
        raise EstimationError(
            "nonnull density undefined when pi0 = 1 (no estimated signal)"
        )
    d = evaluate(model, t).d
    return np.maximum(0.0, d - model.pi0) * model.null_spec.pdf_many(t) / (1.0 - model.pi0)


def integrate_nonnull_density(model: CdfrModel) -> float:
    """Total mass of the reconstructed non-null density (diagnostic, ~1).

    Computed in p-value space, where the statistic-scale integral reduces
    exactly to int max(0, d(u) - pi0) du / (1 - pi0) by the probability
    integral transform; clipping makes the result only approximately 1.
    """
    if not model.pi0 < 1.0:
        raise EstimationError(
            "nonnull density undefined when pi0 = 1 (no estimated signal)"
        )
    pi0 = model.pi0
    mass = integrate_unit(
        lambda u: np.maximum(
            0.0, comparison_density_raw_many(model.cd_model, u) - pi0
        ),
        lambda w: np.maximum(
            0.0, comparison_density_raw_reflected_many(model.cd_model, w) - pi0
        ),
    )
    return mass / (1.0 - pi0)


def discoveries(model: CdfrModel, stats, threshold: float = 0.2) -> DiscoveryReport:
    """Cases with estimated fdr at or below the threshold.

    The left/right split is by the statistic relative to the null median
    (left is strictly below); for precomputed p-values the statistics are
    the p-values and the split point is 0.5.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold!r}")
    stats = np.asarray(stats, dtype=float).ravel()
    hits = np.flatnonzero(evaluate(model, stats).fdr <= threshold)
    return DiscoveryReport(threshold=float(threshold), indices=hits.tolist(),
                           n_left=int(np.sum(stats[hits] < model.null_spec.median())))
