"""Seeded Monte Carlo designs for validating the fdr estimator.

Two designs: statistics from a two-group normal mixture evaluated on a fixed
z grid, and p-values from a uniform mixture with a short signal interval
[0, a] evaluated on a grid refined inside the signal region.  Replicates run
one after another in one process; each draws from a counter-based (Philox)
substream derived from (seed, replicate index), so a replicate's result does
not depend on how many replicates the study runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CdfdrError, ConfigError, SimulationError
from .pipeline import _MIN_CASES, NullSpec, _check_tuning, fit_cdfdr, local_fdr_many
from .special import normal_pdf_many

__all__ = [
    "MixtureNormalDesign",
    "MixtureUniformDesign",
    "EstimatorConfig",
    "SimReport",
    "replicate_rng",
    "gen_mixture_normal",
    "true_fdr_mixture_normal",
    "gen_mixture_uniform",
    "true_fdr_mixture_uniform",
    "normal_grid",
    "uniform_grid",
    "run_replicates",
]

_MEANS_STREAM = 0
_REPLICATE_STREAM = 1


def replicate_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Philox generator for substream (seed, stream, index)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def _check_study(n: int, replicates: int, seed: int) -> None:
    """ConfigError unless a replicate's n cases can be fitted and a seed drawn."""
    if n < _MIN_CASES:
        raise ConfigError(f"n must be at least {_MIN_CASES}, the fewest cases a fit takes, got {n}")
    if replicates < 1:
        raise ConfigError("replicates must be at least 1")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class MixtureNormalDesign:
    """Two-group design: n_null standard normals, the rest N(mu_i, 1)."""

    mu: float
    n: int = 5000
    n_null: int = 4500
    replicates: int = 20
    seed: int = 0
    mu_redraw: str = "once"

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ConfigError(f"mu must be finite, got {self.mu!r}")
        _check_study(self.n, self.replicates, self.seed)
        if not 0 <= self.n_null <= self.n:
            raise ConfigError(f"n_null must lie in [0, n], got {self.n_null}")
        if self.mu_redraw not in ("once", "per_replicate"):
            raise ConfigError(f"mu_redraw must be 'once' or 'per_replicate', got {self.mu_redraw!r}")

    @property
    def pi0(self) -> float:
        return self.n_null / self.n


@dataclass(frozen=True)
class MixtureUniformDesign:
    """P-value design: pi0 U[0,1] + (1 - pi0) U[0,a]."""

    pi0: float
    a: float
    n: int = 5000
    replicates: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.pi0 <= 1.0:
            raise ConfigError(f"pi0 must lie in [0, 1], got {self.pi0}")
        if not 0.0 < self.a < 1.0:
            raise ConfigError(f"a must lie in (0, 1), got {self.a}")
        _check_study(self.n, self.replicates, self.seed)


@dataclass(frozen=True)
class EstimatorConfig:
    m_density: int = 6
    m_mdc: int = 10
    grid_step: float = 0.01

    def __post_init__(self):
        _check_tuning(self.m_density, self.m_mdc, self.grid_step)


@dataclass(frozen=True)
class SimReport:
    """Replicate aggregates: pointwise mean/sd of the fdr estimate, the
    closed-form true fdr on the same grid, integrated squared errors, and
    the per-replicate pi0 estimates."""

    grid: np.ndarray
    mean_fdr: np.ndarray
    sd_fdr: np.ndarray
    true_fdr: np.ndarray
    mise: float
    tail_mise: float | None
    pi0_estimates: np.ndarray
    n_replicates: int
    failed_replicates: list[int] = field(default_factory=list)


def gen_mixture_normal(design: MixtureNormalDesign, replicate: int = 0) -> np.ndarray:
    """One replicate of the normal-mixture statistics (nulls first).

    Non-null means are drawn from N(mu, 1): once for the whole study when
    ``mu_redraw='once'`` (shared across replicates), or fresh per replicate.
    """
    n_signal = design.n - design.n_null
    rng = replicate_rng(design.seed, _REPLICATE_STREAM, replicate)
    if design.mu_redraw == "once":
        means = replicate_rng(design.seed, _MEANS_STREAM).normal(design.mu, 1.0, n_signal)
    else:
        means = rng.normal(design.mu, 1.0, n_signal)
    stats = np.empty(design.n)
    stats[: design.n_null] = rng.normal(0.0, 1.0, design.n_null)
    stats[design.n_null:] = means + rng.normal(0.0, 1.0, n_signal)
    return stats


def true_fdr_mixture_normal(z, pi0: float, mu: float) -> np.ndarray:
    """Closed-form fdr of the marginalized mixture at each z.

    Marginalizing the mean draw, non-null statistics are N(mu, 2), so
    f(z) = pi0 phi(z) + (1 - pi0) phi((z - mu)/sqrt 2)/sqrt 2.  Where both
    parts underflow to 0 (|z| beyond about 38), the ratio is taken in log space.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    null_part = pi0 * normal_pdf_many(z)
    alt_part = (1.0 - pi0) * normal_pdf_many((z - mu) / math.sqrt(2.0)) / math.sqrt(2.0)
    total = null_part + alt_part
    under = total == 0.0
    fdr = null_part / np.where(under, 1.0, total)
    if under.any():
        zu = z[under]
        # log(alt_part / null_part) from the log densities; -inf at pi0 = 1, +inf at 0.
        with np.errstate(divide="ignore"):
            log_odds = np.log1p(-pi0) - np.log(pi0 * math.sqrt(2.0)) \
                + 0.5 * zu * zu - 0.25 * (zu - mu) ** 2
        fdr[under] = np.exp(-np.logaddexp(0.0, log_odds))
    return fdr


def gen_mixture_uniform(design: MixtureUniformDesign, replicate: int = 0) -> np.ndarray:
    """One replicate of mixture-uniform p-values."""
    rng = replicate_rng(design.seed, _REPLICATE_STREAM, replicate)
    is_null = rng.random(design.n) < design.pi0
    u = rng.random(design.n)
    return np.where(is_null, u, design.a * u)


def true_fdr_mixture_uniform(u, pi0: float, a: float) -> np.ndarray:
    """Closed-form fdr of the uniform mixture at each u.

    The mixture density is pi0 + (1 - pi0)/a on [0, a] and pi0 on (a, 1],
    so fdr(u) = pi0 / f(u), which is exactly 1 outside the signal region.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    outside = ~((u > 0.0) & (u < 1.0))
    if outside.any():
        raise ConfigError(f"u must lie in (0, 1), got {float(u[outside][0])!r}")
    return np.where(u <= a, pi0 / (pi0 + (1.0 - pi0) / a), 1.0)


def normal_grid() -> np.ndarray:
    """Fixed evaluation grid for the normal design: z in [-6, 6], step 0.05."""
    return np.linspace(-6.0, 6.0, 241)


def uniform_grid(a: float) -> tuple[np.ndarray, int]:
    """Evaluation grid for the uniform design, refined on the signal region.

    Returns the grid and the number of leading points lying inside [0, a]
    (the tail section used for the tail-restricted error).  All points are
    strictly inside (0, 1), the domain of the closed-form fdr.
    """
    tail = np.linspace(a / 100.0, a, 100)
    body = np.linspace(a, 1.0, 202)[1:-1]
    return np.concatenate([tail, body]), tail.size


def run_replicates(design, config: EstimatorConfig = EstimatorConfig(),
                   workers: int = 1) -> SimReport:
    """Generate, fit, and aggregate all replicates of a design, in index order.

    Failed replicate fits are excluded and recorded; more than 10% failures
    aborts with the first failure's error.  Replicates run in one process:
    ``workers`` must be 1.
    """
    if workers != 1:
        raise ConfigError(f"replicates run in one process, so workers must be 1, got {workers!r}")
    if isinstance(design, MixtureNormalDesign):
        sample, null_spec = gen_mixture_normal, NullSpec.standard_normal()
        grid = normal_grid()
        n_tail = None
        truth = true_fdr_mixture_normal(grid, design.pi0, design.mu)
    elif isinstance(design, MixtureUniformDesign):
        sample, null_spec = gen_mixture_uniform, NullSpec.precomputed()
        grid, n_tail = uniform_grid(design.a)
        truth = true_fdr_mixture_uniform(grid, design.pi0, design.a)
    else:
        raise ConfigError(f"unknown design type {type(design).__name__}")

    curves, pi0s, failed, first_error = [], [], [], ""
    for replicate in range(design.replicates):
        try:
            model = fit_cdfdr(sample(design, replicate), null_spec, m_density=config.m_density,
                              m_mdc=config.m_mdc, grid_step=config.grid_step)
            curves.append(local_fdr_many(model, grid))
            pi0s.append(model.pi0)
        except CdfdrError as exc:
            first_error = first_error or f"{type(exc).__name__}: {exc}"
            failed.append(replicate)
        model = None  # free this fit before the next replicate's
    if len(failed) > 0.1 * design.replicates:
        raise SimulationError(f"{len(failed)} of {design.replicates} replicate fits failed: "
                              f"{failed}; replicate {failed[0]} raised {first_error}")

    stack = np.vstack(curves)
    mean_fdr = stack.mean(axis=0)
    sd_fdr = stack.std(axis=0)
    sq_err = (stack - truth) ** 2
    mise = float(np.mean(np.trapezoid(sq_err, grid, axis=1)))
    tail_mise = None
    if n_tail is not None:
        tail_mise = float(np.mean(
            np.trapezoid(sq_err[:, :n_tail], grid[:n_tail], axis=1)
        ))

    for arr in (grid, mean_fdr, sd_fdr, truth):
        arr.setflags(write=False)
    return SimReport(
        grid=grid,
        mean_fdr=mean_fdr,
        sd_fdr=sd_fdr,
        true_fdr=truth,
        mise=mise,
        tail_mise=tail_mise,
        pi0_estimates=np.array(pi0s),
        n_replicates=len(curves),
        failed_replicates=failed,
    )
