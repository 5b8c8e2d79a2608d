"""Pipeline orchestration: transforms, fitting, fdr evaluation, discoveries."""

import dataclasses
import functools
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import stats as sp_stats

import cdfdr.betafit
import cdfdr.cli
import cdfdr.density
from cdfdr import special
from cdfdr.betafit import BetaFit, smooth_pvalues
from cdfdr.density import (
    ComparisonDensityModel,
    CoefficientSet,
    comparison_density_raw_many,
    eval_comparison_density_many,
)
from cdfdr.errors import (
    ConfigError,
    EstimationError,
    InsufficientDataError,
    PipelineError,
)
from cdfdr.legendre import basis_matrix
from cdfdr.pi0 import DeviancePath, estimate_pi0
from cdfdr.pipeline import (
    CdfrModel,
    EstimatorConfig,
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
from cdfdr.simulate import MixtureUniformDesign, gen_mixture_uniform
from cdfdr.special import normal_cdf_many


def _two_sided_mixture(seed, n_null=4500, n_signal=500, mu=3.0):
    rng = np.random.Generator(np.random.Philox(seed))
    signs = np.where(rng.random(n_signal) < 0.5, -1.0, 1.0)
    means = signs * mu + rng.normal(0.0, 1.0, n_signal)
    return np.concatenate([
        rng.normal(0.0, 1.0, n_null),
        means + rng.normal(0.0, 1.0, n_signal),
    ])


def _manual_cdfr_model(pi0, theta_hat, alpha=1.0, beta=1.0):
    fit = BetaFit(alpha=alpha, beta=beta, log_likelihood=0.0, n=1000,
                  iterations=0, converged=True)
    theta = np.asarray(theta_hat, dtype=float)
    coeffs = CoefficientSet(m=theta.size, theta_tilde=theta.copy(),
                            theta_hat=theta, n=1000, threshold=0.0017)
    path = DeviancePath(
        lambdas=np.array([1.0]), deviances=np.array([0.0]),
        n_lambda=np.array([1000]), lambda_star=1.0, pi0_hat=pi0, m=10, flat=True,
    )
    return CdfrModel(
        null_spec=NullSpec.precomputed(),
        cd_model=ComparisonDensityModel(fit=fit, coeffs=coeffs),
        deviance_path=path, transform_mode="pit",
    )


class TestNullSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NullSpec(kind="poisson")
        with pytest.raises(ConfigError):
            NullSpec.normal(0.0, 0.0)
        with pytest.raises(ConfigError):
            NullSpec.student_t(-3.0)
        for build in (lambda: NullSpec.normal(math.nan, 1.0),
                      lambda: NullSpec.normal(0.0, math.inf),
                      lambda: NullSpec.student_t(math.inf),
                      lambda: NullSpec(kind="student_t")):
            with pytest.raises(ConfigError, match="finite"):
                build()

    def test_student_t_df_is_a_real_number(self):
        # The kernels' df rule: a bool, a string or None is no df, and a numpy
        # scalar is the float it holds.
        for df in (True, np.True_, "5", None):
            with pytest.raises(ConfigError, match="df must be finite and positive"):
                NullSpec.student_t(df)
        for df in (np.float64(5.0), np.int64(5), 5):
            spec = NullSpec.student_t(df)
            assert type(spec.df) is float and spec == NullSpec.student_t(5.0)

    def test_standard_normal_is_unit_normal(self):
        assert NullSpec.standard_normal() == NullSpec.normal(0.0, 1.0)
        with pytest.raises(ConfigError):
            NullSpec(kind="standard_normal")
        t = np.array([-0.0, 0.0, -37.5, -1e-300, 2.5, 40.0])
        got = NullSpec.standard_normal().cdf_many(t)
        assert np.array_equal(got.view(np.uint64), normal_cdf_many(t).view(np.uint64))

    def test_cdf_dispatch(self):
        assert NullSpec.standard_normal().cdf_many(np.array([0.0]))[0] == 0.5
        assert NullSpec.normal(2.0, 3.0).cdf_many(np.array([2.0]))[0] == 0.5
        assert NullSpec.student_t(7.0).cdf_many(np.array([0.0]))[0] == 0.5
        with pytest.raises(ConfigError):
            NullSpec.precomputed().cdf_many(np.array([0.5]))

    @pytest.mark.parametrize("spec", [
        NullSpec.standard_normal(), NullSpec.normal(1.0, 2.0), NullSpec.student_t(7.0),
    ], ids=["standard_normal", "normal", "student_t"])
    def test_cdf_many_of_scalar_is_one_element_array(self, spec):
        out = spec.cdf_many(1.0)
        assert out.shape == (1,)
        assert out[0] == spec.cdf_many(np.array([1.0, -3.0]))[0]

    def test_medians(self):
        assert NullSpec.standard_normal().median() == 0.0
        assert NullSpec.normal(-1.5, 2.0).median() == -1.5
        assert NullSpec.student_t(3.0).median() == 0.0
        assert NullSpec.precomputed().median() == 0.5

    def test_pdf_normal_scaling(self):
        spec = NullSpec.normal(1.0, 2.0)
        base = NullSpec.standard_normal()
        assert spec.pdf_many(1.0)[0] == pytest.approx(base.pdf_many(0.0)[0] / 2.0, rel=1e-12)


class TestTtoZ:
    def test_zero_maps_to_zero(self):
        for df in (1.0, 10.0, 100.0):
            assert t_to_z(np.array([0.0]), df)[0] == 0.0

    def test_large_df_near_identity(self):
        z = t_to_z(np.array([1.96]), 100.0)[0]
        assert z == pytest.approx(1.96, abs=0.05)

    def test_rank_preservation(self):
        rng = np.random.Generator(np.random.Philox(3))
        t = rng.standard_t(5, size=500)
        z = t_to_z(t, 5.0)
        assert np.array_equal(np.argsort(t), np.argsort(z))

    def test_agrees_with_scipy_composition(self):
        t = np.array([-4.0, -1.2, 0.3, 2.7])
        z = t_to_z(t, 11.0)
        ref = sp_stats.norm.ppf(sp_stats.t.cdf(t, 11))
        np.testing.assert_allclose(z, ref, rtol=1e-9)

    def test_bad_df(self):
        for df in (0.0, math.inf, math.nan, None, "3", True):
            with pytest.raises(ConfigError, match="df must be finite and positive"):
                t_to_z(np.array([1.0]), df)

    def test_scalar_input_gives_one_element_array(self):
        z = t_to_z(2.0, 10.0)
        assert z.shape == (1,)
        assert z[0] == t_to_z(np.array([2.0, -1.0]), 10.0)[0]


@settings(max_examples=80, deadline=None)
@given(t=st.lists(st.floats(-40.0, 40.0) | st.floats(-1e250, 1e250), min_size=1, max_size=30),
       df=st.floats(0.5, 1e4))
def test_transforms_are_mirror_exact(t, df):
    # t_to_z, and the two-sided p-values of the t and standard normal nulls,
    # map -t to the mirror image of their value at t, bit for bit: both take
    # the one tail F(-|t|) and never 1 - F.
    t = np.array(t)
    assert np.array_equal(_bits(t_to_z(-t, df)), _bits(-t_to_z(t, df)))
    for null in (NullSpec.student_t(df), NullSpec.standard_normal()):
        assert np.array_equal(_bits(to_pvalues(-t, null, "two_sided")),
                              _bits(to_pvalues(t, null, "two_sided")))


class TestToPvalues:
    def test_pit_median(self):
        u = to_pvalues(np.array([0.0]), NullSpec.standard_normal(), "pit")
        assert u[0] == 0.5

    def test_two_sided_quantile(self):
        u = to_pvalues(np.array([1.959964, -1.959964]),
                       NullSpec.standard_normal(), "two_sided")
        assert u[0] == pytest.approx(0.05, abs=1e-5)
        assert u[1] == pytest.approx(0.05, abs=1e-5)

    def test_order_preservation(self):
        rng = np.random.Generator(np.random.Philox(9))
        t = rng.normal(0, 2, 400)
        u_pit = to_pvalues(t, NullSpec.standard_normal(), "pit")
        assert np.array_equal(np.argsort(t), np.argsort(u_pit))
        u_two = to_pvalues(t, NullSpec.standard_normal(), "two_sided")
        assert np.array_equal(np.argsort(-np.abs(t)), np.argsort(u_two))

    def test_precomputed_passthrough_and_validation(self):
        u = np.array([0.1, 0.5, 0.9])
        out = to_pvalues(u, NullSpec.precomputed(), "pit")
        assert np.array_equal(out, u)
        with pytest.raises(ConfigError):
            to_pvalues(np.array([1.2]), NullSpec.precomputed(), "pit")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            to_pvalues(np.array([0.0]), NullSpec.standard_normal(), "folded")


class TestFitCdfdr:
    def test_all_null_selects_nothing(self):
        rng = np.random.Generator(np.random.Philox(101))
        model = fit_cdfdr(rng.normal(0, 1, 5000), NullSpec.standard_normal())
        assert np.all(model.cd_model.coeffs.theta_hat == 0.0)
        assert model.pi0 >= 0.98
        assert model.beta_fit.converged

    def test_small_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_cdfdr(np.linspace(-2, 2, 99), NullSpec.standard_normal())

    def test_tuning_defaults_are_estimator_config(self):
        # One home for the defaults: the CLI flags read EstimatorConfig too.
        params = inspect.signature(fit_cdfdr).parameters
        defaults = {name: params[name].default for name in ("m_density", "m_mdc", "grid_step")}
        assert defaults == dataclasses.asdict(EstimatorConfig())

    def test_small_sample_warns(self):
        rng = np.random.Generator(np.random.Philox(11))
        with pytest.warns(UserWarning, match="small"):
            fit_cdfdr(rng.normal(0, 1, 500), NullSpec.standard_normal())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="transform mode must be one of"):
            fit_cdfdr(_two_sided_mixture(23), NullSpec.standard_normal(), mode="bogus")

    def test_two_sided_precomputed_pvalues_rejected(self):
        # Precomputed p-values skip the transform, so a two-sided request is
        # refused before step 1 rather than ignored, and nothing warns.
        u = to_pvalues(_two_sided_mixture(23), NullSpec.standard_normal(), "two_sided")
        with pytest.raises(ConfigError, match="two-sided"):
            to_pvalues(u, NullSpec.precomputed(), "two_sided")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data in (u, u[:5]):
                with pytest.raises(ConfigError, match="two-sided") as info:
                    fit_cdfdr(data, NullSpec.precomputed(), mode="two_sided")
                assert not isinstance(info.value, PipelineError)

    @pytest.mark.filterwarnings("ignore:n = 200 is small")
    def test_step_label_on_failure(self):
        # A constant statistic survives the transform but degenerates the
        # beta fit; the error must carry the step label.
        with pytest.raises(PipelineError, match="step 2"):
            fit_cdfdr(np.zeros(200), NullSpec.standard_normal())

    @pytest.mark.parametrize("tuning", [
        {"m_density": 17}, {"m_density": 0}, {"m_mdc": 0}, {"m_mdc": 17},
        {"grid_step": 0.0}, {"grid_step": -0.01}, {"grid_step": 2.6},
        {"grid_step": math.nan}, {"grid_step": math.inf}, {"grid_step": 1e-5},
        {"m_density": 6.5}, {"m_density": "6"}, {"m_density": np.float64(6.0)},
        {"m_mdc": True}, {"m_mdc": "10"}, {"grid_step": "0.01"}, {"grid_step": 0.01j},
        {"grid_step": None}, {"grid_step": True},
    ], ids=lambda tuning: "-".join(f"{k}={v!r}" for k, v in tuning.items()))
    def test_out_of_range_tuning_is_a_config_error(self, tuning):
        # Checked before any work: even a sample too small to fit reports it.
        for data in (_two_sided_mixture(23), np.zeros(5)):
            with pytest.raises(ConfigError) as info:
                fit_cdfdr(data, NullSpec.standard_normal(), **tuning)
            assert not isinstance(info.value, PipelineError)

    def test_determinism(self):
        stats = _two_sided_mixture(7)
        m1 = fit_cdfdr(stats, NullSpec.standard_normal())
        m2 = fit_cdfdr(stats.copy(), NullSpec.standard_normal())
        assert m1.beta_fit.alpha == m2.beta_fit.alpha
        assert m1.beta_fit.beta == m2.beta_fit.beta
        assert np.array_equal(m1.cd_model.coeffs.theta_tilde,
                              m2.cd_model.coeffs.theta_tilde)
        assert m1.pi0 == m2.pi0
        assert np.array_equal(m1.deviance_path.deviances,
                              m2.deviance_path.deviances, equal_nan=True)

    def test_scale_coherence_with_precomputed(self):
        # Feeding the pit p-values of a stats run through the precomputed
        # route must reproduce the identical model.
        stats = _two_sided_mixture(13)
        m_stats = fit_cdfdr(stats, NullSpec.standard_normal(), mode="pit")
        u = to_pvalues(stats, NullSpec.standard_normal(), "pit")
        m_pre = fit_cdfdr(u, NullSpec.precomputed())
        assert m_stats.beta_fit.alpha == m_pre.beta_fit.alpha
        assert m_stats.beta_fit.beta == m_pre.beta_fit.beta
        assert np.array_equal(m_stats.cd_model.coeffs.theta_hat,
                              m_pre.cd_model.coeffs.theta_hat)
        assert m_stats.pi0 == m_pre.pi0

    def test_intermediates_retained(self):
        stats = _two_sided_mixture(17)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        assert model.stats is not None and model.stats.size == stats.size
        assert model.fitted.u.size == stats.size
        assert model.fitted.v.size == stats.size
        # Retained arrays are read-only audit artifacts.
        with pytest.raises(ValueError):
            model.fitted.u[0] = 0.5

    @pytest.mark.parametrize("mode", ["pit", "two_sided", "precomputed"])
    def test_d_hat_matches_fresh_evaluation(self, mode):
        stats = _two_sided_mixture(19)
        if mode == "precomputed":
            data = to_pvalues(stats, NullSpec.standard_normal(), "two_sided")
            model = fit_cdfdr(data, NullSpec.precomputed())
        else:
            data = stats
            model = fit_cdfdr(data, NullSpec.standard_normal(), mode=mode)
        assert np.array_equal(
            model.fitted.d, eval_comparison_density_many(model.cd_model, model.fitted.u)
        )
        assert np.array_equal(_capped(model, model.fitted.d), local_fdr_many(model, data))
        with pytest.raises(ValueError):
            model.fitted.d[0] = 1.0

    def test_huge_beta_shapes_fail_at_step_3(self):
        # Statistics far more concentrated than the null fit a beta with
        # shapes near 1e12, where the incomplete beta leaves [0, 1]; the
        # failure must name the smooth p-value step and the shapes.
        rng = np.random.Generator(np.random.Philox(47))
        z = rng.normal(0.0, 1e-6, 5000)
        with pytest.raises(PipelineError, match=r"step 3 .*alpha = .*beta = ") as info:
            fit_cdfdr(z, NullSpec.standard_normal())
        assert info.value.step == "step 3 (smooth p-values)"


class TestLocalFdr:
    def test_threshold_correspondence_value(self):
        # pi0 = 1 and an assembled density of 5 gives fdr 0.2.
        model = _manual_cdfr_model(1.0, [0.0, 4.0 / math.sqrt(5.0), 0.0, 0.0, 0.0, 0.0])
        # At u -> 1 the series factor approaches 1 + theta * S_2(1) = 5.
        d = eval_comparison_density_many(model.cd_model, 1.0)[0]
        assert d == pytest.approx(5.0, abs=1e-6)
        assert local_fdr_many(model, 1.0)[0] == pytest.approx(0.2, abs=1e-6)

    def test_uniform_model_constant_fdr(self):
        model = _manual_cdfr_model(0.97, np.zeros(6))
        t = np.linspace(0.01, 0.99, 13)
        np.testing.assert_allclose(local_fdr_many(model, t), 0.97, rtol=1e-12)

    def test_identity_with_comparison_density(self):
        stats = _two_sided_mixture(19)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        t = np.linspace(-4.0, 4.0, 101)
        raw = model.pi0 / evaluate(model, t).d
        d = _fresh(model, t)[1]
        np.testing.assert_allclose(raw * d, model.pi0, rtol=0, atol=1e-12)

    def test_cap_and_raw(self):
        stats = _two_sided_mixture(23)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        t = np.linspace(-6.0, 6.0, 241)
        raw = model.pi0 / evaluate(model, t).d
        capped = local_fdr_many(model, t)
        assert np.any(raw > 1.0)
        assert np.all(capped <= 1.0)
        np.testing.assert_array_equal(capped, np.minimum(raw, 1.0))

    def test_threshold_set_inclusions(self):
        # With pi0 in [0.95, 1]: {d > 5} subset of {fdr < 0.2} subset of
        # {d > 4.75}, bracketing the pi0-in-threshold ambiguity.
        rng = np.random.Generator(np.random.Philox(29))
        stats = np.concatenate([rng.normal(0, 1, 4850),
                                rng.normal(4, 1, 150) + rng.normal(0, 1, 150)])
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        assert 0.95 <= model.pi0 <= 1.0
        t = np.linspace(-6.0, 6.0, 1201)
        fdr = local_fdr_many(model, t)
        d = _fresh(model, t)[1]
        low = fdr < 0.2
        assert np.all(low[d > 5.0])
        assert np.all(d[low] > 4.75)


def _fit_mode(mode, stats):
    """Model and fitted data for a pit, two_sided or precomputed fit of ``stats``."""
    if mode == "precomputed":
        data = to_pvalues(stats, NullSpec.standard_normal(), "two_sided")
        return fit_cdfdr(data, NullSpec.precomputed()), data
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "step 2 \\(beta fit\\)")
        return fit_cdfdr(stats, NullSpec.standard_normal(), mode=mode), stats


def _fresh(model, query):
    """u and floored d at ``query``, evaluated through the transform and the density."""
    u = to_pvalues(query, model.null_spec, model.transform_mode)
    return u, eval_comparison_density_many(model.cd_model, u)


def _capped(model, d):
    """The reported fdr min(pi0 / d, 1) at floored densities ``d``."""
    return np.minimum(model.pi0 / d, 1.0)


def _raw_fdr(model, query):
    """The uncapped fdr pi0 / d at ``query``."""
    return model.pi0 / evaluate(model, query).d


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_report(report, stats, fdr, median):
    """``report`` names exactly the cases with fdr at or below its threshold,
    split at ``median`` by their statistics (left is strictly below)."""
    hits = np.flatnonzero(fdr <= report.threshold)
    assert report.indices == hits.tolist()
    n_left = int(np.sum(np.asarray(stats)[hits] < median))
    assert (report.n_discoveries, report.n_left, report.n_right) == (
        hits.size, n_left, hits.size - n_left)


def _median(mode):
    return 0.5 if mode == "precomputed" else 0.0


@pytest.fixture
def density_calls(monkeypatch):
    """Counts calls into the smooth p-value map and the incomplete beta."""
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(cdfdr.density, "smooth_pvalues")
    counting(cdfdr.pipeline, "smooth_pvalues")
    counting(cdfdr.betafit, "beta_cdf_many")
    return calls


MODES = ["pit", "two_sided", "precomputed"]


@functools.lru_cache(maxsize=None)
def _signal_fit():
    """A pit fit on 20,000 cases, 10% of them shifted by 2."""
    rng = np.random.Generator(np.random.Philox(83))
    z = np.concatenate([rng.normal(0.0, 1.0, 18_000), rng.normal(2.0, 1.0, 2_000)])
    return fit_cdfdr(z, NullSpec.standard_normal())


class TestBatchIndependence:
    """A one-element query gives the same bits as that point in a batch: every
    step of the evaluation, the series sum included, is elementwise."""

    def test_fdr_on_a_fine_grid(self):
        model = _signal_fit()
        z = np.linspace(-8.0, 8.0, 1601)
        batch = _raw_fdr(model, z)
        assert [_raw_fdr(model, z[i:i + 1])[0] for i in range(z.size)] == batch.tolist()

    @settings(max_examples=100, deadline=None)
    @given(z=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=20),
           u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_density_and_fdr(self, z, u):
        model = _signal_fit()
        for x in (z, u):
            dens = eval_comparison_density_many(model.cd_model, np.clip(x, 0.0, 1.0))
            assert [eval_comparison_density_many(model.cd_model, [min(max(xi, 0.0), 1.0)])[0]
                    for xi in x] == dens.tolist()
        for fdr_at in (local_fdr_many, _raw_fdr):
            fdr = fdr_at(model, np.array(z))
            assert [fdr_at(model, np.array([zi]))[0] for zi in z] == fdr.tolist()


@functools.lru_cache(maxsize=None)
def _t_to_z_fit():
    """A two-sided fit of 20,000 t statistics on 30 df through t_to_z, 10% of
    them shifted by +-3."""
    rng = np.random.Generator(np.random.Philox(89))
    t = rng.standard_t(30.0, 20_000)
    t[18_000:] += np.where(rng.random(2_000) < 0.5, -3.0, 3.0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "step 2 \\(beta fit\\)")
        return fit_cdfdr(t_to_z(t, 30.0), NullSpec.standard_normal(), mode="two_sided")


@functools.lru_cache(maxsize=None)
def _uniform_mixture_fit():
    """A fit of 20,000 precomputed p-values, 10% of them uniform on [0, 0.05]."""
    u = gen_mixture_uniform(MixtureUniformDesign(pi0=0.9, a=0.05, n=20_000, seed=97))
    return fit_cdfdr(u, NullSpec.precomputed())


class TestSeriesSums:
    """The score coefficients and the series are sums over the recurrence's
    terms, each taken on its own."""

    def test_score_coefficients_are_exact_means(self):
        # Each coefficient is within 1e-15 relative of the correctly rounded
        # mean of its basis column; an N x m basis averaged down its rows was
        # 3.1e-14 off on this fit.
        model = _signal_fit()
        v = model.fitted.v
        exact = np.array([math.fsum(column) / v.size
                          for column in basis_matrix(model.cd_model.coeffs.m, v).T])
        theta = model.cd_model.coeffs.theta_tilde
        assert np.all(np.abs(theta - exact) <= 1e-15 * np.abs(exact))

    # pi0_hat, lambda*, the selected coefficients and the discoveries at fdr
    # 0.2, as the N x m basis gave them; the series' last-bit changes must not
    # move any of them.
    @pytest.mark.parametrize("fit, pi0, lambda_star, selected, n_discoveries", [
        (_signal_fit, 0.9554, 2.91, [1, 3, 4, 5], 489),
        (_t_to_z_fit, 0.93325, 3.45, [1, 2, 3, 4, 5, 6], 1139),
        (_uniform_mixture_fit, 0.8854, 1.92, [3, 6], 62),
    ], ids=["pit", "two-sided-t30", "precomputed"])
    def test_discrete_outputs_are_frozen(self, fit, pi0, lambda_star, selected, n_discoveries):
        model = fit()
        data = model.fitted.u if model.stats is None else model.stats
        assert model.pi0 == model.deviance_path.pi0_hat == pi0
        assert model.deviance_path.lambda_star == lambda_star
        assert model.cd_model.coeffs.selected() == selected
        assert discoveries(model, data).n_discoveries == n_discoveries


class TestStoredArrays:
    """fdr and discoveries at the fitted statistics read the model's stored arrays."""

    @pytest.mark.parametrize("mode", MODES)
    def test_fitted_data_matches_fresh_evaluation(self, mode):
        model, data = _fit_mode(mode, _two_sided_mixture(67))
        _, d = _fresh(model, data)
        fdr = _capped(model, d)
        for query in (data, data.copy(), list(data)):
            assert evaluate(model, query) is model.fitted
            assert np.array_equal(_bits(local_fdr_many(model, query)), _bits(fdr))
            assert np.array_equal(_bits(_raw_fdr(model, query)), _bits(model.pi0 / d))
            report = discoveries(model, query)
            assert report.n_discoveries > 0
            _assert_report(report, data, fdr, _median(mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_fitted_data_makes_no_density_calls(self, mode, density_calls):
        model, data = _fit_mode(mode, _two_sided_mixture(71))
        fitted = model.fitted.u if mode == "precomputed" else model.stats
        density_calls.clear()
        local_fdr_many(model, fitted)
        evaluate(model, data.copy())
        discoveries(model, fitted)
        assert density_calls == []
        local_fdr_many(model, fitted[::-1])
        assert density_calls

    @pytest.mark.parametrize("mode", MODES)
    def test_permutation_takes_fresh_path(self, mode, density_calls):
        model, data = _fit_mode(mode, _two_sided_mixture(73))
        _, d = _fresh(model, data)
        fdr = _capped(model, d)
        perm = np.random.Generator(np.random.Philox(5)).permutation(data.size)
        density_calls.clear()
        assert np.array_equal(_bits(local_fdr_many(model, data[perm])), _bits(fdr[perm]))
        assert density_calls
        _assert_report(discoveries(model, data[perm]), data[perm], fdr[perm], _median(mode))
        # Every field of the fresh record is the fitted one, permuted.
        fresh = evaluate(model, data[perm])
        assert fresh is not model.fitted
        for name in ("u", "v", "d", "fdr"):
            assert np.array_equal(_bits(getattr(fresh, name)),
                                  _bits(getattr(model.fitted, name)[perm])), name

    @pytest.mark.parametrize("mode", MODES)
    def test_records_are_read_only(self, mode):
        model, data = _fit_mode(mode, _two_sided_mixture(73))
        for record in (model.fitted, evaluate(model, data[::-1])):
            for name in ("u", "v", "d", "fdr"):
                with pytest.raises(ValueError):
                    getattr(record, name)[0] = 0.5
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.fdr = record.d

    @pytest.mark.parametrize("mode", MODES)
    def test_curves_take_one_incomplete_beta_pass(self, mode, density_calls):
        # The curve grid's v column is the smooth p-value of its u column, bit
        # for bit, from the one smooth_pvalues call that also gives d.
        model, _ = _fit_mode(mode, _two_sided_mixture(61))
        density_calls.clear()
        columns = cdfdr.cli._curve_columns(model)
        assert density_calls == ["smooth_pvalues", "beta_cdf_many"]
        u, v = (np.array(list(map(float, column))) for column in columns[1:3])
        assert np.array_equal(_bits(v), _bits(smooth_pvalues(u, model.beta_fit)))

    @pytest.mark.parametrize("mode", MODES)
    def test_signed_zero_takes_fresh_path(self, mode, density_calls):
        # -0.0 equals 0.0 under ==, so only a bitwise comparison sends this
        # query down the fresh path.
        stats = _two_sided_mixture(79)
        if mode == "precomputed":
            data = to_pvalues(stats, NullSpec.standard_normal(), "two_sided")
            data[3] = 0.0
            model = fit_cdfdr(data, NullSpec.precomputed())
        else:
            stats[3] = 0.0
            model, data = _fit_mode(mode, stats)
        query = data.copy()
        query[3] = -0.0
        assert np.array_equal(query, data)
        assert not np.array_equal(_bits(query), _bits(data))
        _, d = _fresh(model, query)
        density_calls.clear()
        assert np.array_equal(_bits(local_fdr_many(model, query)), _bits(_capped(model, d)))
        assert density_calls
        _assert_report(discoveries(model, query), query, _capped(model, d), _median(mode))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_query_still_raises(self, mode, bad):
        model, data = _fit_mode(mode, _two_sided_mixture(83))
        query = data.copy()
        query[7] = bad
        with pytest.raises(ConfigError):
            local_fdr_many(model, query)
        with pytest.raises(ConfigError):
            discoveries(model, query)


class TestQueryShape:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", [(6, 1), (2, 3), (1, 6)])
    def test_keeps_shape_and_values(self, mode, shape):
        model, data = _fit_mode(mode, _two_sided_mixture(97))
        flat = data[:6]
        query = flat.reshape(shape)
        for fdr_at in (local_fdr_many, _raw_fdr):
            out = fdr_at(model, query)
            assert out.shape == shape
            assert np.array_equal(_bits(out), _bits(fdr_at(model, flat)).reshape(shape))
        record = evaluate(model, query)
        assert {getattr(record, name).shape for name in ("u", "v", "d", "fdr")} == {shape}
        u = to_pvalues(query, model.null_spec, model.transform_mode)
        d = eval_comparison_density_many(model.cd_model, u)
        assert d.shape == shape
        assert np.array_equal(_bits(d), _bits(_fresh(model, flat)[1]).reshape(shape))

    @pytest.mark.parametrize("spec", [
        NullSpec.normal(1.0, 2.0), NullSpec.student_t(7.0), NullSpec.precomputed(),
    ], ids=["normal", "student_t", "precomputed"])
    @pytest.mark.parametrize("shape", [(6, 1), (2, 3), (1, 6)])
    def test_densities_keep_shape_and_values(self, spec, shape):
        # nonnull_density, the reconstruction f0(x) * d(F0(x)) and NullSpec.pdf_many
        # return the query's shape, each equal bit for bit to the flat call reshaped.
        stats = _two_sided_mixture(101)
        if spec.kind == "precomputed_pvalues":
            stats = to_pvalues(stats, NullSpec.standard_normal(), "two_sided")
        model = fit_cdfdr(stats, spec)
        assert model.pi0 < 1.0
        flat = stats[:6]
        query = flat.reshape(shape)
        cdf = spec.cdf_many if spec.kind != "precomputed_pvalues" else np.atleast_1d
        for density in (lambda q: nonnull_density(model, q),
                        lambda q: spec.pdf_many(q) * eval_comparison_density_many(model.cd_model, cdf(q)),
                        spec.pdf_many):
            out = density(query)
            assert out.shape == shape
            assert np.array_equal(_bits(out), _bits(density(flat)).reshape(shape))


class TestTwoSidedBetaWarning:
    def test_beta_below_one_warns_at_step_2(self):
        with pytest.warns(UserWarning, match=r"^step 2 \(beta fit\).*alpha = .*beta = .*< 1"):
            model = fit_cdfdr(_two_sided_mixture(89), NullSpec.standard_normal(),
                              mode="two_sided")
        assert model.beta_fit.beta < 1.0

    def test_pit_fit_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_cdfdr(_two_sided_mixture(89), NullSpec.standard_normal())
        assert not [w for w in caught if str(w.message).startswith("step 2")]


# Clamp-pinned samples (ROADMAP item 4) whose beta fit stops unconverged:
# at 200 steps, and after 3 at a singular scoring matrix (alpha near 1.7e18).
_UNCONVERGED_FITS = {
    "200-steps": [1.2517002258981547e-10] + [0.0] * 123,
    "singular-scoring-matrix": [0.9999999998963881] + [1.0] * 123,
}


class TestUnconvergedBetaFitWarning:
    @pytest.mark.filterwarnings("ignore:n = 124 is small")
    @pytest.mark.parametrize("name", list(_UNCONVERGED_FITS))
    def test_warns_at_step_2(self, name):
        with pytest.warns(UserWarning, match=r"^step 2 \(beta fit\): the fit stopped unconverged "
                                             r"after \d+ steps at alpha = .*, beta = "):
            model = fit_cdfdr(_UNCONVERGED_FITS[name], NullSpec.precomputed())
        assert not model.beta_fit.converged


class TestNonnullDensity:
    def test_requires_signal(self):
        model = _manual_cdfr_model(1.0, np.zeros(6))
        with pytest.raises(EstimationError):
            nonnull_density(model, 0.3)
        with pytest.raises(EstimationError):
            integrate_nonnull_density(model)

    def test_clipped_weight_region(self):
        model = _manual_cdfr_model(0.97, np.zeros(6))
        # d = 1 everywhere... weight max(0, 1 - 0.97) > 0; shrink pi0 above d
        model_high = _manual_cdfr_model(0.97, [0.0, -0.5, 0.0, 0.0, 0.0, 0.0])
        # near v = 0.5, S_2 < 0 so d > 1 > pi0; at the endpoints d < pi0.
        assert nonnull_density(model_high, 1e-6)[0] == 0.0

    def test_mass_concentrates_in_tails(self):
        stats = _two_sided_mixture(31)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        assert model.pi0 < 1.0
        z = np.linspace(-8.0, 8.0, 1601)
        f1 = nonnull_density(model, z)
        inner = np.trapezoid(np.where(np.abs(z) <= 2.0, f1, 0.0), z)
        outer = np.trapezoid(np.where(np.abs(z) > 2.0, f1, 0.0), z)
        assert outer > inner

    def test_integral_structure(self):
        # The u-substituted library integral equals an independent x-space
        # trapezoid, and clipping makes the mass at least 1.
        stats = _two_sided_mixture(37)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        total = integrate_nonnull_density(model)
        z = np.linspace(-10.0, 10.0, 4001)
        f1 = nonnull_density(model, z)
        assert total == pytest.approx(np.trapezoid(f1, z), abs=5e-3)
        assert total >= 1.0 - 1e-9

    @pytest.mark.parametrize("alpha,beta,theta", [
        # f_B diverges at both endpoints.  The series is negative at both in
        # the first model, so the raw density runs to -inf there; it is
        # positive at both in the second, so the raw density runs to +inf.
        (0.6, 0.6, [0.0, -0.6, 0.0, 0.0, 0.0, 0.0]),
        (0.8, 0.5, [0.1, -0.05, 0.0, 0.02, 0.0, 0.0]),
    ])
    def test_integral_against_scipy_near_diverging_endpoints(self, alpha, beta, theta):
        model = _manual_cdfr_model(0.9, theta, alpha=alpha, beta=beta)
        oracle, _ = sp_integrate.quad(
            lambda u: max(0.0, float(comparison_density_raw_many(
                model.cd_model, np.array([u]))[0]) - 0.9),
            0.0, 1.0, limit=200,
        )
        assert integrate_nonnull_density(model) == pytest.approx(oracle / 0.1, abs=1e-4)

    @pytest.mark.xfail(
        strict=True,
        reason="not reproducible: the clipped mass is 1 + E[(pi0-d)^+]/(1-pi0); "
        "with the minimum-deviance pi0 sitting ~0.03 above the bulk density "
        "level the integral lands near 1.5 (1.18-1.27 even with the true pi0) "
        "for every seed and for one- and two-sided mu=3 variants alike",
    )
    def test_integral_within_documented_tolerance(self):
        stats = _two_sided_mixture(41)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        assert integrate_nonnull_density(model) == pytest.approx(1.0, abs=0.15)


class TestDiscoveries:
    def test_zero_threshold_yields_nothing(self):
        stats = _two_sided_mixture(43)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        report = discoveries(model, stats, threshold=0.0)
        assert report.n_discoveries == 0
        assert report.indices == []

    def test_monotone_in_threshold(self):
        stats = _two_sided_mixture(47)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        previous = set()
        for threshold in (0.05, 0.1, 0.2, 0.5):
            current = set(discoveries(model, stats, threshold=threshold).indices)
            assert previous <= current
            previous = current

    def test_counts_and_split(self):
        stats = _two_sided_mixture(53)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        report = discoveries(model, stats)
        assert [f.name for f in dataclasses.fields(report)] == ["threshold", "indices", "n_left"]
        assert 0 < report.n_left < report.n_discoveries
        _assert_report(report, stats, local_fdr_many(model, stats), 0.0)

    def test_discovers_planted_signal(self):
        stats = _two_sided_mixture(59, mu=4.0)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        report = discoveries(model, stats)
        assert report.n_discoveries > 0
        # Every discovery should be an extreme statistic.
        assert np.all(np.abs(stats[report.indices]) > 2.0)

    def test_bad_threshold(self):
        model = _manual_cdfr_model(0.9, np.zeros(6))
        with pytest.raises(ConfigError):
            discoveries(model, np.array([0.5]), threshold=1.5)


class TestLeukemiaDataset:
    def test_expression_pvalues_if_supplied(self):
        # Runs only against the user-supplied two-sample-test p-value CSV
        # for the 7129-gene leukemia study (see README for the format).
        import os

        path = os.environ.get("CDFDR_GOLUB_CSV", "")
        if not path or not os.path.exists(path):
            pytest.skip("leukemia p-value CSV not supplied")
        import csv as _csv

        with open(path, encoding="utf-8", newline="") as handle:
            reader = _csv.reader(handle)
            header = [h.strip() for h in next(reader)]
            col = header.index("pvalue") if "pvalue" in header else 0
            u = np.array([float(row[col]) for row in reader if row])
        model = fit_cdfdr(u, NullSpec.precomputed())
        assert model.beta_fit.alpha == pytest.approx(0.32, abs=0.02)
        assert model.beta_fit.beta == pytest.approx(0.75, abs=0.02)
        assert model.cd_model.coeffs.selected() == [3]
        assert model.cd_model.coeffs.theta_hat[2] == pytest.approx(-0.16, abs=0.015)


class TestUofT:
    def test_precomputed_identity(self):
        model = _manual_cdfr_model(0.9, np.zeros(6))
        assert evaluate(model, 0.37).u.tolist() == [0.37]

    def test_pit_matches_null_cdf(self):
        stats = _two_sided_mixture(61)
        model = fit_cdfdr(stats, NullSpec.standard_normal())
        t = np.array([-2.0, 0.0, 1.5])
        assert evaluate(model, t).u.tolist() == [normal_cdf_many(ti)[0] for ti in t]


_BUDGET_N = 200_000


@functools.lru_cache(maxsize=None)
def _budget_inputs():
    """t statistics on 30 df, 10% shifted by 3, their z scores, p-values in
    (0, 1), and a two-sided fit of the z scores, at ``_BUDGET_N`` cases."""
    rng = np.random.Generator(np.random.Philox(3))
    t = rng.standard_t(30.0, _BUDGET_N) + np.where(rng.random(_BUDGET_N) < 0.1, 3.0, 0.0)
    z = t_to_z(t, 30.0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "step 2 \\(beta fit\\)")
        model = fit_cdfdr(z, NullSpec.standard_normal(), mode="two_sided")
    return t, z, rng.random(_BUDGET_N), model


def _budget_call(name):
    t, z, u, model = _budget_inputs()
    fit = model.beta_fit
    return {
        "student_t_cdf_many": lambda: special.student_t_cdf_many(t, 30.0),
        "normal_cdf_many": lambda: special.normal_cdf_many(z),
        "normal_quantile_many": lambda: special.normal_quantile_many(u),
        "beta_cdf_many": lambda: special.beta_cdf_many(u, fit.alpha, fit.beta),
        "beta_pdf_many": lambda: special.beta_pdf_many(u, fit.alpha, fit.beta),
        "smooth_pvalues": lambda: smooth_pvalues(u, fit),
        "t_to_z": lambda: t_to_z(t, 30.0),
        "to_pvalues-pit": lambda: to_pvalues(z, NullSpec.standard_normal(), "pit"),
        "to_pvalues-two_sided": lambda: to_pvalues(z, NullSpec.standard_normal(), "two_sided"),
        "fit_cdfdr": lambda: fit_cdfdr(z, NullSpec.standard_normal(), mode="two_sided"),
        "evaluate": lambda: evaluate(dataclasses.replace(model, fitted=None), z),
        "estimate_pi0": lambda: estimate_pi0(model.fitted.u, model.fitted.d),
    }[name]


class TestAllocationBudget:
    """The per-case steps work in blocks and allocate little beyond their
    result: each call's tracemalloc peak at 200,000 cases stays within its
    budget, in units of one float array of that length (8 bytes a case)."""

    @pytest.mark.parametrize("name, budget", [
        ("student_t_cdf_many", 2.5),
        ("normal_cdf_many", 2.0),
        ("normal_quantile_many", 2.5),
        ("beta_cdf_many", 2.5),
        ("beta_pdf_many", 1.5),
        ("smooth_pvalues", 3.5),
        ("t_to_z", 3.5),
        ("to_pvalues-pit", 3.0),
        ("to_pvalues-two_sided", 3.0),
        ("fit_cdfdr", 7.0),
        ("evaluate", 5.5),
        # 3.48 when the scan ordered by argsort; a key array beside the order would add 1.
        ("estimate_pi0", 3.5),
    ])
    def test_peak_within_budget(self, name, budget):
        call = _budget_call(name)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "step 2 \\(beta fit\\)")
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak / (8 * _BUDGET_N) <= budget
