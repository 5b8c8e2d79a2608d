"""Special-function accuracy against independently computed references.

Reference values were frozen from 50-digit mpmath evaluations (erf/erfc,
quadrature of the t density, digamma series) before the implementation was
written; scipy appears only as a second live oracle, in spot checks and in
the property tests at the end.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import special as sp_special
from scipy import stats as sp_stats

from cdfdr import special
from cdfdr.betafit import BetaFit
from cdfdr.density import CoefficientSet, ComparisonDensityModel, eval_comparison_density_many
from cdfdr.errors import DomainError
from cdfdr.pipeline import NullSpec, t_to_z, to_pvalues
from cdfdr.quadrature import integrate_unit
from cdfdr.special import (
    _ANORM_CENTRE,
    _ANORM_ROOT32,
    _BLOCK,
    _CF_MAX_ITER,
    _FLOAT_MAX,
    _betacf_many,
    _bfrac,
    beta_cdf_many,
    beta_pdf_many,
    digamma,
    log_beta,
    normal_cdf_many,
    normal_pdf_many,
    normal_quantile_many,
    student_t_cdf_many,
    student_t_pdf_many,
    trigamma,
)
from beta_cdf_table import BETA_CDF, BETA_CDF_BOUNDS
from normal_tables import (
    NORMAL_CDF,
    NORMAL_CDF_BOUNDS,
    NORMAL_PDF,
    NORMAL_PDF_BOUNDS,
    NORMAL_QUANTILE,
    NORMAL_QUANTILE_BOUNDS,
    STUDENT_T_PDF,
    STUDENT_T_PDF_BOUNDS,
)
from student_t_cdf_table import STUDENT_T_CDF, STUDENT_T_CDF_BOUNDS
from t_to_z_table import T_TO_Z, T_TO_Z_BOUNDS, TWO_SIDED_U, TWO_SIDED_U_BOUNDS

# Frozen from mpmath (dps=50): Phi(z) = erfc(-z/sqrt 2)/2.
NORMAL_CDF_REF = {
    -8.0: 6.220960574271784123516e-16,
    -6.0: 9.865876450376981407009e-10,
    -4.0: 3.167124183311992125377e-05,
    -3.0: 0.001349898031630094526652,
    -2.0: 0.02275013194817920720028,
    -1.0: 0.1586552539314570514148,
    -0.5: 0.3085375387259868963623,
    0.5: 0.6914624612740131036377,
    1.0: 0.8413447460685429485852,
    2.0: 0.9772498680518207927997,
    3.0: 0.9986501019683699054733,
    4.0: 0.9999683287581668800787,
    6.0: 0.9999999990134123549623,
    8.0: 0.9999999999999993779039,
    -1.959964: 0.0249999990964424043025,
}

# Frozen from mpmath: CDF of the t distribution by integrating its density.
STUDENT_T_CDF_REF = [
    (2.0, 100.0, 0.9758939106344331602),
    (0.5, 3.0, 0.6742760175759245027825),
    (-1.5, 7.0, 0.0886492434949850165771),
    (2.5, 30.0, 0.9909421754659666529491),
    (-3.0, 0.5, 0.1836540779929717240992),
    (1.0, 2.0, 0.7886751345948128822546),
    (4.2, 15.0, 0.9996135483250368685529),
    (-0.3, 200.0, 0.3822443650946639891121),
    (-7.0, 4.0, 0.001096064903346469495824),
]

# Frozen from mpmath digamma.
DIGAMMA_REF = [
    (0.1, -10.42375494041107679517),
    (0.32, -3.271742356795996017318),
    (0.75, -1.085860879786472169627),
    (1.0, -0.5772156649015328606065),
    (1.5, 0.03648997397857652055902),
    (2.0, 0.4227843350984671393935),
    (3.7, 1.167153539361511385874),
    (10.0, 2.251752589066721107647),
    (25.5, 3.218942472883919766545),
]

# Frozen from mpmath regularized incomplete beta.
BETA_CDF_REF = [
    (0.5, 0.81, 0.82, 0.5040070337036162534395),
    (0.1, 0.32, 0.75, 0.4235801144443410931337),
    (0.9, 0.32, 0.75, 0.9312170411460530176824),
    (0.25, 2.0, 5.0, 0.466064453125),
    (0.77, 5.0, 2.0, 0.581958593755),
    (0.5, 0.3, 0.3, 0.5),
    (0.02, 0.81, 0.82, 0.0354171150914916652561),
    (1e-6, 0.5, 0.5, 0.0006366198784709244841838),
]


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf_many(0.0)[0] == 0.5

    def test_derived_quantile_point(self):
        assert normal_cdf_many(1.959964)[0] == pytest.approx(0.975, abs=1e-6)

    @pytest.mark.parametrize("z,ref", sorted(NORMAL_CDF_REF.items()))
    def test_reference_grid(self, z, ref):
        assert normal_cdf_many(z)[0] == pytest.approx(ref, rel=1e-12)

    def test_far_tail_positive(self):
        # Subnormal but positive at -38; exact underflow starts near -39,
        # which is the documented behavior.
        assert normal_cdf_many(-38.0)[0] > 0.0

    def test_nondecreasing_on_grid(self):
        grid = np.linspace(-12.0, 12.0, 10_000)
        values = normal_cdf_many(grid)
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] <= 1e-9 and values[-1] >= 1.0 - 1e-9

    def test_nonfinite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                normal_cdf_many(bad)
            with pytest.raises(DomainError):
                normal_cdf_many([0.3, bad])


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile_many(0.5)[0] == 0.0

    def test_derived_point(self):
        assert normal_quantile_many(0.975)[0] == pytest.approx(1.959964, abs=1e-6)
        assert normal_quantile_many(0.975)[0] == pytest.approx(1.9599639845400542355, rel=1e-13)

    def test_round_trip_through_cdf(self):
        for p in [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-9]:
            assert normal_cdf_many(normal_quantile_many(p))[0] == pytest.approx(p, abs=1e-9)

    def test_inverse_identity_on_grid(self):
        for x in np.linspace(-6.0, 6.0, 121):
            assert normal_quantile_many(normal_cdf_many(x))[0] == pytest.approx(x, abs=1e-8)

    def test_boundaries_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                normal_quantile_many(p)
            with pytest.raises(DomainError):
                normal_quantile_many([0.3, p])


class TestStudentT:
    def test_symmetry_at_zero(self):
        for df in (0.5, 1.0, 3.0, 100.0):
            assert student_t_cdf_many(0.0, df)[0] == 0.5

    def test_cauchy_closed_form(self):
        # df=1 is the Cauchy law: F(t) = 1/2 + atan(t)/pi.
        assert student_t_cdf_many(1.0, 1.0)[0] == pytest.approx(0.75, rel=1e-12)
        for t in (-4.0, -0.7, 0.3, 2.0, 9.0):
            assert student_t_cdf_many(t, 1.0)[0] == pytest.approx(
                0.5 + math.atan(t) / math.pi, rel=1e-12
            )

    def test_integration_oracle_point(self):
        assert student_t_cdf_many(2.0, 100.0)[0] == pytest.approx(0.975903, abs=1e-5)

    @pytest.mark.parametrize("t,df,ref", STUDENT_T_CDF_REF)
    def test_reference_grid(self, t, df, ref):
        assert student_t_cdf_many(t, df)[0] == pytest.approx(ref, rel=1e-10)

    def test_monotone_and_limits(self):
        grid = np.concatenate([[-1e10], np.linspace(-40, 40, 10_000), [1e10]])
        values = student_t_cdf_many(grid, 1.0)
        assert np.all(np.diff(values) >= 0.0)
        assert values[0] <= 1e-9 and values[-1] >= 1.0 - 1e-9

    def test_bad_df_rejected(self):
        for df in (0.0, -1.0, math.nan, math.inf, np.float32("inf"), True, np.True_, None, "3"):
            with pytest.raises(DomainError, match="df must be finite and positive"):
                student_t_cdf_many(1.0, df)
            with pytest.raises(DomainError, match="df must be finite and positive"):
                student_t_pdf_many(1.0, df)

    def test_numpy_scalar_df_is_the_float(self):
        t = np.linspace(-8.0, 8.0, 101)
        for df in (np.float64(5.0), np.int64(5), np.float32(5.0), 5):
            assert np.array_equal(student_t_cdf_many(t, df), student_t_cdf_many(t, 5.0))
            assert np.array_equal(student_t_pdf_many(t, df), student_t_pdf_many(t, 5.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("df", [0.5, 7.0, 30.0, 1e4, 1e100, 1e160, 1e300])
    def test_square_overflow_gives_limits_without_warning(self, df):
        # t * t overflows at |t| = 1e200: the CDF and density take their
        # limits, and t_to_z the quantile of its clamped tail, mirrored for
        # t > 0, with no RuntimeWarning.
        # From df 1e100 on, so do t = +-1e40 and +-1e80: the fraction's terms
        # overflow above df 2.7e154, and sqrt(2z) in the expansion passes 1e40.
        t = [-1e200, 1e200]
        if df >= 1e100:
            t = [-1e200, -1e80, -1e40, 1e40, 1e80, 1e200]
        half = len(t) // 2
        assert student_t_cdf_many(t, df).tolist() == [0.0] * half + [1.0] * half
        assert student_t_pdf_many(t, df).tolist() == [0.0] * len(t)
        z = normal_quantile_many(1e-15)[0]
        assert t_to_z(t, df).tolist() == [z] * half + [-z] * half

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t, df", [(1e154, 1.5e308), (1.2e154, 1.7e308)])
    def test_sum_overflow_gives_limits_without_warning(self, t, df):
        # t^2 is finite but df + t^2 overflows, so y and yc are both 0 and
        # the front factor is 0.  The limits are right: the t distribution
        # has unit scale, so |t| = 1e154 lies about 1e154 standard deviations
        # out.  (Phi(-t/sqrt(df)) = 0.207 is the CDF of t/sqrt(df), not of t:
        # at the same ratio, t = -820 at df 1e6 has a CDF of 5.2e-111674 by
        # mpmath.)
        assert student_t_cdf_many([-t, t], df).tolist() == [0.0, 1.0]
        assert student_t_pdf_many([-t, t], df).tolist() == [0.0, 0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_df_gives_the_normal_cdf(self):
        # 2 a pi in the expansion's constant overflows from df 5.7e307 on.
        t = [-1e40, -1.0, 0.0, 1.0, 1e40]
        assert student_t_cdf_many(t, _FLOAT_MAX) == pytest.approx(normal_cdf_many(t), rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("df", [1e301, 1.5e308])
    def test_pdf_at_huge_df_gives_the_normal_density(self, df):
        # The Veltkamp split of (df + 1)/2 overflows from df 2.7e300 on.
        t = [-3.0, -1.0, 0.0, 0.5, 1.0]
        assert student_t_pdf_many(t, df) == pytest.approx(normal_pdf_many(t), rel=1e-15)

    def test_pdf_matches_numeric_derivative(self):
        for t, df in [(0.0, 5.0), (1.3, 5.0), (-2.0, 12.0)]:
            h = 1e-6
            lower, upper = student_t_cdf_many([t - h, t + h], df)
            numeric = (upper - lower) / (2 * h)
            assert student_t_pdf_many(t, df)[0] == pytest.approx(numeric, rel=1e-7)


class TestGammaFamily:
    def test_digamma_at_one_is_minus_euler(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015328606065, abs=1e-8)

    @pytest.mark.parametrize("x,ref", DIGAMMA_REF)
    def test_digamma_reference(self, x, ref):
        assert digamma(x) == pytest.approx(ref, rel=1e-10)

    def test_digamma_recurrence(self):
        # psi(x+1) = psi(x) + 1/x
        for x in (0.17, 0.9, 3.2, 7.7):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)

    def test_trigamma_against_scipy(self):
        for x in (0.2, 0.81, 1.0, 2.5, 11.0, 40.0):
            assert trigamma(x) == pytest.approx(float(sp_special.polygamma(1, x)), rel=1e-10)

    @pytest.mark.parametrize("x", [1e-160, 1e-300, 5e-324])
    def test_trigamma_overflows_to_inf_for_tiny_arguments(self, x):
        # psi'(x) ~ 1/x**2 exceeds the largest double below x ~ 7.5e-155, so
        # the rounded value is inf, also where x*x underflows to zero.
        assert trigamma(x) == math.inf

    def test_domain_errors(self):
        for fn in (digamma, trigamma):
            for x in (0.0, -1.0, math.nan):
                with pytest.raises(DomainError):
                    fn(x)


class TestBetaDistribution:
    def test_uniform_case(self):
        for u in np.linspace(0.0, 1.0, 11):
            assert beta_pdf_many(u, 1.0, 1.0)[0] == pytest.approx(1.0, rel=1e-14)
        assert beta_cdf_many(0.5, 1.0, 1.0)[0] == pytest.approx(0.5, rel=1e-14)

    def test_prostate_preflattener_display(self):
        # The published assembled estimate writes the normalizer as 0.68 and
        # the exponents as -0.19/-0.18; the exact normalizer is
        # 1/B(0.81, 0.82) = 0.68102 (verified through math.lgamma first).
        ln_b = math.lgamma(0.81) + math.lgamma(0.82) - math.lgamma(1.63)
        assert math.exp(-ln_b) == pytest.approx(0.6810193174868691204587, rel=1e-12)
        assert math.exp(-ln_b) == pytest.approx(0.68, abs=0.005)
        for u in np.arange(0.1, 0.95, 0.1):
            display = 0.68 * u ** (-0.19) * (1.0 - u) ** (-0.18)
            assert beta_pdf_many(u, 0.81, 0.82)[0] == pytest.approx(display, abs=1e-2)

    @pytest.mark.parametrize("x,a,b,ref", BETA_CDF_REF)
    def test_cdf_reference(self, x, a, b, ref):
        assert beta_cdf_many(x, a, b)[0] == pytest.approx(ref, rel=1e-12)

    def test_cdf_endpoints_and_monotonicity(self):
        for a, b in [(0.3, 0.7), (1.0, 1.0), (2.0, 5.0), (0.81, 0.82)]:
            assert beta_cdf_many(0.0, a, b)[0] == 0.0
            assert beta_cdf_many(1.0, a, b)[0] == 1.0
            grid = np.linspace(0.0, 1.0, 10_000)
            values = beta_cdf_many(grid, a, b)
            assert np.all(np.diff(values) >= 0.0)
            # Strict increase wherever the value is more than an ulp away
            # from the saturation plateaus at 0 and 1.
            interior = (values[:-1] > 1e-300) & (values[1:] < 1.0 - 1e-15)
            assert np.all(np.diff(values)[interior] > 0.0)

    def test_pdf_boundary_sentinels(self):
        assert beta_pdf_many(0.0, 0.5, 2.0)[0] == math.inf
        assert beta_pdf_many(1.0, 2.0, 0.5)[0] == math.inf
        assert beta_pdf_many(0.0, 2.0, 0.5)[0] == 0.0
        assert beta_pdf_many(0.0, 1.0, 3.0)[0] == pytest.approx(3.0, rel=1e-12)
        # CDF never returns the infinity sentinel.
        assert beta_cdf_many(0.0, 0.5, 0.5)[0] == 0.0
        assert beta_cdf_many(1.0, 0.5, 0.5)[0] == 1.0

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("b", [0.3, 0.5, 0.8, 1.0, 2.0, 5.0])
    def test_pdf_integrates_to_one(self, a, b):
        # Endpoint singularities for shapes < 1 are handled by the dyadic
        # grading plus reflection of the integrator.
        total = integrate_unit(
            lambda u: beta_pdf_many(u, a, b),
            lambda w: beta_pdf_many(w, b, a),
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_integral_against_scipy_quad(self):
        # Independent adaptive-quadrature oracle on a singular case.
        val, err = sp_integrate.quad(
            lambda u: beta_pdf_many(u, 0.3, 0.8)[0], 0.0, 1.0, points=[0.0], limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_scalar_matches_vector(self):
        rng = np.random.Generator(np.random.Philox(7))
        u = rng.random(64)
        vec = beta_cdf_many(u, 0.81, 0.82)
        for i in range(u.size):
            assert beta_cdf_many(u[i], 0.81, 0.82)[0] == vec[i]

    def test_incomplete_beta_symmetry(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)
        for x, a, b in [(0.3, 0.7, 2.2), (0.9, 5.0, 0.4)]:
            assert beta_cdf_many(x, a, b)[0] == pytest.approx(
                1.0 - beta_cdf_many(1.0 - x, b, a)[0], rel=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            beta_pdf_many(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            beta_cdf_many(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            beta_pdf_many(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            beta_cdf_many(0.5, 1.0, -2.0)


def _table(text):
    """A frozen table's rows as arrays: x, and its reference as head + tail."""
    rows = [line.split() for line in text.splitlines() if line]
    x = np.array([float(a) for a, _ in rows])
    head = np.array([float(r) for _, r in rows])
    tail = np.array([float(Decimal(r) - Decimal(float(r))) for _, r in rows])
    return x, head, tail


def _ulp_errors(values, head, tail):
    """|value - reference| in ulps of the reference (2^-1074 at a reference of 0)."""
    unit = np.where(head == 0.0, 2.0 ** -1074, np.spacing(np.abs(head)))
    return np.abs((values - head) - tail) / unit


def _max_ulp_error(kernel, text):
    x, head, tail = _table(text)
    return _ulp_errors(kernel(x), head, tail).max()


def _walk(centre, step, n=1000):
    """2n + 1 points at ``step`` ulps of ``centre`` apart, centred on it."""
    return centre + np.spacing(abs(centre)) * step * np.arange(-n, n + 1)


class TestNormalKernels:
    """Each kernel against the frozen mpmath tables, within each band's bound:
    the largest error of the one-float-at-a-time libm path on the same points."""

    @pytest.mark.parametrize("band", sorted(NORMAL_CDF))
    def test_cdf_table(self, band):
        assert _max_ulp_error(normal_cdf_many, NORMAL_CDF[band]) <= NORMAL_CDF_BOUNDS[band]

    def test_cdf_within_8_ulp(self):
        x, head, tail = _table("\n".join(NORMAL_CDF.values()))
        inside = (x >= -38.0) & (x <= 8.5)
        assert _ulp_errors(normal_cdf_many(x[inside]), head[inside], tail[inside]).max() <= 8.0

    def test_cdf_symmetric(self):
        # Phi(z) + Phi(-z) is 1 to within an ulp: both tails are formed from
        # the one value Phi(-|z|), and the centre from 1/2 +- c z.
        z = np.concatenate([np.linspace(0.0, 8.0, 20_001), _table(NORMAL_CDF["centre"])[0]])
        total = normal_cdf_many(z) + normal_cdf_many(-z)
        assert np.max(np.abs(total - 1.0)) <= 2.0 ** -53

    @pytest.mark.parametrize("edge", [-_ANORM_ROOT32, -0.66291, 0.66291, _ANORM_ROOT32])
    def test_cdf_nondecreasing_on_ulp_walks(self, edge):
        # 2,000-ulp walks at 1-ulp steps across sqrt(32) and across Cody's
        # original centre split, which now lies inside the compensated centre.
        assert np.all(np.diff(normal_cdf_many(_walk(edge, 1))) >= 0.0)

    @pytest.mark.parametrize("edge", [-_ANORM_CENTRE, _ANORM_CENTRE])
    def test_cdf_nondecreasing_across_centre_split(self, edge):
        # Near the centre a step of one ulp in z moves Phi by under an ulp, and
        # the tail branch is a few ulps off, so the walk steps 4 ulps at a time.
        assert np.all(np.diff(normal_cdf_many(_walk(edge, 4))) >= 0.0)

    def test_quantile_branch_breakpoints(self):
        assert _max_ulp_error(normal_quantile_many, NORMAL_QUANTILE["edge"]) \
            <= NORMAL_QUANTILE_BOUNDS["edge"]

    def test_quantile_at_clamp(self):
        assert _max_ulp_error(normal_quantile_many, NORMAL_QUANTILE["clamp"]) \
            <= NORMAL_QUANTILE_BOUNDS["clamp"]

    def test_quantile_across_newton_cutoff(self):
        # The refinement step is skipped where exp(x^2/2) would overflow.
        _, head, _ = _table(NORMAL_QUANTILE["newton_cutoff"])
        assert np.any(head * head < 1400.0) and np.any(head * head >= 1400.0)
        assert _max_ulp_error(normal_quantile_many, NORMAL_QUANTILE["newton_cutoff"]) \
            <= NORMAL_QUANTILE_BOUNDS["newton_cutoff"]

    def test_quantile_on_seeded_grid(self):
        for band in ("lower", "centre", "upper"):
            assert _max_ulp_error(normal_quantile_many, NORMAL_QUANTILE[band]) \
                <= NORMAL_QUANTILE_BOUNDS[band], band

    @pytest.mark.parametrize("edge", [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)])
    def test_quantile_nondecreasing_across_branch_switches(self, edge):
        # AS241's centre ends at |p - 1/2| = 0.425 and its near tail at
        # p = e^-25, on either side of 1/2.  Just below 0.075 a one-ulp step
        # of p moves x by about half an ulp, less than the refined tail's
        # rounding, so the walk steps 8 ulps at a time.  Both tail branches are
        # refined: refining only beyond e^-25, the e^-25 walk falls 10 times.
        assert np.all(np.diff(normal_quantile_many(_walk(edge, 8))) >= 0.0)

    @pytest.mark.parametrize("df", [3.0, 30.0, 100.0, 1e4])
    def test_t_to_z_table(self, df):
        for band in ("zero", "body", "lower", "upper"):
            key = f"{df!r}/{band}"
            assert _max_ulp_error(lambda t: t_to_z(t, df), T_TO_Z[key]) <= T_TO_Z_BOUNDS[key], key

    def test_two_sided_u_table(self):
        null = NullSpec.standard_normal()
        for band, text in TWO_SIDED_U.items():
            assert _max_ulp_error(lambda z: to_pvalues(z, null, "two_sided"), text) \
                <= TWO_SIDED_U_BOUNDS[band], band

    def test_cdf_through_underflow(self):
        # Subnormal from z = -37.52; exactly 0.0 from z = -38.48528.
        z = np.concatenate([np.linspace(-40.0, -36.0, 4001), np.linspace(-9.0, 9.0, 4001)])
        values = normal_cdf_many(z)
        assert np.all(values[z <= -38.4854] == 0.0) and values[z >= -38.4852].min() > 0.0
        assert _max_ulp_error(normal_cdf_many, NORMAL_CDF["underflow"]) \
            <= NORMAL_CDF_BOUNDS["underflow"]

    def test_pdf_on_seeded_grid(self):
        for band, text in NORMAL_PDF.items():
            assert _max_ulp_error(normal_pdf_many, text) <= NORMAL_PDF_BOUNDS[band], band

    def test_pdf_within_2_ulp(self):
        # exp(-z^2/2) of an exactly split z^2: no argument rounding in the tails.
        assert _max_ulp_error(normal_pdf_many, "\n".join(NORMAL_PDF.values())) <= 2.0

    @pytest.mark.parametrize("df", [1.0, 3.5, 30.0, 1e4])
    def test_student_t_pdf_on_seeded_grid(self, df):
        for band in ("below_2", "2_to_20", "above_20"):
            key = f"{df!r}/{band}"
            assert _max_ulp_error(lambda t: student_t_pdf_many(t, df), STUDENT_T_PDF[key]) \
                <= STUDENT_T_PDF_BOUNDS[key], key

    def test_pdf_rejects_nonfinite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                normal_pdf_many([0.3, bad])
            with pytest.raises(DomainError):
                student_t_pdf_many([0.3, bad], 5.0)

    def test_against_scipy(self):
        z = np.linspace(-37.0, 8.5, 100_001)
        np.testing.assert_allclose(normal_cdf_many(z), sp_special.ndtr(z), rtol=1e-12, atol=0)
        lower = np.geomspace(1e-300, 0.5, 100_001)
        np.testing.assert_allclose(normal_quantile_many(lower), sp_special.ndtri(lower),
                                   rtol=1e-12, atol=0)
        # Above 1/2 the quantile inverts the exact 1 - p, as ndtri does.
        upper = 1.0 - np.geomspace(1e-15, 0.5, 100_001)
        np.testing.assert_allclose(normal_quantile_many(upper), sp_special.ndtri(upper),
                                   rtol=1e-12, atol=0)


_reals = st.floats(-60.0, 60.0, allow_nan=False)
_unit = st.floats(0.0, 1.0)
_open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_shape = st.floats(0.05, 50.0)


@settings(max_examples=60, deadline=None)
@given(z=st.lists(_reals, min_size=1, max_size=12),
       p=st.lists(_open_unit, min_size=1, max_size=12),
       u=st.lists(_unit, min_size=1, max_size=12),
       alpha=_shape, beta=_shape, df=st.floats(0.5, 300.0))
def test_kernels_are_batch_independent(z, p, u, alpha, beta, df):
    # Each kernel at a one-element array is the same element of a batch, bit
    # for bit, whatever else shares the batch.
    kernels = [
        (normal_cdf_many, z), (normal_quantile_many, p), (normal_pdf_many, z),
        (lambda x: student_t_cdf_many(x, df), z), (lambda x: student_t_pdf_many(x, df), z),
        (lambda x: beta_cdf_many(x, alpha, beta), u), (lambda x: beta_pdf_many(x, alpha, beta), u),
    ]
    for kernel, xs in kernels:
        assert [kernel(np.array([x]))[0] for x in xs] == kernel(np.array(xs)).tolist()


def _whole_array_betacf(a, b, x):
    """Reference Lentz continued fraction over the whole array at once, as
    ``_betacf_many`` computed it before it ran in blocks."""
    fpmin, eps = 1e-300, 1e-15
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, fpmin, where=np.abs(d) < fpmin)
    d = 1.0 / d
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, 501):
        frozen = ~active
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, fpmin, where=np.abs(d) < fpmin)
        c = 1.0 + aa / c
        np.copyto(c, fpmin, where=np.abs(c) < fpmin)
        d = 1.0 / d
        even = d * c
        np.copyto(even, 1.0, where=frozen)
        h *= even
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, fpmin, where=np.abs(d) < fpmin)
        c = 1.0 + aa / c
        np.copyto(c, fpmin, where=np.abs(c) < fpmin)
        d = 1.0 / d
        delta = d * c
        np.copyto(delta, 1.0, where=frozen)
        h *= delta
        active = np.abs(delta - 1.0) >= eps
        if not np.any(active):
            break
    return h


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


_BLOCK_SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7]


_BLOCKED_KERNELS = ["cdf", "pdf", "quantile", "t_cdf", "t_cdf_df5", "beta_cdf",
                    "beta_cdf_series", "beta_pdf", "density"]

def _blocked_kernel_input(kernel, shape, seed):
    """The kernel named ``kernel`` and a seeded input for it: z over every Phi
    branch and into the underflow, p in (0, 1) for the quantile, t or u with
    lanes on both sides of the incomplete beta's pivot (or of 1/2, for its
    power series) in every block, and u with both ends for the beta density
    and the comparison density."""
    rng = np.random.Generator(np.random.Philox(seed))
    if kernel == "quantile":
        return normal_quantile_many, rng.random(shape) * (1.0 - 2e-16) + 1e-16
    if kernel in ("cdf", "pdf"):
        return {"cdf": normal_cdf_many, "pdf": normal_pdf_many}[kernel], rng.normal(0.0, 10.0, shape)
    if kernel == "t_cdf":
        # At df = 100 the asymptotic expansion takes |t| <= 6.55 and the
        # continued fraction the rest, all below its pivot.
        return (lambda t: student_t_cdf_many(t, 100.0)), rng.normal(0.0, 3.0, shape)
    if kernel == "t_cdf_df5":
        # At df = 5 every lane takes the continued fraction, and each block
        # holds lanes on both sides of its pivot, at |t| = 1.46.
        return (lambda t: student_t_cdf_many(t, 5.0)), rng.normal(0.0, 3.0, shape)
    u = rng.random(shape)
    u.flat[::997] = 0.0
    u.flat[1::997] = 1.0
    if kernel == "beta_cdf":
        return (lambda x: beta_cdf_many(x, 2.5, 0.7)), u  # pivot at 0.67
    if kernel == "beta_cdf_series":
        return (lambda x: beta_cdf_many(x, 0.59, 0.79)), u  # power series, both sides of 1/2
    if kernel == "beta_pdf":
        return (lambda x: beta_pdf_many(x, 1.0, 0.6)), u  # patched at u = 0
    theta = np.array([0.1, -0.05, 0.02, 0.0, 0.01, 0.0])
    model = ComparisonDensityModel(
        fit=BetaFit(alpha=0.7, beta=1.3, log_likelihood=0.0, n=1000, iterations=0,
                    converged=True),
        coeffs=CoefficientSet(m=6, theta_tilde=theta, theta_hat=theta, n=1000,
                              threshold=0.0))
    return (lambda x: eval_comparison_density_many(model, x)), u


class TestBlockedKernels:
    """The continued fraction, which freezes each lane at its own
    convergence, equals its whole-array form, and the kernels that run in
    blocks of ``_BLOCK`` lanes (the normal, t and beta kernels and the
    comparison density) equal their one-element calls, bit for bit,
    whatever the length and shape."""

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("a, b", [(2.5, 0.7), (50.0, 0.5), (0.5, 50.0)])
    def test_continued_fraction(self, n, a, b):
        # Points spread below the pivot: lanes near it take hundreds of
        # iterations (a = 50, b = 0.5 is the t CDF's case at df = 100),
        # lanes near 0 freeze within a few, so lanes stop at different steps.
        rng = np.random.Generator(np.random.Philox(n))
        x = rng.random(n) * (a + 1.0) / (a + b + 2.0)
        _assert_same_bits(_betacf_many(a, b, x), _whole_array_betacf(a, b, x))

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025])
    def test_continued_fraction_packs(self, n):
        # Cubed points freeze at every step from the first to the last, each
        # lane keeping its value from the step at which it froze.
        rng = np.random.Generator(np.random.Philox(n + 3))
        x = rng.random(n) ** 3 * 51.0 / 52.5
        _assert_same_bits(_betacf_many(50.0, 0.5, x), _whole_array_betacf(50.0, 0.5, x))

    @pytest.mark.parametrize("n", [3072, _BLOCK + 5])
    @pytest.mark.parametrize("x0", [0.3, 1e-12])
    def test_continued_fraction_lanes_freezing_together(self, n, x0):
        # Equal points freeze at the same step, all of them at once.
        x = np.full(n, x0)
        _assert_same_bits(_betacf_many(2.5, 0.7, x), _whole_array_betacf(2.5, 0.7, x))

    @pytest.mark.parametrize("n", [3072, _BLOCK + 5])
    def test_continued_fraction_lanes_at_max_iterations(self, n):
        # At a = b = 1e6, points within 1e-6 of the pivot (relatively) do not
        # converge in _CF_MAX_ITER steps; they are mixed with points that
        # freeze within a few, and keep their value after the last step.
        a = b = 1e6
        pivot = (a + 1.0) / (a + b + 2.0)
        rng = np.random.Generator(np.random.Philox(n + 5))
        slow = rng.random(n) < 0.1
        x = np.where(slow, pivot * (1.0 - 1e-6 * rng.random(n)), pivot * 0.9 * rng.random(n))
        assert _CF_MAX_ITER == 500  # the reference runs 500 steps
        _assert_same_bits(_betacf_many(a, b, x), _whole_array_betacf(a, b, x))

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("kernel", _BLOCKED_KERNELS)
    def test_one_element_equals_batch(self, n, kernel):
        # Lanes at and around each block edge, and a seeded sample of the rest.
        f, x = _blocked_kernel_input(kernel, (n,), n + 1)
        batch = f(x)
        edges = np.arange(0, n, _BLOCK)
        picks = np.unique(np.concatenate([edges, edges - 1, edges + 1, [n - 1],
                                          np.random.Generator(np.random.Philox(n)).integers(0, n, 200)]))
        picks = picks[(picks >= 0) & (picks < n)]
        _assert_same_bits(np.array([f(x[i:i + 1])[0] for i in picks]), batch[picks])

    @pytest.mark.parametrize("kernel", _BLOCKED_KERNELS)
    def test_one_element_equals_batch_2d(self, kernel):
        f, x = _blocked_kernel_input(kernel, (_BLOCK + 3, 2), 67)
        values = f(x)
        _assert_same_bits(values, f(x.ravel()).reshape(x.shape))
        _assert_same_bits(f(x.T), values.T)
        _assert_same_bits(f(x[5:6, 1:2]), values[5:6, 1:2])


def _two_sided_input(a, b, n, split, seed):
    """x and xc = 1 - x at shapes (a, b): the first ``split`` lanes of x
    below the pivot, the rest of xc below the reflected pivot, cubed so that
    lanes freeze from the first step to the last."""
    rng = np.random.Generator(np.random.Philox(seed))
    lo = rng.random(n) ** 3
    lo[:split] *= (a + 1.0) / (a + b + 2.0)
    lo[split:] *= (b + 1.0) / (a + b + 2.0)
    hi = 1.0 - lo
    return np.concatenate([lo[:split], hi[split:]]), np.concatenate([hi[:split], lo[split:]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTwoSidedContinuedFraction:
    """The continued fraction takes one side of the pivot a call
    (:func:`_bfrac`): I_x(a, b) below it and I_xc(b, a) on the reflected
    lanes each equal the whole-array fraction bit for bit, an empty side
    included, and leave their lanes as they were.  ``beta_cdf_many`` equals
    the two-branch evaluation whether its below-pivot lanes end just before,
    at or just after a block edge."""

    _N = 2 * _BLOCK + 7

    @pytest.mark.parametrize("split", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1, _N])
    @pytest.mark.parametrize("a, b", [(2.5, 0.7), (50.0, 0.5)])
    def test_sides_meet_anywhere(self, split, a, b):
        x, xc = _two_sided_input(a, b, self._N, split, split + 11)
        assert np.count_nonzero(x < (a + 1.0) / (a + b + 2.0)) == split
        log_b = log_beta(a, b)
        front = np.exp(a * np.log(x) + b * np.log(xc) - log_b)
        lo, hi = slice(None, split), slice(split, None)
        _assert_same_bits(_bfrac(a, b, x[lo], xc[lo], log_b),
                          front[lo] * _whole_array_betacf(a, b, x[lo]) / a)
        _assert_same_bits(_bfrac(b, a, xc[hi], x[hi], log_b),
                          front[hi] * _whole_array_betacf(b, a, xc[hi]) / b)
        # Shuffled, so that the blocks of either side gather from all over u.
        u = x[np.random.Generator(np.random.Philox(split)).permutation(self._N)]
        _assert_same_bits(beta_cdf_many(u, a, b), _two_branch_betainc(a, b, u, 1.0 - u))

    @pytest.mark.parametrize("a, b", [(2.5, 0.7), (50.0, 0.5)])
    def test_leaves_x_unchanged(self, a, b):
        x, xc = _two_sided_input(a, b, 1000, 400, 13)
        kept = x.copy(), xc.copy()
        _bfrac(a, b, x[:400], xc[:400], log_beta(a, b))
        _bfrac(b, a, xc[400:], x[400:], log_beta(a, b))
        _assert_same_bits(x, kept[0])
        _assert_same_bits(xc, kept[1])


def _two_branch_betainc(alpha, beta, x, xc):
    """``_betainc_with_complement`` as it was with one fraction call a side,
    each by the whole-array reference fraction."""
    out = np.empty_like(x)
    ln_b = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
    pivot = (alpha + 1.0) / (alpha + beta + 2.0)
    zero = x == 0.0
    one = xc == 0.0
    out[zero] = 0.0
    out[one] = 1.0
    interior = (~zero) & (~one)
    lo = interior & (x < pivot)
    hi = interior & (x >= pivot)
    if np.any(lo):
        front = np.exp(alpha * np.log(x[lo]) + beta * np.log(xc[lo]) - ln_b)
        out[lo] = front * _whole_array_betacf(alpha, beta, x[lo]) / alpha
    if np.any(hi):
        front = np.exp(beta * np.log(xc[hi]) + alpha * np.log(x[hi]) - ln_b)
        out[hi] = 1.0 - front * _whole_array_betacf(beta, alpha, xc[hi]) / beta
    return out


_SHAPES = [(0.61, 0.61), (0.59, 0.79), (2.5, 0.7), (1.0, 1.0), (1e-3, 1e4), (1e4, 1e-3),
           (0.5, 0.5), (15.0, 0.5), (50.0, 0.5), (5e3, 0.5)]


def _incomplete_beta_input(alpha, beta, seed):
    """Seeded points over [0, 1] and into both ends, the endpoints, the
    smallest subnormal, and the pivot with its neighbouring floats."""
    rng = np.random.Generator(np.random.Philox(seed))
    pivot = (alpha + 1.0) / (alpha + beta + 2.0)
    return np.concatenate([rng.random(3000), rng.random(500) ** 12, 1.0 - rng.random(500) ** 12,
                           [0.0, -0.0, 1.0, 5e-324, pivot],
                           np.nextafter(pivot, [0.0, 1.0])])


def _fraction_beta_cdf(u, alpha, beta):
    """I_u(alpha, beta) by the continued fraction, :func:`_bfrac` once on
    each side of the pivot over all of ``u``, as ``beta_cdf_many`` solves it
    where a shape is above 1."""
    flat = u.ravel()
    below = flat < (alpha + 1.0) / (alpha + beta + 2.0)
    log_b = log_beta(alpha, beta)
    out = np.empty(flat.size)
    x = flat[below]
    out[below] = _bfrac(alpha, beta, x, 1.0 - x, log_b)
    x = flat[~below]
    out[~below] = 1.0 - _bfrac(beta, alpha, 1.0 - x, x, log_b)
    return out.reshape(u.shape)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestIncompleteBetaAgainstTwoBranches:
    """The incomplete beta with one fraction call equals the two-branch
    evaluation bit for bit, and takes no log of 0 outside ``np.errstate``.
    Where both shapes are at most 1, ``beta_cdf_many`` takes the power
    series, so there the fraction is called directly."""

    @pytest.mark.parametrize("alpha, beta", _SHAPES)
    def test_beta_cdf(self, alpha, beta):
        u = _incomplete_beta_input(alpha, beta, int(alpha * 1000 + beta))
        fraction = _fraction_beta_cdf if alpha <= 1.0 and beta <= 1.0 else beta_cdf_many
        _assert_same_bits(fraction(u, alpha, beta), _two_branch_betainc(alpha, beta, u, 1.0 - u))

    def test_beta_cdf_2d(self):
        u = _incomplete_beta_input(0.59, 0.79, 5)[:4000].reshape(2000, 2)
        expected = _two_branch_betainc(0.59, 0.79, u, 1.0 - u)
        _assert_same_bits(_fraction_beta_cdf(u, 0.59, 0.79), expected)
        _assert_same_bits(_fraction_beta_cdf(u.T, 0.59, 0.79), expected.T)

    @pytest.mark.parametrize("df", [0.5, 1.0, 3.0])
    def test_student_t_cdf(self, df):
        # The t CDF's pairs (df/2, 1/2) below df 30, where the fraction takes
        # every lane (from df 30 on see TestStudentTCdfAgainstTable).
        t = _t_cdf_input(df)
        t2 = t * t
        y, yc = df / (df + t2), t2 / (df + t2)
        tail = 0.5 * _two_branch_betainc(0.5 * df, 0.5, y, yc)
        expected = np.where(t > 0.0, 1.0 - tail, np.where(t < 0.0, tail, 0.5))
        _assert_same_bits(student_t_cdf_many(t, df), expected)

    def test_student_t_cdf_at_zero_and_beyond_overflow(self):
        # At t = 0 the tail is exactly 1/2; where t * t overflows the value is
        # the limit 0 or 1, as with the two-branch evaluation.
        assert student_t_cdf_many([0.0, -0.0], 7.0).tolist() == [0.5, 0.5]
        assert student_t_cdf_many([-1e200, 1e200], 7.0).tolist() == [0.0, 1.0]


def _t_cdf_input(df):
    """Seeded t, with t = 0, -0.0 and t = +-1e-10, where y rounds to 1 while
    yc is not 0, and t = +-1e150, whose square is still finite."""
    rng = np.random.Generator(np.random.Philox(int(df * 10)))
    return np.concatenate([rng.standard_normal(3000) * 5.0,
                           [0.0, -0.0, 1e-10, -1e-10, 40.0, 1e150, -1e150]])


# The shapes the benchmark fitted at seed 1: lib-t-500k, sim-mixunif-5k's
# first replicate and cli-fdr-200k.
_BENCH_SHAPES = ["0.5871254293556618/0.788753398178155",
                 "0.6994596028352208/0.9223812615785585",
                 "0.8410730492404506/0.6674190538302847"]


def _beta_cdf_table_pairs():
    return sorted({key.rsplit("/", 1)[0] for key in BETA_CDF})


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBetaCdfSeriesAgainstTable:
    """Where both shapes are at most 1, the power series: each band of the
    frozen mpmath table within its bound, no worse than the continued
    fraction in the body at the benchmark's shapes, and the ends exact."""

    @pytest.mark.parametrize("pair", _beta_cdf_table_pairs())
    def test_beta_cdf(self, pair):
        a, b = map(float, pair.split("/"))
        for key in (key for key in BETA_CDF if key.rsplit("/", 1)[0] == pair):
            assert _max_ulp_error(lambda x: beta_cdf_many(x, a, b), BETA_CDF[key]) \
                <= BETA_CDF_BOUNDS[key], key

    @pytest.mark.parametrize("pair", _BENCH_SHAPES)
    def test_body_no_worse_than_fraction(self, pair):
        a, b = map(float, pair.split("/"))
        x, head, tail = _table(BETA_CDF[f"{pair}/body"])
        series = _ulp_errors(beta_cdf_many(x, a, b), head, tail).max()
        assert series <= _ulp_errors(_fraction_beta_cdf(x, a, b), head, tail).max()

    @pytest.mark.parametrize("pair", _beta_cdf_table_pairs())
    def test_ends(self, pair):
        a, b = map(float, pair.split("/"))
        assert beta_cdf_many([0.0, -0.0, 1.0], a, b).tolist() == [0.0, 0.0, 1.0]
        edge = beta_cdf_many([5e-324, 1.0 - 2.0 ** -53], a, b)
        assert np.all((edge >= 0.0) & (edge <= 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStudentTCdfAgainstTable:
    """From df 30 on, the t CDF takes the asymptotic expansion where
    t^2 <= 3 df/7 and the continued fraction beyond: each band of the frozen
    mpmath table within its bound, one-element calls equal to the batch, and
    no fall across the switch."""

    @pytest.mark.parametrize("df", [30.0, 100.0, 867.5, 1e4])
    def test_student_t_cdf(self, df):
        for band in ("zero", "pivot", "body", "switch", "far"):
            key = f"{df!r}/{band}"
            assert _max_ulp_error(lambda t: student_t_cdf_many(t, df), STUDENT_T_CDF[key]) \
                <= STUDENT_T_CDF_BOUNDS[key], key
        t = _t_cdf_input(df)
        values = student_t_cdf_many(t, df)
        _assert_same_bits(np.array([student_t_cdf_many(ti, df)[0] for ti in t]), values)
        assert values[-7:-5].tolist() == [0.5, 0.5]
        assert values[-2:].tolist() == [1.0, 0.0]
        # Where t * t underflows to 0 the value is exactly 1/2, as at t = 0.
        assert student_t_cdf_many([-5e-324, 5e-324], df).tolist() == [0.5, 0.5]

    def test_found_point_within_a_few_ulp(self):
        # At df 867.5, t = -1.726125 the fraction alone was 9.47e-12 relative
        # off (about 5.8e4 ulp); the expansion is 0.77 ulp off.
        x, head, tail = _table(STUDENT_T_CDF["867.5/pivot"])
        at = x == -1.726125
        assert at.sum() == 1
        assert _ulp_errors(student_t_cdf_many(x[at], 867.5), head[at], tail[at])[0] <= 2.0

    @pytest.mark.parametrize("df, step", [(30.0, 8), (100.0, 8), (1e4, 1)])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_nondecreasing_across_switch(self, df, step, sign):
        # A one-ulp step of t moves F by about t^2 ulps there (13 at df 30, 43
        # at df 100), no more than the rounding of either method, so at df 30
        # and 100 the walk steps 8 ulps at a time.
        t = _walk(sign * math.sqrt(3.0 * df / 7.0), step)
        y = df / (df + t * t)
        assert np.any(y >= 0.7) and np.any(y < 0.7)
        assert np.all(np.diff(student_t_cdf_many(t, df)) >= 0.0)


def _masked_beta_pdf(alpha, beta, u):
    """``beta_pdf_many`` as it was: the formula on the interior lanes only,
    and each end set by the shape there."""
    ln_b = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)
    out = np.empty_like(u)
    interior = (u > 0.0) & (u < 1.0)
    with np.errstate(over="ignore"):
        ui = u[interior]
        out[interior] = np.exp((alpha - 1.0) * np.log(ui) + (beta - 1.0) * np.log1p(-ui) - ln_b)
    for end, shape in ((u == 0.0, alpha), (u == 1.0, beta)):
        out[end] = math.inf if shape < 1.0 else math.exp(-ln_b) if shape == 1.0 else 0.0
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBetaPdfOverTheWholeArray:
    """The beta density as one formula over every lane equals the masked
    evaluation bit for bit, and its log of 0 stays inside ``np.errstate``."""

    @pytest.mark.parametrize("alpha, beta", _SHAPES)
    def test_matches_masked_formula(self, alpha, beta):
        u = _incomplete_beta_input(alpha, beta, int(alpha * 1000 + beta) + 1)
        _assert_same_bits(beta_pdf_many(u, alpha, beta), _masked_beta_pdf(alpha, beta, u))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
    def test_ends_on_2d_input(self, alpha, beta):
        # Below 1 an end diverges, at 1 it is 1/B(alpha, beta), above 1 it is 0.
        inv_b = math.exp(-(math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)))
        at0, at1 = (math.inf if s < 1.0 else inv_b if s == 1.0 else 0.0 for s in (alpha, beta))
        u = np.array([[0.0, -0.0, 1.0], [0.25, 0.5, 0.75]])
        out = beta_pdf_many(u, alpha, beta)
        assert out[0].tolist() == [at0, at0, at1]
        _assert_same_bits(out, _masked_beta_pdf(alpha, beta, u))
        _assert_same_bits(beta_pdf_many(u.T, alpha, beta), _masked_beta_pdf(alpha, beta, u.T))


# Shapes drawn log-uniformly from [1e-3, 1e4].
_log_shape = st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(a=_log_shape, b=_log_shape,
       x=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=30),
       k=st.lists(st.integers(0, 1024), min_size=2, max_size=30))
def test_beta_cdf_against_scipy(a, b, x, k):
    # Subnormal x are left out: there betainc itself is off (at x = 5e-324,
    # a = 0.01, b = 10 by 4.0e-7, where mpmath agrees with beta_cdf_many to 1.4e-18).
    values = beta_cdf_many(x, a, b)
    assert np.max(np.abs(values - sp_special.betainc(a, b, np.asarray(x)))) <= 1e-10
    assert np.all((values >= 0.0) & (values <= 1.0))
    # Monotone on a grid of step 2**-10. Between adjacent floats the value can
    # fall by a few 1e-12, most at the pivot where the continued fraction
    # switches to the complement.
    grid = np.sort(np.asarray(k)) / 1024.0
    assert np.all(np.diff(beta_cdf_many(grid, a, b)) >= 0.0)


@settings(max_examples=300, deadline=None)
@given(df=st.floats(0.5, 1e3), t=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=30))
@example(df=1.0, t=[1e-8])
def test_student_t_cdf_against_scipy(df, t):
    # The smaller tail is checked to 1e-11 relative where it is the value
    # itself (t <= 0); above 0 the value is one minus the same tail, whose
    # rounding in 1.0 - tail no double-valued F avoids.  At exactly df = 1
    # scipy's t.cdf is 3.1e-9 relative off at t = -1e-8, so the reference
    # there is the Cauchy distribution function, within 2.1e-16 of mpmath on
    # [-40, 0].
    lower = -np.abs(np.asarray(t))
    values = student_t_cdf_many(lower, df)
    reference = np.arctan2(1.0, -lower) / np.pi if df == 1.0 else sp_stats.t.cdf(lower, df)
    assert np.all(np.abs(values - reference) <= 1e-11 * reference)
    upper = student_t_cdf_many(-lower, df)
    assert np.array_equal(upper, np.where(lower < 0.0, 1.0 - values, 0.5))


@settings(max_examples=300, deadline=None)
@given(df=st.floats(30.0, 1e4), t=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=30))
def test_student_t_cdf_at_large_df_against_scipy(df, t):
    # The smaller tail to 2e-12 relative wherever scipy's value is a normal
    # float.  On 800,000 seeded points (df log-uniform on [30, 1e4], t on
    # [-40, 0]) the largest difference was 7.9e-13, at df 3417, t = -39.70,
    # a tail of 4.6e-284 where this kernel is 3.8e-13 and scipy 4.1e-13 off
    # mpmath; the continued fraction alone reached 1.7e-10 near |t| = 1.7.
    lower = -np.abs(np.asarray(t))
    values = student_t_cdf_many(lower, df)
    reference = sp_stats.t.cdf(lower, df)
    normal = reference >= np.finfo(float).tiny
    assert np.all(np.abs(values - reference)[normal] <= 2e-12 * reference[normal])


# ---------------------------------------------------------------------------
# special._horner against the hand-written polynomial forms it replaced
# ---------------------------------------------------------------------------

# The coefficient tuples in the order of the hand-written forms below, which
# held Cody's and the t scale's tuples in other orders than highest power first.
_LOOP_ANORM_B = (
    47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
    45507.789335026729956,
)
_LOOP_ANORM_C = (
    0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979,
    597.27027639480026226, 2494.5375852903726711, 6848.1904505362823326,
    11602.651437647350124, 9842.7148383839780218, 1.0765576773720192317e-8,
)
_LOOP_ANORM_D = (
    22.266688044328115691, 235.38790178262499861, 1519.3775994075548050,
    6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
    38912.003286093271411, 19685.429676859990727,
)
_LOOP_ANORM_P = (
    0.21589853405795699, 0.1274011611602473639, 0.022235277870649807,
    0.001421619193227893466, 2.9112874951168792e-5, 0.02307344176494017303,
)
_LOOP_ANORM_Q = (
    1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
    0.00378239633202758244, 7.29751555083966205e-5,
)
_LOOP_T_SCALE_SERIES = (
    -0.125, 0.005208333333333333, -0.0015625, 0.0011858258928571428,
    -0.001681857638888889, 0.0038341175426136365, -0.012819730318509616,
    0.059100405375162764, -0.359287374159869,
)


def _loop_anorm_centre(z):
    b, e = _LOOP_ANORM_B, special._ANORM_S
    s = z * z
    den = (((s + b[0]) * s + b[1]) * s + b[2]) * s + b[3]
    tail = (((e[0] * s + e[1]) * s + e[2]) * s + e[3]) / den
    prod, prod_err = special._two_product(z, special._INV_SQRT_2PI)
    total = 0.5 + prod
    return total + (((0.5 - total) + prod) + (prod_err + z * (special._C_LO + s * tail)))


def _loop_anorm_ratio(y):
    c, d, p, q = _LOOP_ANORM_C, _LOOP_ANORM_D, _LOOP_ANORM_P, _LOOP_ANORM_Q
    num = c[8] * y
    den = y.copy()
    for i in range(7):
        num += c[i]
        num *= y
        den += d[i]
        den *= y
    num += c[7]
    den += d[7]
    ratio = np.divide(num, den, out=num)
    far = np.flatnonzero(y > _ANORM_ROOT32)
    if far.size:
        yf = y[far]
        w = 1.0 / (yf * yf)
        num = p[5] * w
        den = w.copy()
        for i in range(4):
            num += p[i]
            num *= w
            den += q[i]
            den *= w
        ratio[far] = (special._INV_SQRT_2PI - w * (num + p[4]) / (den + q[4])) / yf
    return ratio


def _as241_terms(coefficients, r):
    num, den = coefficients
    top = num[0] * r
    bottom = den[0] * r
    for a, b in zip(num[1:-1], den[1:-1]):
        top += a
        top *= r
        bottom += b
        bottom *= r
    top += num[-1]
    bottom += den[-1]
    return top, bottom


def _loop_log_t_scale(df):
    inv = 2.0 / df
    inv2 = inv * inv
    acc = 0.0
    for coeff in reversed(_LOOP_T_SCALE_SERIES):
        acc = acc * inv2 + coeff
    return acc * inv - special._HALF_LOG_2PI


def _with_edges(x, *edges):
    """``x`` with each edge and its two neighbouring floats appended."""
    edges = np.array(edges)
    return np.concatenate([x, edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


class TestHornerMatchesHandWrittenForms:
    """Every polynomial goes through the one evaluator, each with the same
    operations in the same order as the form it replaced, so every bit stays:
    at 100,000 seeded points a branch and at each branch edge."""

    N = 100_000

    def _rng(self, seed):
        return np.random.Generator(np.random.Philox(seed))

    def test_cody_centre(self):
        z = _with_edges(self._rng(1).uniform(-_ANORM_CENTRE, _ANORM_CENTRE, self.N),
                        -_ANORM_CENTRE, 0.0, _ANORM_CENTRE)
        z = z[np.abs(z) <= _ANORM_CENTRE]
        _assert_same_bits(special._anorm_centre(z), _loop_anorm_centre(z))

    @pytest.mark.parametrize("lo, hi", [(_ANORM_CENTRE, _ANORM_ROOT32),
                                        (_ANORM_ROOT32, special._Z_ZERO_TAIL)])
    def test_cody_tail_ratio(self, lo, hi):
        y = _with_edges(self._rng(2).uniform(lo, hi, self.N), lo, hi)
        y = y[(y > lo) & (y <= hi)]
        _assert_same_bits(special._anorm_ratio(y), _loop_anorm_ratio(y))

    @pytest.mark.parametrize("branch, lo, hi", [
        ("centre", 0.075, 0.5), ("near", math.exp(-25.0), 0.075), ("far", 1e-300, math.exp(-25.0)),
    ])
    def test_as241(self, branch, lo, hi):
        # p log-uniform on the branch's range, edges included; r as the
        # quantile forms it.
        p = _with_edges(np.exp(self._rng(3).uniform(math.log(lo), math.log(hi), self.N)), lo, hi)
        p = p[(p >= lo) & (p <= hi)]
        if branch == "centre":
            q = p - 0.5
            r, coefficients = 0.180625 - q * q, special._AS241_CENTRE
        else:
            r = np.sqrt(-np.log(p))
            shift = 1.6 if branch == "near" else 5.0
            r, coefficients = r - shift, getattr(special, f"_AS241_{branch.upper()}")
        top, bottom = _as241_terms(coefficients, r)
        _assert_same_bits(special._horner(coefficients[0], r), top)
        _assert_same_bits(special._horner(coefficients[1], r), bottom)

    def test_t_scale_series(self):
        edges = [16.0, 30.0, 1e4, 1e300]
        dfs = np.concatenate([np.exp(self._rng(4).uniform(math.log(16.0), math.log(1e300), self.N)),
                              edges, np.nextafter(edges, np.inf)])
        got = np.array([special._log_t_scale(df) for df in dfs.tolist()])
        _assert_same_bits(got, np.array([_loop_log_t_scale(df) for df in dfs.tolist()]))

    def test_float_or_new_array(self):
        value = special._horner((2.0, 3.0, 5.0), 2.0)
        assert type(value) is float and value == 19.0
        x = np.array([2.0])
        value = special._horner((2.0, 3.0, 5.0), x)
        assert value is not x and x[0] == 2.0 and value[0] == 19.0
