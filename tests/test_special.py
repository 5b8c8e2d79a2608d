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
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import special as sp_special
from scipy import stats as sp_stats

from cdfdr.errors import DomainError
from cdfdr.quadrature import integrate_unit
from cdfdr.special import (
    _ANORM_CENTRE,
    _ANORM_ROOT32,
    _BLOCK,
    _CF_MAX_ITER,
    _betacf_many,
    beta_cdf_many,
    beta_pdf_many,
    digamma,
    log_gamma,
    normal_cdf_many,
    normal_pdf_many,
    normal_quantile_many,
    student_t_cdf_many,
    student_t_pdf_many,
    trigamma,
)
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
        for df in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                student_t_cdf_many(1.0, df)
            with pytest.raises(DomainError):
                student_t_pdf_many(1.0, df)

    def test_pdf_matches_numeric_derivative(self):
        for t, df in [(0.0, 5.0), (1.3, 5.0), (-2.0, 12.0)]:
            h = 1e-6
            lower, upper = student_t_cdf_many([t - h, t + h], df)
            numeric = (upper - lower) / (2 * h)
            assert student_t_pdf_many(t, df)[0] == pytest.approx(numeric, rel=1e-7)


class TestGammaFamily:
    def test_integer_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5723649429247000870717, rel=1e-12)

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
        for fn in (log_gamma, digamma, trigamma):
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
        # 1/B(0.81, 0.82) = 0.68102 (verified through log_gamma first).
        ln_b = log_gamma(0.81) + log_gamma(0.82) - log_gamma(1.63)
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
        upper = 1.0 - np.geomspace(1e-15, 0.5, 100_001)
        np.testing.assert_allclose(normal_quantile_many(upper), sp_special.ndtri(upper),
                                   rtol=0, atol=1e-8)


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


def _normal_kernel_input(kernel, shape, seed):
    """The kernel named ``kernel`` and a seeded input for it: z over every Phi
    branch and into the underflow, or p in (0, 1) for the quantile."""
    rng = np.random.Generator(np.random.Philox(seed))
    if kernel == "quantile":
        return normal_quantile_many, rng.random(shape) * (1.0 - 2e-16) + 1e-16
    return {"cdf": normal_cdf_many, "pdf": normal_pdf_many}[kernel], rng.normal(0.0, 10.0, shape)


class TestBlockedKernels:
    """The kernels that run in blocks of ``_BLOCK`` lanes equal their
    whole-array forms (the continued fraction) or their one-element calls
    (the normal kernels) bit for bit, whatever the length and shape."""

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("a, b", [(2.5, 0.7), (50.0, 0.5), (0.5, 50.0)])
    def test_continued_fraction(self, n, a, b):
        # Points spread below the pivot: lanes near it take hundreds of
        # iterations (a = 50, b = 0.5 is the t CDF's case at df = 100),
        # lanes near 0 freeze within a few, so blocks stop at different steps.
        rng = np.random.Generator(np.random.Philox(n))
        x = rng.random(n) * (a + 1.0) / (a + b + 2.0)
        _assert_same_bits(_betacf_many(a, b, x), _whole_array_betacf(a, b, x))

    def test_continued_fraction_2d(self):
        rng = np.random.Generator(np.random.Philox(61))
        x = rng.random((3, _BLOCK // 2 + 5)) * 0.97
        _assert_same_bits(_betacf_many(50.0, 0.5, x), _whole_array_betacf(50.0, 0.5, x))
        _assert_same_bits(_betacf_many(50.0, 0.5, x.T), _whole_array_betacf(50.0, 0.5, x.T))

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025])
    def test_continued_fraction_packs(self, n):
        # A block packs its live lanes each time a quarter of them have
        # frozen, several times over as lanes converge from the first step
        # to the last.
        rng = np.random.Generator(np.random.Philox(n + 3))
        x = rng.random(n) ** 3 * 51.0 / 52.5
        _assert_same_bits(_betacf_many(50.0, 0.5, x), _whole_array_betacf(50.0, 0.5, x))

    @pytest.mark.parametrize("n", [3072, _BLOCK + 5])
    @pytest.mark.parametrize("x0", [0.3, 1e-12])
    def test_continued_fraction_lanes_freezing_together(self, n, x0):
        # Equal points freeze at the same step, so no step packs.
        x = np.full(n, x0)
        _assert_same_bits(_betacf_many(2.5, 0.7, x), _whole_array_betacf(2.5, 0.7, x))

    @pytest.mark.parametrize("n", [3072, _BLOCK + 5])
    def test_continued_fraction_lanes_at_max_iterations(self, n):
        # At a = b = 1e6, points within 1e-6 of the pivot (relatively) do not
        # converge in _CF_MAX_ITER steps; they are mixed with points that
        # converge in a few steps, so packs leave them behind in the buffers.
        a = b = 1e6
        pivot = (a + 1.0) / (a + b + 2.0)
        rng = np.random.Generator(np.random.Philox(n + 5))
        slow = rng.random(n) < 0.1
        x = np.where(slow, pivot * (1.0 - 1e-6 * rng.random(n)), pivot * 0.9 * rng.random(n))
        assert _CF_MAX_ITER == 500  # the reference runs 500 steps
        _assert_same_bits(_betacf_many(a, b, x), _whole_array_betacf(a, b, x))

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("kernel", ["cdf", "pdf", "quantile"])
    def test_one_element_equals_batch(self, n, kernel):
        # Lanes at and around each block edge, and a seeded sample of the rest.
        f, x = _normal_kernel_input(kernel, (n,), n + 1)
        batch = f(x)
        edges = np.arange(0, n, _BLOCK)
        picks = np.unique(np.concatenate([edges, edges - 1, edges + 1, [n - 1],
                                          np.random.Generator(np.random.Philox(n)).integers(0, n, 200)]))
        picks = picks[(picks >= 0) & (picks < n)]
        _assert_same_bits(np.array([f(x[i:i + 1])[0] for i in picks]), batch[picks])

    @pytest.mark.parametrize("kernel", ["cdf", "pdf", "quantile"])
    def test_one_element_equals_batch_2d(self, kernel):
        f, x = _normal_kernel_input(kernel, (_BLOCK + 3, 2), 67)
        values = f(x)
        _assert_same_bits(values, f(x.ravel()).reshape(x.shape))
        _assert_same_bits(f(x.T), values.T)
        _assert_same_bits(f(x[5:6, 1:2]), values[5:6, 1:2])


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
def test_student_t_cdf_against_scipy(df, t):
    # The smaller tail is checked to 1e-11 relative where it is the value
    # itself (t <= 0); above 0 the value is one minus the same tail, whose
    # rounding in 1.0 - tail no double-valued F avoids.
    lower = -np.abs(np.asarray(t))
    values = student_t_cdf_many(lower, df)
    reference = sp_stats.t.cdf(lower, df)
    assert np.all(np.abs(values - reference) <= 1e-11 * reference)
    upper = student_t_cdf_many(-lower, df)
    assert np.array_equal(upper, np.where(lower < 0.0, 1.0 - values, 0.5))
