"""Numerically stable elementary statistical functions.

The ``*_many`` kernels are the only path: each takes a float array (a
scalar counts as one element) and returns an array of at least one
dimension, and an element's value does not depend on the rest of its batch.
The normal, t and beta kernels walk their arrays ``_BLOCK`` lanes at a time,
all through :func:`_blocks`, so that beyond block-sized scratch they allocate
little more than their result.  The incomplete beta has two regions.  Where
both shapes are at most 1, ``beta_cdf_many`` sums the power series BPSER
(DiDonato & Morris 1992) a block at a time, on the side of 1/2 (or of TOMS
708's edge, for a shape below 0.2) that gives the most accuracy.  Against
the mpmath values of ``tests/beta_cdf_table.py`` it is within 6 ulp on
(0.01, 0.99) at the benchmark's fitted shapes, where the continued fraction
was within 12; at every tabled shape within 17 ulp from x = 0.01 up and
36 ulp on x = U^12, except at (0.9, 1e-3) above x = 0.7, a few thousand
ulp off, where TOMS 708 takes BUP and BGRAT; and below x = 1e-20 within
the few hundred ulp that the rounding of its front factor's exp argument
gives both methods.  Elsewhere the continued fraction (:func:`_bfrac`), one
plain Lentz loop whose lanes freeze one by one.  Each solver takes one
side's lanes: the t CDF solves each block's fraction lanes in that block,
``beta_cdf_many`` walks each side apart.  The t CDF has two
regions: from df 30 on, where t^2 <= 3 df/7, the asymptotic expansion
BGRAT (DiDonato & Morris 1992), within 5e-15 relative of mpmath at df 30
and 100, 3.5e-14 at df 867.5 and 2 ulp of 1/2 near t = 0; elsewhere the
continued fraction, within about 2e-13 relative in the far tails.  The
normal quantile is Wichura's AS241 on the smaller tail min(p, 1 - p), its
two tail branches refined by one Halley step against Cody's tail: within
3.5 ulp of mpmath in the centre and about an ulp in the tails.  Cody's and
Wichura's polynomials and the t scale's series go through one :func:`_horner`.
Every elementary function is a numpy ufunc on an array: the exp of a normal
tail or density takes an exactly split square, and the t density's exponent is
compensated, so that neither rounds its argument.  The gamma family serves
the scalar Newton fit of the beta shapes and stays scalar.

No probability clamping happens here: these primitives are exact over their
domains, and callers clamp at their own named clamp points.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "normal_cdf_many",
    "normal_pdf_many",
    "normal_quantile_many",
    "student_t_cdf_many",
    "student_t_pdf_many",
    "digamma",
    "trigamma",
    "log_beta",
    "beta_pdf_many",
    "beta_cdf_many",
]

_FLOAT_MAX = sys.float_info.max
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / _SQRT_2PI

# Lentz continued-fraction controls for the incomplete beta.
_CF_FPMIN = 1e-300
_CF_EPS = 1e-15
_CF_MAX_ITER = 500

# Lanes the blocked kernels process at a time: the working arrays of the
# continued fraction and of the normal distribution function for one block
# stay in cache.
_BLOCK = 16_384


def _within(x: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> bool:
    """Whether every element of the float array ``x`` lies in [lo, hi], by
    ``x.min()`` and ``x.max()``: a NaN fails, an empty array passes."""
    return x.size == 0 or bool(lo <= x.min() and x.max() <= hi)


def _blocks(*arrays: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Aligned views of the C-order elements of ``arrays`` (all of one size),
    ``_BLOCK`` at a time; an array written through them must be C-contiguous.
    Each lane's arithmetic is its own, so no per-lane value depends on the
    block size.  A sum over the lanes does: the fit's sums are per-block
    partials added by :func:`_block_means`."""
    flats = [array.ravel() for array in arrays]
    for start in range(0, flats[0].size, _BLOCK):
        yield tuple(flat[start:start + _BLOCK] for flat in flats)


def _block_means(partials: Iterable[Sequence[float]], n: int) -> list[float]:
    """The means of n terms from their per-block sums: ``partials`` holds one
    row of sums per :func:`_blocks` block, each summed pairwise
    (``ndarray.sum``).  Each column is added exactly (``math.fsum``) and
    divided by n, so an input of one block keeps ``np.mean``'s bits."""
    return [math.fsum(column) / n for column in zip(*partials)]


def _finite_1d(name: str, x, error: type[Exception] = DomainError) -> np.ndarray:
    """``x`` as a float array of at least one dimension; ``error`` unless all finite."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not _within(x, -_FLOAT_MAX, _FLOAT_MAX):
        raise error(f"{name} must be finite")
    return x


def _unit_1d(name: str, x) -> np.ndarray:
    """``x`` as a float array of at least one dimension, all in [0, 1]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not _within(x):
        raise DomainError(f"{name} must lie in [0, 1]")
    return x


# ---------------------------------------------------------------------------
# Normal distribution
# ---------------------------------------------------------------------------

# Cody's ANORM (ACM TOMS 715, 1993): Phi(z) by three rational branches in |z|,
# split at _ANORM_CENTRE and sqrt(32).  Cody's centre split, 0.66291, is moved
# to qnorm(3/4), as in R's pnorm: above it every tail value Phi(-|z|) is below
# 1/4, so its error counts at most a quarter in ulps of 1 - Phi(-|z|), and
# below it the compensated centre stays within 0.57 ulp.
_ANORM_CENTRE = 0.67448975
_ANORM_ROOT32 = 5.656854249492381
# Each polynomial is its coefficients from the highest power down (:func:`_horner`).
# Centre: Phi(z) - 1/2 = z N(s) / D(s), s = z^2, with D monic of degree 4.
# _ANORM_S holds (N(s) - c D(s)) / s, c = 1/sqrt(2 pi): each
# coefficient is Cody's A_i - c B_i, rounded from its exact value.  The
# constant term of N - c D (-1e-12, i.e. Cody's A_3/B_3 less c) is dropped,
# so that Phi(z) - 1/2 = c z + z^3 S(s) with S = _ANORM_S / D.
_ANORM_B = (
    1.0, 47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
    45507.789335026729956,
)
_ANORM_S = (
    -0.3332599424832252, -16.595853630431048, -228.37875105824858, -3025.8302088905934,
)
# c = _INV_SQRT_2PI + _C_LO.
_C_LO = -2.49232720227773e-17
# _ANORM_CENTRE < |z| <= sqrt(32): Phi(-|z|) = exp(-z^2/2) C(|z|) / D(|z|).
_ANORM_C = (
    1.0765576773720192317e-8, 0.39894151208813466764, 8.8831497943883759412,
    93.506656132177855979, 597.27027639480026226, 2494.5375852903726711,
    6848.1904505362823326, 11602.651437647350124, 9842.7148383839780218,
)
_ANORM_D = (
    1.0, 22.266688044328115691, 235.38790178262499861, 1519.3775994075548050,
    6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
    38912.003286093271411, 19685.429676859990727,
)
# |z| > sqrt(32): Phi(-|z|) = exp(-z^2/2) (c - w P(w) / Q(w)) / |z|, w = 1/z^2.
_ANORM_P = (
    0.02307344176494017303, 0.21589853405795699, 0.1274011611602473639,
    0.022235277870649807, 0.001421619193227893466, 2.9112874951168792e-5,
)
_ANORM_Q = (
    1.0, 1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
    0.00378239633202758244, 7.29751555083966205e-5,
)
# Beyond this |z|, Phi(-|z|) and phi(z) are exactly 0.0 (below 2^-1074).
_Z_ZERO_TAIL = 40.0
_VELTKAMP = 134217729.0  # 2**27 + 1


def _two_product(a, b):
    """``(p, err)`` with p = fl(a b) and a b = p + err exactly (Dekker).

    Each factor is cut into 26-bit Veltkamp halves, whose products are exact.
    """
    prod = a * b
    split = _VELTKAMP * a
    a_head = split - (split - a)
    a_rest = a - a_head
    split = _VELTKAMP * b
    b_head = split - (split - b)
    b_rest = b - b_head
    return prod, ((a_head * b_head - prod) + a_head * b_rest + a_rest * b_head) + a_rest * b_rest


def _exp_half_square(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-y^2/2) as ``(e, l)``: exp(-y^2/2) = e (1 - l) to a relative 2e-27.

    y^2 = sq + err exactly (a two-product), so that the one rounded exp,
    e = exp(-sq/2), is of an exact argument; l = err/2 is below 2^-53 y^2/2.
    """
    sq, err = _two_product(y, y)
    return np.exp(-0.5 * sq), 0.5 * err


def _horner(coefficients: tuple[float, ...], x):
    """The polynomial with ``coefficients`` (highest power first, at least two)
    at x by Horner's rule: a new array for an array x, a float for a float.  A
    monic polynomial starts with 1.0, whose product 1.0 x is exact."""
    acc = coefficients[0] * x
    for c in coefficients[1:-1]:
        acc += c
        acc *= x
    acc += coefficients[-1]
    return acc


def _anorm_centre(z: np.ndarray) -> np.ndarray:
    """Phi(z) for |z| <= _ANORM_CENTRE, to about half an ulp.

    c z is formed exactly as a two-product and 1/2 + c z as a two-sum, so
    only the small z^3 S(z^2) term and the last addition round.
    """
    s = z * z
    tail = _horner(_ANORM_S, s) / _horner(_ANORM_B, s)
    prod, prod_err = _two_product(z, _INV_SQRT_2PI)
    total = 0.5 + prod
    return total + (((0.5 - total) + prod) + (prod_err + z * (_C_LO + s * tail)))


def _anorm_ratio(y: np.ndarray) -> np.ndarray:
    """Cody's tail ratio, Phi(-y) exp(y^2/2), for y > _ANORM_CENTRE."""
    num = _horner(_ANORM_C, y)
    ratio = np.divide(num, _horner(_ANORM_D, y), out=num)
    far = np.flatnonzero(y > _ANORM_ROOT32)
    if far.size:
        yf = y[far]
        w = 1.0 / (yf * yf)
        ratio[far] = (_INV_SQRT_2PI - w * _horner(_ANORM_P, w) / _horner(_ANORM_Q, w)) / yf
    return ratio


def _anorm_tail(y: np.ndarray) -> np.ndarray:
    """Phi(-y) for y > _ANORM_CENTRE."""
    ratio = _anorm_ratio(y)
    e, low = _exp_half_square(y)
    lower = np.multiply(e, ratio, out=e)
    return lower - lower * low


def normal_cdf_many(z) -> np.ndarray:
    """Standard normal distribution function Phi(z) at each z.

    Cody's ANORM in z itself, a block at a time (:func:`_blocks`).  Measured
    against mpmath on 10,000 points a branch, it is within 0.57 ulp for
    |z| <= 0.6745, within 5.3 ulp below that and within 1.5 ulp above it
    (there the value is 1 - Phi(-z), so the error is small in absolute terms
    only): within 8 ulp over [-38, 8.5].  Where a one-ulp step of z moves Phi
    by less than the tails' error (about 0.67 < |z| < 2), Phi can fall by an
    ulp from one float to the next.  Below z = -37.52 the value is
    subnormal, and at z <= -38.48529 it is exactly 0.0 (callers that need
    strict positivity must clamp).
    """
    z = _finite_1d("z", z)
    out = np.empty(z.shape)
    for zb, ob in _blocks(z, out):
        y = np.minimum(np.abs(zb), _Z_ZERO_TAIL)
        centre = np.flatnonzero(y <= _ANORM_CENTRE)
        tail = np.flatnonzero(y > _ANORM_CENTRE)
        ob[centre] = _anorm_centre(zb[centre])
        value = _anorm_tail(y[tail])
        np.subtract(1.0, value, out=value, where=zb[tail] > 0.0)
        ob[tail] = value
    return out


def normal_pdf_many(z) -> np.ndarray:
    """Standard normal density phi(z) at each z, through the exact split of z^2."""
    z = _finite_1d("z", z)
    e, low = _exp_half_square(np.minimum(np.abs(z), _Z_ZERO_TAIL))
    # c e as a two-product, so that only the last addition rounds.
    prod, prod_err = _two_product(e, _INV_SQRT_2PI)
    return prod + (prod_err + prod * (_C_LO / _INV_SQRT_2PI - low))


# Wichura's AS241 (PPND16, Applied Statistics 37, 1988), the approximation
# behind R's qnorm and Python's statistics.NormalDist.inv_cdf, whose pure-
# Python form these coefficients are taken from.  Each branch is a ratio of
# two degree-7 polynomials, listed from the highest power down; each
# denominator's constant term is 1.  The centre, |p - 1/2| <= 0.425, is in
# r = 0.180625 - (p - 1/2)^2; the lower tail in r = sqrt(-log p), less 1.6
# up to r = 5 (p >= e^-25) and less 5 beyond.
_AS241_SPLIT = 0.425
_AS241_CENTRE = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _lower_quantile(p: np.ndarray, x: np.ndarray) -> None:
    """Write Phi^-1(p) <= 0 into ``x`` for the 1-d block ``p`` in (0, 1/2].

    AS241, with each branch's arithmetic in the order of the stdlib's
    ``_normal_dist_inv_cdf``.  The centre branch stands as it is.  A tail
    lane (p < 0.075, so x < -1.43) takes one Halley step,
    x - d/(1 + x d/2) with d = (Phi(x) - p)/phi(x), here in y = -x > 0 and
    with Phi(-y) from Cody's tail (:func:`_anorm_tail`), except where
    exp(y^2/2) would overflow (y^2 >= 1400, p below about 1e-306).
    """
    q = p - 0.5
    centre = np.flatnonzero(q >= -_AS241_SPLIT)
    qc = q[centre]
    r = 0.180625 - qc * qc
    top = _horner(_AS241_CENTRE[0], r)
    top *= qc
    x[centre] = np.divide(top, _horner(_AS241_CENTRE[1], r), out=top)
    tail = np.flatnonzero(q < -_AS241_SPLIT)
    if not tail.size:
        return
    pt = p[tail]
    r = np.sqrt(-np.log(pt))
    near = r - 1.6
    top = _horner(_AS241_NEAR[0], near)
    xt = np.divide(top, _horner(_AS241_NEAR[1], near), out=top)
    far = np.flatnonzero(r > 5.0)
    if far.size:
        rf = r[far] - 5.0
        xt[far] = _horner(_AS241_FAR[0], rf) / _horner(_AS241_FAR[1], rf)
    refine = xt * xt < 1400.0
    y, pr = xt[refine], pt[refine]
    # d at x = -y; the refined -x is y + d/(1 - y d/2).
    d = (_anorm_tail(y) - pr) * _SQRT_2PI * np.exp(0.5 * y * y)
    xt[refine] = y + d / (1.0 - 0.5 * y * d)
    x[tail] = -xt


def normal_quantile_many(p) -> np.ndarray:
    """Inverse of :func:`normal_cdf_many` on the open interval (0, 1).

    Wichura's AS241 (:func:`_lower_quantile`) on the smaller tail
    min(p, 1 - p), where 1 - p is exact above 1/2, negated above 1/2: so
    Phi^-1(1 - p) is exactly -Phi^-1(p) wherever 1 - p is a float.  The
    centre branch is used as it is; the two tail branches take one Halley
    step against Cody's tail.  Against the mpmath values of
    ``tests/normal_tables.py`` it is within 3.5 ulp in the centre (where
    p - 1/2 rounds, below p = 1/4), 1.03 ulp at the branch edges, 0.68 ulp
    in either tail out to p = 1e-300 and 1 - 1e-15 (the quantile of that
    float itself) and 2.6 ulp across the refinement's cut-off.  A one-ulp
    step of p can lower the value by an ulp just inside a tail; at 8-ulp
    steps it is nondecreasing across every branch switch.  ``p`` equal to 0
    or 1 is a domain error; callers clamp first.
    Runs a block at a time (:func:`_blocks`).
    """
    p = _finite_1d("p", p)
    if not _within(p, math.ulp(0.0), math.nextafter(1.0, 0.0)):
        raise DomainError("p must lie strictly inside (0, 1)")
    out = np.empty(p.shape)
    for pb, x in _blocks(p, out):
        _lower_quantile(np.minimum(pb, 1.0 - pb), x)
        np.negative(x, out=x, where=pb > 0.5)
    return out


# ---------------------------------------------------------------------------
# Gamma family
# ---------------------------------------------------------------------------

# Asymptotic tail coefficients B_2k/(2k) of the digamma expansion.
_DIGAMMA_TAIL = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
    1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0.

    Recurrence pushes the argument above 10, then the Bernoulli asymptotic
    series applies; absolute accuracy is ~1e-14 over the positive axis.
    """
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for coeff in _DIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


# Asymptotic tail coefficients B_2k of the trigamma expansion.
_TRIGAMMA_TAIL = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0,
)


def trigamma(x: float) -> float:
    """Trigamma function psi'(x) for x > 0 (used by the beta MLE Hessian)."""
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"trigamma requires x > 0, got {x!r}")
    if x * x == 0.0:
        return math.inf  # 1/x**2 overflows well before x*x underflows
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    power = inv * inv2
    for coeff in _TRIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return acc + inv + 0.5 * inv2 + tail


def log_beta(alpha: float, beta: float) -> float:
    """log B(alpha, beta) for positive shape parameters."""
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError(f"shape parameters must be positive, got {alpha!r}, {beta!r}")
    return math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)


# ---------------------------------------------------------------------------
# Regularized incomplete beta (continued fraction, Lentz's method)
# ---------------------------------------------------------------------------

def _betacf_many(p: float, q: float, x: np.ndarray) -> np.ndarray:
    """The modified Lentz continued fraction (Press et al., *Numerical
    Recipes*) for I_x(p, q) at the gathered, nonempty 1-d lanes ``x``, all
    below the pivot (p + 1)/(p + q + 2).

    Each lane freezes at its own convergence, once its odd-step factor d c
    is within ``_CF_EPS`` of 1: its value is its h then, as if every later
    factor were exactly 1.0, so a value never depends on which other points
    share the batch (a one-element call and a batch agree bit for bit).  The
    loop stops once all of its lanes have frozen or after ``_CF_MAX_ITER``
    steps.
    """
    pq = p + q
    # c and d, then aa and factor, are adjacent rows: one call adds 1 to c
    # and d, and aa and factor are the scratch of their tiny-value test.
    cd, scratch = np.split(np.empty((4, x.size)), 2)
    (c, d), (aa, factor) = cd, scratch
    c.fill(1.0)
    np.divide(np.multiply(x, pq, out=aa), p + 1.0, out=aa)
    np.subtract(1.0, aa, out=d)
    _clamp_tiny(d, factor)
    h = np.divide(1.0, d, out=d).copy()
    out = np.empty(x.size)
    live = np.ones(x.size, dtype=bool)
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # The even step, then the odd: aa = num x / den, d = 1 / (1 + aa d),
        # c = 1 + aa / c and h *= d c.
        for num, den in ((m * (q - m), ((p - 1.0) + m2) * (p + m2)),
                         (-(p + m) * (pq + m), (p + m2) * ((p + 1.0) + m2))):
            np.divide(np.multiply(x, num, out=aa), den, out=aa)
            np.multiply(aa, d, out=d)
            np.divide(aa, c, out=c)
            np.add(cd, 1.0, out=cd)
            _clamp_tiny(cd, scratch)
            np.divide(1.0, d, out=d)
            h *= np.multiply(d, c, out=factor)
        np.subtract(factor, 1.0, out=factor)
        going = np.abs(factor, out=factor) >= _CF_EPS
        frozen = np.flatnonzero(live & ~going)
        out[frozen] = h[frozen]
        live &= going
        if not live.any():
            break
    out[live] = h[live]
    return out


def _clamp_tiny(y: np.ndarray, scratch: np.ndarray) -> None:
    """Replace the values of magnitude below ``_CF_FPMIN`` by ``_CF_FPMIN``, in
    place, testing all of ``y`` at once in ``scratch`` (of ``y``'s shape)."""
    np.abs(y, out=scratch)
    if np.fmin.reduce(scratch, axis=None) < _CF_FPMIN:
        np.copyto(y, _CF_FPMIN, where=scratch < _CF_FPMIN)


def _bfrac(p: float, q: float, x: np.ndarray, xc: np.ndarray, log_b: float) -> np.ndarray:
    """I_x(p, q) by the continued fraction at the gathered 1-d lanes ``x``, all
    below the pivot (p + 1)/(p + q + 2), with xc = 1 - x (the exact t^2/(df+t^2)
    of the t CDF, or x itself for reflected lanes) and ``log_b`` = log B(p, q).

    A lane whose front factor x^p xc^q / B is exactly 0 (at x = 0, xc = 0 or
    by underflow at large shapes) is 0.0, and a call none of whose factors
    is above 0 runs no fraction: from a shape of about 1.3e154 on, where its
    terms overflow, no lane's factor is above 0.
    """
    with np.errstate(divide="ignore"):
        value = np.exp(p * np.log(x) + q * np.log(xc) - log_b)
    if value.any():
        value *= _betacf_many(p, q, x)
    value /= p
    return value


# ---------------------------------------------------------------------------
# Beta distribution
# ---------------------------------------------------------------------------

def beta_pdf_many(u, alpha: float, beta: float) -> np.ndarray:
    """Beta density f_B(u; alpha, beta) at each u in [0, 1].

    At u = 0 with alpha < 1 (and u = 1 with beta < 1) the density diverges and
    the result is ``+inf`` (documented sentinel); with shape exactly 1 the
    finite boundary limit is returned.  Runs a block at a time (:func:`_blocks`).
    """
    u = _unit_1d("u", u)
    ln_b = log_beta(alpha, beta)
    out = np.empty(u.shape)
    # IEEE arithmetic gives +inf or 0 at an end; only a shape of exactly 1
    # there makes the exponent 0 * -inf = nan, where the limit is 1/B.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for ub, ob in _blocks(u, out):
            np.multiply(np.log(ub), alpha - 1.0, out=ob)
            ob += (beta - 1.0) * np.log1p(-ub)
            ob -= ln_b
            np.exp(ob, out=ob)
            if alpha == 1.0:
                ob[ub == 0.0] = math.exp(-ln_b)
            if beta == 1.0:
                ob[ub == 1.0] = math.exp(-ln_b)
    return out


# BPSER (DiDonato & Morris 1992, TOMS 708): where both shapes are at most 1,
# I_x(a, b) = x^a / (a B(a, b)) sum_j k_j x^j for x <= 2^-1/2, with k_0 = 1,
# k_j = a c_j / (a + j) and c_j = prod_(i <= j) (i - b)/i.  Every k_j lies in
# [0, 1] and falls with j, so the tail beyond degree N is below
# k_(N+1) x^(N+1) / (1 - x), at most 2 k_(N+1) x^(N+1) for x <= 1/2 and
# 3.5 times it below 2^-1/2; a lane's degree is the smallest N that puts
# 2 k_(N+1) x^(N+1) at or below 2^-55 for the largest x of its
# quarter-binade, bin floor(-4 log2 x).  At x = 2^-1/2 no degree above 98 is
# needed (55 at x = 1/2), and from bin 224 on none above 0.
_SERIES_DEGREE = 110
_SERIES_BINS = 224
_QUARTER_BINADES_PER_LOG = 4.0 / math.log(2.0)


def _series_plan(a: float, b: float) -> tuple[list[float], np.ndarray]:
    """BPSER's coefficients k_0, ..., k_110 for I_x(a, b), a, b <= 1, and the
    degree that each quarter-binade of x <= 2^-1/2 needs (:data:`_SERIES_BINS`
    of them, as uint8)."""
    j = np.arange(1.0, _SERIES_DEGREE + 1.0)
    k = a * np.cumprod((j - b) / j) / (a + j)
    # Degree N serves bin i from i = ceil(4 (56 + log2 k_(N+1)) / (N+1)) on,
    # where 2 k_(N+1) 2^(-i (N+1)/4) <= 2^-55.  As the bound falls with N, the
    # count of degrees that do not serve a bin is the smallest that does.
    # Bins 0 and 1 hold no x <= 2^-1/2, so they take bin 2's degree.
    with np.errstate(divide="ignore"):
        first = np.sort(np.ceil((56.0 + np.log2(k)) * 4.0 / j))
    bins = np.maximum(np.arange(_SERIES_BINS), 2)
    degrees = _SERIES_DEGREE - np.searchsorted(first, bins, side="right")
    return [1.0, *k.tolist()], degrees.astype(np.uint8)


def _bpser(p: float, log_b: float, k: list[float], degrees: np.ndarray,
           x: np.ndarray) -> np.ndarray:
    """I_x(p, q) by BPSER at the gathered 1-d lanes x <= 0.7, with ``log_b`` =
    log B(p, q) and ``(k, degrees)`` = :func:`_series_plan` (p, q).

    The lanes are ordered by degree, a stable sort of small ints, and the
    sum is one Horner pass: its step j runs on the lanes of degree j and
    above, a suffix, and a lane joins at its own degree as 0 x + k_N, which
    is exact, so its value depends on x, p and q alone.  The front factor is
    exp(p log x - log_b) / p, :func:`_bfrac`'s without its q log(1 - x) term.
    """
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    bins = np.minimum(log_x * -_QUARTER_BINADES_PER_LOG, _SERIES_BINS - 1)
    degree = degrees[bins.astype(np.intp)]
    order = np.argsort(degree, kind="stable")
    xs = x[order]
    # The lanes of degree below j come first: start[j] of them.
    start = [0, *np.cumsum(np.bincount(degree, minlength=_SERIES_DEGREE + 1)).tolist()]
    total = np.zeros(x.size)
    for j in range(int(degree.max(initial=0)), -1, -1):
        lanes = total[start[j]:]
        lanes *= xs[start[j]:]
        lanes += k[j]
    value = np.exp(p * log_x - log_b)
    value[order] *= total
    value /= p
    return value


def _series_split(a: float, b: float) -> float:
    """The x up to which BPSER sums I_x(a, b) itself, and above which
    1 - I_(1-x)(b, a): 1/2, unless the smaller shape a0 is below
    min(0.2, b0), the larger.  Then, by TOMS 708's rule, the side x0 of a0
    (x0 = x where a0 = a, 1 - x where a0 = b) takes the other side's series
    wherever x0 >= 0.3 and x0^a0 > 0.9, that is from
    x0 = max(0.3, 0.9^(1/a0)) up to 1/2."""
    a0, b0 = min(a, b), max(a, b)
    if a0 >= min(0.2, b0):
        return 0.5
    edge = min(0.5, max(0.3, 0.9 ** (1.0 / a0)))
    return edge if a0 == a else 1.0 - edge


def _solve_where(solve: Callable, x: np.ndarray, mask: np.ndarray, out: np.ndarray) -> None:
    """out = solve(x) on the lanes of the 1-d ``x`` where ``mask`` holds, a
    block at a time (:func:`_blocks`); their index array is freed on return."""
    for (idx,) in _blocks(np.flatnonzero(mask)):
        out[idx] = solve(x[idx])


def beta_cdf_many(u, alpha: float, beta: float) -> np.ndarray:
    """Beta distribution function F_B(u; alpha, beta) = I_u(alpha, beta) at each u.

    The regularized incomplete beta for u in [0, 1] and positive shapes;
    never infinite.  Where both shapes are at most 1 it is the power series
    BPSER (:func:`_bpser`): up to :func:`_series_split` directly and above
    as 1 - I_(1-u)(beta, alpha), where 1 - u is exact.  Against
    ``tests/beta_cdf_table.py`` it is within 6 ulp on (0.01, 0.99) at the
    benchmark's fitted shapes (the continued fraction, within 12), within
    17 ulp from u = 0.01 up at every tabled shape but (0.9, 1e-3) above
    u = 0.7 (a few thousand; TOMS 708 takes BUP and BGRAT there), 36 ulp on
    u = U^12 and a few hundred below u = 1e-20, as the fraction is.  TOMS
    708's side rule took the (1e-3, 0.9) half and pivot bands from 13 and
    16 ulp to 0.12, and (0.9, 1e-3) on (0.5, 0.7] from about 1e-12 relative
    to 14 ulp.  Elsewhere it is Lentz's continued fraction (:func:`_bfrac`)
    on each side of the pivot (alpha + 1)/(alpha + beta + 2), within 1e-10
    of scipy's ``betainc`` for shapes from 1e-3 to 1e4.  Each side is solved
    apart: solving each block's lanes where they lie read 4.3-4.7% more
    peak RSS on lib-t-500k, and with the fraction 5-7% slower.
    """
    u = _unit_1d("u", u)
    flat = u.ravel()
    log_b = log_beta(alpha, beta)
    if alpha <= 1.0 and beta <= 1.0:
        below = flat <= _series_split(alpha, beta)
        lo, hi = _series_plan(alpha, beta), _series_plan(beta, alpha)
        lower = lambda x: _bpser(alpha, log_b, *lo, x)
        upper = lambda x: 1.0 - _bpser(beta, log_b, *hi, 1.0 - x)
    else:
        below = flat < (alpha + 1.0) / (alpha + beta + 2.0)
        lower = lambda x: _bfrac(alpha, beta, x, 1.0 - x, log_b)
        upper = lambda x: 1.0 - _bfrac(beta, alpha, 1.0 - x, x, log_b)
    out = np.empty(u.shape)
    _solve_where(lower, flat, below, out.reshape(-1))
    _solve_where(upper, flat, np.logical_not(below, out=below), out.reshape(-1))
    return out


# ---------------------------------------------------------------------------
# Student t
# ---------------------------------------------------------------------------

def _check_df(df, error: type[Exception] = DomainError) -> float:
    """``df`` as a float; ``error`` unless it is a finite positive real number, not a bool."""
    if not isinstance(df, bool) and isinstance(df, numbers.Real) and 0.0 < df < math.inf:
        try:
            return float(df)
        except OverflowError:  # an int beyond the float range
            pass
    raise error(f"df must be finite and positive, got {df!r}")


# BGRAT (DiDonato & Morris 1992, TOMS 708): the asymptotic expansion of
# I_y(a, b) for large a and small b, here b = 1/2.  The t CDF takes it from
# a = df/2 >= _BGRAT_MIN_A where y >= _BGRAT_MIN_Y; each lane adds terms until
# one is at most _BGRAT_EPS of its sum.
_BGRAT_MIN_A = 15.0
_BGRAT_MIN_Y = 0.7
_BGRAT_EPS = 1e-15


def _bgrat_coefficients(b: float, n_terms: int) -> tuple[float, ...]:
    """TOMS 708's d_1, ..., d_n for the shape b: with c_n = 1/(2n+1)!,
    d_n = (b - 1) c_n + (1/n) sum_{i<n} (i b - n) c_i d_(n-i)."""
    c: list[float] = []
    d: list[float] = []
    for n in range(1, n_terms + 1):
        c.append((c[-1] if c else 1.0) / ((2 * n) * (2 * n + 1)))
        s = sum((i * b - n) * c[i - 1] * d[n - i - 1] for i in range(1, n))
        d.append((b - 1.0) * c[-1] + s / n)
    return tuple(d)


_BGRAT_D = _bgrat_coefficients(0.5, 30)


def _bgrat_half(a: float, yc: np.ndarray) -> np.ndarray:
    """I_y(a, 1/2) at y = 1 - yc, for a >= _BGRAT_MIN_A and y >= _BGRAT_MIN_Y.

    With nu = a - 1/4, z = -nu log y and v = 1/(4 nu^2), I_y(a, 1/2) =
    K (J_0 + sum_n d_n J_n), K = Gamma(a + 1/2) / (Gamma(a) sqrt(nu)), where
    J_0 = Q(1/2, z) = erfc(sqrt z) = 2 Phi(-sqrt(2z)) and
    J_n = ((2n - 3/2)(2n - 1/2) J_(n-1) + (z + 2n - 1/2) T_(n-1)) v,
    T_n = R (log y / 2)^(2n), R = sqrt(z/pi) e^-z.  TOMS 708 divides the J_n
    by R, which vanishes with z; here they carry it.  Phi(-sqrt(2z)) is
    e^-z times Cody's tail ratio (:func:`_anorm_ratio`), or the centre branch
    at sqrt(2z) <= _ANORM_CENTRE.  Each lane adds terms until one is at most
    ``_BGRAT_EPS`` of its sum; from then on it adds exactly 0, so no value
    depends on its batch.  The value is at most 1, and exactly 1 at yc = 0.
    """
    nu = a - 0.25
    v = 0.25 / (nu * nu)
    log_y = np.log1p(-yc)
    z = log_y * -nu
    e = np.exp(-z)
    # Capped where e^-z is already exactly 0, so that Cody's ratio stays finite.
    s = np.minimum(np.sqrt(z + z), _Z_ZERO_TAIL)
    j = _anorm_ratio(s)
    j *= e
    centre = np.flatnonzero(s <= _ANORM_CENTRE)
    j[centre] = _anorm_centre(-s[centre])
    j += j
    total = j.copy()
    # w = T_n v and t2 = (log y / 2)^2.
    w = np.multiply(s, e, out=s)
    w *= v * _INV_SQRT_2PI
    t2 = np.multiply(log_y, log_y, out=log_y)
    t2 *= 0.25
    term, scratch = e, np.empty(j.shape)
    live = True
    for n, d_n in enumerate(_BGRAT_D, 1):
        j *= (2 * n - 1.5) * (2 * n - 0.5) * v
        np.add(z, 2 * n - 0.5, out=term)
        term *= w
        j += term
        w *= t2
        np.multiply(j, d_n, out=term)
        term *= live
        total += term
        live = np.greater(np.abs(term, out=term), np.multiply(total, _BGRAT_EPS, out=scratch))
        if not live.any():
            break
    # 2 a pi overflows from df 5.7e307 on; there nu = a.
    ratio = 2.0 * a * math.pi / nu if a < 2.8e307 else 2.0 * math.pi
    total *= math.exp(_log_t_scale(2.0 * a) + 0.5 * math.log(ratio))
    # Near z = 0 the sum can round above 1, which the value never exceeds.
    np.minimum(total, 1.0, out=total)
    total[yc == 0.0] = 1.0
    return total


def _t_ratios(t: np.ndarray, df: float) -> tuple[np.ndarray, np.ndarray]:
    """y = df/(df+t^2) and its complement yc = t^2/(df+t^2), each formed from t
    directly.  Where t * t overflows, y is 0 and yc (inf/inf) takes its limit
    1.  Where only df + t^2 overflows (|t| above 1e146, df near the float
    maximum), y and yc are both 0, and the lane takes its limit 0 or 1
    through a zero front factor, which is right: the t distribution has unit
    scale, so such a t lies over 1e146 standard deviations out."""
    with np.errstate(over="ignore", invalid="ignore"):
        t2 = t * t
        den = df + t2
        return df / den, np.fmin(np.divide(t2, den, out=t2), 1.0, out=t2)


def student_t_cdf_many(t, df: float) -> np.ndarray:
    """Student-t distribution function at each t; monotone in t, any real df > 0.

    The lower-tail mass is I_y(df/2, 1/2)/2 with y = df/(df+t^2).  One walk
    (:func:`_blocks`) forms y and 1 - y = t^2/(df+t^2) from t directly (so
    the tail keeps full relative accuracy) and evaluates, halves and reflects
    each block.  From df = 30 on, lanes with y >= 0.7 (t^2 <= 3 df/7) take
    the asymptotic expansion BGRAT (:func:`_bgrat_half`).  Against mpmath on
    t in [-0.65 sqrt(df), 0) it is within 1.6e-15 relative at df 30, 4.9e-15
    at df 100 and 3.5e-14 at df 867.5 (about t^2 ulp, the size of the
    rounding of t itself), and within 2 ulp of 1/2 near t = 0.  Every other
    lane takes the continued fraction (:func:`_bfrac`), solved in its own
    block, one call on each side of the pivot; its normalizer
    log B(df/2, 1/2) comes from :func:`_log_t_scale` from df = 16 on; in
    the far tails it is within about 2e-13 relative.  At t = +-0 the value
    is exactly 1/2, and at every finite df and t the value is finite, with
    no numpy warning.
    A one-ulp step of t moves the tail by about t^2 ulps; where that is below
    the rounding (near t^2 = 3 df/7 at df 30 to 100, say), two adjacent floats
    can fall by a few ulps.  At steps of 8 ulps it is nondecreasing across
    the switch.
    """
    df = _check_df(df)
    t = _finite_1d("t", t)
    a = 0.5 * df
    pivot = (a + 1.0) / (a + 2.5)
    y_bgrat = _BGRAT_MIN_Y if a >= _BGRAT_MIN_A else math.inf
    log_b = log_beta(a, 0.5) if df < _T_SCALE_MIN_DF else -_log_t_scale(df) - 0.5 * math.log(df)
    out = np.empty(t.shape)
    for tb, ob in _blocks(t, out):
        y, yc = _t_ratios(tb, df)
        bgrat = y >= y_bgrat
        if bgrat.all():
            ob[...] = _bgrat_half(a, yc)
        else:
            if bgrat.any():
                ob[bgrat] = _bgrat_half(a, yc[bgrat])
            # The block's fraction lanes, on each side of the pivot.
            lo = y < pivot
            below = np.flatnonzero(lo & ~bgrat)
            ob[below] = _bfrac(a, 0.5, y[below], yc[below], log_b)
            above = np.flatnonzero(~(lo | bgrat))
            ob[above] = 1.0 - _bfrac(0.5, a, yc[above], y[above], log_b)
        ob *= 0.5
        np.subtract(1.0, ob, out=ob, where=tb > 0.0)
    return out


# Odd-order terms of log(Gamma(a + 1/2) / (Gamma(a) sqrt(a))) ~ sum_k C_k a^-(2k+1),
# C_k = (2^-n - 2) B_(n+1) / (n (n+1)) with n = 2k + 1 (Bernoulli numbers B), C_8 first.
_T_SCALE_SERIES = (
    -0.359287374159869, 0.059100405375162764, -0.012819730318509616,
    0.0038341175426136365, -0.001681857638888889, 0.0011858258928571428,
    -0.0015625, 0.005208333333333333, -0.125,
)
_HALF_LOG_2PI = 0.9189385332046728


# From this df on, _log_t_scale takes its asymptotic series.
_T_SCALE_MIN_DF = 16.0


def _log_t_scale(df: float) -> float:
    """log of the t density at 0, log Gamma((df+1)/2) - log Gamma(df/2) - log(df pi)/2.

    From df = 16 on, by the asymptotic series in 1/a (a = df/2), which stays
    within an ulp; the difference of two ``lgamma`` values of size a log a
    would lose about a log a / 2^53 to cancellation (9e4 ulp at df = 1e4).
    """
    if df < _T_SCALE_MIN_DF:
        return math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    inv = 2.0 / df
    return _horner(_T_SCALE_SERIES, inv * inv) * inv - _HALF_LOG_2PI


def student_t_pdf_many(t, df: float) -> np.ndarray:
    """Student-t density with df degrees of freedom at each t."""
    df = _check_df(df)
    t = _finite_1d("t", t)
    # The exponent log c - (df + 1)/2 log1p(t^2/df) as a two-product and a
    # two-sum, so that its rounding error is carried past the exp.
    scale = _log_t_scale(df)
    # log1p is capped where (df + 1)/2 log1p(...) > 1000, an overflowing
    # t * t / df included: the density is 0 there.
    half = 0.5 * (df + 1.0)
    with np.errstate(over="ignore"):
        t2_df = t * t / df
    # The split of (df + 1)/2 overflows from df 2.7e300 on, so from df 1.3e300
    # the two-product takes it times 2^-600 and the log1p times 2^600: the
    # same product, exactly.
    shift = 2.0 ** 600 if half > 2.0 ** 996 else 1.0
    prod, prod_err = _two_product(half / shift,
                                  np.minimum(np.log1p(t2_df), 1000.0 / half) * shift)
    expo = scale - prod
    kept = expo - scale
    expo_err = ((scale - (expo - kept)) - (prod + kept)) - prod_err
    value = np.exp(expo)
    return value + value * expo_err
