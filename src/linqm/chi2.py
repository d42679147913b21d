"""The chi-square upper tail, in plain Python.

``chdtrc(dof, x)`` is the probability that a chi-square variable with
``dof`` degrees of freedom exceeds ``x``: the regularized upper incomplete
gamma function Q(dof/2, x/2).  It ports Cephes ``igamc`` as scipy 1.17
ships it (xsf/cephes) operation for operation on Python floats: the same
dispatch to the series of DLMF 8.11.4, the cancellation-free series of DLMF
8.7.3 or the continued fraction of DLMF 8.9.2, the same Lanczos prefactor,
``lgam``, ``lgam1p``, ``zeta`` and ``expm1``, and the same constants.  So it
returns the float ``scipy.special.chdtrc`` returns, bit for bit, as long as
both call the same libm ``exp``, ``log``, ``pow`` and ``sqrt`` (Python's
``math`` functions and ``**`` call libm directly).  The oracle test in
tests/test_collapse.py checks that identity on the machine it runs on.

Above ``MAX_DOF`` degrees of freedom Cephes switches to Temme's asymptotic
expansion near x = dof, which needs a 25 x 25 coefficient table and two more
ports; no collapse run that small reaches it.  There, and for a ``dof`` that
is not positive, ``chdtrc`` returns scipy's value, importing
``scipy.special`` only then.
"""

from __future__ import annotations

import math

MAX_DOF = 40

_MACHEP = 1.11022302462515654042e-16
_MAXLOG = 7.09782712893383996843e2
_MAXITER = 2000
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16
_EULER = 0.577215664901532860606512090082402431
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))

# lgam: Stirling's correction (A) and the rational form on [2, 3) (B / C;
# C's leading 1 is the one Cephes p1evl leaves implicit).
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
      7.93650340457716943945e-4, -2.77777777730099687205e-3,
      8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
      -3.31612992738871184744e5, -1.16237097492762307383e6,
      -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
      -2.20528590553854454839e5, -1.13933444367982507207e6,
      -2.53252307177582951285e6, -2.01889141433532773231e6)

_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859)
_LANCZOS_DEN = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0,
                45995730.0, 105258076.0, 150917976.0, 120543840.0,
                39916800.0, 0.0)

# zeta: (2k)! / B_2k for the Euler-Maclaurin remainder.
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)

# expm1 on [-0.5, 0.5].
_EP = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2,
       9.9999999999999999991025e-1)
_EQ = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
       2.2726554820815502876593e-1, 2.0000000000000000000897e0)


def chdtrc(dof: float, x: float) -> float:
    """P(chi2_dof > x), equal to ``scipy.special.chdtrc(dof, x)``."""
    if not 0 < dof <= MAX_DOF:
        from scipy.special import chdtrc as scipy_chdtrc
        return float(scipy_chdtrc(dof, x))
    if x < 0.0:
        return 1.0
    return _igamc(dof / 2.0, x / 2.0)


def _igamc(a: float, x: float) -> float:
    """Q(a, x) for 0 < a <= 20, where Cephes never takes Temme's path."""
    if x == 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    if x <= 0.5:
        if -0.4 / math.log(x) < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_series(a, x)
    if x * 1.1 < a:
        return 1.0 - _igam_series(a, x)
    return _igamc_series(a, x)


def _igam_fac(a: float, x: float) -> float:
    """x**a * exp(-x) / Gamma(a); x < 200 wherever |a - x| <= 0.4 a."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        if ax < -_MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / _ratevl(a, _LANCZOS_NUM, _LANCZOS_DEN)
    return res * (math.exp(a - x) * (x / fac) ** a)


def _igamc_continued_fraction(a: float, x: float) -> float:
    """DLMF 8.9.2."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _igam_series(a: float, x: float) -> float:
    """P(a, x) by DLMF 8.11.4."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_series(a: float, x: float) -> float:
    """Q(a, x) by DLMF 8.7.3, for small x and a."""
    fac = 1.0
    total = 0.0
    for n in range(1, _MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _lgam1p(a))
    return term - math.exp(a * logx - _lgam(a)) * total


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ratevl(x: float, num, den) -> float:
    """num(x) / den(x) for equal degrees, in 1/x when |x| > 1."""
    if abs(x) > 1:
        num, den, x = num[::-1], den[::-1], 1 / x
    return _polevl(x, num) / _polevl(x, den)


def _lgam(x: float) -> float:
    """log Gamma(x) for 0 < x < 1000."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _B) / _polevl(x, _C)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    return q + _polevl(1.0 / (x * x), _A) / x


def _lgam1p(x: float) -> float:
    """log Gamma(1 + x)."""
    if abs(x) <= 0.5:
        return _lgam1p_taylor(x)
    if abs(x - 1) < 0.5:
        return math.log(x) + _lgam1p_taylor(x - 1)
    return _lgam(x + 1)


def _lgam1p_taylor(x: float) -> float:
    if x == 0:
        return 0.0
    res = -_EULER * x
    xfac = -x
    for n in range(2, 42):
        xfac *= -x
        coeff = _zeta(float(n)) * xfac / n
        res += coeff
        if abs(coeff) < _MACHEP * abs(res):
            break
    return res


def _zeta(x: float) -> float:
    """Riemann zeta(x) for x > 1 by Euler-Maclaurin: Cephes zeta(x, 1)."""
    s = 1.0
    a = 1.0
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _expm1(x: float) -> float:
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _polevl(xx, _EP)
    r = r / (_polevl(xx, _EQ) - r)
    return r + r
