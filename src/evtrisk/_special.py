"""The two special functions evtrisk takes the bits of from SciPy, without it.

`ndtri` is a port of the Cephes routine (Moshier 1989), the one that
`scipy.special.ndtri` runs, and `xlogy` the formula of
`scipy.special.xlogy`.  Both take libm's log and sqrt through `math`, as
SciPy's compiled code does, so they give SciPy's bits: NumPy's `np.log`
does not, as at the AVX-512 level it runs SVML kernels that round
otherwise.  Tests check the bits against SciPy.
"""

from __future__ import annotations

import math

import numpy as np

# the polynomial coefficients of Cephes ndtri, highest power first; the
# denominators Q have a leading 1 that is not stored
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# y - 1/2 for |y - 1/2| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z = sqrt(-2 log y) in [2, 8), y between exp(-2) and exp(-32)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# z in [8, 64], y below exp(-32)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef) -> float:
    """The polynomial with coefficients coef at x, by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef) -> float:
    """`_polevl` with a leading coefficient 1 before coef."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y) -> float:
    """The standard normal quantile at a float y: -inf at 0, inf at 1, NaN
    outside [0, 1] and at NaN.

    Central y is a rational function of y - 1/2; in each tail a rational
    function of 1 / sqrt(-2 log y) corrects sqrt(-2 log y), with y taken as
    1 - y in the upper tail.
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if y < 0.0 or y > 1.0:
        return math.nan
    lower = not y > 1.0 - _EXP_M2  # NaN takes the lower branch, as in Cephes
    if not lower:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))  # NaN stays NaN
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = (x - math.log(x) / x) - z * _polevl(z, p) / _p1evl(z, q)
    return -x if lower else x


def _log(y: float) -> float:
    """libm's log, with log(0) = -inf and NaN below 0."""
    if y > 0.0:
        return math.log(y)
    return -math.inf if y == 0.0 else math.nan


def _changes(a) -> np.ndarray:
    """Where the 1-D array a differs from the element before, the first
    element included; a NaN always differs."""
    return np.concatenate(([True], a[1:] != a[:-1]))


def xlogy(x, y) -> np.ndarray:
    """x * log(y), and 0 where x == 0 and y is not NaN, elementwise.

    The log is taken once per distinct value of y, found among the first
    elements of the runs of equal y in flat order.  That keeps the work
    small on the ratios of moving windows, which change only where a count
    does and take few values.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.zeros(x.shape)
    if out.size:
        flat = y.ravel()
        starts = np.flatnonzero(_changes(flat))
        runs = flat[starts]
        distinct = np.sort(runs)
        distinct = distinct[_changes(distinct)]
        logs = np.array([_log(v) for v in distinct.tolist()])
        log_y = np.repeat(logs[np.searchsorted(distinct, runs)], np.diff(starts, append=flat.size))
        np.multiply(x, log_y.reshape(y.shape), out=out, where=(x != 0.0) | (y != y))
    return out
