"""Polynomial hypergroups on the nonnegative integers.

A three-term recurrence x*P_n = a_n P_(n+1) + b_n P_n + c_n P_(n-1) with
P_0 = 1, P_1 = (x - b_0)/a_0 and a_n + b_n + c_n = 1 (so P_n(1) = 1) defines
a sequence of polynomials.  When every product P_n * P_k expands in the basis
with nonnegative coefficients, those coefficients are the convolution weights
of a hypergroup on the degrees.  The exponentials are n -> P_n(lam) and the
sine functions are n -> c * P_n'(lam).
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .core import (FiniteMeasure, Hypergroup, NotHypergroupError,
                   TabulatedFunction, _certify, _compact, _finite,
                   _propagate, _real, _reject)

NEGATIVE_COEFF_TOL = 1e-10   # below this a linearization weight is an error
DROP_COEFF_TOL = 1e-13       # floating-point zeros created by cancellation


class ThreeTermRecurrence:
    """Recurrence data (a_n, b_n, c_n) with the P_n(1) = 1 normalization.

    Coefficients are callables of n; built-ins return Fractions so exact
    linearization is available.  ``max_order`` bounds the usable degree for
    recurrences loaded from finite coefficient lists.
    """

    def __init__(self, a, b, c, name="", max_order=None):
        self.a = a
        self.b = b
        self.c = c
        self.name = name
        self.max_order = max_order
        self._floats = np.empty((3, 0))
        self._convert(65 if max_order is None else max_order + 1)

    def check_order(self, n):
        if self.max_order is not None and n > self.max_order:
            raise ValueError(
                f"recurrence {self.name!r} only defined up to order "
                f"{self.max_order}, requested {n}")

    def _float_coeffs(self, n):
        """Checked float rows (a, b, c) for degrees 0..n-1."""
        self.check_order(n)
        if self._floats.shape[1] < n:
            self._convert(n)
        return self._floats[:, :n]

    def _convert(self, n):
        """Extend the float table to degrees 0..n-1, converting each new
        degree once, and check the table: a_0 > 0 and a_0 + b_0 = 1, then
        a_n > 0, c_n > 0 and a_n + b_n + c_n = 1, within 1e-12."""
        floats = np.concatenate([self._floats, [
            [float(f(i)) for i in range(self._floats.shape[1], n)]
            for f in (self.a, self.b, self.c)]], axis=1)
        a, b, c = floats
        if not a[0] > 0:
            raise NotHypergroupError(f"a_0 = {self.a(0)} must be positive")
        if not abs(a[0] + b[0] - 1.0) <= 1e-12:
            raise NotHypergroupError("a_0 + b_0 must equal 1")
        with np.errstate(invalid="ignore"):   # inf - inf is NaN, and fails
            ok = (a > 0) & (c > 0) & (np.abs(a + b + c - 1.0) <= 1e-12)
        bad = np.flatnonzero(~ok[1:]) + 1   # NaN fails too
        if len(bad):
            n, (an, bn, cn) = bad[0], floats[:, bad[0]].tolist()
            if not (an > 0 and cn > 0):
                raise NotHypergroupError(
                    f"a_{n} and c_{n} must be positive, got {an}, {cn}")
            raise NotHypergroupError(
                f"a_{n} + b_{n} + c_{n} must equal 1, got {an + bn + cn}")
        self._floats = floats

    def __repr__(self):
        return f"<ThreeTermRecurrence {self.name!r}>"


def chebyshev_recurrence():
    """First-kind Chebyshev polynomials: x*T_n = (T_(n+1) + T_(n-1))/2."""
    half = Fraction(1, 2)
    return ThreeTermRecurrence(
        a=lambda n: Fraction(1) if n == 0 else half,
        b=lambda n: Fraction(0),
        c=lambda n: half,
        name="chebyshev")


def legendre_recurrence():
    """Legendre polynomials: x*P_n = ((n+1) P_(n+1) + n P_(n-1)) / (2n+1)."""
    return ThreeTermRecurrence(
        a=lambda n: Fraction(n + 1, 2 * n + 1),
        b=lambda n: Fraction(0),
        c=lambda n: Fraction(n, 2 * n + 1),
        name="legendre")


def recurrence_from_lists(a, b, c, name=""):
    """Recurrence from finite coefficient lists indexed by n."""
    if not 2 <= len(a) == len(b) == len(c):
        raise ValueError(f"coefficient lists must cover n = 0 and n = 1 and "
                         f"be equally long, got {len(a)}, {len(b)}, {len(c)}")
    order = len(a) - 1
    av, bv, cv = list(map(float, a)), list(map(float, b)), list(map(float, c))
    return ThreeTermRecurrence(
        a=lambda n: av[n], b=lambda n: bv[n], c=lambda n: cv[n],
        name=name, max_order=order)


def recurrence_from_file(path):
    """Recurrence from JSON {"name", "a", "b", "c"}, other keys ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return recurrence_from_lists(
            data["a"], data["b"], data["c"], name=data.get("name", ""))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed recurrence file {path!r}: {exc}") from exc


BUILTIN_RECURRENCES = {
    "chebyshev": chebyshev_recurrence,
    "legendre": legendre_recurrence,
}


def _p_and_dp(coeffs, lam):
    """P_0..P_N and P'_0..P'_N at lam from float coefficient rows (a, b, c)
    of degrees 0..N-1.  P'_(m+1) = ((lam - b_m) P'_m + P_m - c_m P'_(m-1))
    / a_m runs in the operation order of forward-mode dual numbers, so both
    arrays match dual-number evaluation bit for bit, signed zeros included."""
    a, b, c = coeffs.tolist()
    lam = complex(lam)
    p, dp = [1 + 0j], [0j]
    if a:
        p.append((lam - b[0]) / a[0])
        dp.append((1 + 0j) / a[0])
    for m in range(1, len(a)):
        x = lam - b[m]
        p.append((x * p[m] - c[m] * p[m - 1]) / a[m])
        # (1 + 0j) * P_m, not P_m: this complex product sets the sign of a
        # zero real part as the dual-number product rule does
        dp.append((x * dp[m] + (1 + 0j) * p[m] - c[m] * dp[m - 1]) / a[m])
    return np.array(p), np.array(dp)


def eval_P(rec, n, lam):
    """P_n(lam) by the forward recurrence; lam may be real or complex."""
    return eval_P_with_derivative(rec, n, lam)[0]


def eval_P_with_derivative(rec, n, lam):
    """(P_n(lam), P_n'(lam)) by the (P, P') recurrence."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    p, dp = _p_and_dp(rec._float_coeffs(n), lam)
    return complex(p[n]), complex(dp[n])


def _finite_p_and_dp(rec, n_max, lam):
    """P_0..P_n_max and P'_0..P'_n_max at lam; OverflowError naming lam
    where either leaves the float range."""
    p, dp = _p_and_dp(rec._float_coeffs(n_max), lam)
    what = f"{rec.name or 'recurrence'} table"
    return _finite(p, what, lam), _finite(dp, what, lam)


def _sine_and_exp(rec, n_max, lam, c=1.0):
    """``sine_fn`` and ``exp_fn`` on 0..n_max from one recurrence run."""
    p, dp = _finite_p_and_dp(rec, n_max, lam)
    # Python complex products: numpy's fused multiply-add rounds differently
    sine = np.array([0j] + [c * d for d in dp[1:].tolist()])
    return (TabulatedFunction(_real(sine, lam, c)),
            TabulatedFunction(_real(p, lam)))


def exp_fn(rec, lam, n_max=256):
    """Exponential n -> P_n(lam) as a tabulated function (``core._real``)."""
    return TabulatedFunction(_real(_finite_p_and_dp(rec, n_max, lam)[0], lam))


def sine_fn(rec, c, lam, n_max=256):
    """Sine function n -> c * P_n'(lam) as a tabulated function."""
    return _sine_and_exp(rec, n_max, lam, c)[0]


def _linearize_step(cur, prev, m, a, b, c):
    """Carry rows (P_m P_k, P_(m-1) P_k), one row per k, to (P_(m+1) P_k,
    P_m P_k).  A row holds P-basis coefficients; ``cur`` has width w and
    ``prev`` width w - 1.  x P_l = a_l P_(l+1) + b_l P_l + c_l P_(l-1)."""
    w = cur.shape[1]
    out = np.zeros((len(cur), w + 1), dtype=cur.dtype)
    out[:, 1:] += a[:w] * cur
    out[:, :w] += b[:w] * cur
    out[:, :w - 1] += c[1:w] * cur[:, 1:]
    out[:, :w] -= b[m] * cur
    out[:, :w - 1] -= c[m] * prev
    return out / a[m], cur


def _linearize_block(coeffs, lo, hi):
    """Row i: the P-basis coefficients of P_lo[i] P_hi[i], lo <= hi, in the
    dtype of the coefficient rows (a, b, c) of degrees below max(lo) +
    max(hi): floats, or Fractions in an object array.  One reduction over
    the columns k = k_min..k_max of hi holds P_m P_k, k >= max(m, k_min), at
    step m; the first (m, k) with a weight below -NEGATIVE_COEFF_TOL raises
    NotHypergroupError."""
    m_max, k_min, k_max = int(lo.max()), int(hi.min()), int(hi.max())
    dtype = coeffs.dtype
    rows = np.zeros((len(lo), m_max + k_max + 1), dtype)
    low = np.zeros((m_max + 1, k_max - k_min + 1), dtype)   # row minima
    cur = np.eye(k_max - k_min + 1, k_max + 1, k_min, dtype)   # P_k
    prev = np.zeros((len(cur), k_max), dtype)
    order = np.argsort(lo, kind="stable")   # the pairs grouped by lo
    ends = np.searchsorted(lo[order], np.arange(m_max + 2))
    for m in range(m_max + 1):
        if m:
            drop = int(m > k_min)   # column m - 1 is no longer read
            cur, prev = _linearize_step(cur[drop:], prev[drop:], m - 1,
                                        *coeffs)
        low[m, -len(cur):], at = cur.min(axis=1), order[ends[m]:ends[m + 1]]
        rows[at, :cur.shape[1]] = cur[hi[at] - (k_max + 1 - len(cur))]
    for m, k in np.argwhere(low < -NEGATIVE_COEFF_TOL)[:1]:   # the first
        raise NotHypergroupError(f"negative linearization coefficient "
                                 f"{float(low[m, k]):g} at ({m}, {k + k_min})")
    return rows


def linearize(rec, n, k, exact=False):
    """Convolution measure of degrees n and k: the coefficients of
    P_n * P_k = sum_l w_l P_l, from ``PolynomialHypergroup.convolve``; both
    paths judge it a probability measure at the hypergroup's weight_tol.

    With ``exact=True`` the block reduction ``_linearize_block`` runs on
    ``Fraction`` coefficients (n + k <= 32), deciding signs exactly: a
    negative weight, or an intermediate P_m * P_k weight below -1e-10 (the
    float rule), raises NotHypergroupError.  The measure holds ``float(w)``;
    exact callers use ``_linearize_block`` on ``Fraction`` rows.
    """
    n, k = int(n), int(k)
    if n < 0 or k < 0:
        raise ValueError(f"degrees must be >= 0, got {n}, {k}")
    if n > k:
        n, k = k, n
    rec._float_coeffs(n + k)   # checks every degree the rows read
    if exact:
        coeffs = np.array([[Fraction(f(i)) for i in range(n + k)]
                           for f in (rec.a, rec.b, rec.c)], dtype=object)
        [row] = _linearize_block(coeffs, np.array([n]), np.array([k]))
        if any(w < 0 for w in row):
            raise NotHypergroupError(
                f"negative linearization coefficient at ({n}, {k})")
        return FiniteMeasure([(l, float(w)) for l, w in enumerate(row) if w],
                             PolynomialHypergroup.weight_tol)
    return PolynomialHypergroup(rec).convolve(n, k)


class PolynomialHypergroup(Hypergroup):
    """Hypergroup on degrees with convolution given by linearization: the
    weight of l in n * k is the coefficient of P_l in P_n P_k, zero below
    DROP_COEFF_TOL.  Nothing is stored between calls."""

    _mirror_rows = True   # a pair and its mirror reduce as (min, max)
    weight_tol = NEGATIVE_COEFF_TOL   # the rule _linearize_block raises at
    identity = 0

    def __init__(self, rec):
        self.rec = rec

    def convolve_many(self, ns, ks):
        """Rows of (min, max) of each pair from one float reduction
        (``_linearize_block``), zero within DROP_COEFF_TOL."""
        _reject((ns < 0) | (ks < 0), "degrees must be >= 0", ns, ks)
        lo, hi = np.minimum(ns, ks), np.maximum(ns, ks)
        rows = _linearize_block(
            self.rec._float_coeffs(int(lo.max()) + int(hi.max())), lo, hi)
        rows[(rows >= -DROP_COEFF_TOL) & (rows <= DROP_COEFF_TOL)] = 0.0
        return _compact(rows)

    def convolve(self, n, k):
        # its own name: perfbench's span recorder wraps it in this class
        return super().convolve(n, k)


def reconstruct_sine(rec, lam, f1, n_max, rtol=1e-9):
    """The sine function propagated from f(0) = 0, f(1) = f1, certified
    against f1 * a_0 * P_n'(lam), the unique sine function with that value
    at 1: TheoremViolationError beyond rtol (``core._certify``)."""
    sine, exp = _sine_and_exp(rec, n_max, lam, float(rec.a(0)))
    [f] = _propagate(PolynomialHypergroup(rec), [exp], [f1], n_max)
    if error := _certify(f, sine.values * f1, rtol, range(n_max + 1),
                         "reconstructed value"):
        raise error
    return TabulatedFunction(f)
