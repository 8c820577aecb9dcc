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
                   TabulatedFunction, TheoremViolationError, _compact,
                   _reject, _residual)

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
        self._validate()

    def _validate(self):
        top = 64 if self.max_order is None else self.max_order
        if float(self.a(0)) <= 0:
            raise NotHypergroupError(f"a_0 = {self.a(0)} must be positive")
        if abs(float(self.a(0)) + float(self.b(0)) - 1.0) > 1e-12:
            raise NotHypergroupError("a_0 + b_0 must equal 1")
        for n in range(1, top + 1):
            an, bn, cn = float(self.a(n)), float(self.b(n)), float(self.c(n))
            if an <= 0 or cn <= 0:
                raise NotHypergroupError(
                    f"a_{n} and c_{n} must be positive, got {an}, {cn}")
            if abs(an + bn + cn - 1.0) > 1e-12:
                raise NotHypergroupError(
                    f"a_{n} + b_{n} + c_{n} must equal 1, got {an + bn + cn}")

    def check_order(self, n):
        if self.max_order is not None and n > self.max_order:
            raise ValueError(
                f"recurrence {self.name!r} only defined up to order "
                f"{self.max_order}, requested {n}")

    def _float_coeffs(self, n):
        """Float rows (a, b, c) for degrees 0..n-1, converted once."""
        self.check_order(n)
        if self._floats.shape[1] < n:
            self._floats = np.array([[float(f(i)) for i in range(n)]
                                     for f in (self.a, self.b, self.c)])
        return self._floats[:, :n]

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
    order = min(len(a), len(b), len(c)) - 1
    if order < 1:
        raise ValueError("coefficient lists must cover n = 0 and n = 1")
    av, bv, cv = list(map(float, a)), list(map(float, b)), list(map(float, c))
    return ThreeTermRecurrence(
        a=lambda n: av[n], b=lambda n: bv[n], c=lambda n: cv[n],
        name=name, max_order=order)


def recurrence_from_file(path):
    """Load a recurrence from JSON {"name", "a", "b", "c"[, "closed_form"]}."""
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


def exp_values(rec, n_max, lam):
    """Array of P_n(lam) for n = 0..n_max."""
    return _p_and_dp(rec._float_coeffs(n_max), lam)[0]


def sine_values(rec, n_max, lam, c=1.0):
    """Array of c * P_n'(lam) for n = 0..n_max."""
    dp = _p_and_dp(rec._float_coeffs(n_max), lam)[1]
    # Python complex products: numpy's fused multiply-add rounds differently
    return np.array([0j] + [c * d for d in dp[1:].tolist()], dtype=complex)


def exp_fn(rec, lam, n_max=256):
    """Exponential n -> P_n(lam) as a tabulated function."""
    return TabulatedFunction(exp_values(rec, n_max, lam))


def sine_fn(rec, c, lam, n_max=256):
    """Sine function n -> c * P_n'(lam) as a tabulated function."""
    return TabulatedFunction(sine_values(rec, n_max, lam, c))


def _linearize_step(cur, prev, m, a, b, c):
    """Carry rows (P_m P_k, P_(m-1) P_k), one row per k, to (P_(m+1) P_k,
    P_m P_k).  A row holds P-basis coefficients; ``cur`` has width w and
    ``prev`` width w - 1.  x P_l = a_l P_(l+1) + b_l P_l + c_l P_(l-1)."""
    w = cur.shape[1]
    out = np.zeros((len(cur), w + 1))
    out[:, 1:] += a[:w] * cur
    out[:, :w] += b[:w] * cur
    out[:, :w - 1] += c[1:w] * cur[:, 1:]
    out[:, :w] -= b[m] * cur
    out[:, :w - 1] -= c[m] * prev
    return out / a[m], cur


def linearize(rec, n, k, exact=False):
    """Convolution measure of degrees n and k: the coefficients of
    P_n * P_k = sum_l w_l P_l, read from a ``PolynomialHypergroup`` table.

    With ``exact=True`` the reduction runs in rational arithmetic instead,
    as an oracle for n + k <= 32.  A coefficient below -1e-10 means the
    recurrence does not define a hypergroup and raises NotHypergroupError.
    """
    n, k = int(n), int(k)
    if n < 0 or k < 0:
        raise ValueError(f"degrees must be >= 0, got {n}, {k}")
    if n > k:
        n, k = k, n
    rec.check_order(n + k)
    if exact:
        coeffs = _linearize_exact(rec, n, k)
        pairs = [(l, float(w)) for l, w in enumerate(coeffs) if w != 0]
        if any(w < 0 for _, w in pairs):
            raise NotHypergroupError(
                f"negative linearization coefficient at ({n}, {k})")
        return FiniteMeasure(pairs, tol=NEGATIVE_COEFF_TOL)
    return PolynomialHypergroup(rec).convolve(n, k)


def _linearize_exact(rec, n, k):
    """P-basis coefficients of P_n P_k in rational arithmetic, by the step
    P_(m+1) = ((x - b_m) P_m - c_m P_(m-1)) / a_m applied n times to P_k."""
    a, b, c = ([Fraction(f(i)) for i in range(n + k + 1)]
               for f in (rec.a, rec.b, rec.c))
    prev, cur = [Fraction(0)] * k, [Fraction(0)] * k + [Fraction(1)]
    for m in range(n):
        # x P_l = a_l P_(l+1) + b_l P_l + c_l P_(l-1)
        nxt = [Fraction(0)] * (len(cur) + 1)
        for l, v in enumerate(cur):
            nxt[l + 1] += a[l] * v
            nxt[l] += (b[l] - b[m]) * v
            if l:
                nxt[l - 1] += c[l] * v
        for l, v in enumerate(prev):
            nxt[l] -= c[m] * v
        prev, cur = cur, [w / a[m] for w in nxt]
    return cur


class PolynomialHypergroup(Hypergroup):
    """Hypergroup on degrees with convolution given by linearization: one
    table G[m, k, l], the coefficient of P_l in P_m P_k (zero below
    DROP_COEFF_TOL), stored for m <= k only and read at (min, max); it
    grows to the largest row m and column k asked for."""

    def __init__(self, rec):
        self.rec = rec
        self.identity = 0
        self.commutative = True
        self.table = np.zeros((0, 0, 0))

    def convolve_many(self, ns, ks):
        _reject((ns < 0) | (ks < 0), "degrees must be >= 0", ns, ks)
        lo, hi = np.minimum(ns, ks), np.maximum(ns, ks)
        self.build_table(int(lo.max()), int(hi.max()))
        return _compact(self.table[lo, hi])

    def convolve(self, n, k):
        return super().convolve(n, k, tol=NEGATIVE_COEFF_TOL)

    def build_table(self, m_max, k_max=None):
        """Grow the table to the rows m <= m_max and columns k <= k_max
        (default m_max), at least as far as it reached, in one block
        reduction: at step m the rows hold P_m * P_k for k = m..k_max.
        Needs the recurrence up to degree m_max + k_max; the first (m, k)
        with a weight below -NEGATIVE_COEFF_TOL raises NotHypergroupError."""
        k_max = max(m_max if k_max is None else k_max,
                    self.table.shape[1] - 1)
        m_max = max(m_max, len(self.table) - 1)
        if self.table.shape[:2] == (m_max + 1, k_max + 1):
            return
        coeffs = self.rec._float_coeffs(m_max + k_max)
        table = np.zeros((m_max + 1, k_max + 1, m_max + k_max + 1))
        cur, prev = np.eye(k_max + 1), np.zeros((k_max + 1, k_max))
        for m in range(m_max + 1):
            if m:
                cur, prev = _linearize_step(cur[1:], prev[1:], m - 1, *coeffs)
            table[m, m:, :cur.shape[1]] = cur
        bad = np.argwhere(table.min(axis=-1) < -NEGATIVE_COEFF_TOL)
        if len(bad):
            m, k = bad[0]
            raise NotHypergroupError(f"negative linearization coefficient "
                                     f"{table[m, k].min():g} at ({m}, {k})")
        table[np.abs(table) <= DROP_COEFF_TOL] = 0.0
        self.table = table


def reconstruct_sine(rec, lam, f1, n_max, rtol=1e-9):
    """Propagate the sine equation against degree one upward from
    f(0) = 0, f(1) = f1 and compare with the derivative formula.

    The step solves f(n*1) = f(n) P_1(lam) + f1 P_n(lam) for f(n+1), with
    f(n*1) expanded in the linearization of P_1 * P_n.  The result must
    match f1 * a_0 * P_n'(lam) (the unique sine function with that value
    at 1); a mismatch beyond rtol raises TheoremViolationError.
    """
    hg = PolynomialHypergroup(rec)
    hg.build_table(1, n_max - 1)
    rows = hg.table[1, 1:]   # row n - 1 holds P_1 * P_n for n = 1..n_max-1
    p_vals = exp_values(rec, n_max, lam)
    f = np.zeros(n_max + 1, dtype=complex)
    f[1] = f1
    for n, row in enumerate(rows, 1):
        f[n + 1] = (f[n] * p_vals[1] + f1 * p_vals[n]
                    - row[:n + 1] @ f[:n + 1]) / row[n + 1]
    expected = sine_values(rec, n_max, lam, float(rec.a(0))) * f1
    rel = _residual(f, [expected])[1]
    worst = int(np.argmax(rel))   # the first NaN, if there is one
    if not rel[worst] <= rtol:
        raise TheoremViolationError(
            f"reconstructed value {f[worst]} at n={worst} is not "
            f"{expected[worst]} (relative error {rel[worst]:g})")
    return TabulatedFunction(f)
