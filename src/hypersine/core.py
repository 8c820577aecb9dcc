"""Hypergroups whose point-mass convolutions are finitely supported probability
measures, together with residual checkers for the exponential equation
m(x*y) = m(x)m(y) and the sine equation f(x*y) = f(x)m(y) + f(y)m(x).

``x*y`` always denotes integration against the convolution measure of the two
point masses, so f(x*y) is integrate(f, convolve(x, y)).
"""

from __future__ import annotations

import functools
import json
import operator
import random
from typing import NamedTuple

import numpy as np

WEIGHT_TOL = 1e-12          # construction tolerance for probability weights
VERIFY_WEIGHT_TOL = 1e-9    # exponential-equation default (sine_space)
DEFAULT_SUPPORT_CAP = 100_000


class EvaluationError(Exception):
    """A function could not be evaluated on a support element."""


class SupportCapError(Exception):
    """Convolution-power support grew past the configured cap."""


class NotHypergroupError(Exception):
    """Structure data fails the hypergroup axioms (weights, identity rows,
    associativity, involution)."""


class TheoremViolationError(Exception):
    """A certified identity failed beyond tolerance; carries the witness."""


class FiniteMeasure:
    """Finitely supported measure; by default a probability measure.

    Duplicate elements are merged on construction.  Weights must be real,
    >= -tol, and sum to 1 within tol times their number (at least tol)
    unless ``normalized=False``: the one rule for every convolution row."""

    __slots__ = ("_elements", "_weights")

    def __init__(self, pairs, tol=WEIGHT_TOL, normalized=True):
        acc = {}
        for el, w in pairs:
            acc[el] = acc.get(el, 0.0) + float(w)
        for el, w in acc.items():
            if not w >= -tol:   # NaN fails too
                raise NotHypergroupError(
                    f"weight {w!r} at element {el!r} is not >= {-tol!r}")
        if normalized:
            total = sum(acc.values())
            if not abs(total - 1.0) <= max(tol, tol * len(acc)):
                raise NotHypergroupError(
                    f"weights sum to {total!r}, expected 1")
        self._elements = tuple(acc.keys())
        self._weights = tuple(acc.values())

    @classmethod
    def point(cls, el):
        return cls(((el, 1.0),))

    @property
    def support(self):
        return self._elements

    @property
    def weights(self):
        return self._weights

    def items(self):
        return tuple(zip(self._elements, self._weights))

    def weight(self, el):
        for e, w in zip(self._elements, self._weights):
            if e == el:
                return w
        return 0.0

    def __len__(self):
        return len(self._elements)

    def __iter__(self):
        return iter(self.items())

    def __repr__(self):
        body = " + ".join(f"{w:.6g}*d[{el!r}]" for el, w in self.items())
        return f"<FiniteMeasure {body}>"

    def allclose(self, other, tol=WEIGHT_TOL):
        """True if both measures give every element the same weight within tol."""
        keys = set(self._elements) | set(other.support)
        return all(abs(self.weight(k) - other.weight(k)) <= tol for k in keys)


def integrate(f, mu):
    """Integral of ``f`` against a finite measure.

    Raises EvaluationError naming the offending element if ``f`` cannot be
    evaluated somewhere on the support.
    """
    total = 0.0
    for el, w in mu:
        try:
            v = f(el)
        except Exception as exc:
            raise EvaluationError(
                f"integrand undefined at support element {el!r}: {exc}"
            ) from exc
        total = total + w * v
    return total


def mix(weighted_measures, normalized=True):
    """Convex/linear combination sum_i alpha_i * mu_i as a FiniteMeasure."""
    return FiniteMeasure(((el, alpha * w) for alpha, mu in weighted_measures
                          for el, w in mu), normalized=normalized)


class TabulatedFunction:
    """Function on {0, .., len(values)-1} backed by an array of values; on
    an array of elements it returns the array of their values."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values)

    def __call__(self, n):
        el = np.asarray(n)
        bad = (el < 0) | (el >= len(self.values))
        if el.dtype.kind not in "iu":   # 1.5 and NaN are no elements either
            bad |= np.floor(el) != el
        if bad.any():
            el = n if el.ndim == 0 else el[bad].tolist()[0]
            raise IndexError(f"element {el!r} outside tabulated range")
        idx = el.astype(int, copy=False)
        return complex(self.values[idx]) if idx.ndim == 0 else self.values[idx]

    def __len__(self):
        return len(self.values)


class PairBatch:
    """The pairs (xs[i], ys[i]) of two element batches (see ``_pair_batch``),
    indexed and sized like a list of pairs: pair i is built on demand as the
    tuple of plain Python numbers the list would hold (``_element``).  The
    certifier never iterates one; iteration would build every pair."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys

    def __len__(self):
        return len(self.xs[0] if isinstance(self.xs, tuple) else self.xs)

    def __getitem__(self, i):
        return _element(self.xs, i), _element(self.ys, i)


def _pair_batch(pairs):
    """xs and ys of the pairs as batches: arrays, or tuples of coordinate
    arrays for tuple elements (``a, b = x`` unpacks an element or a batch).
    A PairBatch hands over its batches unchanged."""
    if len(pairs) == 0:
        raise ValueError("empty sample set")
    if isinstance(pairs, PairBatch):
        return pairs.xs, pairs.ys
    if isinstance(pairs[0][0], tuple):
        return tuple(tuple(map(np.array, zip(*els))) for els in zip(*pairs))
    return tuple(np.array(els) for els in zip(*pairs))


def _element(batch, i):
    """Element i of a batch as plain Python numbers."""
    if isinstance(batch, tuple):
        return tuple(c[i].item() for c in batch)
    return batch[i].item()


def _reject(bad, message, xs, ys):
    """ValueError naming the first pair flagged in ``bad``."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"{message}, got {_element(xs, i)!r}, {_element(ys, i)!r}")


def _finite(values, what, lam):
    """values, or OverflowError naming lam where they leave the float range."""
    if not np.isfinite(values).all():
        raise OverflowError(f"{what} overflows at lambda = {lam!r}")
    return values


def _compact(rows):
    """(column, weight) arrays holding each row's non-zero entries first, in
    column order; padding slots have weight 0 and point at column 0."""
    mask = rows != 0
    counts = np.count_nonzero(mask, axis=1)
    # each row's first counts slots; a mask scatters row by row, in order
    slots = np.arange(max(int(counts.max(initial=0)), 1)) < counts[:, None]
    cols = np.zeros(slots.shape, np.intp)
    weights = np.zeros(slots.shape, rows.dtype)
    cols[slots], weights[slots] = np.nonzero(mask)[1], rows[mask]
    return cols, weights


class Hypergroup:
    """Base class: a ground set with identity and point-mass convolution.

    Subclasses implement ``convolve_many(xs, ys) -> (support, weights)``,
    the convolutions of xs[i] and ys[i] for batches of elements (see
    ``_pair_batch``): [P, K] weights padded with zeros, and a support of
    that shape (for tuple elements, a tuple of coordinates that broadcast
    to it) whose padding slots hold valid elements.  ``_errors`` calls it
    once per pair set, for every equation checked there; a subclass whose
    convolve_many(ys, xs) has the rows of convolve_many(xs, ys) bit for bit
    declares ``_mirror_rows``, and mirrored pairs then share one
    convolution (the polynomial and su2 hypergroups).  The identity must
    satisfy convolve(o, x) = convolve(x, o) = point mass at x.
    ``weight_tol`` is the one tolerance at which every path judges its
    convolutions probability measures (``_powers``).
    """

    identity = None
    commutative = True
    weight_tol = WEIGHT_TOL

    def convolve_many(self, xs, ys):
        raise NotImplementedError

    def convolve(self, x, y):
        """The convolution of the point masses at x and y (``_powers``)."""
        return next(_powers(self, x, y, 1, DEFAULT_SUPPORT_CAP))

    def involution(self, x):
        return x


class FiniteHypergroup(Hypergroup):
    """Hypergroup on {0, .., N-1} given by a convolution tensor c[i][j][l].

    Element 0 is the identity.  Each row c[i][j][:] is the measure
    ``convolve(i, j)`` returns and must pass ``FiniteMeasure``, the
    identity rows must be exact point masses, the convolution associative,
    and each i must have exactly one inverse j, whose product with it
    charges the identity; i -> j is ``involution`` and must be one.  All
    at ``tol``, which stays the hypergroup's ``weight_tol``."""

    def __init__(self, tensor, name="", tol=WEIGHT_TOL):
        tensor = np.array(tensor, dtype=float)   # a copy, made read-only
        if tensor.ndim != 3 or len(set(tensor.shape)) != 1 or not tensor.size:
            raise NotHypergroupError(
                f"tensor shape {tensor.shape} is not (N, N, N), N >= 1")
        n = tensor.shape[0]
        # row x n + y holds x * y, padded to the widest row of the tensor
        self._cols, self._weights = _compact(tensor.reshape(n * n, n))
        for (i, j), cols, ws in zip(np.ndindex(n, n), self._cols.tolist(),
                                    self._weights.tolist()):
            try:   # the measure convolve(i, j) returns, by the same rule
                FiniteMeasure([(l, w) for l, w in zip(cols, ws) if w], tol)
            except NotHypergroupError as exc:
                raise NotHypergroupError(
                    f"convolution [{i}][{j}]: {exc}") from None
        eye = np.eye(n)
        if not (np.array_equal(tensor[0], eye) and np.array_equal(tensor[:, 0], eye)):
            raise NotHypergroupError("identity rows are not exact point masses")
        left = np.einsum("ijl,lkm->ijkm", tensor, tensor)
        right = np.einsum("jkl,ilm->ijkm", tensor, tensor)
        defect = np.abs(left - right).max()
        if not defect <= max(tol, tol * n):
            raise NotHypergroupError(
                f"convolution is not associative: defect {defect:.3g}")
        partners = (tensor[:, :, 0] > tol).sum(axis=1)
        if (partners != 1).any():
            i = int(np.argmax(partners != 1))
            raise NotHypergroupError(
                f"element {i} has {partners[i]} inverses, expected 1")
        inverse = np.argmax(tensor[:, :, 0] > tol, axis=1)
        if (inverse[inverse] != np.arange(n)).any():
            raise NotHypergroupError("inverse map is not an involution")
        tensor.flags.writeable = False
        self.tensor, self.weight_tol = tensor, tol
        self._inverse = dict(enumerate(inverse.tolist()))
        self.size = n
        self.name = name
        self.identity = 0
        self.commutative = bool(np.allclose(tensor, tensor.transpose(1, 0, 2)))

    def convolve_many(self, xs, ys):
        _reject((xs < 0) | (xs >= self.size) | (ys < 0) | (ys >= self.size),
                f"elements outside range 0..{self.size - 1}", xs, ys)
        rows = xs * self.size + ys
        return self._cols[rows], self._weights[rows]

    def involution(self, x):
        return self._inverse[x]

    def elements(self):
        return range(self.size)

    def all_pairs(self):
        return [(i, j) for i in range((self.size)) for j in range(self.size)]


def two_point_hypergroup(theta):
    """Two-element hypergroup where the non-identity squared is
    theta*d[0] + (1-theta)*d[1].  Requires 0 < theta <= 1."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta!r}")
    tensor = [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [theta, 1.0 - theta]],
    ]
    return FiniteHypergroup(tensor, name=f"two-point(theta={theta:g})")


def s3_conjugacy_hypergroup():
    """Three-element hypergroup of normalized conjugacy-class sums of the
    symmetric group on three letters: identity, transpositions, 3-cycles.

    Its middle exponential takes the value 0 on the transposition class.
    """
    third = 1.0 / 3.0
    tensor = [
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, 1.0, 0.0], [third, 0.0, 2 * third], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
    ]
    return FiniteHypergroup(tensor, name="s3-conjugacy")


class ResidualReport(NamedTuple):
    """Worst-case residual over a sample set.  At each sample an identity
    lhs = t_1 + .. + t_k has the error |lhs - t_1 - .. - t_k| and the
    relative error err / (1 + |t_1| + .. + |t_k|) (``_residual``).  max_abs
    and max_rel are the largest of each; witness is the first sample
    attaining max_abs.  A non-finite residual is a failure: both maxima
    are then non-finite and the witness is the first such sample.
    """

    max_abs: float
    max_rel: float
    witness: object
    samples: int

    def within(self, tol, relative=False):
        return (self.max_rel if relative else self.max_abs) <= tol


def _cmul(a, b):
    """a * b elementwise, rounded as Python's complex product (two real
    products, then their sum); numpy's complex multiply may fuse them."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind != "c" or b.dtype.kind != "c":
        return a * b
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    re = ar * br
    re -= ai * bi
    im = ar * bi
    im += ai * br
    out = np.empty(np.shape(re), complex)
    out.real, out.imag = re, im
    return out[()]


def _cabs(z):
    """|z| elementwise by hypot, as Python's abs of a complex; of a real z,
    np.abs, which is hypot(z, 0) exactly (up to the sign bit of a NaN)."""
    return np.hypot(z.real, z.imag) if np.iscomplexobj(z) else np.abs(z)


def _real(values, *params):
    """values.real (float64) when every parameter is real, an imaginary part
    of +0 or -0 included, else values.  A table at a real spectral
    parameter has zero imaginary parts, so a residual scan over its real
    parts finds the same errors in real arithmetic."""
    return values.real if all(complex(p).imag == 0 for p in params) else values


def _scan(errs, rels, witnesses):
    """Report over per-sample absolute and relative errors: the witness is
    witnesses[i], or witnesses(i) for a function of the sample index, for
    the first i attaining the largest absolute error, or for the first
    non-finite one, whose own values are then reported.  Only that one
    witness is built."""
    errs, rels = np.asarray(errs, float), np.asarray(rels, float)
    if len(errs) == 0:
        raise ValueError("empty sample set")
    finite = np.isfinite(errs)
    i = int(errs.argmax() if finite.all() else finite.argmin())
    max_rel = rels.max() if finite[i] else rels[i]
    return ResidualReport(float(errs[i]), float(max_rel), witnesses(i)
                          if callable(witnesses) else witnesses[i], len(errs))


def _residual(lhs, terms):
    """Absolute and relative errors of lhs = sum(terms), elementwise: the
    terms are subtracted from lhs left to right, and the relative error is
    the absolute one over 1 + the magnitudes of the terms."""
    with np.errstate(all="ignore"):
        err = _cabs(functools.reduce(operator.sub, terms, lhs))
        return err, err / sum(map(_cabs, terms), 1.0)


def _certify(got, want, rtol, witnesses, what):
    """None if got = want within relative error rtol (``_residual``) at every
    sample, else a TheoremViolationError naming the witness of the largest
    relative error, or of the first non-finite one: NaN fails."""
    rel = _residual(got, [want])[1]
    i = int(np.argmax(np.where(np.isfinite(rel), rel, np.inf)))
    if not rel[i] <= rtol:
        return TheoremViolationError(
            f"{what} at {witnesses[i]!r}: {got[i]} is not {want[i]} "
            f"(relative error {rel[i]:g})")


def _integrate_many(f, support, weights):
    """sum_K weights * f(support) per row, one slot of all rows at a time;
    each row adds left to right from +0.0, as ``integrate`` adds, and a
    zero weight adds nothing, whatever f is there.  An OverflowError (a
    table leaving the float range) passes unwrapped."""
    try:
        values = np.asarray(f(support))
        if values.shape != weights.shape:
            values = np.broadcast_to(values, weights.shape)
    except OverflowError:
        raise
    except Exception as exc:
        raise EvaluationError(
            f"integrand undefined at a support element: {exc}") from exc
    if not np.isfinite(values).all():   # 0 * inf is NaN: clear zero weights
        values = np.where(weights == 0, 0, values)
    out = np.zeros(len(weights), np.result_type(weights, values))
    for w, v in zip(weights.T, values.T):
        out += w * v
    parts = out.view(np.float64)   # +NaN: numpy signs a NaN by its place
    parts[np.isnan(parts)] = np.nan
    return out


def _mirrored(hg, xs, ys):
    """True if ``_errors`` may convolve each unordered pair once: hg
    declares ``_mirror_rows`` (convolve_many(ys, xs) has the rows of
    convolve_many(xs, ys), bit for bit) and the pairs are non-negative
    integers below 2^31 (the keys lo (max hi + 1) + hi fit 63 bits).  Other
    batches are convolved as given, so a bad element raises hg's own error."""
    return (getattr(hg, "_mirror_rows", False)
            and isinstance(xs, np.ndarray) and isinstance(ys, np.ndarray)
            and xs.dtype.kind in "iu" and ys.dtype.kind in "iu"
            and min(xs.min(), ys.min()) >= 0
            and max(xs.max(), ys.max()) < 1 << 31)


@np.errstate(all="ignore")
def _errors(hg, equations, pairs):
    """Per-pair errors (``_residual``) of each (f, m) in ``equations`` over
    the pairs: of f(x*y) = f(x)m(y) + f(y)m(x), or of m(x*y) = m(x)m(y) when
    f is None.  The pairs are batched (``_pair_batch``) and convolved once,
    for every equation; this is the only place an equation check does so.
    Where ``_mirrored`` allows, only the first of each unordered pair is
    convolved and integrated, in the order the per-pair path meets them,
    and a pair reads its integral there; right-hand terms are per pair.
    Each equation integrates first; consecutive equations with the same m
    share every value they read (``at``), and only the current m's are held."""
    xs, ys = _pair_batch(pairs)
    first = row = slice(None)   # every pair, as given
    if _mirrored(hg, xs, ys):
        lo, hi = (v.astype(np.int64)   # uint64 and int64 make float64
                  for v in (np.minimum(xs, ys), np.maximum(xs, ys)))
        _, first, row = np.unique(lo * (int(hi.max()) + 1) + hi,
                                  return_index=True, return_inverse=True)
        # the unique pairs back in pair order, as the per-pair path meets
        # them: _integrate_many's EvaluationError names the first bad element
        order = np.argsort(first)
        first, row = first[order], np.argsort(order)[row]
    support, weights = hg.convolve_many(xs[first], ys[first])
    errors, last, points = [], None, (support, xs, ys)

    # at(g, i) is g(points[i]), or of(*its parts' values) where g has a
    # form (of, *parts).  A value is held until a read marked final, or
    # until m changes; m's own values are read again by m's next equation.
    def at(g, i, final=False):
        if (id(g), i) in held:
            return held.pop((id(g), i)) if final else held[id(g), i]
        of, *parts = getattr(g, "form", (g, None))   # None: the points
        args = [points[i] if part is None else
                at(part, i, final and part is not m) for part in parts]
        if final and i == 0:   # f's integral reads the support last
            held.pop((id(m), 0), None)
        return of(*args) if final else held.setdefault((id(g), i), of(*args))
    for f, m in equations:
        last, held = m, ({} if m is not last else held)
        lhs = _integrate_many(lambda _: at(m, 0) if f is None
                              else at(f, 0, True), support, weights)[row]
        errors.append(_residual(lhs, [_cmul(at(m, 1), at(m, 2))] if f is None
                                else [_cmul(at(f, 1, True), at(m, 2)),
                                      _cmul(at(f, 2, True), at(m, 1))]))
    del at   # at refers to itself: free its values now, not at a collection
    return errors


def _interleaved(errors, pairs, tags):
    """``_scan`` of the ``_errors`` of one equation per tag, alternating pair
    by pair; the witness is tagged (tag, x, y), and only it is built."""
    return _scan(*(np.column_stack(col).ravel() for col in zip(*errors)),
                 lambda k: (tags[k % len(tags)], *pairs[k // len(tags)]))


def _propagate(hg, ms, f1s, n_max):
    """Row d: the ms[d]-sine f on 0..n_max with f(0) = 0, f(1) = f1s[d], by
    f(n*1) = f(n) m(1) + f1 m(n) solved for f(n+1) on a hypergroup on the
    nonnegative integers whose n*1 charges n+1 and nothing beyond.  One
    ``convolve_many`` call for all rows (none at n_max = 1)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    f = np.zeros((len(ms), n_max + 1), dtype=complex)
    f[:, 1] = f1s
    if n_max == 1:
        return f
    ns = np.arange(1, n_max)
    support, weights = hg.convolve_many(ns, np.ones_like(ns))
    rows = np.zeros((n_max - 1, n_max + 1))
    # add, not assign: a zero-weight padding slot may repeat a real element
    np.add.at(rows, (ns[:, None] - 1, support), weights)
    for fd, mv, f1 in zip(f, [m(np.arange(n_max + 1)) for m in ms], f1s):
        for n, row in enumerate(rows, 1):
            fd[n + 1] = (fd[n] * mv[1] + f1 * mv[n]
                         - row[:n + 1] @ fd[:n + 1]) / row[n + 1]
    return f


def sine_residual(hg, f, m, pairs):
    """Residual of f(x*y) = f(x)m(y) + f(y)m(x) over the given pairs; f and
    m are called on batches of elements (see ``_pair_batch``)."""
    return _scan(*_errors(hg, [(f, m)], pairs)[0], pairs)


def exp_residual(hg, m, pairs):
    """Residual of m(x*y) = m(x)m(y) over the given pairs; m is called on
    batches of elements (see ``_pair_batch``)."""
    return _scan(*_errors(hg, [(None, m)], pairs)[0], pairs)


def _powers(hg, x, y, n_max, cap):
    """d_x * d_y^n for n = 1..n_max, one ``convolve_many`` per power, each
    judged a probability measure at hg.weight_tol."""
    mu = FiniteMeasure.point(x)
    for n in range(1, n_max + 1):
        support, weights = hg.convolve_many(
            *_pair_batch([(el, y) for el in mu.support]))
        if isinstance(support, tuple):   # coordinates as wide as weights
            support = tuple(np.broadcast_arrays(weights, *support)[1:])
        i, j = np.nonzero(weights)   # row by row; a NaN weight is kept
        mu = FiniteMeasure(zip([_element(support, ij) for ij in zip(i, j)],
                               np.array(mu.weights)[i] * weights[i, j]),
                         hg.weight_tol)
        if len(mu) > cap:
            raise SupportCapError(
                f"support grew past cap {cap} while forming {x!r} * {y!r}^{n}")
        yield mu


def convolve_power(hg, y, n, cap=DEFAULT_SUPPORT_CAP):
    """n-th convolution power of the point mass at y (n >= 1)."""
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n!r}")
    mu = FiniteMeasure.point(y)
    for mu in _powers(hg, y, y, n - 1, cap):
        pass
    return mu


def power_identity_check(hg, f, m, x, y, n_max, cap=DEFAULT_SUPPORT_CAP):
    """Residual of f(x*y^n) = f(x)m(y)^n + n f(y)m(x)m(y)^(n-1) for n <= n_max.

    The witness in the report is the exponent n attaining the worst residual.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    my, mx, fx, fy = m(y), m(x), f(x), f(y)
    rows = [(integrate(f, mu), fx * my ** n, n * fy * mx * my ** (n - 1))
            for n, mu in enumerate(_powers(hg, x, y, n_max, cap), start=1)]
    lhs, t1, t2 = (np.array(col) for col in zip(*rows))
    return _scan(*_residual(lhs, [t1, t2]), range(1, n_max + 1))


def sine_space(hg, m, exp_tol=VERIFY_WEIGHT_TOL):
    """Basis of the space of m-sine functions of a finite hypergroup.

    Solves the N^2-by-N linear system
        sum_l c[i][j][l] f(l) - m(j) f(i) - m(i) f(j) = 0
    by singular value decomposition; the rank cutoff is
    max(N^2, N) * machine epsilon * largest singular value.

    ``m`` must pass exp_residual at ``exp_tol`` over all pairs, otherwise a
    ValueError is raised.  Returns a list of TabulatedFunction basis elements.
    """
    return _sine_space(hg, m, exp_tol)[0]


def _sine_space(hg, m, exp_tol=VERIFY_WEIGHT_TOL):
    """``sine_space`` and the worst max_abs of its basis (0.0 if empty)."""
    n = hg.size
    m_vals = np.asarray([complex(m(i)) for i in range(n)] if callable(m)
                        else [complex(v) for v in m])
    if len(m_vals) != n:
        raise ValueError(f"m has {len(m_vals)} values, hypergroup has {n}")
    m_fn, pairs = TabulatedFunction(m_vals), hg.all_pairs()
    rep = exp_residual(hg, m_fn, pairs)
    if not rep.within(exp_tol):   # NaN fails too
        raise ValueError(
            f"m is not an exponential at tolerance {exp_tol:g}: "
            f"residual {rep.max_abs:g} at pair {rep.witness}")
    # row i n + j: sum_l c[i][j][l] f(l) - m(j) f(i) - m(i) f(j)
    a = hg.tensor.astype(complex).reshape(n * n, n)
    i, j = np.divmod(np.arange(n * n), n)
    a[np.arange(n * n), i] -= m_vals[j]
    a[np.arange(n * n), j] -= m_vals[i]
    _, s, vh = np.linalg.svd(a, full_matrices=False)   # U is never read
    cutoff = max(a.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
    rank = int((s > cutoff).sum())
    basis = [TabulatedFunction(vec.conj()) for vec in vh[rank:]]
    errors = basis and _errors(hg, [(fb, m_fn) for fb in basis], pairs)
    worst = float(np.max([err.max() for err, _ in errors], initial=0.0))
    if not worst <= max(exp_tol, 10 * cutoff * n):   # NaN fails too
        raise RuntimeError(
            f"solver returned a non-solution: residual {worst:g}")
    return basis, worst


def compact_vanishing_check(hg, m, basis, tol=1e-10):
    """True if f(y) * m(y) vanishes within tol for every basis f and element
    y; m and the basis functions are called on the array of all elements."""
    ys = np.array(hg.elements())
    m_fn = m if callable(m) else TabulatedFunction(m)
    return all(np.all(_cabs(_cmul(f(ys), m_fn(ys))) <= tol) for f in basis)


def _uniforms(rng, count, low, high):
    """count draws low + (high - low) * rng.random() as an array; the
    random() stream of a seeded random.Random is the same in every Python.
    random() makes a double of two 32-bit outputs as ((a >> 5) 2^26 +
    (b >> 6)) 2^-53; one getrandbits(64 count) holds the same outputs as
    little-endian words, and float64 floors do the shifts exactly."""
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u4")
    a, b = np.floor(words.reshape(-1, 2) * np.array([2.0 ** -5, 2.0 ** -6])).T
    return low + (high - low) * ((a * 2.0 ** 26 + b) * 2.0 ** -53)


def exponentials(hg, tol=VERIFY_WEIGHT_TOL):
    """Validated exponentials of a finite hypergroup.

    An exponential m satisfies T_i m = m(i) m for every transition matrix
    T_i[j, l] = c[i][j][l], so it is an eigenvector of any combination
    sum_i r_i T_i.  Candidates are the eigenvectors of one fixed generic
    combination (a single T_i can have repeated eigenvalues, as on products),
    normalized to m(0) = 1, filtered by exp_residual and sorted by
    (-Re m(1), -Im m(1)), ties broken by the later elements.
    """
    if hg.size == 1:
        return [np.ones(1)]
    r = _uniforms(random.Random(0), hg.size, 1.0, 2.0)
    _, eigvecs = np.linalg.eig(np.einsum("i,ijl->jl", r, hg.tensor))
    ms = [vec / vec[0] for vec in eigvecs.T
          if not abs(vec[0]) < 1e-12 * np.linalg.norm(vec)]
    ms = [m.real.astype(complex) if np.abs(m.imag).max() < 1e-12 else m
          for m in ms]
    errors = _errors(hg, [(None, TabulatedFunction(m)) for m in ms],
                     hg.all_pairs())
    found = []
    for m, (err, _) in zip(ms, errors):   # a NaN max fails the test
        if err.max() <= tol and not any(
                np.allclose(m, other, atol=1e-9) for other in found):
            found.append(m)
    return sorted(found, key=lambda m: [(-v.real, -v.imag) for v in m[1:]])


def load_finite_hypergroup(path):
    """Load a finite hypergroup from JSON {"size", "tensor", "name"}."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        size = data["size"]
        tensor = data["tensor"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed hypergroup spec {path!r}: {exc}") from exc
    tensor = np.asarray(tensor, dtype=float)
    if tensor.shape != (size, size, size):
        raise ValueError(
            f"tensor shape {tensor.shape} does not match size {size}")
    return FiniteHypergroup(tensor, name=data.get("name", ""))


def dump_finite_hypergroup(hg, path):
    """Write a finite hypergroup as JSON {"size", "tensor", "name"}."""
    data = {"size": hg.size, "tensor": hg.tensor.tolist(), "name": hg.name}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
