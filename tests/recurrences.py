"""Recurrence data the tests share, as (a, b, c) of

    x R_n = a_n R_(n+1) + b_n R_n + c_n R_(n-1),   R_n(1) = 1.

The ultraspherical polynomials are Jacobi(alpha, alpha) normalized to
R_n(1) = 1, with b_n = 0 and

    a_n = (n + 2 alpha + 1) / (2n + 2 alpha + 1),
    c_n = n / (2n + 2 alpha + 1).

The Jacobi polynomials R_n = P_n^(alpha, beta) / P_n^(alpha, beta)(1), with
s = alpha + beta, have b_n = 1 - a_n - c_n and

    a_n = 2 (n + alpha + 1) (n + s + 1) / ((2n + s + 1) (2n + s + 2)),
    c_n = 2 n (n + beta) / ((2n + s) (2n + s + 1)).

Their linearization is nonnegative exactly on Gasper's region (Canad. J.
Math. 22, 1970): alpha >= beta > -1 and A (A + 5) (A + 3)^2 >=
(A^2 - 7A - 24) B^2, with A = alpha + beta + 1 and B = alpha - beta.
"""


def ultraspherical_coefficients(alpha):
    """(a, c) as callables of n; rational for a Fraction alpha."""
    return (lambda n: (n + 2 * alpha + 1) / (2 * n + 2 * alpha + 1),
            lambda n: n / (2 * n + 2 * alpha + 1))


def ultraspherical_lists(alpha, top):
    """Float lists (a, b, c) for degrees 0..top.  a_0 = 1 and c_0 = 0, also
    at alpha = -1/2, where the formula reads 0/0."""
    a, c = ultraspherical_coefficients(alpha)
    ns = range(1, top + 1)
    return ([1.0] + [a(n) for n in ns], [0.0] * (top + 1),
            [0.0] + [c(n) for n in ns])


def ultraspherical_spec(alpha, top, name):
    """The recurrence spec {"name", "a", "b", "c"} of those lists, as
    ``recurrence_from_file`` reads it."""
    return dict(zip("abc", ultraspherical_lists(alpha, top)), name=name)


def jacobi_lists(alpha, beta, top):
    """Float lists (a, b, c) for degrees 0..top.  a_0 = 2 (alpha + 1) /
    (s + 2) and c_0 = 0, also at s = -1, where the formula reads 0/0."""
    s = alpha + beta
    a = [2 * (alpha + 1) / (s + 2)] + [
        2 * (n + alpha + 1) * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2))
        for n in range(1, top + 1)]
    c = [0.0] + [2 * n * (n + beta) / ((2 * n + s) * (2 * n + s + 1))
                 for n in range(1, top + 1)]
    return a, [1 - an - cn for an, cn in zip(a, c)], c


def jacobi_spec(alpha, beta, top, name):
    """The recurrence spec {"name", "a", "b", "c"} of those lists."""
    return dict(zip("abc", jacobi_lists(alpha, beta, top)), name=name)


def in_gasper_region(alpha, beta):
    """Whether Jacobi(alpha, beta) has a nonnegative linearization."""
    big_a, big_b = alpha + beta + 1, alpha - beta
    return alpha >= beta > -1 and (
        big_a * (big_a + 5) * (big_a + 3) ** 2
        >= (big_a ** 2 - 7 * big_a - 24) * big_b ** 2)
