"""Recurrence data the tests share: the ultraspherical polynomials,
Jacobi(alpha, alpha) normalized to P_n(1) = 1, whose recurrence is
x P_n = a_n P_(n+1) + c_n P_(n-1) with b_n = 0 and

    a_n = (n + 2 alpha + 1) / (2n + 2 alpha + 1),
    c_n = n / (2n + 2 alpha + 1).
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
