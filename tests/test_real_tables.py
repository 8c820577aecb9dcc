"""At a real spectral parameter (and a real c, where a sine table has one)
the family tables are float64: the real parts of the complex evaluation,
bit for bit, whose imaginary parts are all zero.  The complex evaluation is
the same code with ``core._real`` made the identity."""

import contextlib
import json

import numpy as np
import pytest

from hypersine import core, coset, multipoly, polyhg, suites
from hypersine.core import TabulatedFunction, _cabs, _errors
from hypersine.polyhg import recurrence_from_file
from recurrences import ultraspherical_spec

LAMS = (0.0, -0.0, 0.7, -0.5, 1.0, -1.0, 2.5, complex(0.7, 0.0),
        complex(0.7, -0.0), complex(-0.5, -0.0))
CS = (1.0, -1.5, complex(2.0, 0.0), complex(0.3, -0.0))
N = 12
# coset points: ln x < 0, = 0 and > 0
COSET_POINTS = (np.array([0.1, 0.5, 1.0, 1.0, 2.0, 10.0]),
                np.array([0.0, 3.0, 0.0, 1.5, 2.0, 7.0]))


@contextlib.contextmanager
def complex_evaluation():
    """Every table site evaluates as if no parameter were real."""
    with pytest.MonkeyPatch.context() as mp:
        for mod in (polyhg, multipoly, coset, suites):
            mp.setattr(mod, "_real", lambda values, *params: values)
        yield


def ultraspherical(tmp_path):
    path = tmp_path / "ultraspherical.json"
    path.write_text(json.dumps(ultraspherical_spec(0.7, 2 * N + 1,
                                                   "ultraspherical-0.7")))
    return recurrence_from_file(path)


def families(tmp_path):
    """name -> ``suites._Family`` of each family of the table, and of an
    ultraspherical recurrence file."""
    out = {name: suites._FAMILIES[name]() for name in
           ("chebyshev", "legendre", "su2", "product", "coset")}
    out["ultraspherical"] = suites._poly_family(ultraspherical(tmp_path))
    return out


def points(name, fam):
    if name == "coset":
        return COSET_POINTS
    if name == "product":
        return tuple(np.array(fam.elements(N)).T)
    return np.arange(N + 1)


def tables(name, fam, c, lam):
    """(f, m) of the family at its points, as arrays."""
    lam = (lam, 0.8) if name == "product" else lam
    f, m = fam.pair(c, lam, N)
    at = points(name, fam)
    return [np.asarray(g(at)) for g in (f, m)]


@pytest.mark.parametrize("name", ["chebyshev", "legendre", "ultraspherical",
                                  "su2", "product", "coset"])
def test_real_parameters_give_the_real_parts_of_the_complex_tables(
        name, tmp_path):
    fam = families(tmp_path)[name]
    for lam in LAMS:
        for c in CS:
            real = tables(name, fam, c, lam)
            with complex_evaluation():
                cplx = tables(name, fam, c, lam)
            for r, z in zip(real, cplx):
                assert r.dtype == np.float64 and z.dtype == np.complex128
                assert r.tobytes() == z.real.tobytes(), (lam, c)
                assert (z.imag == 0).all()


@pytest.mark.parametrize("name", ["chebyshev", "su2", "product", "coset"])
def test_a_complex_c_or_lambda_keeps_complex_tables(name, tmp_path):
    fam = families(tmp_path)[name]
    f, m = tables(name, fam, complex(0.3, 0.7), 0.6)
    assert f.dtype == np.complex128 and m.dtype == np.float64
    for c in (1.0, complex(0.3, 0.7)):
        f, m = tables(name, fam, c, complex(0.6, 1e-300))
        assert f.dtype == m.dtype == np.complex128


@pytest.mark.parametrize("lam", [complex(0.7, 0.0), complex(0.7, -0.0)])
def test_a_zero_imaginary_part_of_either_sign_is_real(lam):
    z = np.array([1.5 + 0j, -2.0 - 0j])
    assert core._real(z, lam, 1.0).dtype == np.float64
    assert core._real(z, lam, 1j) is z and core._real(z, 1j) is z


def test_scalar_calls_still_return_python_complex():
    f, m = suites._FAMILIES["legendre"]().pair(1.0, 0.7, N)
    assert type(f(3)) is complex and type(m(3)) is complex
    assert m.values.dtype == np.float64


@pytest.mark.parametrize("name", ["chebyshev", "legendre", "ultraspherical",
                                  "su2", "product", "coset"])
def test_errors_on_float_tables_equal_errors_on_complex_ones(name, tmp_path):
    fam = families(tmp_path)[name]
    if name == "coset":
        xs, us = COSET_POINTS
        pairs = core.PairBatch((xs, us), (xs[::-1], us[::-1]))
    else:
        pairs = [(x, y) for x in fam.elements(N // 2)
                 for y in fam.elements(N // 2)]
    for lam in (0.7, -0.5, 0.0):
        f, m = fam.pair(-1.5, (lam, 0.8) if name == "product" else lam, N)
        assert np.isrealobj(f(points(name, fam)))

        def widen(g):
            if isinstance(g, TabulatedFunction):
                return TabulatedFunction(g.values.astype(complex))
            return lambda x: np.asarray(g(x), complex)
        real = _errors(fam.hg, [(None, m), (f, m)], pairs)
        cplx = _errors(fam.hg, [(None, widen(m)), (widen(f), widen(m))],
                       pairs)
        for (err, rel), (zerr, zrel) in zip(real, cplx):
            assert err.dtype == zerr.dtype == np.float64
            assert err.tobytes() == zerr.tobytes()
            assert rel.tobytes() == zrel.tobytes()


def test_cabs_of_a_real_array_is_hypot_with_zero():
    x = np.array([0.0, -0.0, 1.5, -2.5, 5e-324, -1e308, np.inf, -np.inf,
                  np.nan])
    assert _cabs(x).tobytes() == np.hypot(x, 0.0).tobytes()
    z = np.empty(len(x), complex)
    z.real, z.imag = x, x[::-1]
    assert _cabs(z).tobytes() == np.hypot(z.real, z.imag).tobytes()
