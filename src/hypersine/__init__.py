"""Exponentials and sine functions on hypergroups.

A hypergroup here is a set where the convolution of two point masses is a
finitely supported probability measure.  An exponential satisfies
m(x*y) = m(x) m(y) and an m-sine function satisfies
f(x*y) = f(x) m(y) + f(y) m(x), where g(x*y) means integrating g against the
convolution measure.  The package builds the standard families (finite
tables, polynomial hypergroups in one and several variables, the stride-two
weighted integer hypergroup, Sturm-Liouville families on the half line, and
the double cosets of the affine group) and certifies the functional
equations numerically.
"""

from .dual import DualScalar, central_difference, derivative
from .core import (
    EvaluationError,
    FiniteHypergroup,
    FiniteMeasure,
    Hypergroup,
    NotHypergroupError,
    ResidualReport,
    SupportCapError,
    TabulatedFunction,
    TheoremViolationError,
    compact_vanishing_check,
    convolve_power,
    dump_finite_hypergroup,
    exp_residual,
    exponentials,
    integrate,
    load_finite_hypergroup,
    mix,
    power_identity_check,
    s3_conjugacy_hypergroup,
    sine_residual,
    sine_space,
    two_point_hypergroup,
)
from .polyhg import (
    PolynomialHypergroup,
    ThreeTermRecurrence,
    chebyshev_recurrence,
    eval_P,
    eval_P_with_derivative,
    exp_fn,
    legendre_recurrence,
    linearize,
    reconstruct_sine,
    recurrence_from_file,
    recurrence_from_lists,
    sine_fn,
)
from .su2 import Su2Hypergroup
from .multipoly import DegenerateParameterError, ProductPolyHypergroup
from .sturm import (
    CoshLineHypergroup,
    OdeSolution,
    SturmLiouvilleFunction,
    constant_family,
    cosh_hypergroup_check,
    dlambda_phi,
    power_family,
    solve_phi,
    solve_sine,
)
from .coset import (
    CosetHypergroup,
    coset_exponential,
    coset_of,
    coset_sine,
    falsify_dalembert_alpha,
    falsify_square_term,
    group_inv,
    group_mul,
    group_sine_check,
    square_norm_check,
)
from .suites import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"
