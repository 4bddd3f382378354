import math

import numpy as np
import pytest
from scipy.linalg import lapack
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emprint import numerics as nm

from oracles import (laplace_det, permutation_parity, power_iteration_two_norm,
                     random_complex)

complex_entries = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def square_matrices(n):
    return hnp.arrays(np.complex128, (n, n), elements=complex_entries)


# ---------------------------------------------------------------------------
# Determinant
# ---------------------------------------------------------------------------

def test_determinant_2x2_closed_form():
    assert nm.determinant([[1, 2], [3, 4]]) == pytest.approx(-2.0)


def test_determinant_identity():
    assert nm.determinant(np.eye(4)) == pytest.approx(1.0)


def test_determinant_matches_cofactor_oracle(rng):
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = laplace_det(a)
        got = nm.determinant(a)
        assert abs(got - expected) <= 1e-10 * abs(expected)


def test_determinant_of_singular_is_zero():
    assert nm.determinant([[1.0, 2.0], [2.0, 4.0]]) == 0j


def test_determinant_permutation_parity(rng):
    for _ in range(10):
        perm = rng.permutation(6)
        p = np.eye(6)[perm]
        assert nm.determinant(p) == pytest.approx(permutation_parity(perm))


@settings(max_examples=30, deadline=None)
@given(square_matrices(3), square_matrices(3))
def test_determinant_product_rule(a, b):
    ka = np.linalg.cond(a) if np.isfinite(a).all() else np.inf
    kb = np.linalg.cond(b)
    assume(np.isfinite(ka) and ka < 1e3 and np.isfinite(kb) and kb < 1e3)
    lhs = nm.determinant(a @ b)
    rhs = nm.determinant(a) * nm.determinant(b)
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


@pytest.mark.parametrize("fn", [nm.determinant, nm.condition_number_2, nm.inverse_two_norm])
def test_stack_matches_per_matrix(rng, fn):
    stack = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    stack[1, 2] = 1.0  # exactly singular: determinant 0, norms inf
    got = fn(stack)
    assert got.shape == (2, 3)
    assert np.array_equal(got, [[fn(a) for a in row] for row in stack])
    # A stack of one 1x1 matrix stays a stack.
    assert fn(stack[:1, :1, :1, :1]).shape == (1, 1)


def test_scalar_results_for_single_matrix(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert type(nm.determinant(a)) is complex
    assert type(nm.condition_number_2(a)) is float
    assert type(nm.inverse_two_norm(a)) is float


def test_stacked_functions_reject_bad_shapes():
    for fn in (nm.determinant, nm.condition_number_2, nm.inverse_two_norm):
        for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3)), np.ones((2, 0, 0))):
            with pytest.raises(ValueError):
                fn(bad)
        with pytest.raises(ValueError):
            fn(np.full((2, 2, 2), np.inf))


# ---------------------------------------------------------------------------
# Norms and conditioning
# ---------------------------------------------------------------------------

def test_condition_number_identity_is_exactly_one():
    assert nm.condition_number_2(np.eye(5)) == 1.0


def test_condition_number_diagonal():
    assert nm.condition_number_2(np.diag([10.0, 1.0])) == pytest.approx(10.0)


def test_condition_number_cross_check_explicit_inverse(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    inv = np.linalg.inv(a)
    expected = power_iteration_two_norm(a) * power_iteration_two_norm(inv)
    assert abs(nm.condition_number_2(a) - expected) <= 1e-8 * expected


def test_condition_number_singular_is_infinite():
    assert math.isinf(nm.condition_number_2([[1.0, 1.0], [1.0, 1.0]]))
    assert math.isinf(nm.condition_number_2(np.zeros((2, 2))))


def test_inverse_two_norm_identity():
    assert nm.inverse_two_norm(np.eye(3)) == pytest.approx(1.0)


def test_inverse_two_norm_diagonal():
    assert nm.inverse_two_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0)


def test_inverse_two_norm_matches_explicit_inverse(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    inv = np.linalg.inv(a)
    expected = power_iteration_two_norm(inv)
    assert abs(nm.inverse_two_norm(a) - expected) <= 1e-8 * expected


def test_inverse_two_norm_singular_is_infinite():
    assert math.isinf(nm.inverse_two_norm(np.zeros((3, 3))))


@settings(max_examples=50, deadline=None)
@given(square_matrices(3))
def test_condition_number_at_least_one(a):
    assert nm.condition_number_2(a) >= 1.0 - 1e-12


@settings(max_examples=30, deadline=None)
@given(square_matrices(3))
# Singular values [5.6e-272, 2.4e-288, 1.1e-319]: sigma_max * 1e-300
# underflows to 0 and 1/sigma_min overflows, so both must read as singular.
@example(np.full((3, 3), 1.31894039e-272 + 1.31894039e-272j))
def test_condition_number_factors_into_norms(a):
    kappa = nm.condition_number_2(a)
    if math.isinf(nm.inverse_two_norm(a)):
        assert math.isinf(kappa)
    assume(math.isfinite(kappa))
    product = np.linalg.norm(a, 2) * nm.inverse_two_norm(a)
    assert abs(kappa - product) <= 1e-8 * kappa


# ---------------------------------------------------------------------------
# Full SVD and the row-append secular function
# ---------------------------------------------------------------------------

def test_svd_reconstructs_input(rng):
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    u, s, vh = nm.svd(a)
    assert u.shape == (3, 3) and s.shape == (3,) and vh.shape == (5, 5)
    assert np.all(np.diff(s) <= 0)
    assert np.max(np.abs((u * s) @ vh[:3] - a)) <= 1e-13
    assert np.max(np.abs(vh @ vh.conj().T - np.eye(5))) <= 1e-13


@pytest.mark.parametrize("grading", [0, 6], ids=["unit", "graded"])
@pytest.mark.parametrize("m", [2, 3, 6, 12])
def test_secular_sign_brackets_smallest_singular_value(rng, m, grading):
    # V = [A; x] for 40 random rows x; "graded" scales V's columns from 1 down
    # to 10^-6. Away from sigma_min(V)^2 (np.linalg.svd) by more than a
    # relative 1e-6 plus the roundoff shift 32 m eps (s_1^2 + ||x||^2), the
    # computed f is above its rounding bound exactly when mu is above the root.
    columns = np.logspace(0, -grading, m)
    a = random_complex(rng, m - 1, m) * columns
    x = random_complex(rng, 40, m) * columns
    _, s, vh = nm.svd(a)
    d = np.append(s * s, 0.0)
    w2 = np.abs(x @ vh.conj().T) ** 2
    v = np.empty((40, m, m), dtype=complex)
    v[:, : m - 1] = a
    v[:, m - 1] = x
    root = np.linalg.svd(v, compute_uv=False)[:, -1] ** 2
    shift = 32 * m * np.finfo(float).eps * (d[0] + np.sum(np.abs(x) ** 2, axis=1))
    below = root * (1 - 1e-6) - shift
    above = root * (1 + 1e-6) + shift
    f, bound = nm.secular(d, w2, below)
    assert not np.any((below > 0) & (f > bound))
    f, bound = nm.secular(d, w2, above)
    inside = above < d[-2]
    assert inside.sum() >= 20
    assert np.all(f[inside] > bound[inside])
    # LAPACK's secular solver finds the same root of the same equation:
    # d ascending, a unit updating vector z and rho = ||w||^2.
    for k in range(40):
        rho = w2[k].sum()
        _, sigma, _, info = lapack.dlasd4(0, np.sqrt(d[::-1]), np.sqrt(w2[k, ::-1] / rho), rho)
        assert info == 0
        assert abs(sigma ** 2 - root[k]) <= 1e-10 * root[k] + shift[k]

