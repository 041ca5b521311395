import numpy as np
import numpy.testing as npt
import pytest

from fem_surrogate.errors import DimensionMismatch, Singular
from fem_surrogate import numerics


def reconstruct(f):
    n = f.n
    low = np.tril(f.lu, -1) + np.eye(n, dtype=f.lu.dtype)
    up = np.triu(f.lu)
    return low @ up


def test_identity_factors_trivially():
    f = numerics.lu_factor(np.eye(3))
    npt.assert_array_equal(f.lu, np.eye(3))
    npt.assert_array_equal(f.perm, np.arange(3))


def test_permutation_matrix_pivots():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = numerics.solve(a, np.array([1.0, 2.0]))
    npt.assert_allclose(x, [2.0, 1.0], rtol=0, atol=0)


def test_diagonal_solve():
    x = numerics.solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
    npt.assert_allclose(x, [1.0, 2.0], rtol=0, atol=0)


def test_complex_diagonal_solve():
    a = np.array([[1j, 0.0], [0.0, 1.0]])
    x = numerics.solve(a, np.array([1j, 5.0]))
    npt.assert_allclose(x, [1.0, 5.0], rtol=1e-15)


def test_identity_rhs_passthrough():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(7)
    npt.assert_array_equal(numerics.solve(np.eye(7), b), b)


def test_diagonally_dominant_residual():
    rng = np.random.default_rng(1)
    n = 50
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1))
    b = rng.standard_normal(n)
    x = numerics.lu_solve(numerics.lu_factor(a), b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10


@pytest.mark.parametrize("n", [3, 20, 87, 200])
def test_reconstruction_bound(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    f = numerics.lu_factor(a)
    err = np.abs(reconstruct(f) - a[f.perm]).max()
    assert err <= 1e-12 * np.abs(a).max()


def test_complex_reconstruction_and_solve():
    rng = np.random.default_rng(5)
    n = 40
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = numerics.lu_factor(a)
    assert np.abs(reconstruct(f) - a[f.perm]).max() <= 1e-12 * np.abs(a).max()
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = numerics.lu_solve(f, b)
    npt.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-10)


def test_multiple_right_hand_sides():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 12)) + np.eye(12) * 6.0
    b = rng.standard_normal((12, 4))
    x = numerics.lu_solve(numerics.lu_factor(a), b)
    npt.assert_allclose(a @ x, b, atol=1e-12)


def test_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(Singular):
        numerics.lu_factor(a)
    with pytest.raises(Singular):
        numerics.lu_factor(np.zeros((3, 3)))


def negative_pivots(a):
    return int(np.count_nonzero(numerics.symmetric_pivots(a) < 0.0))


def test_negative_pivots_match_eigvalsh_on_random_matrices():
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = rng.standard_normal((9, 9))
        a = b + b.T
        pivots = numerics.symmetric_pivots(a)
        assert pivots.size == 9
        assert negative_pivots(a) == np.count_nonzero(np.linalg.eigvalsh(a) < 0.0)


def test_pivot_count_steps_across_natural_frequency():
    # 2-DOF spring-mass chain: eigenvalues of K are the squared frequencies
    k = np.diag([2.0, 3.0])
    m = np.eye(2)
    assert negative_pivots(k - 1.5 * m) == 0
    assert negative_pivots(k - 2.5 * m) == 1
    assert negative_pivots(k - 3.5 * m) == 2


def test_symmetric_pivots_stop_at_zero_pivot():
    pivots = numerics.symmetric_pivots(np.array([[1.0, 1.0, 0.0],
                                                 [1.0, 1.0, 2.0],
                                                 [0.0, 2.0, 5.0]]))
    npt.assert_array_equal(pivots, [1.0, 0.0])


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        numerics.lu_factor(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        numerics.lu_factor(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    f = numerics.lu_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        numerics.lu_solve(f, np.zeros(4))


def test_symmetric_pivots_detect_definiteness():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((10, 10))
    spd = b @ b.T + 10.0 * np.eye(10)
    assert numerics.is_positive_definite(spd)
    assert np.all(numerics.symmetric_pivots(spd) > 0)
    indef = spd.copy()
    indef[0, 0] = -1.0
    assert not numerics.is_positive_definite(indef)
