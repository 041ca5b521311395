import numpy as np
import numpy.testing as npt
import pytest

from fem_surrogate.errors import DimensionMismatch, Singular
from fem_surrogate import numerics


def reconstruct(f, s=0):
    """(perm, L, U) with A[perm] = L @ U, from member s's LINPACK-form band
    factors: each exchange also moves the multipliers already in L."""
    n, b = f.n, f.b
    perm = np.arange(n)
    low = np.eye(n, dtype=f.u.dtype)
    up = np.zeros((n, n), dtype=f.u.dtype)
    for k in range(n):
        p = f.piv[s, k]
        perm[[k, p]] = perm[[p, k]]
        low[[k, p], :k] = low[[p, k], :k]
        below = min(b, n - 1 - k)
        low[k + 1:k + 1 + below, k] = f.l[s, k, :below]
        for j in range(2 * b + 1):
            if k - 2 * b + j >= 0:
                up[k - 2 * b + j, k] = f.u[s, k, j]
    return perm, low, up


def reconstruction_error(f, a):
    perm, low, up = reconstruct(f)
    return np.abs(low @ up - a[perm]).max()


def test_identity_factors_trivially():
    f = numerics.lu_factor(np.eye(3))
    assert f.b == 0
    npt.assert_array_equal(f.u, np.ones((1, 3, 1)))
    npt.assert_array_equal(f.piv, [[0, 1, 2]])
    perm, low, up = reconstruct(f)
    npt.assert_array_equal(perm, np.arange(3))
    npt.assert_array_equal(low, np.eye(3))
    npt.assert_array_equal(up, np.eye(3))


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
    assert reconstruction_error(f, a) <= 1e-12 * np.abs(a).max()


def test_complex_reconstruction_and_solve():
    rng = np.random.default_rng(5)
    n = 40
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = numerics.lu_factor(a)
    assert reconstruction_error(f, a) <= 1e-12 * np.abs(a).max()
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


def random_band(rng, n, b, complex_=False, batch=None):
    shape = (n, n) if batch is None else (batch, n, n)
    a = rng.standard_normal(shape)
    if complex_:
        a = a + 1j * rng.standard_normal(shape)
    i, j = np.indices((n, n))
    return np.where(np.abs(i - j) <= b, a, 0.0)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("b", [0, 1, 3, 11])    # 11 = n - 1: a full matrix
def test_band_matrices_match_numpy_solve(b, complex_):
    rng = np.random.default_rng(100 + b + 10 * complex_)
    n = 12
    a = random_band(rng, n, b, complex_, batch=5)
    rhs = rng.standard_normal((5, n, 2)) + (1j * rng.standard_normal((5, n, 2)) if complex_ else 0)
    ab = np.stack([numerics.band_storage(m, b) for m in a])
    f = numerics.band_lu(ab)
    npt.assert_array_equal(f.bad, -1)
    x = numerics.band_lu_solve(f, rhs)
    for s in range(5):
        assert numerics.bandwidth(a[s]) == b
        assert reconstruction_error(numerics.lu_factor(a[s]), a[s]) <= 1e-12 * np.abs(a[s]).max()
        ref = np.linalg.solve(a[s], rhs[s])
        bound = 1e-13 * np.linalg.cond(a[s]) * np.linalg.norm(ref)
        assert np.linalg.norm(x[s] - ref) <= bound
        assert np.linalg.norm(numerics.solve(a[s], rhs[s]) - ref) <= bound


def test_dense_solve_matches_scipy_on_nonsymmetric_band():
    import scipy.linalg
    rng = np.random.default_rng(23)
    a = random_band(rng, 40, 5, complex_=True)
    a[7, 2] = 0.0    # a hole inside the band leaves the bandwidth alone
    a[0, 9] = 0.5    # one entry further out sets it
    assert numerics.bandwidth(a) == 9
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    npt.assert_allclose(numerics.solve_refined(a, b), scipy.linalg.solve(a, b), rtol=1e-10)


def test_batched_members_bit_equal_one_member_solves():
    rng = np.random.default_rng(31)
    n, b, batch = 15, 3, 6
    ab = np.stack([numerics.band_storage(m, b) for m in random_band(rng, n, b, True, batch)])
    rhs = rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))
    x, f = numerics.band_solve_refined(ab, rhs)
    for s in range(batch):
        x1, f1 = numerics.band_solve_refined(ab[s:s + 1], rhs[s:s + 1])
        npt.assert_array_equal(x[s:s + 1], x1)
        for name in ("l", "u", "piv"):
            npt.assert_array_equal(getattr(f, name)[s:s + 1], getattr(f1, name))


def test_singular_member_leaves_rest_of_batch_alone():
    # scales 1e20 / 1 / 1e-20: one tolerance shared by the batch would
    # flag the small member, so the tolerance must stay per member
    a = np.array([[[4.0, 1.0], [1.0, 3.0]],
                  [[1.0, 2.0], [2.0, 4.0]],
                  [[2.0, 1.0], [0.0, 5.0]]]) * np.array([1e20, 1.0, 1e-20])[:, None, None]
    ab = np.stack([numerics.band_storage(m, 1) for m in a])
    rhs = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, -1.0]])
    x, f = numerics.band_solve_refined(ab, rhs)
    npt.assert_array_equal(f.bad, [-1, 1, -1])
    npt.assert_array_equal(f.tol, 1e-13 * np.abs(a).max(axis=(1, 2)))
    assert f.failure(0) is None
    assert f.failure(1).startswith("pivot 1 below tolerance")
    for s in (0, 2):
        npt.assert_array_equal(x[s], numerics.band_solve_refined(ab[s:s + 1], rhs[s:s + 1])[0][0])
        npt.assert_allclose(x[s], np.linalg.solve(a[s], rhs[s]), rtol=1e-14)
    zero = numerics.band_lu(np.zeros((2, 3, 1)) + np.array([0.0, 1.0])[:, None, None])
    assert zero.failure(0) == "zero matrix" and zero.failure(1) is None


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
    with pytest.raises(DimensionMismatch):
        numerics.band_lu(np.zeros((1, 3, 2)))
    with pytest.raises(DimensionMismatch):
        numerics.band_lu(np.array([[[1.0], [np.inf]], [[1.0], [1.0]]]))
    with pytest.raises(DimensionMismatch):
        numerics.band_lu_solve(f, np.zeros((2, 3)))


def test_symmetric_pivots_detect_definiteness():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((10, 10))
    spd = b @ b.T + 10.0 * np.eye(10)
    assert numerics.is_positive_definite(spd)
    assert np.all(numerics.symmetric_pivots(spd) > 0)
    indef = spd.copy()
    indef[0, 0] = -1.0
    assert not numerics.is_positive_definite(indef)
