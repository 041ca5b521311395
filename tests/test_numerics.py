import numpy as np
import numpy.testing as npt
import pytest

from fem_surrogate.errors import DimensionMismatch, Singular
from fem_surrogate import beam, numerics


def ldlt_product(f, s=0):
    """L D L^T rebuilt from member s's band factors."""
    n, b = f.n, f.b
    low = np.eye(n, dtype=f.d.dtype)
    for k in range(n):
        below = min(b, n - 1 - k)
        low[k + 1:k + 1 + below, k] = f.l[s, k, :below]
    return low @ np.diag(f.d[s]) @ low.T


def upper_band(a, b):
    """Upper band storage (..., n, b+1) of symmetric matrices a (..., n, n):
    ab[..., i, t] = a[..., i, i + t], zero past the edge."""
    n = a.shape[-1]
    ab = np.zeros(a.shape[:-1] + (b + 1,), a.dtype)
    for t in range(b + 1):
        ab[..., :n - t, t] = np.diagonal(a, t, axis1=-2, axis2=-1)
    return ab


def full_band(a):
    """A dense symmetric matrix as band storage with b = n - 1."""
    return upper_band(a, a.shape[-1] - 1)


def factor(ab):
    """One-member factors of the band matrix ab (n, b+1)."""
    return numerics.band_ldlt(np.asarray(ab)[None])


def solve(ab, rhs):
    """One-member solve without refinement, rhs (n,) or (n, m)."""
    f = factor(ab)
    assert f.failure(0) is None
    return numerics.band_ldlt_solve(f, np.asarray(rhs)[None])[0]


def symmetric(rng, shape, complex_=False):
    """Random symmetric matrices (exactly: A + A^T); a complex one gets a
    positive definite imaginary part, the class of the damped dynamic
    matrices."""
    a = rng.standard_normal(shape)
    a = a + np.swapaxes(a, -1, -2)
    if complex_:
        c = rng.standard_normal(shape)
        c = c + np.swapaxes(c, -1, -2)
        n = shape[-1]
        c = c + np.abs(c).sum(axis=-1)[..., None] * np.eye(n)  # diagonally dominant
        a = a + 1j * c
    return a


def test_identity_factors_trivially():
    f = factor(np.ones((3, 1)))
    assert f.b == 0
    npt.assert_array_equal(f.d, np.ones((1, 3)))
    assert f.l.shape == (1, 3, 0)
    npt.assert_array_equal(f.bad, [-1])
    npt.assert_array_equal(ldlt_product(f), np.eye(3))


def test_diagonal_solve():
    x = solve(np.array([[2.0], [4.0]]), np.array([2.0, 8.0]))
    npt.assert_allclose(x, [1.0, 2.0], rtol=0, atol=0)


def test_complex_diagonal_solve():
    x = solve(np.array([[1j], [1.0]]), np.array([1j, 5.0]))
    npt.assert_allclose(x, [1.0, 5.0], rtol=1e-15)


def test_identity_rhs_passthrough():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(7)
    npt.assert_array_equal(solve(np.ones((7, 1)), b), b)


def test_diagonally_dominant_residual():
    rng = np.random.default_rng(1)
    n = 50
    a = symmetric(rng, (n, n))
    a += np.diag(np.abs(a).sum(axis=1))
    b = rng.standard_normal(n)
    x = solve(full_band(a), b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10


@pytest.mark.parametrize("n", [3, 20, 87, 200])
def test_reconstruction_bound(n):
    rng = np.random.default_rng(n)
    a = symmetric(rng, (n, n))
    f = factor(full_band(a))
    assert np.abs(ldlt_product(f) - a).max() <= 1e-12 * np.abs(a).max()


def test_complex_reconstruction_and_solve():
    rng = np.random.default_rng(5)
    n = 40
    a = symmetric(rng, (n, n), complex_=True)
    f = factor(full_band(a))
    assert np.abs(ldlt_product(f) - a).max() <= 1e-12 * np.abs(a).max()
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = numerics.band_ldlt_solve(f, b[None])[0]
    npt.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-10)


def test_multiple_right_hand_sides():
    rng = np.random.default_rng(9)
    a = symmetric(rng, (12, 12)) + np.eye(12) * 6.0
    b = rng.standard_normal((12, 4))
    x = solve(full_band(a), b)
    npt.assert_allclose(a @ x, b, atol=1e-12)


def test_singular_raises():
    ab = np.array([[1.0, 2.0], [4.0, 0.0]])    # [[1, 2], [2, 4]]
    with pytest.raises(Singular, match="pivot 1 below tolerance"):
        beam.static_solve(ab, np.ones(2))
    with pytest.raises(Singular, match="zero matrix"):
        beam.static_solve(np.zeros((3, 1)), np.ones(3))


def random_band(rng, n, b, complex_=False, batch=None):
    shape = (n, n) if batch is None else (batch, n, n)
    a = symmetric(rng, shape, complex_)
    i, j = np.indices((n, n))
    return np.where(np.abs(i - j) <= b, a, 0.0)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("b", [0, 1, 3, 11])    # 11 = n - 1: a full matrix
def test_band_matrices_match_numpy_solve(b, complex_):
    rng = np.random.default_rng(100 + b + 10 * complex_)
    n = 12
    a = random_band(rng, n, b, complex_, batch=5)
    rhs = rng.standard_normal((5, n, 2)) + (1j * rng.standard_normal((5, n, 2)) if complex_ else 0)
    ab = upper_band(a, b)
    f = numerics.band_ldlt(ab)
    npt.assert_array_equal(f.bad, -1)
    x = numerics.band_ldlt_solve(f, rhs)
    refined, _ = numerics.band_ldlt_refined(ab, rhs)
    for s in range(5):
        dense = numerics.band_to_dense(ab[s])
        npt.assert_array_equal(dense, a[s])
        assert np.abs(ldlt_product(f, s) - dense).max() <= 1e-12 * np.abs(dense).max()
        ref = np.linalg.solve(dense, rhs[s])
        bound = 1e-13 * np.linalg.cond(a[s]) * np.linalg.norm(ref)
        assert np.linalg.norm(x[s] - ref) <= bound
        assert np.linalg.norm(refined[s] - ref) <= bound


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("b", [0, 1, 11])
@pytest.mark.parametrize("batch", [1, 2, 33])
def test_batched_members_bit_equal_one_member_solves(complex_, b, batch):
    rng = np.random.default_rng(31 + b + 100 * batch + 1000 * complex_)
    n = 15
    ab = upper_band(random_band(rng, n, b, complex_, batch), b)
    rhs = rng.standard_normal((batch, n)) + (1j * rng.standard_normal((batch, n)) if complex_ else 0)
    x, f = numerics.band_ldlt_refined(ab, rhs)
    for s in range(batch):
        x1, f1 = numerics.band_ldlt_refined(ab[s:s + 1], rhs[s:s + 1])
        npt.assert_array_equal(x[s:s + 1], x1)
        # on the real path, d is what the mode finder counts
        for name in ("l", "d"):
            npt.assert_array_equal(getattr(f, name)[s:s + 1], getattr(f1, name))


def test_singular_member_leaves_rest_of_batch_alone():
    # scales 1e20 / 1 / 1e-20: one tolerance shared by the batch would
    # flag the small member, so the tolerance must stay per member
    a = np.array([[[4.0, 1.0], [1.0, 3.0]],
                  [[1.0, 2.0], [2.0, 4.0]],
                  [[2.0, 1.0], [1.0, 5.0]]]) * np.array([1e20, 1.0, 1e-20])[:, None, None]
    ab = upper_band(a, 1)
    rhs = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, -1.0]])
    x, f = numerics.band_ldlt_refined(ab, rhs)
    npt.assert_array_equal(f.bad, [-1, 1, -1])
    npt.assert_array_equal(f.tol, 1e-13 * np.abs(a).max(axis=(1, 2)))
    assert f.failure(0) is None
    assert f.failure(1).startswith("pivot 1 below tolerance")
    for s in (0, 2):
        npt.assert_array_equal(x[s], numerics.band_ldlt_refined(ab[s:s + 1], rhs[s:s + 1])[0][0])
        npt.assert_allclose(x[s], np.linalg.solve(a[s], rhs[s]), rtol=1e-14)
    zero = numerics.band_ldlt(np.zeros((2, 3, 1)) + np.array([0.0, 1.0])[:, None, None])
    assert zero.failure(0) == "zero matrix" and zero.failure(1) is None


def test_entries_past_the_edge_are_ignored():
    rng = np.random.default_rng(41)
    a = random_band(rng, 6, 2, complex_=True)
    ab = upper_band(a, 2)[None]
    junk = ab.copy()
    junk[0, -1, 1:] = 7.0      # would be A[5, 6], A[5, 7]: outside the matrix
    junk[0, -2, 2] = -3.0
    rhs = rng.standard_normal((1, 6))
    npt.assert_array_equal(numerics.band_ldlt_refined(junk, rhs)[0],
                           numerics.band_ldlt_refined(ab, rhs)[0])


def test_band_to_dense_places_each_diagonal():
    ab = np.array([[1.0, 2.0, 3.0],
                   [4.0, 5.0, 6.0],
                   [7.0, 8.0, 9.0]])     # 6, 8 and 9 lie past the edge
    npt.assert_array_equal(numerics.band_to_dense(ab), [[1.0, 2.0, 3.0],
                                                        [2.0, 4.0, 5.0],
                                                        [3.0, 5.0, 7.0]])
    npt.assert_array_equal(numerics.band_to_dense(np.array([[2j], [3.0]])), np.diag([2j, 3.0]))


def negative_pivots(ab):
    return int(np.count_nonzero(numerics.band_ldlt(ab[None]).d < 0.0))


def test_negative_pivots_match_eigvalsh_on_random_matrices():
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = rng.standard_normal((9, 9))
        a = b + b.T
        pivots = numerics.band_ldlt(full_band(a)[None]).d[0]
        assert np.all(np.isfinite(pivots)) and np.all(pivots != 0.0)   # no breakdown
        assert negative_pivots(full_band(a)) == np.count_nonzero(np.linalg.eigvalsh(a) < 0.0)


def test_pivot_count_steps_across_natural_frequency():
    # 2-DOF spring-mass chain: eigenvalues of K are the squared frequencies
    kb = np.array([[2.0], [3.0]])
    mb = np.ones((2, 1))
    assert negative_pivots(kb - 1.5 * mb) == 0
    assert negative_pivots(kb - 2.5 * mb) == 1
    assert negative_pivots(kb - 3.5 * mb) == 2


def test_symmetric_pivots_stop_at_zero_pivot():
    # [[1, 1, 0], [1, 1, 2], [0, 2, 5]]: the elimination breaks down at
    # pivot 1, which the factors report as the member's first bad pivot
    f = factor(np.array([[1.0, 1.0], [1.0, 2.0], [5.0, 0.0]]))
    npt.assert_array_equal(f.d[0, :2], [1.0, 0.0])
    npt.assert_array_equal(f.bad, [1])
    assert f.failure(0).startswith("pivot 1 below tolerance")


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        numerics.band_to_dense(np.zeros((2, 3, 1)))
    f = factor(np.ones((3, 1)))
    with pytest.raises(DimensionMismatch):
        numerics.band_ldlt_solve(f, np.zeros((1, 4)))
    with pytest.raises(DimensionMismatch):
        numerics.band_ldlt(np.zeros((1, 3, 0)))
    with pytest.raises(DimensionMismatch):
        numerics.band_ldlt(np.array([[[1.0], [np.inf]], [[1.0], [1.0]]]))
    with pytest.raises(DimensionMismatch):
        numerics.band_ldlt_solve(f, np.zeros((2, 3)))


def test_symmetric_pivots_detect_definiteness():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((10, 10))
    spd = b @ b.T + 10.0 * np.eye(10)
    assert np.all(numerics.band_ldlt(full_band(spd)[None]).d > 0)
    indef = spd.copy()
    indef[0, 0] = -1.0
    assert not np.all(numerics.band_ldlt(full_band(indef)[None]).d > 0)
