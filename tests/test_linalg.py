import random
from fractions import Fraction

import pytest

from qbipoly.bipoly import BiPoly
from qbipoly.linalg import (Mat, SingularMatrixError, graded_coeff_block,
                            interpolate_2d, monomial_vec, solve_exact)

x = BiPoly.x()
y = BiPoly.y()


def test_identity_solve():
    B = Mat([[1, 2], [3, 4]])
    assert solve_exact(Mat.identity(2), B) == B


def test_diagonal_solve():
    A = Mat([[2, 0], [0, 4]])
    B = Mat([[1], [1]])
    X = solve_exact(A, B)
    assert X.rows == [[Fraction(1, 2)], [Fraction(1, 4)]]


def test_singular_reports_pivot_column():
    A = Mat([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as err:
        solve_exact(A, Mat([[1], [1]]))
    assert err.value.pivot_col == 1


def test_solve_roundtrip_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        while True:
            A = Mat([[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                     for _ in range(n)])
            if A.rank() == n:
                break
        X = Mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))] for _ in range(n)])
        assert solve_exact(A, A @ X) == X


def reference_matmul(A, B):
    """Triple-loop product, every term added in ascending index order."""
    out = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = A.rows[i][0] * B.rows[0][j]
            for k in range(1, A.ncols):
                acc = acc + A.rows[i][k] * B.rows[k][j]
            row.append(acc)
        out.append(row)
    return out


def _sparse_random(rng, n, m, zero_share, make):
    return [[make() if rng.random() >= zero_share else 0 for _ in range(m)] for _ in range(n)]


def test_matmul_matches_triple_loop_on_sparse_matrices():
    rng = random.Random(11)

    def frac():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))

    shapes = [(1, 1, 1), (1, 3, 1), (3, 1, 2), (4, 5, 3), (6, 6, 6), (2, 7, 5)]
    for n, k, m in shapes:
        for zero_share in (0.0, 0.3, 0.6, 0.9):
            A = Mat(_sparse_random(rng, n, k, zero_share, frac))
            B = Mat(_sparse_random(rng, k, m, zero_share, frac))
            assert (A @ B).rows == reference_matmul(A, B)
    # an all-zero row and an all-zero column of A, and an all-zero row of B
    A = Mat([[0, 0, 0], [1, 0, 2], [Fraction(1, 3), 0, 5]])
    B = Mat([[1, 2], [3, 4], [0, 0]])
    prod = A @ B
    assert prod.rows == reference_matmul(A, B)
    assert prod.rows[0] == [0, 0] and all(isinstance(v, Fraction) for v in prod.rows[0])
    assert (Mat([[0]]) @ Mat([[5]])).rows == [[0]]
    assert (Mat([[Fraction(2, 3)]]) @ Mat([[Fraction(3, 4)]])).rows == [[Fraction(1, 2)]]


def test_rank_exact():
    assert Mat([[1, 2], [2, 4]]).rank() == 1
    assert Mat.identity(4).rank() == 4
    assert Mat.zeros(3, 2).rank() == 0


def test_interpolate_corner():
    vals = Mat([[0, 0], [0, 1]])
    p = interpolate_2d([0, 1], [0, 1], vals)
    assert p == x * y


def test_interpolate_zero():
    p = interpolate_2d([0, 1, 2], [0, 1], Mat.zeros(3, 2))
    assert p.is_zero()


def test_interpolate_q_grid(qp):
    q = qp.q
    target = x * x + y
    nodes_x = [Fraction(1), q, q * q]
    nodes_y = [Fraction(1), q]
    vals = Mat([[target.eval(a, b) for b in nodes_y] for a in nodes_x])
    assert interpolate_2d(nodes_x, nodes_y, vals) == target


def test_interpolate_roundtrip_random():
    rng = random.Random(11)
    for _ in range(10):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        p = BiPoly({(i, j): Fraction(rng.randint(-5, 5))
                    for i in range(nx) for j in range(ny)})
        nodes_x = [Fraction(k + 1, 2) for k in range(nx)]
        nodes_y = [Fraction(2 * k + 1, 3) for k in range(ny)]
        vals = Mat([[p.eval(a, b) for b in nodes_y] for a in nodes_x])
        assert interpolate_2d(nodes_x, nodes_y, vals) == p


def test_interpolate_rejects_repeated_node():
    with pytest.raises(ValueError):
        interpolate_2d([0, 0], [0, 1], Mat.zeros(2, 2))


def test_monomial_vec_and_blocks():
    v = monomial_vec(2)
    assert v[0] == x * x and v[1] == x * y and v[2] == y * y
    blk = graded_coeff_block(v, 2)
    assert blk == Mat.identity(3)


def test_matrix_polyvec_action():
    v = monomial_vec(1)
    M = Mat([[0, 1], [1, 0]])
    w = M @ v
    assert w[0] == y and w[1] == x
