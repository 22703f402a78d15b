import math
import random
from fractions import Fraction

import pytest

from qbipoly.bipoly import BiPoly, reduced
from qbipoly.linalg import Mat, SingularMatrixError, interpolate_2d, mat_diff, solve_exact, stack

x = BiPoly.x()
y = BiPoly.y()


def monomials(n: int) -> list:
    """The graded-lex monomial column (x^n, x^{n-1}y, ..., y^n)."""
    return [BiPoly({(n - k, k): 1}) for k in range(n + 1)]


def graded_coeff_block(vec: list, degree: int) -> Mat:
    """Matrix of total-degree-`degree` coefficients of a list of BiPolys.

    Row k holds the coefficients of entry k against the monomials
    (x^degree, x^{degree-1}y, ..., y^degree).
    """
    return Mat._of([reduced({c: p.nums.get((degree - c, c), 0) for c in range(degree + 1)}, p.den)
                    for p in vec], degree + 1)


def transpose(A: Mat) -> Mat:
    rows = A.rows
    return Mat([[r[j] for r in rows] for j in range(A.ncols)])


def rank(A: Mat) -> int:
    """Exact rank by Gaussian elimination."""
    work = [r[:] for r in A.rows]
    n, m = A.nrows, A.ncols
    found = 0
    for col in range(m):
        piv = next((i for i in range(found, n) if work[i][col]), None)
        if piv is None:
            continue
        work[found], work[piv] = work[piv], work[found]
        pval = work[found][col]
        for i in range(found + 1, n):
            f = work[i][col] / pval
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[found])]
        found += 1
        if found == n:
            break
    return found


def test_identity_solve():
    B = Mat([[1, 2], [3, 4]])
    assert solve_exact(Mat.identity(2), B) == B


def test_diagonal_solve():
    A = Mat([[2, 0], [0, 4]])
    B = Mat([[1], [1]])
    X = solve_exact(A, B)
    assert X.rows == ((Fraction(1, 2),), (Fraction(1, 4),))


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
            if rank(A) == n:
                break
        X = Mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))] for _ in range(n)])
        assert solve_exact(A, A @ X) == X


def reference_matmul(A, B):
    """Triple-loop product, every term added in ascending index order, as
    a tuple of row tuples like ``Mat.rows``."""
    A, B = A.rows, B.rows
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = A[i][0] * B[0][j]
            for k in range(1, len(B)):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


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
    assert prod.rows[0] == (0, 0) and all(isinstance(v, Fraction) for v in prod.rows[0])
    assert (Mat([[0]]) @ Mat([[5]])).rows == ((0,),)
    assert (Mat([[Fraction(2, 3)]]) @ Mat([[Fraction(3, 4)]])).rows == ((Fraction(1, 2),),)


def test_rows_cannot_be_written():
    M = Mat([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        M.rows[0][1] = 5
    with pytest.raises(TypeError):
        M.rows[0] = (5, 6)
    assert M.rows == ((1, 2), (3, 4))


def assert_reduced(M: Mat):
    """Each row is nonzero int numerators keyed by column in range over a
    positive denominator, in lowest terms."""
    for nums, den in M.forms:
        assert type(den) is int and den > 0
        assert all(type(n) is int and n for n in nums.values())
        assert all(type(j) is int and 0 <= j < M.ncols for j in nums)
        assert math.gcd(den, *nums.values()) == 1


def test_integer_rows_match_fraction_rows():
    rng = random.Random(19)

    def frac():
        return Fraction(rng.randint(-10**4, 10**4), rng.choice([1, 2, 3, 4, 6, 9, 10, 49, 360]))

    for _ in range(60):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        share = rng.choice([0.0, 0.5, 0.9])
        A, B = _sparse_random(rng, n, k, share, frac), _sparse_random(rng, n, k, share, frac)
        C = _sparse_random(rng, k, m, share, frac)
        c = frac()
        MA, MB, MC = Mat(A), Mat(B), Mat(C)
        results = [
            (MA, A),
            (MA + MB, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]),
            (MA + MB.scaled(-1), [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]),
            (MA.scaled(-1), [[-a for a in r] for r in A]),
            (MA.scaled(c), [[a * c for a in r] for r in A]),
            (MA @ MC, reference_matmul(MA, MC)),
            (stack(MA, MB), A + B),
        ]
        for got, want in results:
            assert_reduced(got)
            assert got.rows == tuple(map(tuple, want))
            assert all(type(v) is Fraction for r in got.rows for v in r)
            assert got == Mat(want)
        vec = [BiPoly({(a, b): frac() for a in range(2) for b in range(2)}) for _ in range(k)]
        prod = MA @ vec
        assert type(prod) is list and len(prod) == n
        for r, got in zip(A, prod):
            want = BiPoly.zero()
            for a, p in zip(r, vec):
                want = want + p * a
            assert got == want
        for d in range(3):
            blk = graded_coeff_block(vec, d)
            assert_reduced(blk)
            assert blk.rows == tuple(tuple(p.coeff(d - c, c) for c in range(d + 1))
                                     for p in vec)
    with pytest.raises(ValueError):
        stack(Mat([[1, 2]]), Mat([[1]]))


def test_mat_diff_lists_every_differing_entry():
    # the differing entries, row by row, as an entrywise scan reads them
    rng = random.Random(34)
    pick = [0, 0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 6)]
    for _ in range(200):
        n, k = rng.randint(0, 4), rng.randint(1, 4)
        A = [[rng.choice(pick) for _ in range(k)] for _ in range(n)]
        B = [[v if rng.random() < 0.8 else rng.choice(pick) for v in row] for row in A]
        want = [((i + 1, j + 1), Fraction(A[i][j]), Fraction(B[i][j]))
                for i in range(n) for j in range(k) if A[i][j] != B[i][j]]
        got = mat_diff(Mat(A), Mat(B))
        assert got == want
        assert all(type(a) is Fraction and type(b) is Fraction for _, a, b in got)
    assert mat_diff(Mat([[1, 2]]), Mat([[1], [2]])) == [("shape", (1, 2), (2, 1))]


def test_rank_exact():
    assert rank(Mat([[1, 2], [2, 4]])) == 1
    assert rank(Mat.identity(4)) == 4
    assert rank(Mat([[0, 0]] * 3)) == 0


def tensor_vandermonde_interpolate(nodes_x, nodes_y, values: Mat) -> BiPoly:
    """Reference: the unique BiPoly with deg_x < len(nodes_x), deg_y <
    len(nodes_y) matching values[r][s] = p(nodes_x[r], nodes_y[s]) on the
    whole tensor grid, by two exact Vandermonde solves."""
    nx, ny = len(nodes_x), len(nodes_y)
    vx = Mat([[Fraction(xv) ** i for i in range(nx)] for xv in nodes_x])
    vy = Mat([[Fraction(yv) ** j for j in range(ny)] for yv in nodes_y])
    # values = Vx @ C @ Vy^T; solve for C in two steps
    half = solve_exact(vx, values)                       # C @ Vy^T
    coeff = transpose(solve_exact(vy, transpose(half))).rows  # C
    return BiPoly({(i, j): coeff[i][j] for i in range(nx) for j in range(ny)})


def lower_set_values(p, nodes_x, nodes_y):
    G = len(nodes_x)
    return [[p.eval(nodes_x[i], nodes_y[j]) for j in range(G - i)] for i in range(G)]


def random_total_degree_poly(rng, N):
    return BiPoly({(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for i in range(N + 1) for j in range(N + 1 - i)})


def test_interpolate_corner():
    # the lower set of three nodes per axis: the one nonzero sample sits at
    # (1, 1), and xy vanishes at every other node
    vals = [[0, 0, 0], [0, 1], [0]]
    p = interpolate_2d([0, 1, 2], [0, 1, 2], vals)
    assert p == x * y


def test_interpolate_zero():
    p = interpolate_2d([0, 1, 2], [0, 1, 5], [[0, 0, 0], [0, 0], [0]])
    assert p.is_zero()
    assert interpolate_2d([], [], []).is_zero()


def test_interpolate_q_grid(qp):
    q = qp.q
    target = x * x + y
    nodes_x = [Fraction(1), q, q * q]
    nodes_y = [Fraction(1), q, q * q]
    vals = lower_set_values(target, nodes_x, nodes_y)
    assert interpolate_2d(nodes_x, nodes_y, vals) == target


def test_interpolate_roundtrip_random():
    rng = random.Random(11)
    for _ in range(10):
        N = rng.randint(0, 4)
        p = random_total_degree_poly(rng, N)
        nodes_x = [Fraction(k + 1, 2) for k in range(N + 1)]
        nodes_y = [Fraction(2 * k + 1, 3) for k in range(N + 1)]
        assert interpolate_2d(nodes_x, nodes_y, lower_set_values(p, nodes_x, nodes_y)) == p


@pytest.mark.parametrize("kind", ["generic", "geometric"])
def test_interpolate_random_total_degree_against_tensor_reference(kind):
    # the lower set fixes a total-degree-N polynomial; the tensor reference
    # samples the whole grid and must return the same polynomial
    rng = random.Random(f"interpolate-{kind}")
    for _ in range(12):
        N = rng.randint(0, 6)
        p = random_total_degree_poly(rng, N)
        if kind == "generic":
            pool = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(60)]
            nodes_x = list(dict.fromkeys(pool))[: N + 1]
            nodes_y = list(dict.fromkeys(reversed(pool)))[: N + 1]
        else:
            q = Fraction(rng.choice([1, 2, 3]), rng.choice([4, 5, 7]))
            xb, yb = Fraction(rng.randint(1, 9), 11), -Fraction(rng.randint(1, 9), 13)
            nodes_x = [xb * q**-i for i in range(N + 1)]
            nodes_y = [yb * q**-j for j in range(N + 1)]
        got = interpolate_2d(nodes_x, nodes_y, lower_set_values(p, nodes_x, nodes_y))
        assert got == p
        full = Mat([[p.eval(a, b) for b in nodes_y] for a in nodes_x])
        assert tensor_vandermonde_interpolate(nodes_x, nodes_y, full) == got


def fraction_divided_differences(nodes, values) -> list:
    """Reference: [t_0..t_k] f for k < len(values), from values[k] =
    f(nodes[k]), in Fraction arithmetic."""
    dd = list(values)
    for order in range(1, len(dd)):
        for k in range(len(dd) - 1, order - 1, -1):
            dd[k] = (dd[k] - dd[k - 1]) / (nodes[k] - nodes[k - order])
    return dd


def fraction_interpolate_2d(nodes_x, nodes_y, values) -> BiPoly:
    """Reference for interpolate_2d, every step in Fractions: x-divided
    differences down each column, y-divided differences of each x-Newton
    coefficient, and nested Horner steps in y and then in x."""
    nodes_x = [Fraction(v) for v in nodes_x]
    nodes_y = [Fraction(v) for v in nodes_y]
    G = len(nodes_x)
    newton_x = [[] for _ in range(G)]  # newton_x[i][j] = [x_0..x_i] p(., y_j)
    for j in range(G):
        column = [Fraction(values[i][j]) for i in range(G - j)]
        for i, v in enumerate(fraction_divided_differences(nodes_x, column)):
            newton_x[i].append(v)
    poly = []  # rows by x-exponent, each a list of coefficients by y-exponent
    for i in range(G - 1, -1, -1):
        d = fraction_divided_differences(nodes_y, newton_x[i])
        g = [d[-1]]
        for j in range(len(d) - 2, -1, -1):  # g <- d_j + (y - y_j) g
            g = [a - nodes_y[j] * h for a, h in zip([d[j], *g], g)] + [g[-1]]
        # poly <- g + (x - x_i) poly
        poly = [[a - nodes_x[i] * h for a, h in zip(above, here)] + above[len(here):]
                for above, here in zip([g, *poly], [*poly, []])]
    return BiPoly({(e, j): c for e, row in enumerate(poly) for j, c in enumerate(row)})


def distinct_nodes(rng, G, kind):
    """G distinct nodes: geometric (a base point times powers of a base),
    or generic rationals of either sign, zero included when drawn."""
    if kind == "geometric":
        q = Fraction(rng.choice([1, 2, 3, 999]), rng.choice([4, 5, 7, 1000]))
        q = q if q != 1 else Fraction(1, 2)
        base = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 13))
        return [base * q**-k for k in range(G)]
    pool = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(6 * G + 6)]
    return list(dict.fromkeys(pool))[:G]


@pytest.mark.parametrize("kind", ["generic", "geometric"])
def test_integer_interpolation_equals_fraction_reference(kind):
    # arbitrary data on the lower set (not only samples of a polynomial):
    # the interpolant is unique, so the integer kernel must return the
    # reference's exact polynomial, for every size G = 0..8
    rng = random.Random(f"integer-newton-{kind}")
    for G in list(range(9)) * 3:
        nodes_x, nodes_y = distinct_nodes(rng, G, kind), distinct_nodes(rng, G, kind)
        values = [[Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(G - i)]
                  for i in range(G)]
        got = interpolate_2d(nodes_x, nodes_y, values)
        assert got == fraction_interpolate_2d(nodes_x, nodes_y, values), (G, nodes_x, nodes_y)
        assert got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1


def test_integer_interpolation_with_zero_and_negative_nodes():
    nodes_x = [Fraction(0), Fraction(-3, 2), Fraction(5), Fraction(-1, 7)]
    nodes_y = [Fraction(2, 3), Fraction(0), Fraction(-4), Fraction(9, 5)]
    rng = random.Random(5)
    p = random_total_degree_poly(rng, 3)
    values = lower_set_values(p, nodes_x, nodes_y)
    assert interpolate_2d(nodes_x, nodes_y, values) == p
    assert fraction_interpolate_2d(nodes_x, nodes_y, values) == p


def test_interpolate_rejects_repeated_node():
    vals = [[0, 0], [0]]
    with pytest.raises(ValueError, match="repeated x"):
        interpolate_2d([0, 0], [0, 1], vals)
    with pytest.raises(ValueError, match="repeated y"):
        interpolate_2d([0, 1], [1, 1], vals)


def test_interpolate_rejects_non_lower_set_values():
    with pytest.raises(ValueError, match="lower set"):
        interpolate_2d([0, 1], [0, 1], [[0, 0], [0, 0]])      # the full tensor grid
    with pytest.raises(ValueError, match="lower set"):
        interpolate_2d([0, 1], [0, 1], [[0], [0, 0]])         # rows swapped
    with pytest.raises(ValueError, match="lower set"):
        interpolate_2d([0, 1, 2], [0, 1, 2], [[0, 0, 0], [0]])  # a row missing
    with pytest.raises(ValueError, match="lower set"):
        interpolate_2d([0, 1], [0, 1, 2], [[0, 0], [0]])


def test_monomial_vec_and_blocks():
    v = monomials(2)
    assert v == [x * x, x * y, y * y]
    blk = graded_coeff_block(v, 2)
    assert blk == Mat.identity(3)


def test_matrix_polyvec_action():
    v = monomials(1)
    M = Mat([[0, 1], [1, 0]])
    assert M @ v == [y, x]
    with pytest.raises(ValueError, match="shape mismatch"):
        M @ monomials(2)
