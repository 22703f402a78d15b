"""The monic layer's kernels as they were before they ran on integer
stencils, kept as references for the integer ones: the oracle's chain on
keyed forms over the operator blocks read off ``apply_operator``, the
explicit big q-Jacobi B_n and C_n, the closed-form S_n and T_n (on the
structure matrices E_{n,j} and K_{n,j}) and the classical operator, all in
Fraction or form arithmetic.  The tests compare the integer kernels' forms
with these, not just their values."""

import functools
from fractions import Fraction

from qbipoly.bigqjacobi import BigQJacobiParams
from qbipoly.bipoly import BiPoly, combine, from_form, reduced
from qbipoly.equation import EquationCoeffs, apply_operator, form_scalars
from qbipoly.linalg import Mat
from qbipoly.qcalc import QTables, qnum, step_weights
from test_linalg import graded_coeff_block, monomials


def difference_matrix(n: int, j: int, base) -> Mat:
    """Structure matrix of the axis-j difference quotient of the given base
    on the degree-n monomial vector, D x^n = M x^{n-1}, size (n+1) x n:
    base q gives the forward E_{n,j}, base 1/q the backward K_{n,j} (the
    backward quotient of base q is the forward quotient of base 1/q).  Row k
    is the sparse form of [e]_base at column k + 1 - j, e the axis-j exponent
    of x^{n-k} y^k; the operators' table ``qcalc.step_weights`` gives [e]_base."""
    if j not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    w, den = step_weights(base, n), base.denominator ** max(n - 1, 0)
    return Mat._of([reduced({k + 1 - j: w[e]}, den) if (e := (n - k, k)[j - 1]) else ({}, 1)
                    for k in range(n + 1)], n)


def reference_operator_blocks(E: EquationCoeffs, j: int):
    """The degree blocks as operator_blocks first built them: the image of
    every degree-j monomial through apply_operator, read off degree by
    degree by graded_coeff_block."""
    images = [apply_operator(E, p) for p in monomials(j)]
    return tuple(graded_coeff_block(images, j - d) if d <= j else None for d in range(3))


def _chain_step(terms, gap: Fraction) -> tuple:
    """-(sum of G M over the terms (G, M)) / gap, G one form keyed (row,
    column), M a drop block read on its nonzero band only."""
    parts = []
    for (nums, den), M in terms:
        cols = [{} for _ in M.forms]
        for (r, k), v in nums.items():
            for c, w in M.forms[k][0].items():
                cols[k][(r, c)] = v * w
        parts += [(-gap.denominator, col, den * d) for col, (_, d) in zip(cols, M.forms)]
    return combine(parts, gap.numerator)


def reference_oracle(E: EquationCoeffs, N: int) -> tuple:
    """(vectors, {(n, j): G_{n,j}}, operator blocks) of degrees 0..N by the
    chain on keyed forms, every block cut into reduced rows."""
    blocks = [reference_operator_blocks(E, j) for j in range(N + 1)]
    lam = [E.admissibility.eigenvalue(j) for j in range(N + 1)]
    keys = [[(j - c, c) for c in range(j + 1)] for j in range(N + 1)]
    ghat, vectors = {}, []
    for n in range(N + 1):
        chain = [None] * n + [({(r, r): 1 for r in range(n + 1)}, 1)]
        for d in range(n - 1, -1, -1):
            chain[d] = _chain_step([(chain[d + s], blocks[d + s][s]) for s in (1, 2) if d + s <= n],
                                   lam[n] - lam[d])
        entries = [[] for _ in range(n + 1)]
        for j, (nums, den) in enumerate(chain):
            rows = [{} for _ in range(n + 1)]
            for (r, c), v in nums.items():
                rows[r][c] = v
            forms = [reduced(row, den) for row in rows]
            ghat[(n, j)] = Mat._of(forms, j + 1)
            for terms, (rnums, rden) in zip(entries, forms):
                terms.append((1, {keys[j][c]: v for c, v in rnums.items()}, rden))
        vectors.append([from_form(*combine(terms)) for terms in entries])
    return vectors, ghat, blocks


def reference_explicit_BC(p: BigQJacobiParams, n: int) -> dict:
    """B_{n,1}, B_{n,2}, C_{n,1} and C_{n,2} entry by entry in Fractions."""
    if n < 1:
        raise ValueError("explicit matrices start at n = 1")
    q, a, b, c, d = p.qp.q, p.a, p.b, p.c, p.d
    pw = QTables(q).pow
    ac, bc, q1 = a * c, b * c, q + 1
    abc, aq1, bq1, bn, bn1 = ac * b, a * q1, b * q1, b * pw(n), b * pw(n + 1)
    z0, z1, z2, z3 = (abc * pw(2 * n + k) for k in range(4))     # abc q^(2n+k)
    den_b = (z1 - 1) * (z3 - 1)
    den_c = (z0 - 1) * (z1 - 1) ** 2 * (z2 - 1)
    h = z2 + 1
    l1 = (d * h - abc * q1 * pw(n + 1)) / den_b
    l2 = (h - d * q1 * pw(n)) / den_b
    r1, kb2 = ac * (b + 1) * pw(n + 2) * l2, -ac * l2
    u, v = q * (d * pw(n + 1) - 1) / (z3 - 1), q * (d * pw(n) - 1) / (z1 - 1)
    alpha, beta, gamma = (a * (u - v / q) / (q - 1), (a + 1) * (v - u) / (q - 1),
                          (u - q * v) / (q - 1) + q)
    kc = -(d * pw(n) - 1) * (abc * pw(n + 1) - d) / den_c
    kc1, kc2, kc3, kc4 = kc * ac * pw(n + 2), kc * ac, kc * a * pw(n + 1), kc * abc
    kc5, e1, g1, g2 = kc1 * ac, (b + 1) * (z1 + 1), (a + 1) * (z1 + 1), q1 * z2

    B1 = [[0] * (n + 1) for _ in range(n + 1)]
    B2 = [[0] * (n + 1) for _ in range(n + 1)]
    C1 = [[0] * n for _ in range(n + 1)]
    C2 = [[0] * n for _ in range(n + 1)]
    for i in range(1, n + 2):
        r, s = i - 1, n + 1 - i      # the 0-based row; the exponent n + 1 - i
        aqi = a * pw(i)
        B1[r][r] = l1 * (ac * pw(n + 1 + i) + pw(s + 1)) + r1
        B2[r][r] = alpha * pw(i) + beta + gamma * pw(-i)
        if i > 1:                    # i = j + 1
            low = (pw(i - 1) - 1) * (a * pw(i - 1) - 1)
            B1[r][r - 1] = -(l1 * low * pw(s + 1))
            C1[r][r - 1] = (kc2 * low * pw(2 * n + 3 - i)
                            * (e1 - bq1 * pw(n - 1 - i) * (ac * pw(2 * i) + pw(2))))
            C2[r][r - 1] = (kc3 * low * (bc * pw(2 * n + 2 - i) - 1)
                            * (abc * pw(2 * n + 2 - i) - 1))
        if i > 2:                    # i = j + 2
            C1[r][r - 2] = (kc4 * (aqi - q) * (aqi - pw(2)) * pw(3 * n + 2 - 2 * i)
                            * (1 - pw(i - 2)) * (1 - pw(i - 1)))
        if i <= n:                   # i = j - 1, and the C diagonal
            top = pw(s) - 1
            tops = top * (b * pw(s) - 1)
            B2[r][r + 1] = kb2 * pw(i + 1) * tops
            C1[r][r] = kc1 * tops * (ac * pw(i + n) - 1) * (abc * pw(i + n) - 1)
            C2[r][r] = (kc2 * pw(n - i) * top * (bn1 - pw(i))
                        * (g1 * pw(i + 1) - g2 - aq1 * pw(2 * i)))
        if i < n:
            C2[r][r + 1] = kc5 * (pw(i) - bn) * (pw(i) - bn1) * (1 - pw(s - 1)) * (1 - pw(s))

    return {"B1": Mat(B1), "B2": Mat(B2), "C1": Mat(C1), "C2": Mat(C2)}


def reference_s_matrix(E: EquationCoeffs, n: int) -> Mat:
    """The closed-form S_n, verbatim, in Fractions as a dense table."""
    pw = QTables(E.qp.q).pow
    qn = functools.partial(qnum, qp=E.qp)
    (_, b1s, _), (_, b2s, _), (_, b3a, c3a, _), (_, b3d, c3d, _), (_, g1), (_, g2) = form_scalars(E)
    c3, b3 = c3a + c3d * pw(2 - n), b3a + b3d * pw(2 - n)
    S = [[0] * n for _ in range(n + 1)]
    for i in range(1, n + 1):
        S[i - 1][i - 1] = qn(n - i + 1) * (g1 + pw(1 + i - n) * b1s * qn(n - i) + c3 * qn(i - 1))
        S[i][i - 1] = qn(i - 1) * (b2s * pw(3 - i) * qn(i - 2) + qn(n + 1 - i) * b3 + g2)
    return Mat(S)


def reference_t_matrix(E: EquationCoeffs, n: int) -> Mat:
    """The closed-form T_n as sums of products of the structure matrices."""
    q = E.qp.q
    (_, _, c1s), (_, _, c2s), (*_, d3a), (*_, d3d), _, _ = form_scalars(E)
    E1, K2 = difference_matrix(n - 1, 1, q), difference_matrix(n, 2, 1 / q)
    return (difference_matrix(n, 2, q) @ E1).scaled(d3a) \
        + (difference_matrix(n, 1, 1 / q) @ E1).scaled(c1s * q) \
        + (K2 @ difference_matrix(n - 1, 2, q)).scaled(c2s * q) \
        + (K2 @ difference_matrix(n - 1, 1, 1 / q)).scaled(d3d)


def reference_classical_residual(cp, u: BiPoly, total_degree: int) -> BiPoly:
    """The classical operator's residual from BiPoly products and derivatives."""
    al, be, ga = Fraction(cp.alpha), Fraction(cp.beta), Fraction(cp.gamma)
    x, y, one = BiPoly.x(), BiPoly.y(), BiPoly.const(1)
    s3 = al + be + ga + 3
    uxx = u.diff_x().diff_x()
    uyy = u.diff_y().diff_y()
    uxy = u.diff_x().diff_y()
    ux = u.diff_x()
    uy = u.diff_y()
    nn = Fraction(total_degree)
    return ((x * x - one) * uxx + (y * y - one) * uyy
            + (x + one) * (y - one) * uxy * 2
            + (x * s3 + one * (al - be + ga + 1)) * ux
            + (y * s3 + one * (al - be - ga - 1)) * uy
            - u * (nn * (al + be + ga + nn + 2)))
