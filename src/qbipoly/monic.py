"""Monic orthogonal polynomial vectors and three-term recurrence matrices.

generate_monic_oracle builds the monic coefficient blocks G_{n,j}.  An operator of
hypergeometric shape takes x^{j-k} y^k (``equation.add_image``) to six monomials, read
once per degree into integer stencil rows (``_stencils``).  Admissibility makes the
degree-preserving block -lambda_d I, so the chain of the eigen-equation divides by a gap:

    G_{n,d}[r][c] = -(X[c] G_{n,d+1}[r][c] + Y[c+1] G_{n,d+1}[r][c+1] + XX[c] G_{n,d+2}[r][c]
                      + XY[c+1] G_{n,d+2}[r][c+1] + YY[c+2] G_{n,d+2}[r][c+2]) / (lambda_n - lambda_d),

X, Y the x- and y-drops of degree d + 1 and XX, XY, YY the drops of degree d + 2.  Nothing
is re-checked on every call: `suites.suite_consistency` applies the operator to the
vectors, and the tests check the blocks.  The paper's closed-form S_n (degree drop 1) and
T_n (degree drop 2) have q-integer entries, one integer form per row; S_n is kept verbatim,
so the recurrence suite reports its subdiagonal erratum instead of patching it.  The
recurrence layer (A, B, C, the generalized inverse of the stacked embeddings, the
recursive generator) reads the oracle's blocks as the chain's integer levels.
"""

from .bipoly import BiPoly, from_form, lift_pairs, reduced, reduced_rows
from .equation import EquationCoeffs, add_image, form_scalars, operator_parts
from .linalg import Mat, stack
from .pearson import require
from .scalars import Record


def mat_L(n: int, j: int) -> Mat:
    """Multiplication embedding x_j x^n = L_{n,j} x^{n+1}, size (n+1)x(n+2): row k selects k + j - 1."""
    if j not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return Mat._of([({k + j - 1: 1}, 1) for k in range(n + 1)], n + 2)


# ---------------------------------------------------------------------------
# operator stencils and blocks, and the coefficient-matching oracle
# ---------------------------------------------------------------------------

def _stencils(parts, j: int) -> list:
    """Stencil rows of degree j over the D of ``operator_parts``: row s (s + 1) / 2 + dy holds at k
    the coefficient of x^(j-k-s+dy) y^(k-dy) in the image of x^(j-k) y^k (drop s, y-drop dy)."""
    rows = [[0] * (j + 1) for _ in range(6)]
    for k in range(j + 1):
        image = {}
        add_image(image, (j - k, k), 1, parts)
        for (i1, i2), v in image.items():
            rows[(s := j - i1 - i2) * (s + 1) // 2 + k - i2][k] = v
    return rows


def operator_blocks(E: EquationCoeffs, j: int):
    """(M_jj, M_{j,j-1}, M_{j,j-2}): graded blocks of D on degree-j monomials;
    row k of the drop-s block holds the stencil entries of the drops (s - t, t)
    at columns k - t."""
    parts, D = operator_parts(E, max(j, 1))
    st = _stencils(parts, j)
    return tuple(Mat._of([reduced({k - t: st[s * (s + 1) // 2 + t][k] for t in range(s + 1)}, D)
                          for k in range(j + 1)], j + 1 - s) if s <= j else None for s in range(3))


def ghat_oracle(E: EquationCoeffs, n: int) -> list:
    """All monic coefficient blocks [G_{n,0}, ..., G_{n,n}] (G_{n,n} = I) by
    coefficient matching in the eigen-equation, exactly."""
    family = generate_monic_oracle(E, n)
    return [family.block(n, j) for j in range(n + 1)]


# ---------------------------------------------------------------------------
# the paper's closed-form operator blocks (cross-check layer)
# ---------------------------------------------------------------------------

def _lifted(E: EquationCoeffs, n: int, *scalars) -> tuple:
    """(u, v, h, lifted, D), q = u/v: h_e = (v^e - u^e)/(v - u) (e <= n + 1), so [e]_q = h_e /
    v^(e-1) and [e]_(1/q) = h_e / u^(e-1), and the scalars as numerators over their lcm D."""
    u, v = E.qp.q.numerator, E.qp.q.denominator
    lifted, D = lift_pairs([(s.numerator, s.denominator) for s in scalars])
    return u, v, [(v**e - u**e) // (v - u) for e in range(n + 2)], lifted, D


def s_matrix_closed_form(E: EquationCoeffs, n: int) -> Mat:
    """The closed-form lower-bidiagonal S_n (degree-drop-1 block), (n+1) x n,
    kept verbatim, so its subdiagonal erratum shows in the recurrence report:
    s_{i,i} = [n-i+1] (g1 + q^(1+i-n) b1 [n-i] + c3 [i-1]) and s_{i+1,i} =
    [i-1] (b2 q^(3-i) [i-2] + [n+1-i] b3 + g2) (1-based), c3 = c3a + c3d
    q^(2-n), b3 = b3a + b3d q^(2-n).  Row k is one form over D (uv)^(n-1)
    (``_lifted``); an entry off the band has a factor h_0 = 0, or k = 0."""
    if n < 1:
        raise ValueError("S_n needs n >= 1")
    (_, b1, _), (_, b2, _), (_, b3a, c3a, _), (_, b3d, c3d, _), (_, g1), (_, g2) = form_scalars(E)
    u, v, h, (g1, b1, c3a, c3d, b2, b3a, b3d, g2), D = _lifted(E, n, g1, b1, c3a, c3d, b2, b3a, b3d, g2)
    uv, up, vp = u * v, u ** max(n - 2, 0), v ** max(n - 2, 0)
    c3, b3 = c3a * up + c3d * vp, b3a * up + b3d * vp  # times u^(n-2); they enter only where n > 1
    return Mat._of([reduced({k: h[n - k] * (g1 * u ** (n - 1) * v**k + b1 * u * uv**k * h[n - 1 - k]
                                            + uv * h[k] * c3),
                             k - 1: k and uv * h[k - 1] * (b2 * h[k - 2] * u ** (n + 1 - k) * v ** (n - k)
                                                           + h[n + 1 - k] * b3 + g2 * up * v ** (n - k))},
                            D * uv ** (n - 1)) for k in range(n + 1)], n)


def t_matrix_closed_form(E: EquationCoeffs, n: int) -> Mat:
    """The closed-form T_n (degree-drop-2 block), (n+1) x (n-1): the paper's
    E_{n,2} E_{n-1,1} d3a + K_{n,1} E_{n-1,1} c1 q + K_{n,2} E_{n-1,2} c2 q +
    K_{n,2} K_{n-1,1} d3d entry by entry (0-based): t_{k,k} = c1 q
    [n-k]_(1/q) [n-1-k]_q, t_{k,k-2} = c2 q [k]_(1/q) [k-1]_q and t_{k,k-1} =
    d3a [k]_q [n-k]_q + d3d [k]_(1/q) [n-k]_(1/q).  Row k is one form over D
    u^(n-2) v^(n-1); the entries off the band carry a factor h_0 = 0."""
    if n < 2:
        raise ValueError("T_n needs n >= 2")
    (_, _, c1), (_, _, c2), (*_, d3a), (*_, d3d), _, _ = form_scalars(E)
    u, v, h, (c1, c2, d3a, d3d), D = _lifted(E, n, c1, c2, d3a, d3d)
    uv, mid = u * v, (d3a * u ** (n - 2) + d3d * v ** (n - 2)) * v
    return Mat._of([reduced({k: c1 * h[n - k] * h[n - 1 - k] * uv**k, k - 1: h[k] * h[n - k] * mid,
                             k - 2: c2 * h[k] * h[k - 1] * uv ** (n - k)}, D * u ** (n - 2) * v ** (n - 1))
                    for k in range(n + 1)], n - 1)


# ---------------------------------------------------------------------------
# family container, recurrence matrices, recursive generation
# ---------------------------------------------------------------------------

class MonicFamily(Record):
    """The monic family of degrees 0..N as its chain computed it: vectors[n] lists the n + 1 BiPolys
    of P_n, and levels[(n, j)] = (rows, den) is G_{n,j} in the chain's integer form, n + 1 int rows
    of j + 1 entries over one den.  ``block`` forms a Mat from a level when asked and keeps none."""

    equation: EquationCoeffs
    vectors: list
    levels: dict

    @property
    def N(self):
        return len(self.vectors) - 1

    def entry(self, n: int, k: int) -> BiPoly:
        """The monic solution with leading monomial x^{n-k} y^k."""
        return self.vectors[n][k]

    def block(self, n: int, j: int) -> Mat:
        rows, den = self.levels[n, j]
        return Mat._of([reduced(dict(enumerate(row)), den) for row in rows], j + 1)


def generate_monic_oracle(E: EquationCoeffs, N: int) -> MonicFamily:
    """Oracle family for degrees 0..N; it refuses an equation that fails a hypothesis the oracle
    needs (``pearson.require`` of "monic": the form and admissibility).  Level d of the chain of
    degree n is the module docstring's sum on dense integer rows over one den, one gcd per
    level; row r is zero off the band r - (n - d) <= c <= r, and one zero level, wide enough for
    every n and with zero stencils of degree N + 1, is G_{n,n+1} in the second term of
    G_{n,n-1}.  Entry r of P_n = sum_j G_{n,j} x^j (column c of degree j is x^{j-c} y^c) is row
    r of every level over their lcm, reduced once.  The family keeps the levels as they are."""
    require(E, "monic")
    parts, D = operator_parts(E, max(N, 1))
    st = [_stencils(parts, j) for j in range(N + 1)] + [[[0] * (N + 2)] * 6]
    lam, levels, vectors = [E.admissibility.eigenvalue(j) for j in range(N + 1)], {}, []
    zero = [[0] * (N + 2)] * (N + 1), 1
    for n in range(N + 1):
        levels[n, n] = [[int(r == c) for c in range(n + 1)] for r in range(n + 1)], 1
        for d in range(n - 1, -1, -1):
            (one, e1), (two, e2), gap = levels[n, d + 1], levels.get((n, d + 2), zero), lam[n] - lam[d]
            (_, X, Y, *_), (*_, XX, XY, YY) = st[d + 1], st[d + 2]
            (f1, f2), lcm = lift_pairs([(-gap.denominator, e1), (-gap.denominator, e2)])
            rows = [[0] * (d + 1) for _ in range(n + 1)]
            for r, (row, a, b) in enumerate(zip(rows, one, two)):
                for c in range(max(0, r - n + d), min(r, d) + 1):
                    row[c] = (f1 * (X[c] * a[c] + Y[c + 1] * a[c + 1])
                              + f2 * (XX[c] * b[c] + XY[c + 1] * b[c + 1] + YY[c + 2] * b[c + 2]))
            levels[n, d] = reduced_rows(rows, lcm * D * gap.numerator)
        fs, L = lift_pairs([(1, levels[n, j][1]) for j in range(n + 1)])
        vectors.append([from_form(*reduced({(j - c, c): f * w for j, f in enumerate(fs)
                                            for c, w in enumerate(levels[n, j][0][r]) if w}, L))
                        for r in range(n + 1)])
    return MonicFamily(E, vectors, levels)


def ttr_matrices(family: MonicFamily, n: int, j: int) -> dict:
    """Recurrence matrices A_{n,j} = L_{n,j}, B_{n,j} = G_{n,n-1} L_{n-1,j} - L_{n,j} G_{n+1,n}
    and C_{n,j} = G_{n,n-2} L_{n-2,j} - L_{n,j} G_{n+1,n-1} - B G_{n,n-1} (no C at n = 0; a
    block of negative index is left out), for 0 <= n < N and axis j = 1 or 2.  L on the left
    takes rows from j - 1 on, on the right it shifts columns by j - 1.  The blocks are read as
    the family's integer levels, so each row of B and C is summed on integers over one den and
    reduced once."""
    A = mat_L(n, j)
    if not 0 <= n < family.N:
        raise ValueError(f"recurrence matrices need 0 <= n < N = {family.N}, got n = {n}")
    off, G, empty = j - 1, family.levels, ([()] * (n + 1), 1)
    g1, e1 = G.get((n, n - 1), empty)

    def summed(s: int, bnums: list, bden: int) -> tuple:
        # G_{n,n-s} L_{n-s,j} - L_{n,j} G_{n+1,n+1-s} - (bnums / bden) G_{n,n-1}: row numerators, den, Mat
        (ahead, ea), (below, eb) = G[n + 1, n + 1 - s], G.get((n, n - s), empty)
        (fa, fb, fp), den = lift_pairs([(-1, ea), (1, eb), (-1, bden * e1)])
        rows = [[fa * v for v in ahead[r + off]] for r in range(n + 1)]
        for row, b, p in zip(rows, below, bnums):
            for c, v in enumerate(b, off):
                row[c] += fb * v
            for k, w in p.items():
                w *= fp
                for c, v in enumerate(g1[k]):
                    row[c] += w * v
        nums = [{c: v for c, v in enumerate(row) if v} for row in rows]
        return nums, den, Mat._of([reduced(row, den) for row in nums], n + 2 - s)

    bnums, bden, B = summed(1, [{}] * (n + 1), 1)
    return {"A": A, "B": B, "C": summed(2, bnums, bden)[2] if n else None}


def joint_L(n: int) -> Mat:
    return stack(mat_L(n, 1), mat_L(n, 2))


def generalized_inverse_L(n: int) -> Mat:
    """The explicit left inverse D_n of the stacked L_n as sparse row forms:
    unit first and last rows; interior row i averages columns i and n + i."""
    halves = [({i: 1, n + i: 1}, 2) for i in range(1, n + 1)]
    return Mat._of([({0: 1}, 1), *halves, ({2 * n + 1: 1}, 1)], 2 * n + 2)


def generate_monic_rf(oracle: MonicFamily) -> list:
    """The vectors of degrees 0..oracle.N generated again by the recursive
    formula P_{n+1} = D_n (x P_n, y P_n stacked - B_n P_n - C_n P_{n-1}), from
    the joint recurrence stacks of degree n, with D_n applied once per degree.
    Nothing is compared here: the consistency suite and the tests compare the
    vectors with the oracle's and check D_n L_n = I.  The formula holds where
    the three-term relation does, as for an orthogonal family (the big
    q-Jacobi preset); a generic admissible equation breaks it."""
    x, y = BiPoly.x(), BiPoly.y()
    vectors = [[BiPoly.const(1)]]
    for n in range(oracle.N):
        tb, tb2 = ttr_matrices(oracle, n, 1), ttr_matrices(oracle, n, 2)
        cur = vectors[n]
        rhs = [a - b for a, b in zip([p * x for p in cur] + [p * y for p in cur],
                                     stack(tb["B"], tb2["B"]) @ cur, strict=True)]
        if n:
            rhs = [a - c for a, c in zip(rhs, stack(tb["C"], tb2["C"]) @ vectors[n - 1],
                                         strict=True)]
        vectors.append(generalized_inverse_L(n) @ rhs)
    return vectors
