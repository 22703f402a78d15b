"""Monic orthogonal polynomial vectors and three-term recurrence matrices.

generate_monic_oracle builds the monic coefficient blocks G_{n,j}: read the
image of each x^{j-k} y^k (``equation.add_image``) into the exact degree
blocks of the operator, and run the triangular chain that the eigen-equation
imposes.  Admissibility makes the degree-preserving block -lambda_d I and
confines the blocks to degrees j-2..j, so each chain step is a scalar
division by an eigenvalue gap and the chain is the eigen-equation degree by
degree.  Neither the blocks nor the vectors are re-checked on every call:
`suites.suite_consistency` applies the operator to the vectors, and the
tests check the blocks of random admissible equations.

The paper's closed-form blocks S_n (degree drop 1) and T_n (degree drop 2)
are kept verbatim; the recurrence suite compares each once with the
operator block it claims to equal, and reports any disagreement instead of
patching it.

The recurrence layer (the recurrence matrices A, B and C, the explicit
generalized inverse of the stacked embeddings, and the recursive generator)
is built on oracle blocks throughout.
"""

from fractions import Fraction

from .bipoly import BiPoly, combine, from_form, reduced
from .equation import EquationCoeffs, add_image, form_scalars, operator_parts
from .linalg import Mat, stack
from .pearson import require
from .qcalc import QTables, step_weights
from .scalars import Record


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


def mat_L(n: int, j: int) -> Mat:
    """Multiplication embedding x_j x^n = L_{n,j} x^{n+1}, size (n+1)x(n+2): row k selects k + j - 1."""
    return Mat._of([({k + j - 1: 1}, 1) for k in range(n + 1)], n + 2)


# ---------------------------------------------------------------------------
# operator degree blocks and the coefficient-matching oracle
# ---------------------------------------------------------------------------

def operator_blocks(E: EquationCoeffs, j: int):
    """(M_jj, M_{j,j-1}, M_{j,j-2}): graded blocks of D on degree-j monomials.

    Row k of each block holds the coefficients of D(x^{j-k} y^k) against the
    monomial vector of the corresponding degree.  The operator of an equation
    of hypergeometric shape raises no exponent and drops total degree by at
    most 2: row k of the drop-s block has entries only at columns k - s..k.
    Each image (``equation.add_image``) is read straight into the rows."""
    parts, D = operator_parts(E, max(j, 1))
    blocks = [[] for _ in range(min(j, 2) + 1)]
    for k in range(j + 1):
        image, rows = {}, [{} for _ in blocks]
        add_image(image, (j - k, k), 1, parts)
        for (i1, i2), v in image.items():
            if 0 <= (d := j - i1 - i2) < len(rows):  # column i2 of the drop-d block
                rows[d][i2] = v
        for block, row in zip(blocks, rows):
            block.append(reduced(row, D))
    return tuple(Mat._of(b, j + 1 - d) for d, b in enumerate(blocks)) + (None,) * (2 - min(j, 2))


def ghat_oracle(E: EquationCoeffs, n: int) -> list:
    """All monic coefficient blocks [G_{n,0}, ..., G_{n,n}] (G_{n,n} = I) by
    coefficient matching in the eigen-equation, exactly."""
    family = generate_monic_oracle(E, n)
    return [family.block(n, j) for j in range(n + 1)]


# ---------------------------------------------------------------------------
# the paper's closed-form operator blocks (cross-check layer)
# ---------------------------------------------------------------------------

def s_matrix_closed_form(E: EquationCoeffs, n: int) -> Mat:
    """The closed-form lower-bidiagonal S_n (degree-drop-1 block), entries
    s_{i,i} and s_{i+1,i} (1-based), size (n+1) x n; kept verbatim, so its
    subdiagonal erratum shows in the recurrence report."""
    if n < 1:
        raise ValueError("S_n needs n >= 1")
    tab = QTables(E.qp.q)
    pw, qn = tab.pow, tab.num
    (_, b1s, _), (_, b2s, _), (_, b3a, c3a, _), (_, b3d, c3d, _), (_, g1), (_, g2) = form_scalars(E)
    c3, b3 = c3a + c3d * pw(2 - n), b3a + b3d * pw(2 - n)
    S = [[0] * n for _ in range(n + 1)]
    for i in range(1, n + 1):
        S[i - 1][i - 1] = qn(n - i + 1) * (g1 + pw(1 + i - n) * b1s * qn(n - i) + c3 * qn(i - 1))
        S[i][i - 1] = qn(i - 1) * (b2s * pw(3 - i) * qn(i - 2) + qn(n + 1 - i) * b3 + g2)
    return Mat(S)


def t_matrix_closed_form(E: EquationCoeffs, n: int) -> Mat:
    """The closed-form T_n (degree-drop-2 block), size (n+1) x (n-1)."""
    if n < 2:
        raise ValueError("T_n needs n >= 2")
    q = E.qp.q
    (_, _, c1s), (_, _, c2s), (*_, d3a), (*_, d3d), _, _ = form_scalars(E)
    E1, K2 = difference_matrix(n - 1, 1, q), difference_matrix(n, 2, 1 / q)
    return (difference_matrix(n, 2, q) @ E1).scaled(d3a) \
        + (difference_matrix(n, 1, 1 / q) @ E1).scaled(c1s * q) \
        + (K2 @ difference_matrix(n - 1, 2, q)).scaled(c2s * q) \
        + (K2 @ difference_matrix(n - 1, 1, 1 / q)).scaled(d3d)


# ---------------------------------------------------------------------------
# family container, recurrence matrices, recursive generation
# ---------------------------------------------------------------------------

class MonicFamily(Record):
    equation: EquationCoeffs
    vectors: list          # degrees 0..N; vectors[n] lists the n + 1 BiPolys of P_n
    ghat: dict             # (n, j) -> Mat
    operator_blocks: list  # operator_blocks(E, j) for every cached degree j

    @property
    def N(self):
        return len(self.vectors) - 1

    def entry(self, n: int, k: int) -> BiPoly:
        """The monic solution with leading monomial x^{n-k} y^k."""
        return self.vectors[n][k]

    def block(self, n: int, j: int) -> Mat:
        return self.ghat[(n, j)]


def _chain_step(terms, gap: Fraction) -> tuple:
    """-(sum of G M over the terms (G, M)) / gap, G one form keyed (row,
    column), M a drop block read on its nonzero band only: ``combine`` adds
    the parts, one per row of M, over one den and reduces by one gcd."""
    parts = []
    for (nums, den), M in terms:
        cols = [{} for _ in M.forms]
        for (r, k), v in nums.items():
            for c, w in M.forms[k][0].items():
                cols[k][(r, c)] = v * w
        parts += [(-gap.denominator, col, den * d) for col, (_, d) in zip(cols, M.forms)]
    return combine(parts, gap.numerator)


def generate_monic_oracle(E: EquationCoeffs, N: int) -> MonicFamily:
    """Oracle family for degrees 0..N.

    It refuses an equation that fails a hypothesis the oracle needs
    (``pearson.require`` of "monic": the form and admissibility).
    Admissibility and the operator blocks are computed once and shared by
    every degree.  Admissibility makes each degree-preserving block
    -lambda_j I and the eigenvalues pairwise distinct, so the chain step
    G_{n,d} (M_dd + lambda_n I) = -rhs is the division by a nonzero gap
    G_{n,d} = -rhs / (lambda_n - lambda_d), run fraction-free on
    each block as one form (``_chain_step``); a block gets its canonical row
    forms when it is stored, and entry k of P_n = sum_j G_{n,j} x^j adds row
    k of every block, column c of degree j read as the monomial x^{j-c} y^c,
    by one ``combine``.  Neither the blocks nor the vectors are
    re-checked here: `suites.suite_consistency` and the tests put the
    vectors through the operator, and the tests check the blocks."""
    require(E, "monic")
    blocks = [operator_blocks(E, j) for j in range(N + 1)]
    lam = [E.admissibility.eigenvalue(j) for j in range(N + 1)]
    keys = [[(j - c, c) for c in range(j + 1)] for j in range(N + 1)]  # column c of degree j
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
    return MonicFamily(E, vectors, ghat, blocks)


def ttr_matrices(family: MonicFamily, n: int, j: int) -> dict:
    """Recurrence matrices A_{n,j} = L_{n,j}, B_{n,j} = G_{n,n-1} L_{n-1,j} -
    L_{n,j} G_{n+1,n} and C_{n,j} = G_{n,n-2} L_{n-2,j} - L_{n,j} G_{n+1,n-1}
    - B G_{n,n-1} (no C at n = 0; a block of negative index is left out).
    L on the left takes rows from j - 1 on, on the right it shifts columns
    by j - 1, so each row of B and C is one ``combine`` of block rows."""
    off, G = j - 1, family.ghat

    def l_terms(r: int, below: int, ahead: int) -> list:
        # row r of G_{n,below} L_{below,j} - L_{n,j} G_{n+1,ahead}
        terms = [(-1, *G[(n + 1, ahead)].forms[r + off])]
        if below >= 0:
            nums, den = G[(n, below)].forms[r]
            terms.append((1, {c + off: v for c, v in nums.items()} if off else nums, den))
        return terms

    B = Mat._of([combine(l_terms(r, n - 1, n)) for r in range(n + 1)], n + 1)
    right = G[(n, n - 1)].forms if n else ()
    C = Mat._of([combine(l_terms(r, n - 2, n - 1)
                         + [(-a, right[k][0], right[k][1] * bden) for k, a in bnums.items()])
                 for r, (bnums, bden) in enumerate(B.forms)], n) if n else None
    return {"A": mat_L(n, j), "B": B, "C": C}


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
