"""Scalar matrices, polynomial column vectors, exact solving, and
lower-set Newton interpolation.

Sizes here are tiny (O(degree)).  A matrix stores each row as integer
numerators over one positive denominator, reduced by one gcd per row
(entries are taken through ``as_fraction``; ``rows`` and indexing give
Fractions).  Products skip the zero entries of the left factor, since the
operator's difference blocks are bidiagonal and the multiplication
embeddings are 0/1 selections.  Solving is plain rational Gaussian
elimination with partial pivoting, so results and singularity reports are
exact; no route calls it, and it stays only because the benchmark's span
list names it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bipoly import BiPoly, poly_sum
from .scalars import as_fraction


class SingularMatrixError(ValueError):
    def __init__(self, pivot_col: int):
        super().__init__(f"singular system: rank deficiency at pivot column {pivot_col}")
        self.pivot_col = pivot_col


def _reduced_row(nums: list, den: int) -> tuple:
    """The row nums / den (den != 0) with gcd(den, *nums) = 1 and den > 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return nums, den


class Mat:
    """Row i holds the entries nums[i][j] / dens[i]."""

    __slots__ = ("nums", "dens", "ncols")

    def __init__(self, rows):
        nums, dens = [], []
        for r in rows:
            r = [v if isinstance(v, (int, Fraction)) else as_fraction(v) for v in r]
            # over the lcm of reduced denominators the row is already reduced
            L = math.lcm(*(v.denominator for v in r))
            nums.append([v.numerator * (L // v.denominator) for v in r])
            dens.append(L)
        ncols = len(nums[0]) if nums else 0
        if any(len(r) != ncols for r in nums):
            raise ValueError("ragged matrix rows")
        self.nums, self.dens, self.ncols = nums, dens, ncols

    @classmethod
    def _of(cls, rows: list, ncols: int) -> "Mat":
        """A Mat on reduced (numerators, denominator) rows of length ncols."""
        M = object.__new__(cls)
        M.nums = [r for r, _ in rows]
        M.dens = [d for _, d in rows]
        M.ncols = ncols
        return M

    @classmethod
    def zeros(cls, n: int, m: int):
        return cls._of([([0] * m, 1) for _ in range(n)], m)

    @classmethod
    def identity(cls, n: int):
        return cls._of([([int(i == j) for j in range(n)], 1) for i in range(n)], n)

    @property
    def rows(self) -> list:
        """The entries as a new list of rows of Fractions."""
        return [[Fraction(v, d) for v in r] for r, d in zip(self.nums, self.dens)]

    @property
    def nrows(self) -> int:
        return len(self.nums)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.nums[i][j], self.dens[i])

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        rows = []
        for ra, da, rb, db in zip(self.nums, self.dens, other.nums, other.dens):
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            rows.append(_reduced_row([a * fa + b * fb for a, b in zip(ra, rb)], da * fa))
        return Mat._of(rows, self.ncols)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat._of([([-v for v in r], d) for r, d in zip(self.nums, self.dens)], self.ncols)

    def scaled(self, c) -> "Mat":
        c = as_fraction(c)
        if not c:
            return Mat.zeros(self.nrows, self.ncols)
        a, b = c.numerator, c.denominator
        rows = [_reduced_row([v * a for v in r], d * b) for r, d in zip(self.nums, self.dens)]
        return Mat._of(rows, self.ncols)

    def __matmul__(self, other):
        """Row i of the product is the sum of the right operand's rows (or
        entries) weighted by the nonzero entries of row i; a matrix product
        sums the rows over the integers on one common denominator."""
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
            rows = []
            for r, d in zip(self.nums, self.dens):
                terms = [(a, k) for k, a in enumerate(r) if a]
                D = math.lcm(*(other.dens[k] for _, k in terms))
                acc = [0] * other.ncols
                for a, k in terms:
                    f = a * (D // other.dens[k])
                    acc = [s + f * v for s, v in zip(acc, other.nums[k])]
                rows.append(_reduced_row(acc, d * D))
            return Mat._of(rows, other.ncols)
        if isinstance(other, PolyVec):
            if self.ncols != len(other):
                raise ValueError(f"shape mismatch {self.shape} @ vec({len(other)})")
            return PolyVec([poly_sum([p * Fraction(a, d) for a, p in zip(r, other.entries) if a])
                            for r, d in zip(self.nums, self.dens)])
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self.dens == other.dens and self.nums == other.nums

    def __hash__(self):
        return hash((tuple(map(tuple, self.nums)), tuple(self.dens)))

    def __repr__(self):
        return "Mat(" + "; ".join(" ".join(str(v) for v in r) for r in self.rows) + ")"


def stack(*mats: Mat) -> Mat:
    """The matrices' rows one under another (all of one width)."""
    if len({M.ncols for M in mats}) != 1:
        raise ValueError("stacked matrices differ in width")
    return Mat._of([row for M in mats for row in zip(M.nums, M.dens)], mats[0].ncols)


def mat_diff(A: Mat, B: Mat) -> list:
    """Entries where A and B differ, as ((row, col) 1-based, a, b)."""
    if A.shape != B.shape:
        return [("shape", A.shape, B.shape)]
    out = []
    for i in range(A.nrows):
        for j in range(A.ncols):
            if A[i, j] != B[i, j]:
                out.append(((i + 1, j + 1), A[i, j], B[i, j]))
    return out


def solve_exact(A: Mat, B: Mat) -> Mat:
    """Solve A @ X = B exactly by rational Gaussian elimination.

    Raises SingularMatrixError naming the pivot column where rank collapses.
    """
    n = A.nrows
    if A.ncols != n:
        raise ValueError("solve_exact needs a square matrix")
    if B.nrows != n:
        raise ValueError("right-hand side row count mismatch")
    m = B.ncols
    work = [a + b for a, b in zip(A.rows, B.rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col]), None)
        if piv is None:
            raise SingularMatrixError(col)
        work[col], work[piv] = work[piv], work[col]
        pval = work[col][col]
        work[col] = [v / pval for v in work[col]]
        for i in range(n):
            if i != col:
                f = work[i][col]
                if f:
                    work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return Mat([row[n : n + m] for row in work])


class PolyVec:
    """Column vector of BiPolys (degree-n vectors have n+1 entries, grlex order)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = list(entries)
        if not entries:
            raise ValueError("empty polynomial vector")
        if not all(isinstance(e, BiPoly) for e in entries):
            raise TypeError("polynomial vector entries must be BiPolys")
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, k) -> BiPoly:
        return self.entries[k]

    def __add__(self, other: "PolyVec") -> "PolyVec":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return PolyVec([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyVec") -> "PolyVec":
        return self + (-other)

    def __neg__(self):
        return PolyVec([-a for a in self.entries])

    def scaled(self, c) -> "PolyVec":
        return PolyVec([p * c for p in self.entries])

    def mul_poly(self, p: BiPoly) -> "PolyVec":
        return PolyVec([e * p for e in self.entries])

    def apply(self, fn) -> "PolyVec":
        return PolyVec([fn(e) for e in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, PolyVec):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self.entries, other.entries))

    def __repr__(self):
        return "PolyVec[" + "; ".join(repr(e) for e in self.entries) + "]"


def monomial_vec(n: int) -> PolyVec:
    """The graded-lex monomial column (x^n, x^{n-1}y, ..., y^n)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return PolyVec([BiPoly.monomial(n - k, k) for k in range(n + 1)])


def graded_coeff_block(vec: PolyVec, degree: int) -> Mat:
    """Matrix of total-degree-`degree` coefficients of a PolyVec.

    Row k holds the coefficients of entry k against the monomials
    (x^degree, x^{degree-1}y, ..., y^degree).
    """
    monos = [(degree - c, c) for c in range(degree + 1)]
    return Mat._of([_reduced_row([p.nums.get(m, 0) for m in monos], p.den) for p in vec.entries],
                   degree + 1)


def _divided_differences(nodes, values) -> list:
    """[t_0..t_k] f for k < len(values), from values[k] = f(nodes[k])."""
    dd = list(values)
    for order in range(1, len(dd)):
        for k in range(len(dd) - 1, order - 1, -1):
            dd[k] = (dd[k] - dd[k - 1]) / (nodes[k] - nodes[k - order])
    return dd


def interpolate_2d(nodes_x, nodes_y, values) -> BiPoly:
    """The unique BiPoly of total degree < G = len(nodes_x) = len(nodes_y)
    with values[i][j] = p(nodes_x[i], nodes_y[j]) on the lower set i + j < G
    (row i holds G - i values), for any distinct nodes, by Newton
    interpolation: x-divided differences down each column give the x-Newton
    coefficients g_i of p (degree < G - i in y) at y_0..y_{G-1-i}, their
    y-divided differences give the Newton coefficients of each g_i, and
    nested Horner steps, in y and then in x, give the monomial form."""
    nodes_x = [as_fraction(v) for v in nodes_x]
    nodes_y = [as_fraction(v) for v in nodes_y]
    G = len(nodes_x)
    if len(nodes_y) != G or [len(row) for row in values] != list(range(G, 0, -1)):
        raise ValueError(f"values must fill the lower set of {G} x- and as many y-nodes")
    for nodes, label in ((nodes_x, "x"), (nodes_y, "y")):
        if len(set(nodes)) != G:
            raise ValueError(f"repeated {label} interpolation node")
    newton_x = [[] for _ in range(G)]  # newton_x[i][j] = [x_0..x_i] p(., y_j)
    for j in range(G):
        column = [as_fraction(values[i][j]) for i in range(G - j)]
        for i, v in enumerate(_divided_differences(nodes_x, column)):
            newton_x[i].append(v)
    poly = []  # rows by x-exponent, each a list of coefficients by y-exponent
    for i in range(G - 1, -1, -1):
        d = _divided_differences(nodes_y, newton_x[i])
        g = [d[-1]]
        for j in range(len(d) - 2, -1, -1):  # g <- d_j + (y - y_j) g
            g = [a - nodes_y[j] * h for a, h in zip([d[j], *g], g)] + [g[-1]]
        # poly <- g + (x - x_i) poly
        poly = [[a - nodes_x[i] * h for a, h in zip(above, here)] + above[len(here):]
                for above, here in zip([g, *poly], [*poly, []])]
    return BiPoly({(e, j): c for e, row in enumerate(poly) for j, c in enumerate(row)})
