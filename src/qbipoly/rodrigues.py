"""Rodrigues-representation solutions by exact lattice evaluation.

The polynomial of index (n, m) is recovered from

    u = Lambda * q^{n(1-n)/2 + m(1-m)/2} / rho(x,y)
        * [Dq1]^n [Dq2]^m [ rho(x,y) * Omega(x,y) ],

    Omega(x,y) = prod_{k=0..n-1} omega1(q^-k x, y) * prod_{s=0..m-1} omega2(x, q^-s y),

sampled on the lower set i + j <= n + m of a backward lattice grid: all rho
ratios entering the quotient are finite products of Pearson ratio values,
hence exact rationals, and the samples interpolate to the unique polynomial
of total degree n + m.
"""

from __future__ import annotations

from fractions import Fraction

from .bipoly import BiPoly
from .equation import EquationCoeffs
from .linalg import interpolate_2d
from .pearson import LatticePoleError, base_weight
from .qcalc import dq_nm_table

#: Base points tried in order when a lattice path hits a Pearson pole.
DEFAULT_BASES = (
    (Fraction(3, 7), Fraction(5, 11)),
    (Fraction(2, 5), Fraction(3, 7)),
    (Fraction(5, 9), Fraction(4, 7)),
    (Fraction(4, 11), Fraction(6, 13)),
    (Fraction(7, 13), Fraction(3, 11)),
    (Fraction(5, 13), Fraction(7, 9)),
    (Fraction(8, 15), Fraction(5, 7)),
    (Fraction(9, 17), Fraction(4, 13)),
)


class RodriguesError(ValueError):
    pass


def _grid_values(E: EquationCoeffs, n: int, m: int, base) -> tuple:
    """Sample u on the lower set i + j <= N = n + m of the backward grid
    xb q^-i, yb q^-j from `base`; exact rationals, values[i][j] for
    j <= N - i.

    The forward stencil of every grid node lies on one backward lattice of
    (G+n) x (G+m) points x_a = q^a X, y_b = q^b Y, G = N + 1, from the far
    anchor (X, Y) = q^-N base (grid node i, stencil row r is lattice row
    N-i+r).  There rho ratios are finite Pearson products, and the anchor
    constant cancels between the bracket and the outer division.  A node
    of the lower set has its stencil in a + b >= N, so f = rho * Omega is
    formed only there, Omega as the product of its factors:
    omega1(q^-k x_a, y_b) = omega1(x_{a-k}, y_b) and omega2(x_a, q^-s y_b) =
    omega2(x_a, y_{b-s}), each factor evaluated once on the lattice as an
    unreduced integer pair, so that f is a product of integers reduced once
    per lattice point.  One lattice-wide difference table gives every node.
    """
    qp = E.qp
    q = qp.q
    N = n + m
    G = N + 1
    xb, yb = base
    X, Y = xb * q**-N, yb * q**-N
    weight = base_weight(E, (X, Y))
    rho = weight.box(G + n, G + m)
    P = weight.pearson
    pref = q ** ((n * (1 - n)) // 2 + (m * (1 - m)) // 2)

    # factor arguments reach dx (dy) steps below the lattice: xs[a + dx] = x_a
    dx, dy = max(n - 1, 0), max(m - 1, 0)
    xs = [X * q ** (a - dx) for a in range(G + n + dx)]
    ys = [Y * q ** (b - dy) for b in range(G + m + dy)]
    w1 = P.omega1.eval_grid_pairs(xs, ys[dy:]) if n else None
    w2 = P.omega2.eval_grid_pairs(xs[dx:], ys) if m else None
    fvals = []
    for a in range(G + n):
        row = [None] * max(N - a, 0)
        for b in range(len(row), G + m):
            val = rho[a][b]
            num, den = val.numerator, val.denominator
            for wn, wd in [w1[a + dx - k][b] for k in range(n)] + [w2[a][b + dy - s] for s in range(m)]:
                num *= wn
                den *= wd
            row.append(Fraction(num, den))
        fvals.append(row)
    table = dq_nm_table(fvals, X, Y, qp, n, m)

    values = []
    for i in range(G):
        row = []
        for j in range(G - i):
            rho_here = rho[N - i][N - j]
            if rho_here == 0:
                raise LatticePoleError("rho", N - i, (xb * q**-i, yb * q**-j))
            row.append(pref * table[N - i][N - j] / rho_here)
        values.append(row)
    return [xb * q**-i for i in range(G)], [yb * q**-j for j in range(G)], values


def rodrigues_poly(E: EquationCoeffs, n: int, m: int) -> BiPoly:
    """Construct the degree-(n+m) Rodrigues polynomial exactly.

    Raises RodriguesError, before any lattice work, when the equation is
    not admissible, and when no base point of DEFAULT_BASES is pole-free.
    The result is not re-checked against the eigen-equation here: the
    consistency suite (its rodrigues_in_eigenspace rows), `generate
    --family rodrigues` (its residual_zero entry) and the tests do that.
    """
    if n < 0 or m < 0:
        raise ValueError("degrees must be nonnegative")
    adm = E.admissibility
    if not adm.admissible:
        raise RodriguesError(f"equation not admissible: {adm.failures}")
    last_pole = None
    for base in DEFAULT_BASES:
        try:
            nodes_x, nodes_y, values = _grid_values(E, n, m, base)
        except (LatticePoleError, ZeroDivisionError) as exc:
            last_pole = exc
            continue
        return interpolate_2d(nodes_x, nodes_y, values)
    raise RodriguesError(f"no pole-free base point among {len(DEFAULT_BASES)} candidates: "
                         f"{last_pole}")
