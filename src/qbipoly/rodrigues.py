"""Rodrigues-representation solutions by exact lattice evaluation.

The polynomial of index (n, m) is recovered from

    u = Lambda * q^{n(1-n)/2 + m(1-m)/2} / rho(x,y)
        * [Dq1]^n [Dq2]^m [ rho(x,y) * Omega(x,y) ],

    Omega(x,y) = prod_{k=0..n-1} omega1(q^-k x, y) * prod_{s=0..m-1} omega2(x, q^-s y),

sampled on a backward lattice grid: all rho ratios entering the quotient are
finite products of Pearson ratio values, hence exact rationals, and the
samples interpolate to the unique polynomial of total degree n + m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .equation import EquationCoeffs, admissibility, apply_operator
from .linalg import Mat, interpolate_2d
from .pearson import LatticePoleError, base_weight, rho_kl
from .qcalc import dq_nm_table, dqm_nm_table

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


@dataclass(frozen=True)
class RodriguesSpec:
    equation: EquationCoeffs
    n: int
    m: int
    normalization: Fraction = Fraction(1)
    base: tuple | None = None  # interpolation base point; scanned when None

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("degrees must be nonnegative")


def _grid_values(E: EquationCoeffs, n: int, m: int, base) -> tuple:
    """Sample u on the (n+m+1)^2 backward grid from `base`; exact rationals.

    The forward stencil of every grid node lies on one backward lattice of
    (G+n) x (G+m) points x_a = q^a X, y_b = q^b Y from the far anchor
    (X, Y) = q^-(G-1) base (grid node i, stencil row r is lattice row
    G-1-i+r).  There rho ratios are finite Pearson products, and the anchor
    constant cancels between the bracket and the outer division.

    f = rho * Omega is sampled once per lattice point, Omega taken as the
    product of its factors: omega1(q^-k x_a, y_b) = omega1(x_{a-k}, y_b) and
    omega2(x_a, q^-s y_b) = omega2(x_a, y_{b-s}), so each factor value is
    computed once.  One lattice-wide difference table gives every node.
    """
    qp = E.qp
    q = qp.q
    G = n + m + 1
    xb, yb = base
    X, Y = xb * q ** -(G - 1), yb * q ** -(G - 1)
    rho = base_weight(E, (X, Y))
    P = rho.pearson
    pref = E.field.of(q) ** ((n * (1 - n)) // 2 + (m * (1 - m)) // 2)

    # factor arguments reach dx (dy) steps below the lattice: xs[a + dx] = x_a
    dx, dy = max(n - 1, 0), max(m - 1, 0)
    xs = [X * q ** (a - dx) for a in range(G + n + dx)]
    ys = [Y * q ** (b - dy) for b in range(G + m + dy)]
    w1 = [[P.omega1.eval(xv, ys[b + dy]) for b in range(G + m)] for xv in xs] if n else None
    w2 = [[P.omega2.eval(xs[a + dx], yv) for yv in ys] for a in range(G + n)] if m else None
    fvals = []
    for a in range(G + n):
        row = []
        for b in range(G + m):
            val = rho.value(a, b)
            for k in range(n):
                val *= w1[a + dx - k][b]
            for s in range(m):
                val *= w2[a][b + dy - s]
            row.append(val)
        fvals.append(row)
    table = dq_nm_table(fvals, X, Y, qp, n, m)

    values = []
    for i in range(G):
        row = []
        for j in range(G):
            rho_here = rho.value(G - 1 - i, G - 1 - j)
            if rho_here == 0:
                raise LatticePoleError("rho", G - 1 - i, (xb * q**-i, yb * q**-j))
            row.append(pref * table[G - 1 - i][G - 1 - j] / rho_here)
        values.append(row)
    return [xb * q**-i for i in range(G)], [yb * q**-j for j in range(G)], values


def rodrigues_poly(spec: RodriguesSpec, monic: bool = False, verify: bool = True) -> BiPoly:
    """Construct the degree-(n+m) Rodrigues polynomial exactly.

    Raises RodriguesError when the interpolant carries total degree above
    n + m or fails the eigen-equation (non-admissible input or a bug), and
    when no pole-free base point is found.
    """
    E = spec.equation
    n, m = spec.n, spec.m
    bases = (spec.base,) if spec.base is not None else DEFAULT_BASES
    last_pole = None
    for base in bases:
        try:
            nodes_x, nodes_y, values = _grid_values(E, n, m, base)
        except (LatticePoleError, ZeroDivisionError) as exc:
            last_pole = exc
            continue
        poly = interpolate_2d(nodes_x, nodes_y, Mat(values, E.field))
        poly = poly * spec.normalization
        break
    else:
        raise RodriguesError(f"no pole-free base point among {len(bases)} candidates: {last_pole}")

    if verify:
        for (i, j), c in poly.coeffs.items():
            if i + j > n + m:
                raise RodriguesError(
                    f"interpolant has coefficient at ({i},{j}) beyond total degree {n + m}: {c}"
                )
        adm = admissibility(E)
        if not adm.admissible:
            raise RodriguesError(f"equation not admissible: {adm.failures}")
        lam = adm.eigenvalue(n + m)
        residual = apply_operator(E, poly) + poly * lam
        if not residual.is_zero():
            raise RodriguesError(f"Rodrigues output violates the eigen-equation at (n,m)=({n},{m})")

    if monic and not poly.is_zero():
        lead = poly.homogeneous_part(poly.total_degree()).leading_term()
        poly = poly / lead[1]
    return poly


def rodrigues_line1_values(E: EquationCoeffs, n: int, m: int, base) -> tuple:
    """First-line evaluation: backward differences of rho^{(n,m)} divided by
    rho, on the same grid rodrigues_poly interpolates over.

    Shares the far anchor with the forward construction so the two routes
    are comparable; they differ by the constant q^{n^2 + m^2} (the forward
    route carries the q^{n(1-n)/2+m(1-m)/2} prefactor).
    """
    qp = E.qp
    q = qp.q
    G = n + m + 1
    xb, yb = base
    # backward stencils reach n (resp. m) extra backward steps past the grid;
    # S, T are the shifts of the base from the far anchor
    S, T = G - 1 + n, G - 1 + m
    anchor = (xb * q**-S, yb * q**-T)
    rho = base_weight(E, anchor)
    rkl = rho_kl(E, n, m, anchor, base=rho)
    fvals = [[rkl.value(S - r, T - s) for s in range(T + 1)] for r in range(S + 1)]
    table = dqm_nm_table(fvals, xb, yb, qp, n, m)
    return [[table[i][j] / rho.value(S - i, T - j) for j in range(G)] for i in range(G)]


def rodrigues_orthogonality_check(spec: RodriguesSpec, functional, max_lower_degree: int | None = None) -> dict:
    """Weighted moments of the Rodrigues polynomial against all monomials of
    lower total degree; `functional` maps BiPoly -> scalar (float lane)."""
    n, m = spec.n, spec.m
    bound = n + m if max_lower_degree is None else max_lower_degree
    poly = rodrigues_poly(spec)
    out = {}
    for d in range(bound):
        for i in range(d + 1):
            mono = BiPoly.monomial(d - i, i, 1, poly.field)
            out[(d - i, i)] = functional(poly * mono)
    return out
