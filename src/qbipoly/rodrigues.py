"""Rodrigues-representation solutions by exact lattice evaluation.

The polynomial of index (n, m) is recovered from

    u = Lambda * q^{n(1-n)/2 + m(1-m)/2} / rho(x,y)
        * [Dq1]^n [Dq2]^m [ rho(x,y) * Omega(x,y) ],

    Omega(x,y) = prod_{k=0..n-1} omega1(q^-k x, y) * prod_{s=0..m-1} omega2(x, q^-s y),

sampled on the lower set i + j <= n + m of a backward lattice grid: all rho
ratios entering the quotient are finite products of Pearson ratio values,
hence exact rationals, and the samples interpolate to the unique polynomial
of total degree n + m.  The pairs of one call share one lattice, pole-free
by construction, on which each Pearson polynomial is evaluated once; rho,
the bracket's factors, f and the difference tables are integers, and only
node values are Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .bipoly import BiPoly
from .equation import EquationCoeffs
from .linalg import interpolate_2d
from .pearson import base_weight, require_weight
from .qcalc import difference_passes


def _pole_free_base(P, q: Fraction) -> tuple:
    """(p, 1/p) for the least prime p dividing neither term of q nor any
    numerator of the Pearson polynomials.  Admissibility leaves phi1 and
    omega1 the terms x^2, xy, x, y and phi2 and omega2 y^2, xy, y, x, so at
    every lattice point (p q^a, q^b / p) their terms c x^i y^j have distinct
    p-adic valuations i - j - v_p(den), and the least cannot cancel (Koblitz,
    *p-adic Numbers, p-adic Analysis, and Zeta-Functions*, ch. I): no ratio
    has a pole and no weight is zero."""
    nums = [q.numerator, q.denominator,
            *(c for f in (P.phi1, P.phi2, P.omega1, P.omega2) for c in f.nums.values())]
    for p in itertools.count(2):
        if all(p % d for d in range(2, math.isqrt(p) + 1)) and all(n % p for n in nums):
            return Fraction(p), Fraction(1, p)


def _grid_values(E: EquationCoeffs, pairs, base) -> dict:
    """Sample u of each pair (n, m) on the lower set i + j <= N = n + m of
    the backward grid xb q^-i, yb q^-j from `base`: {(n, m): (nodes_x,
    nodes_y, values)}, exact rationals, values[i][j] for j <= N - i.

    All pairs share one backward lattice of (M+1+n') x (M+1+m') points x_a
    = q^a X, y_b = q^b Y, from the far anchor (X, Y) = q^-M base, where M,
    n' and m' are the largest n + m, n and m.  A pair reads the sub-box from
    offset o = M - N: its grid node i, stencil row r, is lattice row M-i+r.
    There rho ratios are finite Pearson products, and the anchor constant
    cancels between the bracket and the outer division.  A node of the
    lower set has its stencil in a + b >= N (pair coordinates), so f = rho *
    Omega is formed only there, from omega1(q^-k x_a, y_b) = omega1(x_(a-k),
    y_b) and omega2(x_a, q^-s y_b) = omega2(x_a, y_(b-s)) off one
    ``box_pairs``.  Those at x_1..x_a divide rho's last x steps, so f is rho
    a0 = max(a - n, 0) rows lower times those steps' phi1 values: unreduced
    integers, lifted by the integer difference table with no gcd (rho is
    reduced once per lattice point).  Each node value pref * T / rho is
    reduced once.  A pole anywhere on the shared lattice fails every pair.
    """
    q = E.qp.q
    M = max(n + m for n, m in pairs)
    n_top, m_top = max(n for n, _ in pairs), max(m for _, m in pairs)
    X, Y = (v * q**-M for v in base)
    rho, p1, w1, w2 = base_weight(E, (X, Y)).box_pairs(M + 1 + n_top, M + 1 + m_top, (n_top, m_top))
    nodes_x, nodes_y = ([v * q**-i for i in range(M + 1)] for v in base)
    out = {}
    for n, m in pairs:
        N = n + m
        G, o = N + 1, M - N
        fvals = []
        for a in range(o, o + G + n):
            lo, hi = o + max(M - a, 0), o + G + m  # row a's columns with a + b >= N
            a0 = max(a - n, 0)  # and the omega1 factors at x_(a-n+1)..x_0
            row = rho[a0][lo:hi]
            for factors in ([p1[s][lo:hi] for s in range(a0, a)]
                            + [w1[s][lo:hi] for s in range(a - n + n_top, n_top)]
                            + [w2[a][lo + m_top - 1 - s:hi + m_top - 1 - s] for s in range(m)]):
                row = [(x * u, y * v) for (x, y), (u, v) in zip(row, factors)]
            fvals.append([None] * (lo - o) + row)
        table, T_den = difference_passes(fvals, X * q**o, Y * q**o, q, n, m)
        pref = q ** ((n * (1 - n)) // 2 + (m * (1 - m)) // 2)
        pn, pd = pref.numerator, pref.denominator * T_den
        values = [[Fraction(pn * table[N - i][N - j] * rho[M - i][M - j][1],
                            pd * rho[M - i][M - j][0]) for j in range(G - i)] for i in range(G)]
        out[n, m] = nodes_x[:G], nodes_y[:G], values
    return out


def rodrigues_polys(E: EquationCoeffs, pairs) -> dict:
    """{(n, m): the degree-(n+m) Rodrigues polynomial} for every pair, exact,
    from one lattice on the ``_pole_free_base``.

    Before any lattice work it raises NotAdmissibleError
    (``Admissibility.require``), and DegenerateEquationError
    (``require_weight``) unless the equation is potentially self-adjoint:
    phi1 and phi2 nonzero and the order-(0,0) key, ratio_left and
    ratio_right rows holding.  The results are not re-checked against the
    eigen-equation here: the consistency suite (its rodrigues_in_eigenspace
    rows), `generate --family rodrigues` (its residual_zero entry) and the
    tests do that.
    """
    pairs = list(dict.fromkeys(pairs))
    if any(n < 0 or m < 0 for n, m in pairs):
        raise ValueError("degrees must be nonnegative")
    E.admissibility.require()
    require_weight(E, ("key", "ratio_left", "ratio_right"))
    grids = _grid_values(E, pairs, _pole_free_base(E.pearson, E.qp.q))
    return {pair: interpolate_2d(*grid) for pair, grid in grids.items()}


def rodrigues_poly(E: EquationCoeffs, n: int, m: int) -> BiPoly:
    """The degree-(n+m) Rodrigues polynomial: `rodrigues_polys` of one pair."""
    return rodrigues_polys(E, [(n, m)])[n, m]


def rodrigues_family(E: EquationCoeffs, N: int) -> dict:
    """`rodrigues_polys` of every pair n + m <= N, from one lattice."""
    return rodrigues_polys(E, [(t - m, m) for t in range(N + 1) for m in range(t + 1)])
