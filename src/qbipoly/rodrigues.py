"""Rodrigues-representation solutions by an exact polynomial recursion.

The polynomial of index (n, m) is

    u = q^{n(1-n)/2 + m(1-m)/2} / rho(x,y) * [Dq1]^n [Dq2]^m [ rho(x,y) * Omega(x,y) ],

    Omega(x,y) = prod_{k=0..n-1} omega1(q^-k x, y) * prod_{s=0..m-1} omega2(x, q^-s y).

The q-Pearson system makes each difference step polynomial: rho(qx,y) =
rho(x,y) phi1(x,y) / omega1(qx,y) gives

    Dq1 [rho omega1 K] = rho [phi1 K(qx,y) - omega1 K] / ((q-1) x),

the step of the univariate formula (Nikiforov, Suslov & Uvarov, *Classical
Orthogonal Polynomials of a Discrete Variable*, Springer 1991), and the same
along y with phi2 and omega2, so u needs no lattice, weight value or
interpolation.  The x steps run on W = rho prod_{s<m} omega2(x, q^-s y) and the
y steps peel its omega2 factors, so no step divides (``bipoly.pearson_step``).
"""

from fractions import Fraction

from .bipoly import BiPoly, pearson_step
from .equation import EquationCoeffs
from .pearson import DegenerateEquationError, require


def _weight_phis(first: tuple, second: tuple, q: Fraction, top: int) -> list:
    """[phi_0, ..., phi_top] for ``_recursion``'s first and second: phi_0 = phi1,
    phi_{s+1} = phi_s omega2(qx, q^-s y) / omega2(x, q^-s y), so that W = rho
    prod_{s<m} omega2(x, q^-s y) has x ratio W(qx,y) / W = phi_m / omega1(qx,y)."""
    phis = [first[0]]
    for s in range(top):
        w = second[1].swap().scale_args(1, q**-s)
        phis.append((phis[-1] * w.scale_args(q, 1)).div_exact(w))
    return phis


def _recursion(first: tuple, second: tuple, q: Fraction, n: int, m: int) -> BiPoly:
    """u of (n, m): n x steps from the constant K = q^{n(1-n)/2 + m(1-m)/2}
    with first = (phi_m, omega1) leave that multiple of Dq1^n [rho Omega] / W;
    then m y steps, x steps conjugated by the swap with second = (phi2,
    omega2) swapped, peel W's omega2 factors.  Each step is linear in K."""
    (phi, omega1), (phi2, omega2) = first, second
    K = BiPoly.const(q ** ((n * (1 - n)) // 2 + (m * (1 - m)) // 2))
    for j in range(n):
        K = pearson_step(phi, omega1, q ** (j + 1 - n), K, q)
    K = K.swap()
    for j in range(m):
        K = pearson_step(phi2, omega2, q ** (j + 1 - m), K, q)
    return K.swap()


def rodrigues_polys(E: EquationCoeffs, pairs) -> dict:
    """{(n, m): the degree-(n+m) Rodrigues polynomial} for every pair, exact.
    A pair with m > n runs as (m, n) on the swapped Pearson data, so it
    takes min(n, m) y steps; each orientation forms its phi_m once.

    Before any polynomial work it refuses an equation that fails a
    hypothesis the route needs (``pearson.require`` of "rodrigues": all five
    of ``pearson.HYPOTHESES``).  A phi_m that is not a polynomial, or a
    bracket that x does not divide, is refused as not potentially
    self-adjoint: a Rodrigues division leaves a remainder.
    The eigen-equation is checked by the consistency suite, `generate
    --family rodrigues` (its residual_zero entry) and the tests, not here.
    """
    pairs = list(dict.fromkeys(pairs))
    if any(n < 0 or m < 0 for n, m in pairs):
        raise ValueError("degrees must be nonnegative")
    require(E, "rodrigues")
    P, q = E.pearson, E.qp.q
    along_x, along_y = (P.phi1, P.omega1), (P.phi2.swap(), P.omega2.swap())
    try:
        phis_x = _weight_phis(along_x, along_y, q, max([m for n, m in pairs if n >= m], default=0))
        phis_y = _weight_phis(along_y, along_x, q, max([n for n, m in pairs if n < m], default=0))
        return {(n, m): _recursion((phis_x[m], P.omega1), along_y, q, n, m) if n >= m
                else _recursion((phis_y[n], along_y[1]), along_x, q, m, n).swap() for n, m in pairs}
    except ValueError:
        raise DegenerateEquationError("equation not potentially self-adjoint: "
                                      "a Rodrigues division leaves a remainder") from None


def rodrigues_poly(E: EquationCoeffs, n: int, m: int) -> BiPoly:
    """The degree-(n+m) Rodrigues polynomial: `rodrigues_polys` of one pair."""
    return rodrigues_polys(E, [(n, m)])[n, m]


def rodrigues_family(E: EquationCoeffs, N: int) -> dict:
    """`rodrigues_polys` of every pair n + m <= N."""
    return rodrigues_polys(E, [(t - m, m) for t in range(N + 1) for m in range(t + 1)])
