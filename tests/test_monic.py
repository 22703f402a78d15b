import hashlib
import json
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings

from qbipoly import suites
from qbipoly.bigqjacobi import TEST_PARAMS, BigQJacobiParams, preset_equation
from qbipoly.bipoly import BiPoly
from qbipoly.equation import EquationCoeffs, NotAdmissibleError, admissibility, apply_operator
from qbipoly.linalg import Mat, mat_diff, solve_exact
from qbipoly.monic import (generalized_inverse_L, generate_monic_rf, ghat_oracle, joint_L,
                           generate_monic_oracle, mat_L,
                           operator_blocks, s_matrix_closed_form,
                           t_matrix_closed_form, ttr_matrices)
from qbipoly.qcalc import QParam, dq1, dq2, dqm1, dqm2
from monic_references import (difference_matrix, reference_operator_blocks, reference_oracle,
                              reference_s_matrix, reference_t_matrix)
from strategies import admissible_equations, replace
from test_bigqjacobi import REFERENCE_IDS, REFERENCE_POINTS
from test_linalg import graded_coeff_block, monomials, rank, transpose

F = Fraction
x = BiPoly.x()
y = BiPoly.y()


# structure matrices -----------------------------------------------------------

def test_structure_identities(qp):
    ops = {1: (dq1, dqm1), 2: (dq2, dqm2)}
    for n in range(1, 6):
        vec = monomials(n)
        for j in (1, 2):
            fwd, bwd = ops[j]
            E_nj = difference_matrix(n, j, qp.q)
            K_nj = difference_matrix(n, j, 1 / qp.q)
            assert [fwd(p, qp) for p in vec] == E_nj @ monomials(n - 1)
            assert [bwd(p, qp) for p in vec] == K_nj @ monomials(n - 1)
            assert [p * (x if j == 1 else y) for p in vec] == mat_L(n, j) @ monomials(n + 1)


def test_L_partial_isometry(qp):
    for n in range(5):
        for j in (1, 2):
            L = mat_L(n, j)
            assert L @ transpose(L) == Mat.identity(n + 1)
            assert rank(L) == n + 1


def test_E_and_K_sample_entries(qp):
    assert difference_matrix(2, 1, qp.q).rows == ((F(3, 2), 0), (0, 1), (0, 0))
    assert difference_matrix(2, 2, qp.q).rows == ((0, 0), (1, 0), (0, F(3, 2)))
    assert difference_matrix(2, 1, 1 / qp.q).rows[0][0] == 3  # q^{1-n} [n]_q at n = 2


def q_integer(e: int, p: Fraction) -> Fraction:
    """[e]_p = 1 + p + ... + p^(e-1), summed term by term."""
    return sum((p**i for i in range(e)), F(0))


@pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(9, 10), F(1, 7)], ids=str)
def test_E_and_K_are_the_q_integers(q):
    # row k of the axis-j matrix holds [e]_p at column k + 1 - j, e the
    # axis-j exponent of x^(n-k) y^k; p = q gives E_{n,j}, p = 1/q gives K_{n,j}
    for p in (q, 1 / q):
        for n in range(11):
            for j in (1, 2):
                rows = [[F(0)] * n for _ in range(n + 1)]
                for k in range(n + 1):
                    if e := (n - k if j == 1 else k):
                        rows[k][k + 1 - j] = q_integer(e, p)
                assert difference_matrix(n, j, p) == Mat(rows), (p, n, j)


def test_joint_L_rank_and_inverse(qp):
    for n in range(13):
        L = joint_L(n)
        assert rank(L) == n + 2
        D = generalized_inverse_L(n)
        assert D @ L == Mat.identity(n + 2)


def test_generalized_inverse_explicit_rows():
    D = generalized_inverse_L(1)
    assert D.rows == (
        (1, 0, 0, 0),
        (0, F(1, 2), F(1, 2), 0),
        (0, 0, 0, 1),
    )


# operator blocks and the oracle ------------------------------------------------

def test_leading_block_is_minus_eigenvalue(equation, adm):
    for j in range(5):
        same, _, _ = operator_blocks(equation, j)
        assert same == Mat.identity(j + 1).scaled(-adm.eigenvalue(j))


def test_oracle_degree_one(equation):
    blocks = ghat_oracle(equation, 1)
    f1, g1 = equation.tau1()
    f2, g2 = equation.tau2()
    assert blocks[0].rows == ((g1 / f1,), (g2 / f1,))


def test_oracle_degree_zero(equation):
    assert generate_monic_oracle(equation, 0).vectors == [[BiPoly.const(1)]]


def test_oracle_monicity_and_residuals(equation, adm, oracle5):
    for n in range(6):
        vec = oracle5.vectors[n]
        assert graded_coeff_block(vec, n) == Mat.identity(n + 1)
        lam = adm.eigenvalue(n)
        for entry in vec:
            assert (apply_operator(equation, entry) + entry * lam).is_zero()


def test_single_coefficient_perturbation_breaks_eigen_equation(equation, adm, oracle5):
    u = oracle5.entry(2, 0)
    lam = adm.eigenvalue(2)
    rng = random.Random(3)
    for _ in range(5):
        i = rng.randint(0, 2)
        j = rng.randint(0, 2 - i)
        bumped = u + BiPoly({(i, j): F(1, 97)})
        assert not (apply_operator(equation, bumped) + bumped * lam).is_zero()


def reference_chain_blocks(E, N):
    """Monic blocks {(n, j): G_{n,j}} for n <= N by solving each chain step
    G_{n,d} (M_dd + lambda_n I) = -(G_{n,d+1} M_{d+1,d} + G_{n,d+2} M_{d+2,d})
    as a general linear system, without assuming the shape of M_dd."""
    adm = admissibility(E)
    blocks = [operator_blocks(E, j) for j in range(N + 1)]
    out = {}
    for n in range(N + 1):
        lam_n = adm.eigenvalue(n)
        chain = {n: Mat.identity(n + 1)}
        for d in range(n - 1, -1, -1):
            rhs = chain[d + 1] @ blocks[d + 1][1]
            if d + 2 <= n:
                rhs = rhs + chain[d + 2] @ blocks[d + 2][2]
            system = blocks[d][0] + Mat.identity(d + 1).scaled(lam_n)
            chain[d] = transpose(solve_exact(transpose(system), transpose(rhs.scaled(-1))))
        out.update({(n, j): G for j, G in chain.items()})
    return out


Q23_PARAMS = BigQJacobiParams(F(1, 2), F(3, 4), F(1, 3), F(-2, 3), QParam(F(2, 3)))


Q910_PARAMS = BigQJacobiParams(F(1, 2), F(3, 4), F(1, 3), F(-2, 3), QParam(F(9, 10)))


@pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(9, 10)], ids=["q=1/2", "q=2/3", "q=9/10"])
def test_operator_blocks_equal_the_image_reference(q):
    E = preset_equation(replace(TEST_PARAMS, qp=QParam(q)))
    for j in range(13):
        assert operator_blocks(E, j) == reference_operator_blocks(E, j), j


@pytest.mark.parametrize("params", [TEST_PARAMS, Q23_PARAMS, Q910_PARAMS],
                         ids=["q=1/2", "q=2/3", "q=9/10"])
def test_oracle_blocks_match_solved_chain(params):
    E = preset_equation(params)
    N = 6
    fam = generate_monic_oracle(E, N)
    ref = reference_chain_blocks(E, N)
    assert set(fam.levels) == set(ref)
    for key, G in ref.items():
        assert fam.block(*key).rows == G.rows, key


#: the second point of the seeded 40-point sweep in
#: test_bigqjacobi.test_routes_agree_across_the_domain (q = 2/5)
SWEEP_PARAMS = BigQJacobiParams(F(5, 12), F(5, 26), F(5, 9), F(-1, 3), QParam(F(2, 5)))


@pytest.fixture(scope="module", params=[Q23_PARAMS, SWEEP_PARAMS], ids=["q=2/3", "sweep-q=2/5"])
def oracle7(request):
    return generate_monic_oracle(preset_equation(request.param), 7)


def test_oracle_vectors_solve_the_eigen_equation(oracle7):
    """The oracle does not apply the operator to its vectors; this does,
    independently of the chain that built them."""
    E = oracle7.equation
    for n in range(7):
        lam = oracle7.equation.admissibility.eigenvalue(n)
        for k, entry in enumerate(oracle7.vectors[n]):
            assert (apply_operator(E, entry) + entry * lam).is_zero(), (n, k)


def reference_assembly(blocks):
    """P_n = sum_j G_{n,j} @ x^j, as full products and sums."""
    total = None
    for j, G in enumerate(blocks):
        part = G @ monomials(j)
        total = part if total is None else [a + b for a, b in zip(total, part, strict=True)]
    return total


def reference_ttr(family, n, j):
    """A, B and C with every product with an embedding L formed as a
    matrix product with mat_L."""
    A = mat_L(n, j)
    if n == 0:
        return A, (mat_L(0, j) @ family.block(1, 0)).scaled(-1), None
    B = family.block(n, n - 1) @ mat_L(n - 1, j) + (mat_L(n, j) @ family.block(n + 1, n)).scaled(-1)
    if n == 1:
        C = (mat_L(1, j) @ family.block(2, 0) + B @ family.block(1, 0)).scaled(-1)
    else:
        C = (family.block(n, n - 2) @ mat_L(n - 2, j)
             + (mat_L(n, j) @ family.block(n + 1, n - 1) + B @ family.block(n, n - 1)).scaled(-1))
    return A, B, C


@pytest.fixture(scope="module", ids=["q=1/2", "q=9/10"],
                params=[TEST_PARAMS, replace(TEST_PARAMS, qp=QParam(F(9, 10)))])
def oracle12(request):
    return generate_monic_oracle(preset_equation(request.param), 12)


def test_vectors_equal_the_product_assembly(oracle7):
    for n in range(7):
        blocks = [oracle7.block(n, j) for j in range(n + 1)]
        assert oracle7.vectors[n] == reference_assembly(blocks)


@seed(53)
@settings(max_examples=40, deadline=None, database=None)
@given(admissible_equations())
def test_closed_form_T_and_vectors_on_admissible_equations(E):
    """Off the preset: the closed-form T_n is the operator's degree-drop-2
    block, and each oracle vector is the product assembly of its blocks."""
    family = generate_monic_oracle(E, 6)
    for n in range(2, 7):
        assert t_matrix_closed_form(E, n) == operator_blocks(E, n)[2], n
        blocks = [family.block(n, j) for j in range(n + 1)]
        assert family.vectors[n] == reference_assembly(blocks), n


def test_ttr_matrices_equal_the_L_products(oracle7):
    for n in range(7):
        for j in (1, 2):
            tb = ttr_matrices(oracle7, n, j)
            assert (tb["A"], tb["B"], tb["C"]) == reference_ttr(oracle7, n, j), (n, j)


def test_ttr_matrices_equal_the_L_products_through_degree_12(oracle12):
    for n in range(12):
        for j in (1, 2):
            tb = ttr_matrices(oracle12, n, j)
            assert (tb["A"], tb["B"], tb["C"]) == reference_ttr(oracle12, n, j), (n, j)


def test_ttr_matrices_read_the_levels_alone(oracle7):
    """The recurrence matrices are summed from the family's integer levels:
    given nothing but N and the levels, no block Mat, they are the same."""
    levels_only = types.SimpleNamespace(N=oracle7.N, levels=oracle7.levels)
    for n in range(7):
        for j in (1, 2):
            assert ttr_matrices(levels_only, n, j) == ttr_matrices(oracle7, n, j), (n, j)


def assert_family_equals_the_reference(family, N: int) -> dict:
    """Every vector, the block keys and every block of the family, and the
    operator blocks of its equation, have the forms of the keyed-form
    reference; its blocks."""
    vectors, ghat, blocks = reference_oracle(family.equation, N)
    assert [[(e.nums, e.den) for e in vec] for vec in family.vectors] \
        == [[(e.nums, e.den) for e in vec] for vec in vectors]
    assert set(family.levels) == set(ghat)
    for key, G in ghat.items():
        assert family.block(*key) == G, key  # Mat equality: the width and every row form
    assert [operator_blocks(family.equation, j) for j in range(N + 1)] == blocks
    return ghat


#: the oracle's top degree at each reference point: 6, and 8 at q = 9/10
#: and 5 at q = 99/100
REFERENCE_N = [6] * 40 + [8, 5, 6]


@pytest.mark.parametrize("p, N", zip(REFERENCE_POINTS, REFERENCE_N), ids=REFERENCE_IDS)
def test_oracle_and_recurrence_matrices_equal_the_keyed_form_reference(p, N):
    family = generate_monic_oracle(preset_equation(p), N)
    ghat = assert_family_equals_the_reference(family, N)
    reference = types.SimpleNamespace(block=lambda n, j: ghat[n, j])
    for n in range(N):
        for j in (1, 2):
            tb = ttr_matrices(family, n, j)
            assert (tb["A"], tb["B"], tb["C"]) == reference_ttr(reference, n, j), (n, j)


@pytest.mark.parametrize("p", REFERENCE_POINTS, ids=REFERENCE_IDS)
def test_closed_forms_S_and_T_equal_their_fraction_references(p):
    E = preset_equation(p)
    for n in range(1, 7):
        assert s_matrix_closed_form(E, n) == reference_s_matrix(E, n), n
    for n in range(2, 7):
        assert t_matrix_closed_form(E, n) == reference_t_matrix(E, n), n


@seed(60)
@settings(max_examples=30, deadline=None, database=None)
@given(admissible_equations())
def test_oracle_and_closed_forms_equal_their_references_on_admissible_equations(E):
    assert_family_equals_the_reference(generate_monic_oracle(E, 5), 5)
    for n in range(1, 6):
        assert s_matrix_closed_form(E, n) == reference_s_matrix(E, n), n
    for n in range(2, 6):
        assert t_matrix_closed_form(E, n) == reference_t_matrix(E, n), n


def test_ttr_matrices_and_mat_L_refuse_an_axis_other_than_1_or_2(oracle5):
    for call in (lambda: ttr_matrices(oracle5, 2, -1), lambda: ttr_matrices(oracle5, 1, 0),
                 lambda: ttr_matrices(oracle5, 1, 3), lambda: mat_L(2, 3), lambda: mat_L(2, 0)):
        with pytest.raises(ValueError, match="axis must be 1 or 2"):
            call()


def test_ttr_matrices_refuse_a_degree_outside_the_family(equation):
    family = generate_monic_oracle(equation, 3)
    for n in (3, 4, -1):
        with pytest.raises(ValueError, match=r"0 <= n < N = 3"):
            ttr_matrices(family, n, 1)


@seed(27)
@settings(max_examples=60, deadline=None, database=None)
@given(admissible_equations())
def test_admissible_operator_blocks_are_scalar_and_banded(E):
    # the oracle reads neither the degree-preserving block nor anything off
    # the band, and checks neither: admissibility decides both
    lam = E.admissibility.eigenvalue
    for j in range(7):
        images = [apply_operator(E, p) for p in monomials(j)]
        for k, img in enumerate(images):
            for i1, i2 in img.nums:
                assert i1 <= j - k and i2 <= k and i1 + i2 >= j - 2, (j, k, (i1, i2))
        assert operator_blocks(E, j)[0] == Mat.identity(j + 1).scaled(-lam(j)), j


@seed(34)
@settings(max_examples=60, deadline=None, database=None)
@given(admissible_equations())
def test_operator_blocks_equal_the_image_reference_on_admissible_equations(E):
    for j in range(13):
        assert operator_blocks(E, j) == reference_operator_blocks(E, j), j


def test_oracle_rejects_nonadmissible(equation):
    bad = EquationCoeffs(equation.qp, equation.c11, equation.c22, equation.a12a,
                         equation.a12d + x * y * F(1, 9), equation.b1, equation.b2)
    with pytest.raises(NotAdmissibleError):
        ghat_oracle(bad, 1)


# closed-form entry layer -------------------------------------------------------

def test_resolvent_scalar_at_degree_zero(equation, adm):
    # F_0(lambda_1) = (lambda_0 - lambda_1) I_1 = f1 for this class
    f1 = equation.tau1()[0]
    assert adm.eigenvalue(0) - adm.eigenvalue(1) == f1


def test_closed_form_S_diagonal_matches_but_subdiagonal_differs(equation):
    # closed-form bidiagonal entries: the diagonal agrees with the
    # operator block; the subdiagonal entries do not (its [i-1]_q prefactor
    # annihilates the constant-term contribution already at i = 1).  The
    # verbatim subdiagonal is the operator block's one index late: its entry
    # (i+1, i) is the block's (i, i-1), and its entry (1, 0) is 0
    other = preset_equation(BigQJacobiParams(Fraction(2, 7), Fraction(3, 5), Fraction(1, 9),
                                             Fraction(-3, 4), QParam(Fraction(9, 10))))
    for E in (equation, other):
        for n in range(1, 8):
            entries = s_matrix_closed_form(E, n).rows
            true = operator_blocks(E, n)[1].rows
            for i in range(n):
                assert entries[i][i] == true[i][i]
            assert any(entries[i + 1][i] != true[i + 1][i] for i in range(n))
            assert [entries[i + 1][i] for i in range(n)] == [0] + [true[i][i - 1] for i in range(1, n)]


def test_closed_form_S_n1_subdiagonal_zero(equation):
    S = s_matrix_closed_form(equation, 1).rows
    g1 = equation.tau1()[1]
    assert S[0][0] == g1
    assert S[1][0] == 0  # the [0]_q factor kills the closed-form entry


def test_closed_form_T_matches_operator_block(equation):
    for n in range(2, 6):
        _, _, block = operator_blocks(equation, n)
        assert t_matrix_closed_form(equation, n) == block


def test_T2_assembly(equation, qp):
    c1s = equation.sigma1()[2]
    c2s = equation.sigma2()[2]
    d3a = equation.cross_a()[3]
    d3d = equation.cross_d()[3]
    q = qp.q
    expect = (difference_matrix(2, 2, q) @ difference_matrix(1, 1, q)).scaled(d3a) \
        + (difference_matrix(2, 1, 1 / q) @ difference_matrix(1, 1, q)).scaled(c1s * q) \
        + (difference_matrix(2, 2, 1 / q) @ difference_matrix(1, 2, q)).scaled(c2s * q) \
        + (difference_matrix(2, 2, 1 / q) @ difference_matrix(1, 1, 1 / q)).scaled(d3d)
    assert t_matrix_closed_form(equation, 2) == expect


def resolvent_gn1(family, n, S):
    """The paper's G_{n,n-1} = S_n / (lambda_{n-1} - lambda_n)."""
    lam = family.equation.admissibility.eigenvalue
    return S.scaled(1 / (lam(n - 1) - lam(n)))


def resolvent_gn2(family, n, gn1, S_prev):
    """The paper's G_{n,n-2} = (T_n + G_{n,n-1} S_{n-1}) / (lambda_{n-2} - lambda_n),
    with the closed-form T_n and the given G_{n,n-1} and S_{n-1}."""
    lam = family.equation.admissibility.eigenvalue
    inner = t_matrix_closed_form(family.equation, n) + gn1 @ S_prev
    return inner.scaled(1 / (lam(n - 2) - lam(n)))


def test_resolvent_formula_with_operator_S_matches_oracle(equation, oracle5):
    for n in range(1, 5):
        got = resolvent_gn1(oracle5, n, operator_blocks(equation, n)[1])
        assert got == oracle5.block(n, n - 1)
    for n in range(2, 5):
        got = resolvent_gn2(oracle5, n, oracle5.block(n, n - 1), operator_blocks(equation, n - 1)[1])
        assert got == oracle5.block(n, n - 2)


def test_closed_form_S_erratum(equation, oracle5):
    """The closed-form S_n differs from the operator block in exactly its n
    subdiagonal entries, so the G_{n,n-1} it feeds differs from the oracle's
    in n entries and the G_{n,n-2} it feeds differs too; the closed-form T_n
    is right."""
    closed = {n: s_matrix_closed_form(equation, n) for n in range(1, 4)}
    for n in range(1, 4):
        diffs = mat_diff(closed[n], operator_blocks(equation, n)[1])
        assert [d[0] for d in diffs] == [(i + 1, i) for i in range(1, n + 1)]
        gn1 = resolvent_gn1(oracle5, n, closed[n])
        assert len(mat_diff(gn1, oracle5.block(n, n - 1))) == n
        if n >= 2:
            assert t_matrix_closed_form(equation, n) == operator_blocks(equation, n)[2]
            assert resolvent_gn2(oracle5, n, gn1, closed[n - 1]) != oracle5.block(n, n - 2)


def test_recurrence_suite_compares_each_closed_form_once(equation, oracle5, monkeypatch):
    """One T_n build per degree 2..4, one S_n and one set of operator blocks
    per degree 1..4, and the closed-form rows equal those of the paper's
    resolvent formulas checked against the oracle blocks."""
    calls = {"S": [], "T": [], "operator": []}

    def counted(name, real):
        def build(E, n):
            calls[name].append(n)
            return real(E, n)
        return build

    monkeypatch.setattr(suites, "s_matrix_closed_form", counted("S", s_matrix_closed_form))
    monkeypatch.setattr(suites, "t_matrix_closed_form", counted("T", t_matrix_closed_form))
    monkeypatch.setattr(suites, "operator_blocks", counted("operator", operator_blocks))
    ok, rows = suites.suite_recurrence(TEST_PARAMS)
    assert ok
    assert sorted(calls["T"]) == [2, 3, 4]
    assert sorted(calls["S"]) == sorted(calls["operator"]) == [1, 2, 3, 4]

    want = []
    for n in range(2, 5):
        formula = resolvent_gn2(oracle5, n, oracle5.block(n, n - 1),
                                operator_blocks(equation, n - 1)[1])
        want.append(("second_block_resolvent_matches_oracle", f"n={n}", "", "",
                     str(formula == oracle5.block(n, n - 2))))
    for n in range(1, 5):
        diffs = mat_diff(resolvent_gn1(oracle5, n, s_matrix_closed_form(equation, n)),
                         oracle5.block(n, n - 1))
        want.append(("closed_form_S_agreement", f"n={n}", "",
                     f"{len(diffs)} differing entries", "info"))
        operator = resolvent_gn1(oracle5, n, operator_blocks(equation, n)[1])
        want.append(("operator_S_agreement", f"n={n}", "", "",
                     str(operator == oracle5.block(n, n - 1))))
    names = {row[0] for row in want}
    assert [row for row in rows if row[0] in names] == want


#: sha256 of the recurrence report at Q23_PARAMS (the benchmark and the
#: golden digests only cover q = 1/2), recorded while the closed forms were
#: still checked through the resolvent formulas, and again when the
#: closed-form S_n rows began to read info.
RECURRENCE_Q_2_3 = "4a083e2313f5f143944bcbf79e2d5ad255d81ec1d5375a5384778930485df5f0"


def test_recurrence_rows_at_q_two_thirds():
    ok, rows = suites.suite_recurrence(Q23_PARAMS)
    assert ok
    closed = [row[3] for row in rows if row[0] == "closed_form_S_agreement"]
    assert closed == [f"{k} differing entries" for k in (0, 2, 3, 4)]
    text = json.dumps([ok, [list(r) for r in rows]])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RECURRENCE_Q_2_3


# recurrence matrices and the recursive formula -----------------------------------

def test_A_is_L(equation, oracle5):
    for n in range(4):
        for j in (1, 2):
            assert ttr_matrices(oracle5, n, j)["A"] == mat_L(n, j)


def test_recurrence_identity(equation, oracle5):
    for n in range(5):
        for j, var in ((1, x), (2, y)):
            tb = ttr_matrices(oracle5, n, j)
            lhs = [e * var for e in oracle5.vectors[n]]
            rhs = [a + b for a, b in zip(tb["A"] @ oracle5.vectors[n + 1],
                                         tb["B"] @ oracle5.vectors[n], strict=True)]
            if n >= 1:
                rhs = [a + b for a, b in zip(rhs, tb["C"] @ oracle5.vectors[n - 1], strict=True)]
            assert lhs == rhs


def test_C_rank(equation, oracle5):
    # rank C_{n+1,j} = n + 1
    for n in range(3):
        for j in (1, 2):
            C = ttr_matrices(oracle5, n + 1, j)["C"]
            assert rank(C) == n + 1
    # stacked C_n has rank n
    for n in range(1, 4):
        C1 = ttr_matrices(oracle5, n, 1)["C"]
        C2 = ttr_matrices(oracle5, n, 2)["C"]
        stacked = Mat(C1.rows + C2.rows)
        assert rank(stacked) == n


def test_recursive_formula_reproduces_oracle(equation):
    oracle = generate_monic_oracle(equation, 4)
    vectors = generate_monic_rf(oracle)
    assert vectors == oracle.vectors
    assert len(vectors) - 1 == 4
    f1, g1 = equation.tau1()
    f2, g2 = equation.tau2()
    assert vectors[1][0] == x + BiPoly.const(g1 / f1)
    assert vectors[1][1] == y + BiPoly.const(g2 / f1)


def test_recursive_formula_needs_the_three_term_relation():
    # an admissible equation off the big q-Jacobi family: x P_3 is not
    # A P_4 + B P_3 + C P_2, so the formula agrees with the oracle through
    # degree 3 and leaves it at degree 4 (big q-Jacobi draws: test_bigqjacobi)
    E = EquationCoeffs(QParam(F(1, 2)), BiPoly.zero(), BiPoly.zero(), x * y * F(-1, 2),
                       BiPoly.const(1), x, y)
    oracle = generate_monic_oracle(E, 4)
    vectors = generate_monic_rf(oracle)
    assert vectors[:4] == oracle.vectors[:4] and vectors[4] != oracle.vectors[4]


def test_consistency_row_names_the_first_differing_entry(monkeypatch):
    # the suite compares the recursive family with the oracle itself; a
    # recursive family off at (2, 1) and (3, 0) fails the row at (2, 1)
    real = suites.generate_monic_rf

    def bumped(fam):
        vectors = [list(v) for v in real(fam)]
        for n, k in ((2, 1), (3, 0)):
            vectors[n][k] = vectors[n][k] + BiPoly.const(F(1, 7))
        return vectors

    monkeypatch.setattr(suites, "generate_monic_rf", bumped)
    ok, rows = suites.suite_consistency(TEST_PARAMS)
    assert not ok
    assert [r for r in rows if r[0] == "recursive_formula_equals_oracle"] == [
        ("recursive_formula_equals_oracle", "N=4", "", "degree 2, entry 1", "False")]


@pytest.mark.parametrize("params", [Q910_PARAMS, Q23_PARAMS], ids=["q=9/10", "q=2/3"])
def test_consistency_suite_passes_off_the_preset_point(params):
    """The consistency suite at a second point and at two q: no row fails,
    and the cases are the preset point's."""
    ok, rows = suites.suite_consistency(params)
    assert ok and all(r[4] != "False" for r in rows)
    assert [r[:2] for r in rows] == [r[:2] for r in suites.suite_consistency(TEST_PARAMS)[1]]


def test_B0_special_case(equation, oracle5):
    tb = ttr_matrices(oracle5, 0, 1)
    g10 = oracle5.block(1, 0)
    assert tb["B"] == (mat_L(0, 1) @ g10).scaled(-1)
    assert tb["C"] is None


# weighted Gram matrices ------------------------------------------------------------

def moment_matrix(family, n: int, m: int, moments) -> list:
    """L(x^m P_n^T) as a list of rows, from one `MomentTable.gram` call:
    row r pairs monomial r of degree m with each entry of the degree-n
    vector."""
    G = moments.gram(monomials(m) + family.vectors[n])
    return [row[m + 1:] for row in G[:m + 1]]


def test_gram_vanishes_below_degree(equation, oracle5, moments):
    tol = F(1, 10 ** 25)
    mass = moments.integrate(BiPoly.const(1))
    g01 = moment_matrix(oracle5, 1, 0, moments)
    assert len(g01) == 1 and len(g01[0]) == 2
    assert all(abs(v) / mass < tol for v in g01[0])
    g12 = moment_matrix(oracle5, 2, 1, moments)
    assert all(abs(v) / mass < tol for row in g12 for v in row)


def test_gram_total_mass_positive(equation, oracle5, moments):
    g00 = moment_matrix(oracle5, 0, 0, moments)
    assert g00[0][0] > 0


def test_H1_nonsingular(equation, oracle5, moments):
    h1 = moment_matrix(oracle5, 1, 1, moments)
    det = h1[0][0] * h1[1][1] - h1[0][1] * h1[1][0]
    assert abs(det) > F(1, 10 ** 25)
    # finite condition estimate: entries and determinant are balanced
    norm = max(abs(v) for row in h1 for v in row)
    assert norm ** 2 / abs(det) < 10 ** 12

def test_gn1_system_through_linear_solver(equation, adm, oracle5):
    # solving the degree-2 resolvent system with the generic eliminator
    # reproduces the oracle block G_{2,1}
    from qbipoly.linalg import solve_exact

    S2 = operator_blocks(equation, 2)[1]
    lam1, lam2 = adm.eigenvalue(1), adm.eigenvalue(2)
    system = Mat.identity(2).scaled(lam1 - lam2)
    got = transpose(solve_exact(transpose(system), transpose(S2)))
    assert got == oracle5.block(2, 1)
