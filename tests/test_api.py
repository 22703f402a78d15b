"""The public surface of the package: what `qbipoly` exports, and the
test-only references and single-caller options that stay out of `src`."""

import dataclasses
import importlib
import inspect

import pytest

import qbipoly

PUBLIC = [
    "BiPoly", "DerivedCoeffs", "EquationCoeffs", "FloatField", "Mat", "MonicFamily",
    "PearsonData", "PolyVec", "QParam", "WeightEvaluator",
    "admissibility", "apply_operator", "base_weight", "bipoly", "build_pearson",
    "check_hypergeometric_form", "derived_coeffs", "dq1", "dq2", "dqm1", "dqm2",
    "equation", "generate_monic_oracle", "generate_monic_rf", "ghat_oracle",
    "gram_matrix", "interpolate_2d", "kampe_de_feriet", "linalg", "monic",
    "monomial_vec", "pearson", "phi_bivariate", "phi_rs", "qcalc", "qnum",
    "qpochhammer", "qpochhammer_inf", "rodrigues", "rodrigues_poly", "scalars",
    "structure_matrices", "ttr_matrices", "verify_operator_relations",
    "verify_pearson_identities",
]


def test_package_exports():
    assert sorted(qbipoly.__all__) == PUBLIC


#: (module, attribute path) of references that live in the tests, and of
#: wrappers and aliases with no caller in src
ABSENT = [
    ("bigqjacobi", "closed_form_weight"),
    ("bigqjacobi", "classical_weight"),
    ("bigqjacobi", "nonmonic_value"),
    ("bigqjacobi", "univariate_value"),
    ("pearson", "WeightEvaluator.value_xfirst"),
    ("pearson", "omega_product_at"),
    ("pearson", "rho_kl"),
    ("qcalc", "dqm_nm_table"),
    ("qcalc", "dq_ratfn"),
    ("linalg", "Mat.rank"),
    ("linalg", "Mat.transpose"),
    ("scalars", "FloatField.close"),
    ("rodrigues", "RodriguesSpec"),
    ("bipoly", "BiPoly.homogeneous_part"),
    ("bipoly", "ratfn_equal"),
    ("bipoly", "RationalFn"),
    ("bipoly", "poly_sum"),
    ("io", "parse_equation_text"),
    ("io", "poly_from_json"),
    ("io", "poly_terms_str"),
    ("io", "equation_to_text"),
    ("io", "json_text"),
    ("io", "csv_text"),
    ("io", "_json_default"),
    ("io", "_scalar_text"),
    ("io", "_float_text"),
    ("monic", "RecurrenceMismatch"),
    ("cli", "RunConfig"),
]


@pytest.mark.parametrize("module, path", ABSENT, ids=[".".join(a) for a in ABSENT])
def test_name_is_not_in_src(module, path):
    obj = importlib.import_module(f"qbipoly.{module}")
    *owners, name = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, name)


def test_one_signature_per_route():
    from qbipoly.bigqjacobi import limit_check
    from qbipoly.equation import DerivedCoeffs, admissibility
    from qbipoly.pearson import PearsonData, WeightEvaluator
    from qbipoly.qcalc import qpochhammer_inf
    from qbipoly.rodrigues import rodrigues_poly

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(rodrigues_poly) == ["E", "n", "m"]
    assert params(limit_check) == ["cp", "eps_list", "nm_list", "points"]
    assert params(admissibility) == ["E"]
    assert params(qpochhammer_inf) == ["a", "qp", "field"]
    assert [f.name for f in dataclasses.fields(WeightEvaluator)] == ["pearson", "anchor", "qp"]
    assert [f.name for f in dataclasses.fields(PearsonData)] == ["phi1", "phi2", "omega1", "omega2"]
    assert "order" not in [f.name for f in dataclasses.fields(DerivedCoeffs)]
