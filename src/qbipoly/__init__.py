"""Exact construction, solution and verification of admissible potentially
self-adjoint second-order partial q-difference equations of hypergeometric
type on q-linear lattices, with their bivariate orthogonal polynomial
solutions produced by three independent routes (monic recurrence machinery,
Rodrigues representation, explicit hypergeometric series)."""

from .bipoly import BiPoly
from .equation import (EquationCoeffs, DerivedCoeffs, admissibility,
                       apply_operator, check_hypergeometric_form)
from .linalg import Mat
from .pearson import (PearsonData, WeightEvaluator, base_weight, build_pearson,
                      verify_pearson_identities)
from .qcalc import (QParam, dq1, dq2, dqm1, dqm2, kampe_de_feriet, phi_rs, qnum,
                    verify_operator_relations)
from .rodrigues import rodrigues_poly
from .monic import MonicFamily, generate_monic_oracle, generate_monic_rf, ttr_matrices
from .scalars import FloatField

__all__ = [name for name in dir() if not name.startswith("_")]
