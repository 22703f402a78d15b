"""The public surface of the package: what `qbipoly` exports, the
test-only references and single-caller options that stay out of `src`, what
its records promise, and that `src` holds no uncalled function and no unread
module-level name (tests/test_imports.py guards its imports)."""

import ast
import collections
import importlib
import inspect
import pathlib
from fractions import Fraction

import pytest

import qbipoly
from qbipoly.bigqjacobi import TEST_PARAMS, BigQJacobiParams, ClassicalParams, preset_equation
from qbipoly.equation import derived_coeffs
from qbipoly.monic import generate_monic_oracle
from qbipoly.pearson import base_weight
from qbipoly.qcalc import QParam
from qbipoly.scalars import FrozenRecord

PUBLIC = [
    "BiPoly", "DerivedCoeffs", "EquationCoeffs", "FloatField", "Mat", "MonicFamily",
    "PearsonData", "QParam", "WeightEvaluator",
    "admissibility", "apply_operator", "base_weight", "bipoly", "build_pearson",
    "check_hypergeometric_form", "dq1", "dq2", "dqm1", "dqm2", "equation",
    "generate_monic_oracle", "generate_monic_rf", "kampe_de_feriet", "linalg", "monic",
    "pearson", "phi_rs", "qcalc", "qnum", "rodrigues", "rodrigues_poly", "scalars",
    "ttr_matrices", "verify_operator_relations",
    "verify_pearson_identities",
]


def test_package_exports():
    assert sorted(qbipoly.__all__) == PUBLIC


#: (module, attribute path) of references that live in the tests, and of
#: wrappers and aliases with no caller in src
ABSENT = [
    ("jackson", "_signs"),
    ("jackson", "_power_sums"),
    ("jackson", "_powers"),
    ("jackson", "_geometric"),
    ("jackson", "_products"),
    ("bigqjacobi", "_outer_weights"),
    ("bigqjacobi", "_basis_rows"),
    ("bigqjacobi", "_poch_ratios"),
    ("bigqjacobi", "_conditional_moments"),
    ("bigqjacobi", "_outer_moments"),
    ("monic", "_OnRead"),
    ("cli", "_least_truncation"),
    ("cli", "_check_orthogonality_gate"),
    ("bigqjacobi", "_node_signs"),
    ("bigqjacobi", "_weight_positive"),
    ("bigqjacobi", "closed_form_weight"),
    ("bigqjacobi", "classical_weight"),
    ("bigqjacobi", "nonmonic_value"),
    ("bigqjacobi", "univariate_value"),
    ("pearson", "WeightEvaluator.value_xfirst"),
    ("pearson", "omega_product_at"),
    ("pearson", "rho_kl"),
    ("qcalc", "dqm_nm_table"),
    ("qcalc", "dq_ratfn"),
    ("qcalc", "pochhammer_rising"),
    ("linalg", "Mat.rank"),
    ("linalg", "Mat.transpose"),
    ("linalg", "Mat.__getitem__"),
    ("linalg", "Mat.__sub__"),
    ("linalg", "Mat.__neg__"),
    ("linalg", "PolyVec"),
    ("linalg", "monomial_vec"),
    ("scalars", "FloatField.close"),
    ("rodrigues", "RodriguesSpec"),
    ("bipoly", "BiPoly.homogeneous_part"),
    ("bipoly", "ratfn_equal"),
    ("bipoly", "RationalFn"),
    ("bipoly", "poly_sum"),
    ("bipoly", "CoeffView"),
    ("bipoly", "BiPoly.eval_grid"),
    ("bipoly", "BiPoly.terms"),
    ("pearson", "WeightEvaluator.box"),
    ("equation", "derived_orders"),
    ("equation", "EquationCoeffs.polys"),
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
    ("monic", "gram_matrix"),
    ("monic", "OracleError"),
    ("cli", "RunConfig"),
    ("pearson", "require_weight"),
    ("equation", "Admissibility.require"),
    ("pearson", "pearson_rows"),
    ("bipoly", "BiPoly.degree_y"),
    ("bipoly", "BiPoly.div_rem"),
    ("bipoly", "BiPoly.leading_term"),
    ("bipoly", "BiPoly.monomial"),
    ("equation", "propagated_orders"),
    ("monic", "structure_matrices"),
    ("monic", "assemble_vector"),
    ("monic", "_monomial_keys"),
    ("monic", "_chain_step"),
    ("monic", "difference_matrix"),
]


@pytest.mark.parametrize("module, path", ABSENT, ids=[".".join(a) for a in ABSENT])
def test_name_is_not_in_src(module, path):
    obj = importlib.import_module(f"qbipoly.{module}")
    *owners, name = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, name)


def test_one_signature_per_route():
    from qbipoly import suites
    from qbipoly.bigqjacobi import ClassicalParams, MomentTable, limit_check
    from qbipoly.cli import build_parser
    from qbipoly.equation import Admissibility, DerivedCoeffs, admissibility
    from qbipoly.linalg import Mat
    from qbipoly.monic import MonicFamily
    from qbipoly.pearson import PearsonData, WeightEvaluator
    from qbipoly.qcalc import phi_bivariate, phi_rs, qpochhammer_inf
    from qbipoly.rodrigues import rodrigues_poly
    from qbipoly.scalars import FloatField

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(rodrigues_poly) == ["E", "n", "m"]
    assert params(limit_check) == ["cp", "eps_list", "nm_list", "points"]
    assert params(admissibility) == ["E"]
    assert params(qpochhammer_inf) == ["a", "qp", "field"]
    assert list(WeightEvaluator.__match_args__) == ["pearson", "anchor", "qp"]
    assert list(PearsonData.__match_args__) == ["phi1", "phi2", "omega1", "omega2"]
    assert "order" not in DerivedCoeffs.__match_args__
    # a series ends where its parameters say, and the float lane's defaults
    # live in suites alone
    assert params(phi_rs) == ["num_params", "den_params", "qp", "z"]
    assert params(phi_bivariate) == ["joint_num", "xnum", "ynum", "joint_den", "xden", "yden",
                                     "qp", "xv", "yv", "tags"]
    # the suites are reached through run_suite alone, which the default
    # scan below cannot follow, so their signatures are pinned here
    for fn in (MomentTable.__init__, FloatField.__init__, suites.suite_orthogonality,
               suites.suite_consistency, suites.suite_recurrence):
        assert all(v.default is inspect.Parameter.empty
                   for v in inspect.signature(fn).parameters.values())
    # one way to integrate, no hash of a Mat, and admissibility read off
    # its failures
    assert "__call__" not in vars(MomentTable)
    assert Mat.__hash__ is None
    assert list(Admissibility.__match_args__) == ["failures", "f1", "a1", "qp"]
    assert isinstance(vars(Admissibility)["admissible"], property)
    assert list(ClassicalParams.__match_args__) == ["alpha", "beta", "gamma"]
    assert list(MonicFamily.__match_args__) == ["equation", "vectors", "levels"]
    verify = build_parser().parse_args(["verify", "--suite", "orthogonality"])
    assert (verify.precision, verify.truncation) == (suites.ORTH_PRECISION, suites.ORTH_TRUNCATION)


def _preset():
    return preset_equation(TEST_PARAMS)


#: each record type with a builder that makes a new, equal record at each call
#: from what the tests already build
RECORDS = {
    "QParam": lambda: QParam(Fraction(1, 2)),
    "BigQJacobiParams": lambda: BigQJacobiParams(*TEST_PARAMS._values()),
    "ClassicalParams": lambda: ClassicalParams(1, 1, 1),
    "EquationCoeffs": _preset,
    "DerivedCoeffs": lambda: derived_coeffs(_preset(), 1, 0),
    "PearsonData": lambda: _preset().pearson,
    "Admissibility": lambda: _preset().admissibility,
    "WeightEvaluator": lambda: base_weight(_preset(), (Fraction(3, 7), Fraction(5, 11))),
    "MonicFamily": lambda: generate_monic_oracle(_preset(), 2),
}
FROZEN = {"QParam", "BigQJacobiParams", "ClassicalParams", "EquationCoeffs", "DerivedCoeffs",
          "PearsonData"}


@pytest.mark.parametrize("name", RECORDS)
def test_frozen_records_hash_and_plain_records_do_not(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name and record == twin and record is not twin
    if name not in FROZEN:
        assert not isinstance(record, FrozenRecord) and type(record).__hash__ is None
        return
    assert isinstance(record, FrozenRecord) and hash(record) == hash(twin)
    field = record.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == getattr(twin, field)


def test_equation_caches_on_its_frozen_instance():
    E = _preset()
    adm = E.admissibility
    assert E.admissibility is adm and vars(E)["admissibility"] is adm
    assert E == _preset() and hash(E) == hash(_preset())


#: names in src with no caller there that the tests use as their references,
#: each with the reason it stays
TEST_REFERENCES = {
    "mat_to_json": "io: the documented view of a Mat leaf, the JSON writer's reference",
    "moment": "MomentTable: one moment as an exact rational, the engine's reference moments",
    "phi_rs": "qcalc: the public r-phi-s sum, the pointwise nonmonic reference (univariate_value)",
}


def _src_trees() -> dict:
    src = pathlib.Path(qbipoly.__file__).parent
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}


def _span_names() -> set:
    """The last names of the benchmark's span targets, read from
    perfbench/spans.py without importing it."""
    spans = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {path.rpartition(".")[2] for _, _, path in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py has no TARGETS")


def _functions(node, prefix: str, cls=None):
    """(qualified name, node, class) of every function and method under
    node; class is the ClassDef that a method is defined in, None for a
    function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}.{child.name}", child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            yield name, child, cls
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix, cls)


def _references(node) -> list:
    """Every name read under node: a bare name or an attribute's name."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _attributes(node) -> list:
    """Every attribute name read under node."""
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]


def _class_body_names(cls) -> set:
    """The bare names read in a class body outside its function and class
    definitions, as an alias such as `__radd__ = __add__` reads them."""
    return {n.id for stmt in cls.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for n in ast.walk(stmt) if isinstance(n, ast.Name)}


def _is_called(node, cls, refs, attrs) -> bool:
    """A function is read by any name outside its own definition; a method
    only as an attribute (`obj.name`) outside it, or by a bare name in its
    own class body, so a local variable that shares its name does not hide
    it."""
    if cls is None:
        return refs[node.name] > _references(node).count(node.name)
    return (attrs[node.name] > _attributes(node).count(node.name)
            or node.name in _class_body_names(cls))


def test_src_has_no_uncalled_function():
    """Every non-dunder function and method in src is read in src outside
    its own definition (`_is_called`).  It matches by name: a method that
    shares its name with a called method of another class is not seen."""
    trees = _src_trees()
    refs = collections.Counter(name for tree in trees.values() for name in _references(tree))
    attrs = collections.Counter(name for tree in trees.values() for name in _attributes(tree))
    exempt = _span_names() | set(TEST_REFERENCES)
    uncalled = [name for module, tree in trees.items()
                for name, node, cls in _functions(tree, module)
                if not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in exempt
                and not _is_called(node, cls, refs, attrs)]
    assert uncalled == []


#: the functions that src does not call and that the benchmark's span list
#: alone exempts from `test_src_has_no_uncalled_function`: the suites,
#: which `run_suite` reaches by lookup, and the rest, which no route, suite
#: or command runs, to be deleted when the span list drops them
SPAN_ONLY = {
    "bigqjacobi.MomentTable.integrate", "bigqjacobi.limit_check", "equation.derived_coeffs",
    "io.poly_to_json", "linalg.interpolate_2d", "linalg.solve_exact", "monic.ghat_oracle",
    "pearson.WeightEvaluator.value", "qcalc.dq_nm_table", "qcalc.phi_bivariate",
    "qcalc.qpochhammer", "qcalc.qpochhammer_inf",
    "suites.suite_consistency", "suites.suite_limits", "suites.suite_orthogonality",
    "suites.suite_recurrence",
}


def test_span_list_alone_keeps_these_functions():
    trees = _src_trees()
    refs = collections.Counter(name for tree in trees.values() for name in _references(tree))
    attrs = collections.Counter(name for tree in trees.values() for name in _attributes(tree))
    spans = _span_names()
    kept = {name for module, tree in trees.items()
            for name, node, cls in _functions(tree, module)
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name in spans and node.name not in TEST_REFERENCES
            and not _is_called(node, cls, refs, attrs)}
    assert kept == SPAN_ONLY


def _module_names(tree) -> list:
    """The names a module binds at its top level by assignment or class
    definition; functions are `test_src_has_no_uncalled_function`'s."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            out.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def test_src_reads_every_module_name():
    """Every non-dunder module-level constant and class in src is read
    somewhere in src: as a bare name, an attribute or an imported name."""
    trees = _src_trees()
    reads = collections.Counter()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads[n.id] += 1
            elif isinstance(n, ast.Attribute):
                reads[n.attr] += 1
            elif isinstance(n, ast.ImportFrom):
                reads.update(alias.name for alias in n.names)
    unread = [f"{module}.{name}" for module, tree in trees.items() for name in _module_names(tree)
              if not (name.startswith("__") and name.endswith("__")) and not reads[name]]
    assert unread == []


def _called_as(trees):
    """(qualified name, the name a call uses, node, parameters bound before
    the call's first argument) of every function and method in src: a
    method is called by its own name with self or cls bound, a
    staticmethod with nothing bound, and an __init__ by its class name."""
    for module, tree in trees.items():
        for qualname, node, cls in _functions(tree, module):
            if cls is None:
                yield qualname, node.name, node, 0
            else:
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                yield (qualname, cls.name if node.name == "__init__" else node.name,
                       node, 0 if static else 1)


def _defaulted(fn) -> list:
    """The parameters of fn that have a default."""
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return (names[len(names) - len(fn.args.defaults):]
            + [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None])


def _left_out(fn, bound: int, call) -> set:
    """The defaulted parameters of fn that call leaves out; a call that
    unpacks *args or **kwargs leaves out none."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return set()
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    given = set(names[bound:bound + len(call.args)]) | {k.arg for k in call.keywords}
    return set(_defaulted(fn)) - given


def test_src_relies_on_every_default():
    """Every parameter default of a function or method that src calls by
    name is left out by at least one of those calls, so no default is a
    second spelling of a value that every caller passes.

    It matches by name, as `test_src_has_no_uncalled_function` does: a call
    `obj.name(...)` counts for every method called name, and a function
    that src never calls by name (one reached only through a table or a
    lookup, such as the suites through `run_suite`) falls outside it."""
    trees = _src_trees()
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                f = node.func
                calls[f.id if isinstance(f, ast.Name) else f.attr].append(node)
    unused = []
    for qualname, name, fn, bound in _called_as(trees):
        if (defaulted := _defaulted(fn)) and calls[name]:
            left_out = set().union(*(_left_out(fn, bound, call) for call in calls[name]))
            unused += [f"{qualname}({p})" for p in defaulted if p not in left_out]
    assert unused == []
