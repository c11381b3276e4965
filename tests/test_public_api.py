"""The names ``qtheta`` exports are a contract: adding or retiring one edits
the literal list below in plain view."""

import importlib
import types

import pytest

import qtheta

PUBLIC = {
    "AutomorphyFactors",
    "CycloField",
    "CycloRational",
    "EquationSpec",
    "EquationTerm",
    "HeisElement",
    "HeisRaw",
    "Lattice",
    "LatticeMap",
    "Multiplier",
    "QuantParam",
    "QuotientData",
    "ScalarSeries",
    "SmallHeisElement",
    "SmallHeisStructure",
    "ThetaBasis",
    "TorusMorphism",
    "TorusPoint",
    "TorusSeries",
    "UnitMonomial",
    "act_on_theta",
    "bilinear_eval",
    "boxtimes",
    "boxtimes_series",
    "builtin_series",
    "character_split",
    "commutant_dimension",
    "compose",
    "compose_multipliers",
    "conjugation_check",
    "double_sided",
    "emit_report",
    "gamma_lift",
    "group_structure",
    "heis_act",
    "heis_mul",
    "heis_transport",
    "hidden_from_morphism",
    "is_positive_definite",
    "multiplier_new",
    "mumford_morphism",
    "mumford_theta_pullback",
    "normalizer_membership",
    "pic_hom",
    "power",
    "psi_dn",
    "pullback",
    "quotient_data",
    "representatives",
    "same_class",
    "scaling_morphism",
    "series_equal_on_cells",
    "shift_morphism",
    "smith_normal_form",
    "structure_pairing",
    "theta_dim_basis",
    "theta_membership",
    "theta_product",
    "twist",
    "verify_equation",
    "verify_named",
}

# retired forwarding wrappers: (defining module, name, the one remaining spelling)
RETIRED = [
    ("scalars", "cyclo_arith", "CycloRational.inverse"),  # and + * - on CycloRational
    ("scalars", "series_arith", "ScalarSeries.__mul__"),  # and + - on ScalarSeries
    ("scalars", "series_invert", "ScalarSeries.invert"),
    ("scalars", "valuation", "ScalarSeries.valuation"),
    ("scalars", "cyclo_sqrt", "cyclo_nth_root"),
    ("torus", "param_power", "QuantParam.power"),
    ("torus", "alpha_eval", "QuantParam.alpha"),
    ("torus", "epsilon", "QuantParam.epsilon"),
    ("torus", "exp_mul", "QuantParam.alpha"),  # with intlinalg.vec_add
    ("torus", "point_eval", "TorusPoint.eval"),
    ("torus", "hidden_point", "QuantParam.hidden_point"),
    ("series", "shift_pullback", "TorusSeries.shift_pullback"),
    ("series", "torus_series_mul", "TorusSeries.mul"),  # then .materialize
    ("series", "series_equal", "series_equal_on_cells"),
    ("heisenberg", "groupoid_inverse", "HeisElement.groupoid_inverse"),
    ("heisenberg", "morphism_new", "TorusMorphism"),
    ("heisenberg", "morphism_pullback", "TorusMorphism.pullback_series"),
    ("heisenberg", "HeisElement.act", "heis_act"),
    ("heisenberg", "HeisElement.compose", "compose"),
    ("multiplier", "automorphy_factors", "Multiplier.automorphy_factors"),
    ("multiplier", "is_ample", "Multiplier.is_ample"),
    ("intlinalg", "kernel_basis", "IntegerSolver.kernel"),  # read as smith(m).kernel
]


def _lookup(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_exported_names_are_pinned():
    exported = {
        name
        for name in dir(qtheta)
        if not name.startswith("_") and not isinstance(getattr(qtheta, name), types.ModuleType)
    }
    assert exported == PUBLIC


@pytest.mark.parametrize("module, name, spelling", RETIRED, ids=[r[1] for r in RETIRED])
def test_retired_wrappers_stay_retired(module, name, spelling):
    mod = importlib.import_module(f"qtheta.{module}")
    with pytest.raises(AttributeError):
        _lookup(mod, name)
    if "." not in name:
        assert not hasattr(qtheta, name)
    _lookup(mod, spelling)  # the remaining spelling resolves
