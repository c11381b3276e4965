"""qtheta: exact computer algebra for quantum tori and quantized thetas.

The engine works over truncated Laurent series in u = q^(1/2) with
cyclotomic-rational coefficients.  It implements the Heisenberg groups of
quantum tori, theta multipliers with their dimension/basis theory, the
partial composition governing theta multiplication, small Heisenberg
groups, and a registry of exactly verified functional identities.
"""

from .scalars import CycloField, CycloRational, ScalarSeries, UnitMonomial
from .intlinalg import (
    Lattice,
    LatticeMap,
    QuotientData,
    bilinear_eval,
    is_positive_definite,
    quotient_data,
    smith_normal_form,
)
from .torus import QuantParam, TorusPoint
from .series import TorusSeries, conjugation_check, series_equal_on_cells
from .heisenberg import (
    HeisElement,
    HeisRaw,
    TorusMorphism,
    compose,
    double_sided,
    heis_act,
    heis_mul,
    heis_transport,
    mumford_morphism,
    psi_dn,
    representatives,
    same_class,
    scaling_morphism,
    shift_morphism,
    twist,
)
from .multiplier import (
    AutomorphyFactors,
    Multiplier,
    ThetaBasis,
    boxtimes,
    boxtimes_series,
    hidden_from_morphism,
    multiplier_new,
    pic_hom,
    power,
    pullback,
    structure_pairing,
    theta_dim_basis,
    theta_membership,
    theta_product,
)
from .multiplier import compose as compose_multipliers
from .smallheis import (
    SmallHeisElement,
    SmallHeisStructure,
    act_on_theta,
    character_split,
    commutant_dimension,
    gamma_lift,
    group_structure,
    mumford_theta_pullback,
    normalizer_membership,
)
from .named import builtin_series
from .verify import EquationSpec, EquationTerm, emit_report, verify_equation, verify_named

__version__ = "0.1.0"
