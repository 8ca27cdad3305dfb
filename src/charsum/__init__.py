"""charsum: exact arithmetic for multiplicative character sums over finite fields.

Everything is computed in exact cyclotomic integer arithmetic; no floats
are used anywhere in a verification path.
"""

from charsum.characters import CharSystem, MultCharacter
from charsum.cyclotomic import CycloValue, from_int, q_power_ratio, root
from charsum.divisor_calc import Divisor, SymbolSum, injectivity_probe
from charsum.errors import InternalCheckError, SchemaError, SizeBoundError
from charsum.field_tower import FieldTower, build_tower
from charsum.identity_engine import (
    GammaMonomial,
    find_violation,
    predicted_divisor,
    verify_monomial_identity,
    verify_norm_identity,
)
from charsum.monomial_fourier import (
    GridFunction,
    MonomialDatum,
    TransformSolution,
    fourier_transform,
    i_sum_closed,
    i_sum_direct,
    solve_monomial_transform,
    sweep_twisted_moments,
    verify_ratio_transform,
    verify_ratio_transform_nfold,
    verify_transform_pointwise,
    verify_twisted_moments,
)
from charsum.norm_algebra import (
    EtaleAlgebra,
    NormCharacter,
    NormSolution,
    VirtualModule,
    gauss_sum_algebra,
    solve_norm_transform,
    sweep_norm_moments,
    verify_norm_moments,
)
from charsum.stalk_traces import (
    QPolynomial,
    a_poly,
    b_poly,
    gm_trace_function,
    stalk_trace_at_zero,
    verify_binomial_identities,
)

__all__ = [
    "CharSystem",
    "CycloValue",
    "Divisor",
    "EtaleAlgebra",
    "FieldTower",
    "GammaMonomial",
    "GridFunction",
    "InternalCheckError",
    "MonomialDatum",
    "MultCharacter",
    "NormCharacter",
    "NormSolution",
    "QPolynomial",
    "SchemaError",
    "SizeBoundError",
    "SymbolSum",
    "TransformSolution",
    "VirtualModule",
    "a_poly",
    "b_poly",
    "build_tower",
    "find_violation",
    "fourier_transform",
    "from_int",
    "gauss_sum_algebra",
    "gm_trace_function",
    "i_sum_closed",
    "i_sum_direct",
    "injectivity_probe",
    "predicted_divisor",
    "q_power_ratio",
    "root",
    "solve_monomial_transform",
    "solve_norm_transform",
    "stalk_trace_at_zero",
    "sweep_norm_moments",
    "sweep_twisted_moments",
    "verify_binomial_identities",
    "verify_monomial_identity",
    "verify_norm_identity",
    "verify_norm_moments",
    "verify_ratio_transform",
    "verify_ratio_transform_nfold",
    "verify_transform_pointwise",
    "verify_twisted_moments",
]
