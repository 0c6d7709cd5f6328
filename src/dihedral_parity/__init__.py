"""Local parity constants for elliptic curves in dihedral towers.

Given E/Q and a tower Q < K = Q(sqrt d) < L with L/K cyclic of degree p^n
(p > 3), this package computes the analytic local constants gamma_u and the
arithmetic local constants delta_v, checks the prime-by-prime parity
congruence gamma_u = sum_{v|u} delta_v (mod 2), and evaluates the resulting
lower bound on p-Selmer growth in L/K.
"""

from .curves import (
    FrobeniusData,
    LocalReductionData,
    SingularCurveError,
    WeierstrassCurve,
    count_points,
    frobenius_data,
    local_reduction,
    minimal_model_at,
    model_from_invariants,
    quadratic_twist,
    reduction_over_Kv,
    semistability_defect,
)
from .delta import delta, residue_frobenius_over_Kv
from .dihedral import (
    ClassFunction,
    CyclicGroupSpec,
    DihedralGroupSpec,
    induce,
    inner_product,
    irreducible_characters,
    restrict,
)
from .gamma import INFINITE_PLACE, gamma
from .localarith import (
    RamifiedQuadratic,
    UnramifiedQuadratic,
    is_local_square,
    kronecker_symbol,
    local_square_class,
    padic_valuation,
    quadratic_character_type,
    squarefree_part,
)
from .parity import (
    ParityReport,
    ParityRow,
    SelmerBound,
    SiteAudit,
    analyze,
    hypothesis_audit,
    mr64_sum,
    parity_table,
    selmer_growth_bound,
)
from .tower import (
    PrimeSite,
    QuadraticFieldSpec,
    SiteOverrides,
    TowerSpec,
    Violation,
    sites_above,
    split_type,
    support_primes,
    validate_tower,
)
from .verdicts import ConstantVerdict, DeltaVerdict

__version__ = "0.1.0"
