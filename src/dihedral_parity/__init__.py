"""Local parity constants for elliptic curves in dihedral towers.

Given E/Q and a tower Q < K = Q(sqrt d) < L with L/K cyclic of degree p^n
(p > 3), this package computes the analytic local constants gamma_u and the
arithmetic local constants delta_v, checks the prime-by-prime parity
congruence gamma_u = sum_{v|u} delta_v (mod 2), and evaluates the resulting
lower bound on p-Selmer growth in L/K.

The root holds the library: the inputs, ``analyze`` and the results.  Every
other name is imported from its own module, e.g. ``dihedral_parity.gamma``.
"""

from .curves import LocalData, SiteOverrides, WeierstrassCurve
from .parity import (
    ParityReport,
    ParityRow,
    SelmerBound,
    SiteAudit,
    analyze,
    mr64_sum,
    parity_table,
    selmer_growth_bound,
)
from .tower import PrimeSite, QuadraticFieldSpec, TowerSpec, Violation, sites_above, validate_tower
from .verdicts import ConstantVerdict, DeltaVerdict

__version__ = "0.1.0"
