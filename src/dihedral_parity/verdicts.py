"""Value records: the verdicts both local-constant engines share, and CheckedRecord."""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

# Analytic case tags.
SPLIT_PAIR = "SplitPair"
SELF_CONJ_UNRAMIFIED = "SelfConjUnramified"
GOOD_OVER_KV = "GoodOverKv"
POT_MULT_SPLIT = "PotMultSplit"
POT_MULT_NONSPLIT_OR_ADDITIVE = "PotMultNonsplitOrAdditive"
POT_GOOD_UNRAMIFIED_TAME = "PotGoodUnramifiedTame"
POT_GOOD_RAMIFIED_ABELIAN = "PotGoodRamifiedAbelian"
POT_GOOD_WILD_CYCLIC_DEFECT = "PotGoodWildCyclicDefect"
UNCOVERED = "Uncovered"
ARCHIMEDEAN = "Archimedean"

# Arithmetic case tags.
PAIR_CANCELS = "PairCancels"
SPLITS_COMPLETELY = "SplitsCompletely"
GOOD_NOT_P = "GoodNotP"
GOOD_ORDINARY_P = "GoodOrdinaryP"
GOOD_SUPERSINGULAR_MR57 = "GoodSupersingularMR57"
ADDITIVE_NOT_P = "AdditiveNotP"
ADDITIVE_P_ORD_NONANOM = "AdditiveP_OrdNonAnom"


class CheckedRecord(tuple):
    """A record that _make, _replace, copy and pickle build by cls(*__getnewargs__())."""

    @classmethod
    def _make(cls, iterable):
        values = tuple.__new__(cls, iterable)
        if len(values) > len(cls._fields):  # as a named tuple's _make refuses them
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values.__getnewargs__())

    def __getstate__(self):  # so a copy carries the fields alone
        return None


class ConstantVerdict(CheckedRecord, namedtuple("ConstantVerdict",
                                               "value case_tag citation detail", defaults=("",))):
    """A value of a local constant in Z/2Z, or Undetermined (value None)."""

    def __new__(cls, value, case_tag, citation, detail=""):
        if value not in (0, 1, None):
            raise ValueError("value must be 0, 1 or None")
        if (value is None) != (case_tag in (UNCOVERED,)):
            raise ValueError("value is determined iff the case is covered")
        return tuple.__new__(cls, (value, case_tag, citation, detail))


class DeltaVerdict(namedtuple("DeltaVerdict", "value case_tag citation detail pair_sum",
                              defaults=("", None))):
    """Arithmetic local constant verdict.

    For a split pair {v, v^c} only the pair sum is asserted (pair_sum = 0,
    value None with case PairCancels); for self-conjugate sites value is the
    individual delta_v or None when undetermined.
    """

    def contribution(self) -> Optional[int]:
        """Contribution of this verdict to a sum over sites (per split pair
        the PairCancels verdict counts once as the pair sum)."""
        if self.value is not None:
            return self.value
        return self.pair_sum
