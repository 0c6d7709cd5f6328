"""Checks of one analysis report against properties of the method and the
benchmark's own reference arithmetic, never against saved output."""

from __future__ import annotations

import reference as ref

ORDINARY_AT_P = "GoodOrdinaryP"

# y^2 = x^3 + x and y^2 = x^3 + 1 are supersingular at these residues.
_CM_SUPERSINGULAR = {(0, 0, 0, 1, 0): (4, 3), (0, 0, 0, 0, 1): (3, 2)}


class FrobeniusReference:
    """Reference a_p per (curve, p), memoised within one run."""

    def __init__(self):
        self._known: dict[tuple, int] = {}

    def a_p(self, curve, p: int) -> int:
        key = (curve, p)
        if key not in self._known:
            a = ref.trace_of_frobenius(curve, p)
            m, r = _CM_SUPERSINGULAR.get(curve, (1, 1))
            if p % m == r and a != 0:
                raise AssertionError(f"reference a_{p} = {a} of CM curve {curve} is not 0")
            self._known[key] = a
        return self._known[key]


def check_report(rep: dict, curve, tower: dict, frobenius: FrobeniusReference | None) -> list[str]:
    """Problems found in one successful report (empty when it is correct)."""
    problems = []
    label = rep.get("label", "?")
    rows = rep["rows"]
    if rep["failure"] or any(r["status"] == "Mismatch" for r in rows):
        problems.append(f"{label}: Mismatch row or failure")
    finite = {r["place"]: r for r in rows if isinstance(r["place"], int)}

    if rep["mr64_sum"] is not None:
        sums = [r["delta_sum"] for r in finite.values()]
        if None in sums or sum(sums) % 2 != rep["mr64_sum"]:
            problems.append(f"{label}: mr64_sum {rep['mr64_sum']} is not the parity "
                            f"of the finite rows' delta sums {sums}")

    sb = rep["selmer_bound"]
    if sb is not None and sb["applicable"]:
        dim = tower["dim_Sp_E_K"]
        expected = dim + tower["p"] ** tower["n"] - 1
        if (sb["bound"] != expected or sb["s_m_size"] != len(rep["S_m"])
                or (dim + sb["s_m_size"]) % 2 != 1):
            problems.append(f"{label}: applicable Selmer bound {sb} is not "
                            f"{expected} with dim + |S_m| odd")

    missing = set(ref.prime_factors(ref.discriminant(curve))) - set(finite)
    if missing:
        problems.append(f"{label}: primes {sorted(missing)} of the discriminant "
                        "have no support row")

    if frobenius is not None:
        p = tower["p"]
        ordinary = frobenius.a_p(curve, p) % p != 0
        row = finite.get(p)
        tags = [] if row is None else [d["case_tag"] for d in row["deltas"]]
        if not tags or (tags[0] == ORDINARY_AT_P) != ordinary:
            problems.append(f"{label}: verdict at p = {p} is {tags} but the "
                            f"reference curve is {'' if ordinary else 'not '}ordinary")
    return problems
