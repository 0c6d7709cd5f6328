"""The record contract: every record class in ``src/`` is a named tuple.

Its field names, in order, are pinned: they are the keys of a written
report.  Its fields are read-only, equal records hash alike, and a copy by
``copy.deepcopy`` is equal.  The checks each record's ``__new__`` makes still
raise, and the three ways a named tuple differs from the dataclass it
replaced are covered: a record with no fields is still truthy, a default is
one shared object (so a tower's overrides dict is built per tower), and
records of two kinds of group with equal fields are not equal.
"""

import copy
import importlib
import pickle
import pkgutil
import re
from types import MappingProxyType

import pytest

import dihedral_parity
from dihedral_parity import gamma as GAMMA_MODULE
from corpus import CURVES, DELTA_VOCABULARY, GAMMA_VOCABULARY, make_tower
from dihedral_parity.curves import (
    FrobeniusData,
    LocalData,
    LocalReductionData,
    SingularCurveError,
    SiteOverrides,
    WeierstrassCurve,
    local_reduction,
)
from dihedral_parity.dihedral import (
    ClassFunction,
    CyclicGroupSpec,
    DihedralGroupSpec,
    inner_product,
    trivial_character,
)
from dihedral_parity.localarith import LocalSquareVerdict, RamifiedQuadratic, UnramifiedQuadratic
from dihedral_parity.parity import ParityReport, ParityRow, SelmerBound, SiteAudit, analyze
from dihedral_parity.report import report_json
from dihedral_parity.tower import PrimeSite, QuadraticFieldSpec, TowerSpec, Violation
from dihedral_parity.verdicts import CheckedRecord, ConstantVerdict, DeltaVerdict

E = CURVES["11a1"]
VERDICTS = (*GAMMA_VOCABULARY, *DELTA_VOCABULARY)


def _tower():
    return make_tower(-1, 5, 1, [11], {11: SiteOverrides(defect=2)})


# Each record class: its fields in order, and a function that builds a fresh
# record, equal to but not the same object as the one before.
RECORDS = {
    ConstantVerdict: ("value case_tag citation detail",
                      lambda: ConstantVerdict(0, "SplitPair", "a citation", "a detail")),
    DeltaVerdict: ("value case_tag citation detail pair_sum",
                   lambda: DeltaVerdict(None, "PairCancels", "a citation", pair_sum=0)),
    LocalSquareVerdict: ("valuation_parity unit_class", lambda: LocalSquareVerdict(1, -1)),
    UnramifiedQuadratic: ("", UnramifiedQuadratic),
    RamifiedQuadratic: ("d", lambda: RamifiedQuadratic(-1)),
    WeierstrassCurve: ("a1 a2 a3 a4 a6", lambda: WeierstrassCurve(0, -1, 1, -10, -20)),
    LocalReductionData: ("ell reduction_type v_disc_min potentially_multiplicative "
                         "minimal_model", lambda: local_reduction(E, 11)),
    FrobeniusData: ("ell a_ell a_ell2 ordinary", lambda: FrobeniusData(7, -2, -10, True)),
    SiteOverrides: ("defect anomalous reduction_over_Kv", lambda: SiteOverrides(defect=2)),
    LocalData: ("E ell ext overrides", lambda: LocalData(E, 11, UnramifiedQuadratic())),
    QuadraticFieldSpec: ("d", lambda: QuadraticFieldSpec(-1)),
    PrimeSite: ("ell split_type which", lambda: PrimeSite(5, "split", "first")),
    Violation: ("code message citation", lambda: Violation("p_gt_3", "p = 3", "a citation")),
    TowerSpec: ("K p n ramified_sites overrides", _tower),
    SiteAudit: ("site condition passes reason",
                lambda: SiteAudit(PrimeSite(11, "inert"), "c", True)),
    ParityRow: ("place gamma deltas delta_sum status note",
                lambda: ParityRow(11, ConstantVerdict(1, "PotMultSplit", "c"), (
                    (PrimeSite(11, "inert"), DeltaVerdict(1, "PotMultSplit", "c")),), 1, "Match")),
    SelmerBound: ("applicable bound dim_Sp_E_K s_m_size reasons",
                  lambda: SelmerBound(False, None, 0, 1, ("a reason",))),
    ParityReport: ("curve tower rows S mr64_sum S_frak S_m hypothesis_audit selmer_bound "
                   "relative_parity failure has_undetermined notes",
                   lambda: analyze(E, _tower(), 0)),
    CyclicGroupSpec: ("m", lambda: CyclicGroupSpec(5)),
    DihedralGroupSpec: ("m", lambda: DihedralGroupSpec(5)),
    ClassFunction: ("group coeffs", lambda: ClassFunction(DihedralGroupSpec(5), (1, 0, 2, -1))),
}


def _classes():
    """Every class defined in a module of the package."""
    found = set()
    for info in pkgutil.iter_modules(dihedral_parity.__path__):
        module = importlib.import_module(f"dihedral_parity.{info.name}")
        found.update(v for v in vars(module).values()
                     if isinstance(v, type) and v.__module__ == module.__name__)
    return found


def _record_classes():
    """Every tuple class of the package but the base CheckedRecord."""
    return {cls for cls in _classes() if issubclass(cls, tuple)} - {CheckedRecord}


def test_every_record_class_is_pinned():
    assert _record_classes() == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_contract(cls):
    names, build = RECORDS[cls]
    record, again = build(), build()
    assert type(record) is cls and list(cls._fields) == names.split()
    assert record == again and record is not again
    if cls is ParityReport:  # it holds lists, as the dataclass it was did not hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert copy.deepcopy(record) == record


# Each check a record's __new__ makes: the class, the constructor's
# arguments and the error they raise.
CHECKS = [
    (ConstantVerdict, (2, "SplitPair", "c"), ValueError),
    (ConstantVerdict, (0, "Uncovered", "c"), ValueError),
    (ConstantVerdict, (None, "SplitPair", "c"), ValueError),
    (PrimeSite, (5, "split"), ValueError),
    (PrimeSite, (5, "inert", "first"), ValueError),
    (WeierstrassCurve, (0, 0, 0, 0, 0), SingularCurveError),
    (WeierstrassCurve, (True, -1, 1, -10, -20), ValueError),
    (SiteOverrides, (5,), ValueError),
    (TowerSpec, (None, 5, 1), ValueError),
    (TowerSpec, (QuadraticFieldSpec(-1), 5, 1, {(11, "inert", None)}), ValueError),
    (DihedralGroupSpec, (4,), ValueError),
    (DihedralGroupSpec, (1,), ValueError),
    (ClassFunction, (DihedralGroupSpec(5), (1, 0, 0)), ValueError),
    (ClassFunction, (CyclicGroupSpec(3), (1, 0, 0.5)), ValueError),
]
CHECK_IDS = ["value-2", "uncovered-with-value", "covered-without-value", "split-without-which",
             "inert-with-which", "singular", "bool-coefficient", "defect-5", "K-none",
             "tuple-site", "even-m", "m-1", "short-coeffs", "float-coeff"]


@pytest.mark.parametrize("cls, args, error", CHECKS, ids=CHECK_IDS)
def test_construction_checks_still_raise(cls, args, error):
    # however the record is built: by its constructor, or from a valid record
    # by _make, _replace or (from Python 3.13) copy.replace, each field not
    # given taking its default where it has one
    valid = RECORDS[cls][1]()
    fields = {**valid._asdict(), **cls._field_defaults, **dict(zip(cls._fields, args))}
    builds = [lambda: cls(*args), lambda: cls._make(fields.values()),
              lambda: valid._replace(**fields)]
    if hasattr(copy, "replace"):
        builds.append(lambda: copy.replace(valid, **fields))
    for build in builds:
        with pytest.raises(error):
            build()


def _with_mismatch(rep):
    return [rep.rows[0]._replace(status="Mismatch"), *rep.rows[1:]]


FLAGSHIP = analyze(WeierstrassCurve(0, -1, 1, -10, -20), make_tower(-1, 5, 1, [11]))
CURVE = FLAGSHIP.curve


# Each pairs a record built through _replace or _make with the constructor's
# build of the same values: the two raise alike, or are equal records with the
# same flags and invariants.
@pytest.mark.parametrize("replaced, constructed", [
    (lambda: FLAGSHIP._replace(rows=_with_mismatch(FLAGSHIP)),
     lambda: ParityReport(*FLAGSHIP[:2], _with_mismatch(FLAGSHIP), *FLAGSHIP[3:10],
                          FLAGSHIP.notes)),
    (lambda: CURVE._replace(a1=1), lambda: WeierstrassCurve(1, -1, 1, -10, -20)),
    (lambda: WeierstrassCurve._make([1, -1, 1, -10, -20]),
     lambda: WeierstrassCurve(1, -1, 1, -10, -20)),
    (lambda: CURVE._replace(a1=True), lambda: WeierstrassCurve(True, -1, 1, -10, -20)),
    (lambda: GAMMA_MODULE.SPLIT_PAIR._replace(value=7),
     lambda: ConstantVerdict(7, *GAMMA_MODULE.SPLIT_PAIR[1:])),
    (lambda: FLAGSHIP.tower._replace(overrides=None),
     lambda: TowerSpec(*FLAGSHIP.tower[:4], None)),
    (lambda: DihedralGroupSpec(5)._replace(m=4), lambda: DihedralGroupSpec(4)),
    (lambda: ClassFunction(DihedralGroupSpec(5), (1, 0, 2, -1))._replace(coeffs=(1,)),
     lambda: ClassFunction(DihedralGroupSpec(5), (1,))),
], ids=["mismatch-row", "curve-a1", "curve-make", "curve-bool", "verdict-value-7",
        "tower-without-overrides", "even-m", "short-coeffs"])
def test_replace_builds_what_the_constructor_builds(replaced, constructed):
    try:
        expected = constructed()
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            replaced()
        return
    record = replaced()
    assert type(record) is type(expected) and record == expected
    if isinstance(record, ParityReport):  # its flags are fields, so equal too
        assert record.failure and not record.has_undetermined
    elif isinstance(record, TowerSpec):
        assert type(record.overrides) is MappingProxyType and record.overrides == {}
    else:
        assert record.discriminant() == expected.discriminant() == -153883
        assert record.c_invariants() == expected.c_invariants()


CHECKED = {ConstantVerdict, WeierstrassCurve, SiteOverrides, PrimeSite, TowerSpec, ParityReport,
           DihedralGroupSpec, ClassFunction}


def test_every_record_that_checks_builds_through_the_one_base():
    # a record class whose __new__ checks or computes derives from
    # CheckedRecord, so _make, _replace, copy and pickle run that __new__; no
    # other class builds its records another way
    assert {cls for cls in _record_classes() if "__new__" in vars(cls)} == CHECKED
    assert {cls for cls in _record_classes() if issubclass(cls, CheckedRecord)} == CHECKED
    assert {cls for cls in _classes()
            if {"_make", "__getstate__"} & set(vars(cls))} == {CheckedRecord}


@pytest.mark.parametrize("cls", sorted(CHECKED, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_a_copy_of_a_checked_record_carries_its_fields_alone(cls):
    record = RECORDS[cls][1]()
    vars(record)["kept"] = "a text kept outside the fields"
    for other in (record._replace(), copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(other) is cls and other == record and "kept" not in vars(other)


@pytest.mark.parametrize("cls", sorted(CHECKED, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_make_refuses_more_values_than_fields(cls):
    # as a named tuple's _make does: the __getnewargs__ of TowerSpec and
    # ParityReport read fields by position, so an extra value would be dropped
    record = RECORDS[cls][1]()
    n = len(cls._fields)
    with pytest.raises(TypeError, match=f"^Expected {n} arguments, got {n + 1}$"):
        cls._make([*record, "extra"])
    assert cls._make(record) == record


def test_construction_checks_read_keywords():
    assert PrimeSite(ell=5, split_type="split", which="second").which == "second"
    assert ConstantVerdict(value=None, case_tag="Uncovered", citation="c").detail == ""
    with pytest.raises(ValueError):
        PrimeSite(ell=5, split_type="split")


def test_a_record_without_fields_is_truthy():
    ext = UnramifiedQuadratic()
    assert ext and ext == UnramifiedQuadratic() and hash(ext) == hash(UnramifiedQuadratic())


def test_each_tower_builds_its_own_overrides():
    K = QuadraticFieldSpec(-1)
    a, b = TowerSpec(K, 5, 1), TowerSpec(K, 5, 1)
    assert a.overrides == b.overrides == {} and a.overrides is not b.overrides
    assert a.ramified_sites == frozenset()


def test_a_towers_overrides_are_read_only():
    # a tower keeps its report texts, so its overrides cannot change under
    # them: neither by item assignment nor through the dict it was built from,
    # whether TowerSpec or _replace built it; a copy or a pickle rebuilds the
    # mapping and equals the tower
    E, given = CURVES["11a1"], {}
    T = TowerSpec(*make_tower(-1, 5, 1, [11])[:4], given)
    U = make_tower(-1, 5, 1, [11])._replace(overrides=given)
    text = report_json(analyze(E, T))
    assert report_json(analyze(E, U)) == text
    given[11] = SiteOverrides(reduction_over_Kv="good")
    for tower in (T, U):
        with pytest.raises(TypeError):
            tower.overrides[11] = SiteOverrides(reduction_over_Kv="good")
        assert type(tower.overrides) is MappingProxyType
        assert tower.overrides == {} and report_json(analyze(E, tower)) == text
    for other in (copy.deepcopy(T), pickle.loads(pickle.dumps(T))):
        assert other == T and type(other.overrides) is type(T.overrides)
        assert report_json(analyze(E, other)) == text


@pytest.mark.parametrize("kind", [set, list])
def test_a_towers_sites_are_a_frozenset_of_its_own(kind):
    # a set or a list of sites builds a tower, by TowerSpec or by _replace,
    # that writes the report of the frozenset's tower; a later change to the
    # given sites reaches neither the tower nor its report
    built = make_tower(-1, 5, 1, [11])
    text = report_json(analyze(E, built, 0))
    for make in (lambda sites: TowerSpec(*built[:3], sites),
                 lambda sites: built._replace(ramified_sites=sites)):
        given = kind(built.ramified_sites)
        T = make(given)
        assert type(T.ramified_sites) is frozenset and T == built
        assert report_json(analyze(E, T, 0)) == text
        given.clear()
        assert T == built and report_json(analyze(E, T, 0)) == text


def test_a_copy_of_a_tower_carries_its_fields_alone():
    # an analyzed tower keeps what its analyses share in its instance dict; a
    # copy or a pickle is an equal tower that keeps nothing yet, and its
    # reports hold the verdict constants themselves, not copies of them
    T = make_tower(-1, 5, 1, [11])
    text = report_json(analyze(E, T, 0))
    assert vars(T)
    for other in (copy.copy(T), copy.deepcopy(T),
                  *(pickle.loads(pickle.dumps(T, protocol)) for protocol in range(2, 6))):
        assert other == T and vars(other) == {}
        rep = analyze(E, other, 0)
        assert report_json(rep) == text
        verdicts = [v for r in rep.rows for v in (r.gamma, *(v for _, v in r.deltas))
                    if v is not None]
        assert verdicts and all(any(v is c for c in VERDICTS) for v in verdicts)


def test_a_tower_hashes_through_its_own_hash():
    assert "__hash__" in vars(TowerSpec)
    a, b = _tower(), _tower()
    assert a.overrides and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.K, a.p, a.n, a.ramified_sites))
    assert len({a, b}) == 1


def test_group_specs_of_two_kinds_are_not_equal():
    C, D = CyclicGroupSpec(3), DihedralGroupSpec(3)
    assert C != D and not C == D and C == CyclicGroupSpec(3) and not C != CyclicGroupSpec(3)
    assert hash(C) == hash(CyclicGroupSpec(3))
    assert trivial_character(C) != trivial_character(D)
    with pytest.raises(ValueError, match="group mismatch"):
        inner_product(trivial_character(C), trivial_character(D))
    with pytest.raises(ValueError, match="group mismatch"):
        trivial_character(C) + trivial_character(D)
