"""The one-pass report writer, ``report.report_json``, and the text table,
``report.render_text``, against their oracles.

The oracle of the JSON is ``json.dumps(..., indent=2)`` of
``oracles.report_dict``, the dict the package printed before it wrote
reports straight from their records: the two must agree byte for byte at
every level, with and without a label.  The oracle of the table is
``oracles.render_text`` of that dict.  Each record's keys are its dataclass
fields in order, each writer in ``report.py`` fills its template in that
order, and a value of a type that schema 1 has no place for (a float, an
``int`` subclass) raises ``TypeError``.
"""

import ast
import json
from dataclasses import fields, replace
from enum import IntEnum
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import PARITY_CORPUS, SMALL_TOWERS, make_tower
import dihedral_parity.delta as DELTA_MODULE
import dihedral_parity.gamma as GAMMA_MODULE
from dihedral_parity import report
from dihedral_parity.curves import DEFECTS, KV_REDUCTIONS, SingularCurveError, WeierstrassCurve
from dihedral_parity.parity import (
    ARCHIMEDEAN_ROW,
    BLANKET_ROW,
    MATCH,
    MISMATCH,
    UNDETERMINED,
    ParityReport,
    ParityRow,
    SelmerBound,
    SiteAudit,
    analyze,
)
from dihedral_parity.report import render_text, report_json, report_to_dict
from dihedral_parity.tower import PrimeSite, SiteOverrides
from dihedral_parity.verdicts import ConstantVerdict, DeltaVerdict


def _names(cls):
    return [f.name for f in fields(cls)]


def _oracle_text(rep, level, label):
    d = oracles.report_dict(rep)
    text = json.dumps(d if label is None else {**d, "label": label}, indent=2)
    return text.replace("\n", "\n" + "  " * level)


def _oracle_table(rep):
    return oracles.render_text(oracles.report_dict(rep))


def _curve(ainvs):
    try:
        return WeierstrassCurve(*ainvs)
    except SingularCurveError:
        return None


SMALL_CURVES = st.tuples(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
                         st.integers(-50, 50), st.integers(-50, 50)).map(_curve).filter(bool)


@settings(max_examples=60, deadline=None)
@given(SMALL_CURVES, st.sampled_from(SMALL_TOWERS), st.sampled_from([None, 0, 1]),
       st.integers(0, 3), st.none() | st.text(max_size=6))
def test_report_json_matches_the_oracle_on_small_curves(E, tower, dim, level, label):
    d, p, rams = tower
    rep = analyze(E, make_tower(d, p, 1, rams), dim_Sp_E_K=dim)
    assert report_json(rep, level, label) == _oracle_text(rep, level, label)


@pytest.mark.parametrize("case", PARITY_CORPUS, ids=lambda c: c[0])
def test_report_json_matches_the_oracle_on_the_corpus(case):
    label, E, d, p, n, rams = case
    for dim in (None, 0, 1):
        rep = analyze(E, make_tower(d, p, n, rams), dim_Sp_E_K=dim)
        for level, name in ((0, None), (2, label), (1, "a\n\"b\"é")):
            assert report_json(rep, level, name) == _oracle_text(rep, level, name)
        assert report_to_dict(rep) == oracles.report_dict(rep)


@settings(max_examples=60, deadline=None)
@given(SMALL_CURVES, st.sampled_from(SMALL_TOWERS), st.sampled_from([None, 0, 1]))
def test_render_text_matches_the_oracle_on_small_curves(E, tower, dim):
    d, p, rams = tower
    rep = analyze(E, make_tower(d, p, 1, rams), dim_Sp_E_K=dim)
    assert render_text(rep) == _oracle_table(rep)


@pytest.mark.parametrize("case", PARITY_CORPUS, ids=lambda c: c[0])
def test_render_text_matches_the_oracle_on_the_corpus(case):
    label, E, d, p, n, rams = case
    for dim in (None, 0, 1):
        rep = analyze(E, make_tower(d, p, n, rams), dim_Sp_E_K=dim)
        assert render_text(rep) == _oracle_table(rep)
    # a Mismatch row is a bug that no input reaches, so the FAILURE line is
    # checked on a report with one row's status replaced
    failed = replace(rep, rows=[replace(rep.rows[0], status=MISMATCH), *rep.rows[1:]])
    assert failed.failure and render_text(failed) == _oracle_table(failed)


class Bit(IntEnum):
    ONE = 1


FLAGSHIP = (WeierstrassCurve(0, -1, 1, -10, -20), make_tower(-1, 5, 1, [11]))


def _gamma_as_float(rep):
    row = next(r for r in rep.rows if r.gamma is not None and r.gamma.value == 1)
    gamma = replace(row.gamma, value=1.0)  # 1.0 == 1, so the verdict accepts it
    return replace(rep, rows=[replace(r, gamma=gamma) if r is row else r for r in rep.rows])


@pytest.mark.parametrize("spoil", [
    _gamma_as_float,
    lambda rep: replace(rep, tower=replace(rep.tower, overrides={13: SiteOverrides(defect=2.0)})),
    lambda rep: replace(rep, mr64_sum=Bit.ONE),
], ids=["float-gamma", "float-override", "int-subclass"])
def test_report_json_rejects_values_outside_schema_1(spoil):
    E, T = FLAGSHIP
    rep = spoil(analyze(E, T, dim_Sp_E_K=0))
    with pytest.raises(TypeError):
        report_json(rep)


def _pairs(text):
    return json.loads(text, object_pairs_hook=lambda pairs: pairs)


def test_each_record_is_written_in_field_order():
    # 11a1 in the flagship tower has every record: a split site, a delta
    # entry, an audit, a split multiplicative site in S_m and a Selmer bound
    rep = analyze(WeierstrassCurve(0, -1, 1, -10, -20),
                  make_tower(-1, 5, 1, [(5, "first"), (5, "second"), 11]), dim_Sp_E_K=0)
    top = dict(_pairs(report_json(rep)))
    *body, notes = _names(ParityReport)
    assert list(top) == ["schema_version", *body, "failure", "has_undetermined", notes]
    sites = [s for key in ("S", "S_frak", "S_m") for s in top[key]]
    assert top["S_m"] and top["hypothesis_audit"] and top["selmer_bound"]
    for row in top["rows"]:
        row = dict(row)
        assert list(row) == _names(ParityRow)
        if row["gamma"] is not None:
            assert [k for k, _ in row["gamma"]] == _names(ConstantVerdict)
        for entry in row["deltas"]:
            assert [k for k, _ in entry] == ["site", *_names(DeltaVerdict)]
            sites.append(dict(entry)["site"])
    for audit in top["hypothesis_audit"]:
        assert [k for k, _ in audit] == _names(SiteAudit)
        sites.append(dict(audit)["site"])
    assert [k for k, _ in top["selmer_bound"]] == _names(SelmerBound)
    assert {dict(s)["which"] for s in sites} == {None, "first", "second"}
    for s in sites:
        assert [k for k, _ in s] == _names(PrimeSite)


# Each writer of report.py, the record its template is built from, and the
# names its %-tuple reads first: the record parameter's fields, in order.
WRITERS = {
    "_site": (PrimeSite, "s", []),
    "_gamma": (ConstantVerdict, "g", []),
    "_entry": (DeltaVerdict, "v", ["site"]),  # the entry's site comes first
    "_row": (ParityRow, "r", []),
    "_audit": (SiteAudit, "a", []),
    "_bound": (SelmerBound, "b", []),
}


def _read_in_order(element, param):
    """The fields of param read by a tuple element, or the names it passes
    whole, in source order."""
    names = [(n.lineno, n.col_offset, n.attr) for n in ast.walk(element)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
             and n.value.id == param]
    names += [(n.lineno, n.col_offset, n.id) for n in ast.walk(element)
              if isinstance(n, ast.Name) and n.id == "site"]
    return [name for *_, name in sorted(names)]


def test_each_writer_fills_its_template_in_field_order():
    tree = ast.parse(Path(report.__file__).read_text(encoding="utf-8"))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in WRITERS:
            cls, param, head = WRITERS[node.name]
            (ret,) = [n for n in ast.walk(node) if isinstance(n, ast.Return)]
            assert isinstance(ret.value, ast.BinOp) and isinstance(ret.value.op, ast.Mod)
            read = [name for element in ret.value.right.elts
                    for name in _read_in_order(element, param)[:1]]
            found[node.name] = read
            assert read == head + _names(cls), node.name
    assert set(found) == set(WRITERS)


# The verdict vocabulary: the verdicts of fixed detail are module constants
# of gamma.py and delta.py, and report.py keeps the text of each, and of each
# row of two constants, from the writers above.
CONSTANTS = [v for module, cls in ((GAMMA_MODULE, ConstantVerdict), (DELTA_MODULE, DeltaVerdict))
             for v in vars(module).values() if isinstance(v, cls)]
FIXED = {(c.case_tag, c.detail) for c in CONSTANTS}


def test_the_vocabulary_is_every_module_constant():
    assert GAMMA_MODULE.VOCABULARY and DELTA_MODULE.VOCABULARY
    assert [*GAMMA_MODULE.VOCABULARY, *DELTA_MODULE.VOCABULARY] == CONSTANTS
    assert len({id(c) for c in CONSTANTS}) == len(CONSTANTS)
    assert GAMMA_MODULE.ARCHIMEDEAN_GAMMA in GAMMA_MODULE.VOCABULARY


def _assert_fixed_verdicts_are_constants(rep):
    for r in rep.rows:
        for v in (r.gamma, *(dv for _, dv in r.deltas)):
            if v is None:
                continue
            if (v.case_tag, v.detail) in FIXED:
                assert any(v is c for c in CONSTANTS), v
            else:  # a detail of its own, on the case and citation of a constant
                assert v.detail and any((v.case_tag, v.citation) == (c.case_tag, c.citation)
                                        for c in CONSTANTS), v


@pytest.mark.parametrize("case", PARITY_CORPUS, ids=lambda c: c[0])
def test_fixed_verdicts_are_constants_on_the_corpus(case):
    label, E, d, p, n, rams = case
    _assert_fixed_verdicts_are_constants(analyze(E, make_tower(d, p, n, rams)))


OVERRIDES = st.builds(SiteOverrides, st.sampled_from([None, *DEFECTS]),
                      st.sampled_from([None, False, True]),
                      st.sampled_from([None, *KV_REDUCTIONS]))


@settings(max_examples=80, deadline=None)
@given(SMALL_CURVES, st.sampled_from(SMALL_TOWERS), st.none() | OVERRIDES, st.data())
def test_fixed_verdicts_are_constants_on_small_curves(E, tower, override, data):
    d, p, rams = tower
    overrides = {} if override is None else {data.draw(st.sampled_from([p, *rams])): override}
    _assert_fixed_verdicts_are_constants(analyze(E, make_tower(d, p, 1, rams, overrides)))


def _fresh(record):
    """An equal record that is not the same object."""
    copy = replace(record)
    assert copy == record and copy is not record
    return copy


@pytest.mark.parametrize("g", GAMMA_MODULE.VOCABULARY, ids=lambda g: g.case_tag)
def test_each_gamma_text_is_what_the_writer_writes(g):
    assert report._GAMMA_TEXT[id(g)] == report._gamma_text(g) == report._gamma(_fresh(g))


SHAPES = [PrimeSite(7, "split", "first"), PrimeSite(7, "inert"), PrimeSite(7, "ramified")]


def test_each_row_text_is_what_the_writer_writes(monkeypatch):
    # a row of two constants is written once per key by _row, then filled in
    # at each place; the two fixed rows are written once, at import
    writes = []
    row_writer = report._row
    monkeypatch.setattr(report, "_row", lambda r: writes.append(r) or row_writer(r))
    for g in GAMMA_MODULE.VOCABULARY:
        for v in DELTA_MODULE.VOCABULARY:
            dsum = v.contribution()
            for site, status in product(SHAPES, (MATCH, MISMATCH, UNDETERMINED)):
                for ell in (7, 11, 10 ** 50 + 151):
                    row = ParityRow(ell, g, ((replace(site, ell=ell), v),), dsum, status)
                    fresh = ParityRow(ell, _fresh(g), ((replace(site, ell=ell), _fresh(v)),),
                                      dsum, status)
                    assert report._row_text(row) == row_writer(fresh)
                    assert report._row_text(fresh) == row_writer(fresh)
    fixed = [r for r in writes if id(r.gamma) in report._VOCABULARY]
    assert len(fixed) <= len(GAMMA_MODULE.VOCABULARY) * len(DELTA_MODULE.VOCABULARY) * 3 * 3
    writes.clear()
    for r in (ARCHIMEDEAN_ROW, BLANKET_ROW):
        assert report._row_text(r) == row_writer(_fresh(r))
    assert writes == []
