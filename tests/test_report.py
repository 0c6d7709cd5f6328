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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import PARITY_CORPUS, SMALL_TOWERS, make_tower
from dihedral_parity import report
from dihedral_parity.curves import SingularCurveError, WeierstrassCurve
from dihedral_parity.parity import (
    MISMATCH,
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
