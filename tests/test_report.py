"""The one-pass report writer, ``report.report_json``, and the text table,
``report.render_text``, against their oracles.

The oracle of the JSON is ``json.dumps(..., indent=2)`` of
``oracles.report_dict``, the dict the package printed before it wrote
reports straight from their records: the two must agree byte for byte at
every level, with and without a label.  The oracle of the table is
``oracles.render_text`` of that dict.  Each record's keys are its named-tuple
fields in order, each writer in ``report.py`` fills its template in that
order, and a value of a type that schema 1 has no place for (a float, an
``int`` subclass) raises ``TypeError``.
"""

import ast
import json
from enum import IntEnum
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import PARITY_CORPUS, SMALL_CURVES, SMALL_TOWERS, make_tower
import dihedral_parity.delta as DELTA_MODULE
import dihedral_parity.gamma as GAMMA_MODULE
from dihedral_parity import report
from dihedral_parity.curves import DEFECTS, KV_REDUCTIONS, WeierstrassCurve
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
from dihedral_parity.tower import PrimeSite, SiteOverrides, Violation
from dihedral_parity.verdicts import ConstantVerdict, DeltaVerdict


def _names(cls):
    return list(cls._fields)


def _oracle_text(rep, level, label):
    d = oracles.report_dict(rep)
    text = json.dumps(d if label is None else {**d, "label": label}, indent=2)
    return text.replace("\n", "\n" + "  " * level)


def _oracle_table(rep):
    return oracles.render_text(oracles.report_dict(rep))


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
    failed = rep._replace(rows=[rep.rows[0]._replace(status=MISMATCH), *rep.rows[1:]])
    assert failed.failure and render_text(failed) == _oracle_table(failed)


class Bit(IntEnum):
    ONE = 1


FLAGSHIP = (WeierstrassCurve(0, -1, 1, -10, -20), make_tower(-1, 5, 1, [11]))


def _gamma_as_float(rep):
    row = next(r for r in rep.rows if r.gamma is not None and r.gamma.value == 1)
    gamma = ConstantVerdict(1.0, *row.gamma[1:])  # 1.0 == 1, so the verdict accepts it
    return rep._replace(rows=[r._replace(gamma=gamma) if r is row else r for r in rep.rows])


@pytest.mark.parametrize("spoil", [
    _gamma_as_float,
    # SiteOverrides refuses 2.0 itself, so the float is put in past its check
    lambda rep: rep._replace(tower=rep.tower._replace(
        overrides={13: tuple.__new__(SiteOverrides, (2.0, None, None))})),
    lambda rep: rep._replace(mr64_sum=Bit.ONE),
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
    assert list(top) == ["schema_version", *_names(ParityReport)]
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
    "_verdict": (DeltaVerdict, "v", []),  # a delta entry's fields after its site
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
# of gamma.py and delta.py.  Each record keeps its text at each depth it was
# written at, so a constant, a tower and the tower's sites and rows are each
# written once per depth.
CONSTANTS = [v for module, cls in ((GAMMA_MODULE, ConstantVerdict), (DELTA_MODULE, DeltaVerdict))
             for v in vars(module).values() if isinstance(v, cls)]
FIXED = {(c.case_tag, c.detail) for c in CONSTANTS}
DEPTHS = (3, 4, 5, 6)  # those of a report alone and in a batch document, and two others


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
    copy = record._replace()
    assert copy == record and copy is not record
    return copy


def _never(record, depth):
    raise AssertionError(f"{record} written again at depth {depth}")


def _assert_kept_as_written(v, write):
    # the text kept beside a constant at each depth is its writer's, and the
    # writer is not called again for it
    for depth in DEPTHS:
        text = report._kept(v, depth, write)
        assert text == write(_fresh(v), depth)
        assert report._kept(v, depth, _never) == text


@pytest.mark.parametrize("g", GAMMA_MODULE.VOCABULARY, ids=lambda g: g.case_tag)
def test_each_gamma_text_is_what_the_writer_writes(g):
    _assert_kept_as_written(g, report._gamma)


@pytest.mark.parametrize("v", DELTA_MODULE.VOCABULARY, ids=lambda v: v.case_tag)
def test_each_delta_text_is_what_the_writer_writes(v):
    _assert_kept_as_written(v, report._verdict)


SHAPES = [PrimeSite(7, "split", "first"), PrimeSite(7, "inert"), PrimeSite(7, "ramified")]


def test_each_row_text_is_what_the_writer_writes():
    # at each depth a row keeps the text _row writes of an equal fresh row,
    # and is not written again: a row of constants at any place and site
    # shape, and the two fixed rows alike
    for g in GAMMA_MODULE.VOCABULARY:
        for v in DELTA_MODULE.VOCABULARY:
            dsum = v.contribution()
            for site, status in product(SHAPES, (MATCH, MISMATCH, UNDETERMINED)):
                for ell in (7, 11, 10 ** 50 + 151):
                    row = ParityRow(ell, g, ((site._replace(ell=ell), v),), dsum, status)
                    fresh = ParityRow(ell, _fresh(g), ((site._replace(ell=ell), _fresh(v)),),
                                      dsum, status)
                    for depth in DEPTHS[:2]:
                        text = report._kept(row, depth, report._row)
                        assert text == report._row(fresh, depth)
                        assert report._kept(row, depth, _never) == text
    for r in (ARCHIMEDEAN_ROW, BLANKET_ROW):
        for depth in DEPTHS:
            assert report._kept(r, depth, report._row) == report._row(_fresh(r), depth)
            assert report._kept(r, depth, _never) == report._row(_fresh(r), depth)


def _kept_texts(record) -> dict:
    """The texts kept in record's instance dict, by depth."""
    return {int(key): text for key, text in vars(record).items()
            if isinstance(key, str) and key.isdigit()}


def _written(rep):
    """Each record reachable from rep, its writer in report.py, and the depths
    at which rep's texts at levels 0 and 2 keep its text: none for a site in
    a row, whose text its row's text holds."""
    for r in rep.rows:
        yield r, report._row, (2, 4)
        if r.gamma is not None:
            yield r.gamma, report._gamma, (3, 5)
        for s, v in r.deltas:
            yield s, report._site, ()
            yield v, report._verdict, (4, 6)
    for s in (*rep.S, *rep.S_frak, *rep.S_m):
        yield s, report._site, (2, 4)
    for a in rep.hypothesis_audit:
        yield a, report._audit, (2, 4)
        yield a.site, report._site, (3, 5)
    if rep.selmer_bound is not None:
        yield rep.selmer_bound, report._bound, (1, 3)


def test_kept_texts_are_fresh_writes():
    # every record keeps the text it was written as, at each depth: one met
    # again (a verdict constant, a fixed row, a tower, what parity shares
    # across a tower's reports) reuses it, and any other takes it along; so
    # each kept text is what its writer writes of an equal fresh record
    seen = set()
    failing = ("x3-6x-6", WeierstrassCurve(0, 0, 0, -6, -6), 5, 7, 1, [2, 3, 7, 13])
    for label, E, d, p, n, rams in (*PARITY_CORPUS, failing):
        rep = analyze(E, make_tower(d, p, n, rams), dim_Sp_E_K=0)
        for level, _ in product((0, 2), range(2)):
            assert report_json(rep, level, label) == _oracle_text(rep, level, label)
        tower = _kept_texts(rep.tower)
        assert {1, 3} <= set(tower)
        for depth, text in tower.items():
            assert text == report.tower_json(_fresh(rep.tower), depth)
        for record, write, depths in _written(rep):
            texts = _kept_texts(record)
            assert set(depths) <= set(texts), (record, depths)
            for depth, text in texts.items():
                assert text == write(_fresh(record), depth), (record, depth)
        seen.update(("audit", a.passes) for a in rep.hypothesis_audit)
        seen.add(("bound", rep.selmer_bound.applicable))
    assert seen == set(product(("audit", "bound"), (True, False)))


def test_override_and_violation_texts_read_fields_alone():
    # tower_json and validation_json fill their templates from the records'
    # fields in order: anything else in an instance dict changes no byte
    o = SiteOverrides(defect=2, anomalous=True)
    T = make_tower(-1, 5, 1, [11], overrides={11: o})
    v = Violation("code", "message", "citation")
    before = report.tower_json(T), report.validation_json([v])
    assert json.loads(before[0]) == oracles.tower_dict(T)
    vars(o)[3] = vars(v)[1] = "a kept text"
    assert (report.tower_json(T), report.validation_json([v])) == before
