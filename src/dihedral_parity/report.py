"""Reports as text: the schema-1 JSON of a ``ParityReport``, written in one
pass from its records, its dict, and its text table.  The inverse,
``cli.report_from_dict``, rebuilds the tower with the config parser.
"""

from __future__ import annotations

import json
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .parity import SCHEMA_VERSION, ParityReport, ParityRow, SelmerBound, SiteAudit
from .tower import PrimeSite, TowerSpec
from .verdicts import ConstantVerdict, DeltaVerdict


def report_to_dict(rep: ParityReport) -> dict:
    """Schema 1 as a dict, read back from ``report_json``: the output shares
    no mutable object with the report."""
    return json.loads(report_json(rep))


# The text of a JSON scalar, keyed on its exact type: a subclass (an IntEnum,
# a str subclass) is not guessed at, and a float is not a value of schema 1.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): "null".format,
}


def _scalar(value: Any) -> str:
    text = _SCALAR_TEXT.get(type(value))
    if text is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return text(value)


def _object(keys: tuple[str, ...], depth: int) -> str:
    """The %-template of a JSON object with these keys, depth brackets deep in
    a report written at level 0: a %s for each value's text."""
    inner = "\n" + "  " * (depth + 1)
    return ("{" + ",".join(f"{inner}{encode_basestring_ascii(k)}: %s" for k in keys)
            + "\n" + "  " * depth + "}")


def _array(items: list[str], depth: int) -> str:
    """The text of a JSON list of item texts, depth brackets deep."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


# A record's keys are its fields in order (a delta entry is its site, then
# the verdict's fields), so renaming or reordering a field changes the
# schema; each writer below fills in its record's fields in that order.  A
# record sits at the same depth in every report.
_SITE = {depth: _object(_names(PrimeSite), depth) for depth in (2, 3, 5)}
_GAMMA = _object(_names(ConstantVerdict), 3)
_DELTA = _object(("site", *_names(DeltaVerdict)), 4)
_ROW = _object(_names(ParityRow), 2)
_AUDIT = _object(_names(SiteAudit), 2)
_BOUND = _object(_names(SelmerBound), 1)
*_BODY, _NOTES = _names(ParityReport)  # the two flags go before the notes
_KEYS = ("schema_version", *_BODY, "failure", "has_undetermined", _NOTES)
_REPORT, _LABELLED = _object(_KEYS, 0), _object((*_KEYS, "label"), 0)
_str = encode_basestring_ascii


def _site(s: PrimeSite, depth: int) -> str:
    return _SITE[depth] % (_scalar(s.ell), _str(s.split_type), _scalar(s.which))


def _gamma(g: ConstantVerdict) -> str:
    return _GAMMA % (_scalar(g.value), _str(g.case_tag), _str(g.citation), _str(g.detail))


def _entry(site: PrimeSite, v: DeltaVerdict) -> str:
    return _DELTA % (_site(site, 5), _scalar(v.value), _str(v.case_tag),
                     _str(v.citation), _str(v.detail), _scalar(v.pair_sum))


def _row(r: ParityRow) -> str:
    return _ROW % (_scalar(r.place), "null" if r.gamma is None else _gamma(r.gamma),
                   _array([_entry(*e) for e in r.deltas], 3),
                   _scalar(r.delta_sum), _str(r.status), _str(r.note))


def _audit(a: SiteAudit) -> str:
    return _AUDIT % (_site(a.site, 3), _scalar(a.condition), _scalar(a.passes),
                     _str(a.reason))


def _bound(b: SelmerBound) -> str:
    return _BOUND % (_scalar(b.applicable), _scalar(b.bound), _scalar(b.dim_Sp_E_K),
                     _scalar(b.s_m_size), _array(list(map(_str, b.reasons)), 2))


_TOWER = _object(("d", "p", "n", "ramified_sites", "overrides"), 1)


def tower_json(T: TowerSpec) -> str:
    """A tower as ``d, p, n, ramified_sites, overrides``, each override field
    suffixed ``_override``, so that it is itself a valid config: the text
    one bracket deep, where it sits in a report and in a batch document."""
    sites = sorted(T.ramified_sites, key=lambda s: (s.ell, s.which))
    return _TOWER % (_scalar(T.K.d), _scalar(T.p), _scalar(T.n),
                     _array([_site(s, 3) for s in sites], 2),
                     to_json({str(ell): {f"{name}_override": value
                                         for name, value in vars(o).items()}
                              for ell, o in sorted(T.overrides.items())}, 2))


def _sites(sites: list[PrimeSite]) -> str:
    return _array([_site(s, 2) for s in sites], 1)


def report_json(rep: ParityReport, level: int = 0, label: Optional[str] = None) -> str:
    """``to_json(report dict, level)`` of schema 1, with a last key ``label``
    unless label is None, written in one pass from the records.  The text is
    built at level 0 and re-indented once: no string value holds a raw line
    break, as ``encode_basestring_ascii`` escapes it."""
    values = (
        _scalar(SCHEMA_VERSION),
        _array(list(map(_scalar, rep.curve.ainvs())), 1),
        tower_json(rep.tower),
        _array(list(map(_row, rep.rows)), 1),
        _sites(rep.S),
        _scalar(rep.mr64_sum),
        _sites(rep.S_frak),
        _sites(rep.S_m),
        _array(list(map(_audit, rep.hypothesis_audit)), 1),
        "null" if rep.selmer_bound is None else _bound(rep.selmer_bound),
        to_json(rep.relative_parity, 1),
        _scalar(rep.failure),
        _scalar(rep.has_undetermined),
        _array(list(map(_str, rep.notes)), 1),
    )
    text = _REPORT % values if label is None else _LABELLED % (*values, _str(label))
    return text.replace("\n", "\n" + "  " * level) if level else text


def to_json(obj: Any, level: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with string
    keys, lists, tuples, strings, ints, booleans and None; any other type
    raises TypeError.  At level k > 0 it is the text of obj as an item k
    brackets deep in such a document.  With ``indent`` set, ``json.dumps``
    runs its pure-Python encoder; this writer appends one string per item
    instead."""
    out: list[str] = []
    _write_json(obj, "\n" + "  " * level, out)
    return "".join(out)


def _write_json(obj: Any, nl: str, out: list) -> None:
    """Append the text of obj to out; nl is the line break before its closing
    bracket, and each item goes on a line break nl + two spaces."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        head, sep = "{" + inner, "," + inner
        for key, value in obj.items():
            text = _SCALAR_TEXT.get(type(value))
            if text is None:
                out.append(head + encode_basestring_ascii(key) + ": ")
                _write_json(value, inner, out)
            else:
                out.append(head + encode_basestring_ascii(key) + ": " + text(value))
            head = sep
        out.append(nl + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        head, sep = "[" + inner, "," + inner
        for value in obj:
            text = _SCALAR_TEXT.get(type(value))
            if text is None:
                out.append(head)
                _write_json(value, inner, out)
            else:
                out.append(head + text(value))
            head = sep
        out.append(nl + "]")
    else:
        out.append(_scalar(obj))


def _fmt_value(v: Optional[int]) -> str:
    return "?" if v is None else str(v)


def render_text(d: dict) -> str:
    lines = []
    a = d["curve"]
    tw = d["tower"]
    lines.append(f"curve [{','.join(map(str, a))}]  "
                 f"K = Q(sqrt {tw['d']}), p = {tw['p']}, n = {tw['n']}")
    lines.append(f"{'place':>8}  {'gamma':>5}  {'sum delta':>9}  status")
    for r in d["rows"]:
        g = r["gamma"]
        gval = "-" if g is None else _fmt_value(g["value"])
        lines.append(f"{str(r['place']):>8}  {gval:>5}  "
                     f"{_fmt_value(r['delta_sum']):>9}  {r['status']}")
    lines.append(f"mr64_sum = {_fmt_value(d['mr64_sum'])}   "
                 f"|S_frak| = {len(d['S_frak'])}   |S_m| = {len(d['S_m'])}")
    sb = d["selmer_bound"]
    if sb is not None:
        if sb["applicable"]:
            lines.append(f"Selmer growth bound: dim S_p(E/F) >= {sb['bound']}")
        else:
            lines.append("Selmer growth bound: not applicable ("
                         + "; ".join(sb["reasons"]) + ")")
    if d["failure"]:
        lines.append("FAILURE: parity mismatch at a determined row "
                     "(implementation bug, not arithmetic)")
    return "\n".join(lines) + "\n"
