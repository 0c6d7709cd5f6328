"""Reports as text: every JSON document the command line prints (a report,
its tower, a ``batch`` or ``validate`` document), written in one pass from
its records; a report's dict; and its text table.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Optional, Sequence, Union

from .curves import SiteOverrides
from .delta import VOCABULARY as DELTA_VOCABULARY
from .gamma import VOCABULARY as GAMMA_VOCABULARY
from .parity import ARCHIMEDEAN_ROW, BLANKET_ROW, SCHEMA_VERSION, ParityReport, ParityRow
from .parity import SelmerBound, SiteAudit
from .tower import PrimeSite, TowerSpec, Violation
from .verdicts import ConstantVerdict, DeltaVerdict


def report_to_dict(rep: ParityReport) -> dict:
    """Schema 1 as a dict, read back from ``report_json``: the output shares
    no mutable object with the report."""
    return json.loads(report_json(rep))


_str = encode_basestring_ascii

# The text of a JSON scalar, keyed on its exact type: a subclass (an IntEnum,
# a str subclass) is not guessed at, and a float is not a value of schema 1.
_SCALAR_TEXT = {
    str: _str,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): "null".format,
}


def _scalar(value: Any) -> str:
    text = _SCALAR_TEXT.get(type(value))
    if text is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return text(value)


def _array(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Item texts between brackets, depth brackets deep in a document written
    at level 0: one item per line, or nothing between empty brackets."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + "  " * depth + brackets[1])


def _object(keys: Sequence[str], depth: int, values: Optional[Sequence[str]] = None) -> str:
    """A JSON object with these keys and value texts; without values, its
    %-template, with a %s for each value's text."""
    values = ["%s"] * len(keys) if values is None else values
    return _array([f"{_str(k)}: {v}" for k, v in zip(keys, values)], depth, "{}")


def _names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


# A record's keys are its fields in order (a delta entry is its site, then
# the verdict's fields), so renaming or reordering a field changes the
# schema; each writer below fills in its record's fields in that order.  A
# record sits at the same depth in every document.
_SITE = {depth: _object(_names(PrimeSite), depth) for depth in (2, 3, 5)}
_GAMMA = _object(_names(ConstantVerdict), 3)
_DELTA = _object(("site", *_names(DeltaVerdict)), 4)
_ROW = _object(_names(ParityRow), 2)
_AUDIT = _object(_names(SiteAudit), 2)
_BOUND = _object(_names(SelmerBound), 1)
*_BODY, _NOTES = _names(ParityReport)  # the two flags go before the notes
_KEYS = ("schema_version", *_BODY, "failure", "has_undetermined", _NOTES)
_REPORT, _LABELLED = _object(_KEYS, 0), _object((*_KEYS, "label"), 0)
_ERROR = _object(("label", "error"), 2)
_VIOLATION = _object(_names(Violation), 2)
_VALIDATION = _object(("schema_version", "valid", "violations"), 0)
# a batch document is streamed: a head, its reports one by one, a tail
_BATCH = _object(("schema_version", "tower", "reports", "errors", "summary"), 0).split("%s")
_BATCH_HEAD, _BATCH_TAIL = "%s".join(_BATCH[:3]), "%s".join(_BATCH[3:])


def _fill(template: str, record: Any) -> str:
    """The template of a record filled with all its fields, in order."""
    return template % tuple(map(_scalar, vars(record).values()))


def _site(s: PrimeSite, depth: int) -> str:
    return _SITE[depth] % (_scalar(s.ell), _str(s.split_type), _scalar(s.which))


def _gamma(g: ConstantVerdict) -> str:
    return _GAMMA % (_scalar(g.value), _str(g.case_tag), _str(g.citation), _str(g.detail))


def _entry(site: PrimeSite, v: DeltaVerdict) -> str:
    return _DELTA % (_site(site, 5), _scalar(v.value), _str(v.case_tag),
                     _str(v.citation), _str(v.detail), _scalar(v.pair_sum))


def _row(r: ParityRow) -> str:
    return _ROW % (_scalar(r.place), "null" if r.gamma is None else _gamma_text(r.gamma),
                   _array([_entry(*e) for e in r.deltas], 3),
                   _scalar(r.delta_sum), _str(r.status), _str(r.note))


def _audit(a: SiteAudit) -> str:
    return _AUDIT % (_site(a.site, 3), _scalar(a.condition), _scalar(a.passes),
                     _str(a.reason))


def _bound(b: SelmerBound) -> str:
    return _BOUND % (_scalar(b.applicable), _scalar(b.bound), _scalar(b.dim_Sp_E_K),
                     _scalar(b.s_m_size), _array(list(map(_str, b.reasons)), 2))


# The verdict vocabulary: the module constants of gamma.py and delta.py,
# never freed, so that an id names one for good.  The memos below sit in
# front of the writers and hold texts the writers wrote: each gamma's text,
# and each row whose verdicts are constants, cut at its place, per (verdicts,
# site shape, sum, status, note).  A verdict with a detail of its own is
# encoded when written.
_GAMMA_TEXT = {id(g): _gamma(g) for g in GAMMA_VOCABULARY}
_VOCABULARY = {*_GAMMA_TEXT, *map(id, DELTA_VOCABULARY)}
_MARK = 10 ** 40 + 7  # a place no text holds, written and then cut out
_ROW_PARTS: dict[tuple, list[str]] = {}


def _gamma_text(g: ConstantVerdict) -> str:
    return _GAMMA_TEXT.get(id(g)) or _gamma(g)


_FIXED_ROWS = {id(r): _row(r) for r in (ARCHIMEDEAN_ROW, BLANKET_ROW)}


def _row_text(r: ParityRow) -> str:
    """_row's text, from the row's parts when its verdicts are constants."""
    if len(r.deltas) == 1 and id(r.gamma) in _VOCABULARY and id(r.deltas[0][1]) in _VOCABULARY:
        ((site, v),) = r.deltas
        key = (id(r.gamma), id(v), site.split_type, site.which,
               _scalar(r.delta_sum), r.status, r.note)
        if key not in _ROW_PARTS:
            marked = replace(r, place=_MARK, deltas=((replace(site, ell=_MARK), v),))
            _ROW_PARTS[key] = _row(marked).split(str(_MARK))
        if site.ell == r.place and len(_ROW_PARTS[key]) == 3:
            return _scalar(r.place).join(_ROW_PARTS[key])
    return _FIXED_ROWS.get(id(r)) or _row(r)


_TOWER = _object(("d", "p", "n", "ramified_sites", "overrides"), 1)
_OVERRIDE = _object(tuple(f"{name}_override" for name in _names(SiteOverrides)), 3)


def tower_json(T: TowerSpec) -> str:
    """A tower as ``d, p, n, ramified_sites, overrides``, each override field
    suffixed ``_override``, so that it is itself a valid config: the text
    one bracket deep, where it sits in a report and in a batch document."""
    sites = sorted(T.ramified_sites, key=lambda s: (s.ell, s.which))
    overrides = sorted(T.overrides.items())
    return _TOWER % (_scalar(T.K.d), _scalar(T.p), _scalar(T.n),
                     _array([_site(s, 3) for s in sites], 2),
                     _object([str(ell) for ell, _ in overrides], 2,
                             [_fill(_OVERRIDE, o) for _, o in overrides]))


@lru_cache(maxsize=1)
def _tower_texts(T: TowerSpec) -> tuple[str, dict[int, str]]:
    """The texts of the last tower written and, by id, of the sites it holds,
    which a report's S shares: the cache holds the tower, so no other object
    takes one of those ids."""
    sites = (*T.ramified_sites, *chain.from_iterable(() if T.violations else T.sites_at.values()))
    return tower_json(T), {id(s): _site(s, 2) for s in sites}


def report_json(rep: ParityReport, level: int = 0, label: Optional[str] = None) -> str:
    """Schema 1 of a report as an item level brackets deep, with a last key
    ``label`` unless label is None, written in one pass from the records.
    The text is built at level 0 and re-indented once: no string value holds
    a raw line break, as ``encode_basestring_ascii`` escapes it."""
    rel = rep.relative_parity
    tower, sites = _tower_texts(rep.tower)
    values = (
        _scalar(SCHEMA_VERSION),
        _array(list(map(_scalar, rep.curve.ainvs())), 1),
        tower,
        _array(list(map(_row_text, rep.rows)), 1),
        _array([sites.get(id(s)) or _site(s, 2) for s in rep.S], 1),
        _scalar(rep.mr64_sum),
        _array([sites.get(id(s)) or _site(s, 2) for s in rep.S_frak], 1),
        _array([sites.get(id(s)) or _site(s, 2) for s in rep.S_m], 1),
        _array(list(map(_audit, rep.hypothesis_audit)), 1),
        "null" if rep.selmer_bound is None else _bound(rep.selmer_bound),
        "null" if rel is None else _object(list(rel), 1, list(map(_scalar, rel.values()))),
        _scalar(rep.failure),
        _scalar(rep.has_undetermined),
        _array(list(map(_str, rep.notes)), 1),
    )
    text = _REPORT % values if label is None else _LABELLED % (*values, _str(label))
    return text.replace("\n", "\n" + "  " * level) if level else text


def validation_json(violations: list[Violation]) -> str:
    """The ``validate`` document: whether the tower is valid, and why not."""
    return _VALIDATION % (_scalar(SCHEMA_VERSION), _scalar(not violations),
                          _array([_fill(_VIOLATION, v) for v in violations], 1))


def batch_head(T: TowerSpec) -> str:
    """A ``batch`` document up to its list of reports."""
    return _BATCH_HEAD % (_scalar(SCHEMA_VERSION), _tower_texts(T)[0])


def batch_entry(index: int, label: str, result: Union[ParityReport, str]) -> str:
    """Item index of a ``batch`` document's reports, with the bracket or
    comma before it: a labelled report, or the label and its error text."""
    text = (_ERROR % (_str(label), _str(result)) if isinstance(result, str)
            else report_json(result, 2, label))
    return ("[" if index == 0 else ",") + "\n    " + text


def batch_tail(entries: int, errors: list[str], summary: dict[str, int]) -> str:
    """The rest of a ``batch`` document after that many entries."""
    return (("\n  ]" if entries else "[]") + _BATCH_TAIL % (
        _array(list(map(_str, errors)), 1),
        _object(list(summary), 1, list(map(_scalar, summary.values())))))


def _fmt_value(v: Optional[int]) -> str:
    return "?" if v is None else str(v)


def render_text(rep: ParityReport) -> str:
    """The report as a table: one line per row, then the aggregates."""
    T, sb = rep.tower, rep.selmer_bound
    lines = [f"curve [{','.join(map(str, rep.curve.ainvs()))}]  "
             f"K = Q(sqrt {T.K.d}), p = {T.p}, n = {T.n}",
             f"{'place':>8}  {'gamma':>5}  {'sum delta':>9}  status"]
    for r in rep.rows:
        gval = "-" if r.gamma is None else _fmt_value(r.gamma.value)
        lines.append(f"{str(r.place):>8}  {gval:>5}  "
                     f"{_fmt_value(r.delta_sum):>9}  {r.status}")
    lines.append(f"mr64_sum = {_fmt_value(rep.mr64_sum)}   "
                 f"|S_frak| = {len(rep.S_frak)}   |S_m| = {len(rep.S_m)}")
    if sb is not None:
        if sb.applicable:
            lines.append(f"Selmer growth bound: dim S_p(E/F) >= {sb.bound}")
        else:
            lines.append("Selmer growth bound: not applicable ("
                         + "; ".join(sb.reasons) + ")")
    if rep.failure:
        lines.append("FAILURE: parity mismatch at a determined row "
                     "(implementation bug, not arithmetic)")
    return "\n".join(lines) + "\n"
