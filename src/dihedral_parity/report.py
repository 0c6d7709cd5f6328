"""Reports as text: every JSON document the command line prints (a report,
its tower, a ``batch`` or ``validate`` document), written in one pass from
its records; a report's dict; and its text table.
"""

from __future__ import annotations

import json
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional, Sequence, Union

from .curves import OVERRIDE_KEYS
from .parity import SCHEMA_VERSION, ParityReport, ParityRow, SelmerBound, SiteAudit
from .tower import PrimeSite, TowerSpec, Violation
from .verdicts import ConstantVerdict, DeltaVerdict


def report_to_dict(rep: ParityReport) -> dict:
    """Schema 1 as a dict, read back from ``report_json``: it shares nothing."""
    return json.loads(report_json(rep))


_str = encode_basestring_ascii

# The text of a JSON scalar, keyed on its exact type: a subclass (an IntEnum,
# a str subclass) is not guessed at, and a float is not a value of schema 1.
_SCALAR_TEXT = {str: _str, int: int.__repr__, bool: ("false", "true").__getitem__,
                type(None): "null".format}


def _scalar(value: Any) -> str:
    try:
        return _SCALAR_TEXT[type(value)](value)
    except KeyError:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable") from None


def _array(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Item texts between brackets depth deep, one a line, or empty brackets."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + "  " * depth + brackets[1])


def _object(keys: Sequence[str], depth: int, values: Optional[Sequence[str]] = None) -> str:
    """A JSON object of these keys and value texts, or its %-template without."""
    values = ["%s"] * len(keys) if values is None else values
    return _array([f"{_str(k)}: {v}" for k, v in zip(keys, values)], depth, "{}")


class _ByDepth(dict):
    """Templates (or keys) by depth, each built on first use."""

    def __init__(self, build: Callable[[int], Any]):
        self.build = build

    def __missing__(self, depth: int) -> Any:
        return self.setdefault(depth, self.build(depth))


def _kept(record: Any, depth: int, write: Callable[[Any, int], str]) -> str:
    """record's text depth brackets deep, as write (its type's one writer) writes it, kept
    in its instance dict: a record met again (a verdict constant, a fixed row, a tower, or
    what parity shares across a tower's reports) reuses it, and any other takes it along."""
    texts, key = vars(record), _DEPTH_KEY[depth]
    text = texts.get(key)
    if text is None:
        text = texts[key] = write(record, depth)
    return text


_DEPTH_KEY = _ByDepth(str)  # the key of a depth's kept text: a str, as an attribute name is
# A record's keys are its fields in order (a delta entry is its site, then
# the verdict's fields), and each writer below fills them in that order.
_SITE = _ByDepth(partial(_object, PrimeSite._fields))
_GAMMA = _ByDepth(partial(_object, ConstantVerdict._fields))
# a delta entry as the text before its site, and its verdict's template
_ENTRY = _ByDepth(lambda d: _object(("site", *DeltaVerdict._fields), d).split("%s", 1))
_ROW = _ByDepth(partial(_object, ParityRow._fields))
_AUDIT = _ByDepth(partial(_object, SiteAudit._fields))
_BOUND = _ByDepth(partial(_object, SelmerBound._fields))
_KEYS = ("schema_version", *ParityReport._fields)
_REPORT = _ByDepth(partial(_object, _KEYS))
_LABELLED = _ByDepth(partial(_object, (*_KEYS, "label")))
_TOWER = _ByDepth(partial(_object, ("d", "p", "n", "ramified_sites", "overrides")))
_OVERRIDE = _ByDepth(partial(_object, OVERRIDE_KEYS))
_ERROR = _object(("label", "error"), 2)
_VIOLATION = _object(Violation._fields, 2)
_VALIDATION = _object(("schema_version", "valid", "violations"), 0)
# a batch document is streamed: a head, its reports one by one, a tail
_BATCH = _object(("schema_version", "tower", "reports", "errors", "summary"), 0).split("%s")
_BATCH_HEAD, _BATCH_TAIL = "%s".join(_BATCH[:3]), "%s".join(_BATCH[3:])


def _site(s: PrimeSite, depth: int) -> str:
    return _SITE[depth] % (_scalar(s.ell), _str(s.split_type), _scalar(s.which))


def _gamma(g: ConstantVerdict, depth: int) -> str:
    return _GAMMA[depth] % (_scalar(g.value), _str(g.case_tag), _str(g.citation), _str(g.detail))


def _verdict(v: DeltaVerdict, depth: int) -> str:
    return _ENTRY[depth][1] % (_scalar(v.value), _str(v.case_tag), _str(v.citation),
                               _str(v.detail), _scalar(v.pair_sum))


def _row(r: ParityRow, depth: int) -> str:
    entry = _ENTRY[depth + 2][0]
    return _ROW[depth] % (_scalar(r.place),
                          "null" if r.gamma is None else _kept(r.gamma, depth + 1, _gamma),
                          _array([entry + _site(s, depth + 3) + _kept(v, depth + 2, _verdict)
                                  for s, v in r.deltas], depth + 1),
                          _scalar(r.delta_sum), _str(r.status), _str(r.note))


def _audit(a: SiteAudit, depth: int) -> str:
    return _AUDIT[depth] % (_kept(a.site, depth + 1, _site), _scalar(a.condition),
                            _scalar(a.passes), _str(a.reason))


def _bound(b: SelmerBound, depth: int) -> str:
    return _BOUND[depth] % (_scalar(b.applicable), _scalar(b.bound), _scalar(b.dim_Sp_E_K),
                            _scalar(b.s_m_size), _array(list(map(_str, b.reasons)), depth + 1))


def _sites(sites: Sequence[PrimeSite], depth: int) -> str:
    return _array([_kept(s, depth + 1, _site) for s in sites], depth)


def tower_json(T: TowerSpec, depth: int = 1) -> str:
    """A tower as ``d, p, n, ramified_sites, overrides``, each override field
    suffixed ``_override`` so that it is a valid config, depth brackets deep."""
    overrides = sorted(T.overrides.items())
    return _TOWER[depth] % (
        _scalar(T.K.d), _scalar(T.p), _scalar(T.n),
        _array([_kept(s, depth + 2, _site) for s in
                sorted(T.ramified_sites, key=lambda s: (s.ell, s.which))], depth + 1),
        _object([str(ell) for ell, _ in overrides], depth + 1,
                [_OVERRIDE[depth + 2] % tuple(map(_scalar, o)) for _, o in overrides]))


def report_json(rep: ParityReport, level: int = 0, label: Optional[str] = None) -> str:
    """Schema 1 of a report as an item level brackets deep, with a last key
    ``label`` unless label is None, written at its depth in one pass."""
    depth, rel, sb = level + 1, rep.relative_parity, rep.selmer_bound
    texts = (
        _scalar(SCHEMA_VERSION),
        _array(list(map(_scalar, rep.curve.ainvs())), depth),
        _kept(rep.tower, depth, tower_json),
        _array([_kept(r, depth + 1, _row) for r in rep.rows], depth),
        _sites(rep.S, depth),
        _scalar(rep.mr64_sum),
        _sites(rep.S_frak, depth),
        _sites(rep.S_m, depth),
        _array([_kept(a, depth + 1, _audit) for a in rep.hypothesis_audit], depth),
        "null" if sb is None else _kept(sb, depth, _bound),
        "null" if rel is None else _object(list(rel), depth, list(map(_scalar, rel.values()))),
        _scalar(rep.failure),
        _scalar(rep.has_undetermined),
        _array(list(map(_str, rep.notes)), depth),
    )
    return (_REPORT[level] % texts if label is None
            else _LABELLED[level] % (*texts, _str(label)))


def validation_json(violations: list[Violation]) -> str:
    """The ``validate`` document: whether the tower is valid, and why not."""
    return _VALIDATION % (_scalar(SCHEMA_VERSION), _scalar(not violations),
                          _array([_VIOLATION % tuple(map(_scalar, v))
                                  for v in violations], 1))


def batch_head(T: TowerSpec) -> str:
    """A ``batch`` document up to its list of reports."""
    return _BATCH_HEAD % (_scalar(SCHEMA_VERSION), _kept(T, 1, tower_json))


def batch_entry(index: int, label: str, result: Union[ParityReport, str]) -> str:
    """Item index of a ``batch`` document's reports after its bracket or comma:
    a labelled report, or the label and its error text."""
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
        lines.append(f"Selmer growth bound: dim S_p(E/F) >= {sb.bound}" if sb.applicable else
                     "Selmer growth bound: not applicable (" + "; ".join(sb.reasons) + ")")
    if rep.failure:
        lines.append("FAILURE: parity mismatch at a determined row "
                     "(implementation bug, not arithmetic)")
    return "\n".join(lines) + "\n"
