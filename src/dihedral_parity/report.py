"""Reports as text: the schema-1 dict of a ``ParityReport``, its indent-2
JSON and its text table.  The inverse, ``cli.report_from_dict``, rebuilds
the tower with the config parser.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .parity import SCHEMA_VERSION, ParityReport
from .tower import TowerSpec


def tower_to_dict(T: TowerSpec) -> dict:
    """A tower as ``d, p, n, ramified_sites, overrides``, each override field
    suffixed ``_override``."""
    return {
        "d": T.K.d,
        "p": T.p,
        "n": T.n,
        "ramified_sites": [dict(vars(s))
                           for s in sorted(T.ramified_sites,
                                           key=lambda s: (s.ell, s.which))],
        "overrides": {
            str(ell): {f"{name}_override": value for name, value in vars(o).items()}
            for ell, o in sorted(T.overrides.items())
        },
    }


def report_to_dict(rep: ParityReport) -> dict:
    """Schema 1: each record is written as a copy of its dataclass fields, in
    field order, so renaming or reordering a field changes the schema.  The
    output shares no mutable object with the report."""
    sb = rep.selmer_bound
    return {
        "schema_version": SCHEMA_VERSION,
        "curve": list(rep.curve.ainvs()),
        "tower": tower_to_dict(rep.tower),
        "rows": [{**vars(r),
                  "gamma": None if r.gamma is None else dict(vars(r.gamma)),
                  "deltas": [{"site": dict(vars(s)), **vars(v)} for s, v in r.deltas]}
                 for r in rep.rows],
        "S": [dict(vars(s)) for s in rep.S],
        "mr64_sum": rep.mr64_sum,
        "S_frak": [dict(vars(s)) for s in rep.S_frak],
        "S_m": [dict(vars(s)) for s in rep.S_m],
        "hypothesis_audit": [{**vars(a), "site": dict(vars(a.site))}
                             for a in rep.hypothesis_audit],
        "selmer_bound": (None if sb is None
                         else {**vars(sb), "reasons": list(sb.reasons)}),
        "relative_parity": (None if rep.relative_parity is None
                            else dict(rep.relative_parity)),
        "failure": rep.failure,
        "has_undetermined": rep.has_undetermined,
        "notes": list(rep.notes),
    }


# The text of a JSON scalar, keyed on its exact type: a subclass (an IntEnum,
# a str subclass) is not guessed at, and a float is not a value of schema 1.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): "null".format,
}


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
        text = _SCALAR_TEXT.get(kind)
        if text is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        out.append(text(obj))


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
