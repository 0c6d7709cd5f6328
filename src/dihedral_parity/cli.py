"""Command-line interface: ``analyze``, ``batch``, ``validate``.

Configs and reports are JSON; curve lists are CSV with header
``label,a1,a2,a3,a4,a6``.  Exit codes: 0 success (Undetermined rows allowed),
2 validation, config or analysis-input failure, 3 internal Mismatch FAILURE,
4 Undetermined present under ``--strict``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Optional, Union

from .curves import DEFECTS, KV_REDUCTIONS, SingularCurveError, WeierstrassCurve
from .localarith import is_prime
from .parity import (
    SCHEMA_VERSION,
    ParityReport,
    ParityRow,
    SelmerBound,
    SiteAudit,
    analyze,
)
from .tower import (
    PrimeSite,
    QuadraticFieldSpec,
    SiteOverrides,
    TowerSpec,
    sites_above,
    validate_tower,
)
from .verdicts import ConstantVerdict, DeltaVerdict

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAILURE = 3
EXIT_STRICT_UNDETERMINED = 4

CSV_HEADER = ["label", "a1", "a2", "a3", "a4", "a6"]

MAX_BOUND_DIGITS = 4300  # the most digits Python prints or reads of an int by default
_INTEGER = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")  # the decimal strings int() reads


class ConfigError(Exception):
    """Structured config failure; each message is anchored to a field path."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# ---------------------------------------------------------------------------
# config parsing


def _require(cond: bool, errors: list, msg: str) -> bool:
    if not cond:
        errors.append(msg)
    return cond


def _is_int(x: Any) -> bool:
    """A JSON integer: true and false are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]) from exc
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or too long an int
        raise ConfigError([f"{path}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top-level value must be a JSON object"])
    return raw


def _resolve_label(label: str, curve_file: Optional[str], errors: list):
    if not curve_file:
        errors.append("curve: label given but no curve_file to resolve it against")
        return None
    try:
        rows, row_errors = read_curve_csv(curve_file)
    except ConfigError as exc:
        errors.extend(exc.messages)
        return None
    for name, curve in rows:
        if name == label:
            return curve
    errors.append(f"curve: label {label!r} not found in {curve_file}")
    errors.extend(row_errors)
    return None


def parse_curve(raw: Any, curve_file: Optional[str], errors: list):
    if isinstance(raw, str):
        return _resolve_label(raw, curve_file, errors)
    if (isinstance(raw, list) and len(raw) == 5
            and all(_is_int(a) for a in raw)):
        try:
            return WeierstrassCurve(*raw)
        except SingularCurveError:
            errors.append("curve: discriminant is zero (singular model)")
            return None
    errors.append("curve: expected [a1,a2,a3,a4,a6] (five integers) or a label string")
    return None


def _parse_overrides(raw: Any, errors: list) -> dict[int, SiteOverrides]:
    out: dict[int, SiteOverrides] = {}
    if raw is None:
        return out
    if not isinstance(raw, dict):
        errors.append("overrides: expected an object keyed by prime")
        return out
    for key, val in raw.items():
        try:
            ell = int(key)
        except ValueError:
            errors.append(f"overrides.{key}: key must be a prime (integer)")
            continue
        if str(ell) != key:  # "011", "1_1", " 11", "+11" would all name 11
            errors.append(f"overrides.{key}: key must be a prime in plain decimal "
                          f"({str(ell)!r}, not {key!r})")
            continue
        if not is_prime(ell):
            errors.append(f"overrides.{key}: key must be a prime")
            continue
        if not isinstance(val, dict):
            errors.append(f"overrides.{key}: expected an object")
            continue
        defect = val.get("defect_override")
        if defect is not None and not any(type(defect) is type(e) and defect == e
                                          for e in DEFECTS):
            errors.append(f"overrides.{key}.defect_override: expected "
                          + "|".join(json.dumps(e) for e in DEFECTS))
            continue
        anomalous = val.get("anomalous_override")
        if anomalous is not None and not isinstance(anomalous, bool):
            errors.append(f"overrides.{key}.anomalous_override: expected boolean")
            continue
        red = val.get("reduction_over_Kv_override")
        if red is not None and red not in KV_REDUCTIONS:
            errors.append(f"overrides.{key}.reduction_over_Kv_override: "
                          f"unknown value {red!r}")
            continue
        out[ell] = SiteOverrides(defect=defect, anomalous=anomalous,
                                 reduction_over_Kv=red)
    return out


def parse_tower(raw: dict, errors: list) -> Optional[TowerSpec]:
    """The tower of a config, or None with every error appended: a malformed
    field skips only the checks that need it."""
    for key in ("d", "p", "n"):
        _require(_is_int(raw.get(key)), errors, f"{key}: required integer field")
    sites_raw = raw.get("ramified_sites")
    if not _require(isinstance(sites_raw, list), errors,
                    "ramified_sites: required list of {ell, which?}"):
        sites_raw = []
    K = None  # the checks that need a valid d are skipped without one
    if _is_int(raw.get("d")):
        K = QuadraticFieldSpec(raw["d"])
        try:
            K.is_valid()  # factors d; validate_tower reports a bad one
        except ValueError as exc:
            errors.append(f"d: {exc}")
    sites = []
    for i, entry in enumerate(sites_raw):
        if not (isinstance(entry, dict) and _is_int(entry.get("ell"))):
            errors.append(f"ramified_sites[{i}]: expected "
                          '{"ell": prime, "which": "first"|"second"?}')
            continue
        ell = entry["ell"]
        if not is_prime(ell):
            errors.append(f"ramified_sites[{i}].ell: {ell} is not prime")
            continue
        which = entry.get("which")
        if which not in (None, "first", "second"):
            errors.append(f"ramified_sites[{i}].which: expected \"first\" or \"second\"")
            continue
        if K is None:
            continue
        above = sites_above(ell, K)
        if which is None:
            sites.extend(above)
        else:
            matches = [s for s in above if s.which == which]
            if not matches:
                errors.append(f"ramified_sites[{i}]: no site {which!r} above {ell} "
                              f"(prime is {above[0].split_type} in K)")
                continue
            sites.extend(matches)
    overrides = _parse_overrides(raw.get("overrides"), errors)
    if errors:
        return None
    return TowerSpec(K=K, p=raw["p"], n=raw["n"],
                     ramified_sites=frozenset(sites), overrides=overrides)


def parse_config(raw: dict, *, need_curve: bool = True):
    """Return (curve, tower, dim_Sp_E_K) or raise ConfigError."""
    errors: list[str] = []
    curve = None
    if need_curve or "curve" in raw:
        curve = parse_curve(raw.get("curve"), raw.get("curve_file"), errors)
    tower = parse_tower(raw, errors)
    dim = raw.get("dim_Sp_E_K")
    if dim is not None and not (_is_int(dim) and dim >= 0):
        errors.append("dim_Sp_E_K: expected a nonnegative integer")
    elif dim is not None and tower is not None and tower.p > 1 and tower.n > 0 and (
            # p^n >= 2^((bits of p - 1) n) and 2^(10/3) > 10, so n may decide
            # without taking p^n; validate_tower rejects a smaller p or n
            3 * (tower.p.bit_length() - 1) * tower.n > 10 * MAX_BOUND_DIGITS
            or dim + tower.p ** tower.n > 10 ** MAX_BOUND_DIGITS):
        errors.append(f"n: the Selmer bound dim_Sp_E_K + p^n - 1 has more than "
                      f"{MAX_BOUND_DIGITS} digits")
    if errors:
        raise ConfigError(errors)
    return curve, tower, dim


# ---------------------------------------------------------------------------
# report serialization


def _tower_to_dict(T: TowerSpec) -> dict:
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
        "tower": _tower_to_dict(rep.tower),
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


def report_from_dict(d: dict) -> ParityReport:
    """Inverse of report_to_dict: each record is rebuilt from its fields, and
    the tower, which is a valid config, by parse_tower."""
    errors: list[str] = []
    T = parse_tower(d["tower"], errors)
    if errors:
        raise ValueError("; ".join(errors))
    sb, rel = d["selmer_bound"], d["relative_parity"]
    rows = [ParityRow(**{
        **r,
        "gamma": None if r["gamma"] is None else ConstantVerdict(**r["gamma"]),
        "deltas": tuple((PrimeSite(**e["site"]),
                         DeltaVerdict(**{k: v for k, v in e.items() if k != "site"}))
                        for e in r["deltas"])})
        for r in d["rows"]]
    return ParityReport(
        curve=WeierstrassCurve(*d["curve"]),
        tower=T,
        rows=rows,
        S=[PrimeSite(**s) for s in d["S"]],
        mr64_sum=d["mr64_sum"],
        S_frak=[PrimeSite(**s) for s in d["S_frak"]],
        S_m=[PrimeSite(**s) for s in d["S_m"]],
        hypothesis_audit=[SiteAudit(**{**a, "site": PrimeSite(**a["site"])})
                          for a in d["hypothesis_audit"]],
        selmer_bound=None if sb is None else SelmerBound(
            **{**sb, "reasons": tuple(sb["reasons"])}),
        relative_parity=None if rel is None else dict(rel),
        notes=list(d["notes"]),
    )


# The text of a JSON scalar, keyed on its exact type: a subclass (an IntEnum,
# a str subclass) is not guessed at, and a float is not a value of schema 1.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): "null".format,
}


def to_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with string
    keys, lists, tuples, strings, ints, booleans and None; any other type
    raises TypeError.  With ``indent`` set, ``json.dumps`` runs its
    pure-Python encoder; this writer appends one string per item instead."""
    out: list[str] = []
    _write_json(obj, "\n", out)
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


# ---------------------------------------------------------------------------
# curve CSV


def read_curve_csv(path: str):
    """Return (rows, errors): rows are (label, curve), errors are per-line
    messages.  Raises ConfigError only on file-level problems."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigError([f"{path}: empty file"]) from None
            if [h.strip() for h in header] != CSV_HEADER:
                raise ConfigError(
                    [f"{path}:1: expected header {','.join(CSV_HEADER)}"])
            rows, errors = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 6:
                    errors.append(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
                    continue
                label = row[0].strip()
                try:
                    coeffs = [int(c) for c in row[1:]]
                except ValueError:  # a malformed field, or more digits than int() reads
                    errors.append(f"{path}:{lineno}: " + (
                        f"coefficient has more than {MAX_BOUND_DIGITS} digits"
                        if all(map(_INTEGER.fullmatch, row[1:])) else "non-integer coefficient"))
                    continue
                try:
                    rows.append((label, WeierstrassCurve(*coeffs)))
                except SingularCurveError:
                    errors.append(f"{path}:{lineno}: singular model "
                                  f"(discriminant zero)")
            return rows, errors
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


# ---------------------------------------------------------------------------
# commands


def _emit(text: str, quiet: bool) -> None:
    if not quiet:
        sys.stdout.write(text)


def run_analyze(config_path: str, *, fmt: str = "json", strict: bool = False,
                quiet: bool = False) -> int:
    try:
        raw = load_config(config_path)
        E, T, dim = parse_config(raw)
    except ConfigError as exc:
        _emit("\n".join(exc.messages) + "\n", quiet)
        return EXIT_INVALID
    violations = validate_tower(T)
    if violations:
        _emit("".join(f"{v}\n" for v in violations), quiet)
        return EXIT_INVALID
    try:
        rep = analyze(E, T, dim_Sp_E_K=dim)
    except ValueError as exc:
        _emit(f"error: {exc}\n", quiet)
        return EXIT_INVALID
    if not quiet:
        d = report_to_dict(rep)
        sys.stdout.write(to_json(d) + "\n" if fmt == "json" else render_text(d))
    if rep.failure:
        return EXIT_FAILURE
    if strict and rep.has_undetermined:
        return EXIT_STRICT_UNDETERMINED
    return EXIT_OK


def run_validate(config_path: str, *, fmt: str = "json",
                 quiet: bool = False) -> int:
    try:
        raw = load_config(config_path)
        _, T, _ = parse_config(raw, need_curve=False)
    except ConfigError as exc:
        _emit("\n".join(exc.messages) + "\n", quiet)
        return EXIT_INVALID
    violations = validate_tower(T)
    if not quiet:
        if fmt == "json":
            sys.stdout.write(to_json({
                "schema_version": SCHEMA_VERSION,
                "valid": not violations,
                "violations": [dict(vars(v)) for v in violations],
            }) + "\n")
        else:
            sys.stdout.write("".join(f"{v}\n" for v in violations) or "valid\n")
    return EXIT_INVALID if violations else EXIT_OK


def _analyze_one(E: WeierstrassCurve, T: TowerSpec,
                 dim: Optional[int]) -> Union[ParityReport, str]:
    """The report of one row, or the text of its error."""
    try:
        return analyze(E, T, dim_Sp_E_K=dim)
    except Exception as exc:  # per-row isolation: batch must keep going
        return f"{type(exc).__name__}: {exc}"


def run_batch(curves_path: str, config_path: str, *, fmt: str = "json",
              strict: bool = False, quiet: bool = False, jobs: int = 1) -> int:
    """Analyze every curve of the CSV in one tower, in input order.

    ``jobs`` is accepted for compatibility and ignored: the analysis is
    CPU-bound pure Python, so worker threads gave no speed-up.
    """
    try:
        raw = load_config(config_path)
        _, T, dim = parse_config(raw, need_curve=False)
        rows, row_errors = read_curve_csv(curves_path)
    except ConfigError as exc:
        _emit("\n".join(exc.messages) + "\n", quiet)
        return EXIT_INVALID
    violations = validate_tower(T)
    if violations:
        _emit("".join(f"{v}\n" for v in violations), quiet)
        return EXIT_INVALID
    results = [(label, _analyze_one(E, T, dim)) for label, E in rows]
    reports = [r for _, r in results if isinstance(r, ParityReport)]
    errors = row_errors + [f"{label}: {r}" for label, r in results if isinstance(r, str)]
    summary = {
        "curves": len(rows),
        "row_errors": len(errors),
        "failures": sum(r.failure for r in reports),
        "undetermined": sum(r.has_undetermined for r in reports),
        "clean": sum(not (r.failure or r.has_undetermined) for r in reports),
    }
    if not quiet:
        if fmt == "json":
            sys.stdout.write(to_json({
                "schema_version": SCHEMA_VERSION,
                "tower": _tower_to_dict(T),
                "reports": [{"label": label, "error": r} if isinstance(r, str)
                            else {**report_to_dict(r), "label": label}
                            for label, r in results],
                "errors": errors,
                "summary": summary,
            }) + "\n")
        else:
            out = []
            for label, r in results:
                if isinstance(r, str):
                    out.append(f"== {label}: ERROR {r}\n")
                else:
                    out.append(f"== {label}\n" + render_text(report_to_dict(r)))
            out.append("summary: " + json.dumps(summary) + "\n")
            sys.stdout.write("".join(out))
    if summary["failures"]:
        return EXIT_FAILURE
    if strict and summary["undetermined"]:
        return EXIT_STRICT_UNDETERMINED
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--quiet", action="store_true",
                    help="suppress output (exit code only)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main() call can reuse it."""
    parser = argparse.ArgumentParser(
        prog="dihedral-parity",
        description="Analytic/arithmetic local parity constants for elliptic "
                    "curves in dihedral towers.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one (curve, tower) config")
    pa.add_argument("config", help="JSON config file")
    pa.add_argument("--strict", action="store_true",
                    help="exit 4 if any row is Undetermined")
    _add_common(pa)

    pb = sub.add_parser("batch", help="analyze a CSV of curves in one tower")
    pb.add_argument("curves", help="CSV file: label,a1,a2,a3,a4,a6")
    pb.add_argument("config", help="JSON tower config file")
    pb.add_argument("--strict", action="store_true")
    pb.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility and ignored: rows always "
                         "run one at a time, in input order")
    _add_common(pb)

    pv = sub.add_parser("validate", help="validate a tower config")
    pv.add_argument("config", help="JSON config file")
    _add_common(pv)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return run_analyze(args.config, fmt=args.format, strict=args.strict,
                           quiet=args.quiet)
    if args.command == "batch":
        return run_batch(args.curves, args.config, fmt=args.format,
                         strict=args.strict, quiet=args.quiet, jobs=args.jobs)
    return run_validate(args.config, fmt=args.format, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
