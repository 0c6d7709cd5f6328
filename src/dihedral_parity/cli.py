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
from typing import Any, Optional, Union

from . import report
from .curves import SingularCurveError, WeierstrassCurve
from .localarith import is_prime
from .parity import BOUND_TOO_LONG, MAX_BOUND_DIGITS, ParityReport, analyze, bound_too_long
from .report import report_to_dict  # not called here: bench/tracing.py times cli.report_to_dict
from .tower import FIRST, INERT, RAMIFIED, SECOND, SPLIT, PrimeSite, QuadraticFieldSpec
from .tower import SiteOverrides, TowerSpec, split_type

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAILURE = 3
EXIT_STRICT_UNDETERMINED = 4

CSV_HEADER = ["label", "a1", "a2", "a3", "a4", "a6"]

# the fields a config, a site entry and an override may hold: any other is refused
_CONFIG_KEYS = ("curve", "curve_file", "d", "p", "n", "ramified_sites", "overrides", "dim_Sp_E_K")
_OVERRIDE_KEYS = tuple(f"{name}_override" for name in SiteOverrides._fields)

_INTEGER = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")  # the decimal strings int() reads


class ConfigError(Exception):
    """Structured config failure; each message is anchored to a field path."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# ---------------------------------------------------------------------------
# config parsing


def _is_int(x: Any) -> bool:
    """A JSON integer: true and false are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
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


def _unknown_fields(raw: dict, known: tuple, path: str, errors: list) -> bool:
    """Append an error naming each field of raw not in known; whether any was."""
    unknown = [f"{path}{key}: unknown field" for key in raw if key not in known]
    errors.extend(unknown)
    return bool(unknown)


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
        if _unknown_fields(val, _OVERRIDE_KEYS, f"overrides.{key}.", errors):
            continue
        try:
            out[ell] = SiteOverrides(*map(val.get, _OVERRIDE_KEYS))
        except ValueError as exc:  # "<field>: <expectation>", named here by its key
            errors.append(f"overrides.{key}." + str(exc).replace(": ", "_override: ", 1))
    return out


def parse_tower(raw: dict, errors: list) -> Optional[TowerSpec]:
    """The tower of a config, or None with every error appended: a malformed
    field skips only the checks that need it."""
    errors += [f"{key}: required integer field" for key in ("d", "p", "n")
               if not _is_int(raw.get(key))]
    sites_raw = raw.get("ramified_sites")
    if not isinstance(sites_raw, list):
        errors.append("ramified_sites: required list of {ell, which?}")
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
        if _unknown_fields(entry, PrimeSite._fields, f"ramified_sites[{i}].", errors):
            continue
        ell, declared, which = entry["ell"], entry.get("split_type"), entry.get("which")
        if not is_prime(ell):
            errors.append(f"ramified_sites[{i}].ell: {ell} is not prime")
            continue
        if declared not in (None, SPLIT, INERT, RAMIFIED):
            errors.append(f"ramified_sites[{i}].split_type: "
                          'expected "split", "inert" or "ramified"')
            continue
        if which not in (None, FIRST, SECOND):
            errors.append(f"ramified_sites[{i}].which: expected \"first\" or \"second\"")
            continue
        if K is None:
            continue
        st = declared or split_type(ell, K)  # validate_tower checks a declared one
        try:  # no which names both sites of a split prime
            sites += [PrimeSite(ell, st, w) for w in
                      ((FIRST, SECOND) if st == SPLIT and which is None else (which,))]
        except ValueError:  # which is given exactly for a split site
            errors.append(f"ramified_sites[{i}]: no site {which!r} above {ell} (prime is "
                          + (f"declared {st})" if declared else f"{st} in K)"))
    overrides = _parse_overrides(raw.get("overrides"), errors)
    if errors:
        return None
    return TowerSpec(K=K, p=raw["p"], n=raw["n"],
                     ramified_sites=frozenset(sites), overrides=overrides)


def parse_config(raw: dict, *, need_curve: bool = True):
    """Return (curve, tower, dim_Sp_E_K) or raise ConfigError."""
    errors: list[str] = []
    _unknown_fields(raw, _CONFIG_KEYS, "", errors)
    curve = None
    if need_curve or "curve" in raw:
        curve = parse_curve(raw.get("curve"), raw.get("curve_file"), errors)
    tower = parse_tower(raw, errors)
    dim = raw.get("dim_Sp_E_K")
    if dim is not None and not (_is_int(dim) and dim >= 0):
        errors.append("dim_Sp_E_K: expected a nonnegative integer")
    elif dim is not None and tower is not None and bound_too_long(tower.p, tower.n, dim):
        errors.append(f"n: {BOUND_TOO_LONG}")
    if errors:
        raise ConfigError(errors)
    return curve, tower, dim


# ---------------------------------------------------------------------------
# curve CSV


def read_curve_csv(path: str):
    """Return (rows, errors): rows are (label, curve), errors are per-line
    messages.  Raises ConfigError only on file-level problems."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
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


def _exit_code(failure: bool, undetermined: bool, strict: bool) -> int:
    return (EXIT_FAILURE if failure
            else EXIT_STRICT_UNDETERMINED if strict and undetermined else EXIT_OK)


def run_analyze(config_path: str, *, fmt: str = "json", strict: bool = False,
                quiet: bool = False) -> int:
    try:
        E, T, dim = parse_config(load_config(config_path))
    except ConfigError as exc:
        _emit("\n".join(exc.messages) + "\n", quiet)
        return EXIT_INVALID
    if T.violations:
        _emit("".join(f"{v}\n" for v in T.violations), quiet)
        return EXIT_INVALID
    try:
        rep = analyze(E, T, dim_Sp_E_K=dim)
    except ValueError as exc:
        _emit(f"error: {exc}\n", quiet)
        return EXIT_INVALID
    if not quiet:
        sys.stdout.write(report.report_json(rep) + "\n" if fmt == "json"
                         else report.render_text(rep))
    return _exit_code(rep.failure, rep.has_undetermined, strict)


def run_validate(config_path: str, *, fmt: str = "json",
                 quiet: bool = False) -> int:
    try:
        _, T, _ = parse_config(load_config(config_path), need_curve=False)
    except ConfigError as exc:
        _emit("\n".join(exc.messages) + "\n", quiet)
        return EXIT_INVALID
    violations = T.violations
    if not quiet:
        sys.stdout.write(report.validation_json(violations) + "\n" if fmt == "json"
                         else "".join(f"{v}\n" for v in violations) or "valid\n")
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

    Each row's report is written by ``report.batch_entry`` as soon as it is
    analyzed, and only the summary counts are kept across rows; the JSON is
    the bytes of ``json.dumps`` of the whole document with ``indent=2``.
    ``jobs`` is accepted for compatibility and ignored: the analysis is
    CPU-bound pure Python, so worker threads gave no speed-up.
    """
    try:
        _, T, dim = parse_config(load_config(config_path), need_curve=False)
        rows, row_errors = read_curve_csv(curves_path)
    except ConfigError as exc:
        _emit("\n".join(exc.messages) + "\n", quiet)
        return EXIT_INVALID
    if T.violations:
        _emit("".join(f"{v}\n" for v in T.violations), quiet)
        return EXIT_INVALID
    as_json, write = fmt == "json", sys.stdout.write
    errors = list(row_errors)
    summary = dict.fromkeys(("curves", "row_errors", "failures", "undetermined", "clean"), 0)
    if as_json and not quiet:
        write(report.batch_head(T))
    for i, (label, E) in enumerate(rows):
        rep = _analyze_one(E, T, dim)
        if isinstance(rep, str):
            errors.append(f"{label}: {rep}")
        else:
            failure, undetermined = rep.failure, rep.has_undetermined
            summary["failures"] += failure
            summary["undetermined"] += undetermined
            summary["clean"] += not (failure or undetermined)
        if quiet:
            continue
        if as_json:
            write(report.batch_entry(i, label, rep))
        else:
            write(f"== {label}: ERROR {rep}\n" if isinstance(rep, str)
                  else f"== {label}\n" + report.render_text(rep))
    summary["curves"], summary["row_errors"] = len(rows), len(errors)
    if not quiet and as_json:
        write(report.batch_tail(len(rows), errors, summary) + "\n")
    elif not quiet:  # the CSV row errors: an analysis error was written with its row
        write("".join(f"error: {e}\n" for e in row_errors)
              + "summary: " + json.dumps(summary) + "\n")
    return _exit_code(summary["failures"], summary["undetermined"], strict)


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
