import copy
import gc
import importlib
import json
import pkgutil
import random
import resource
import sys
import weakref
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dihedral_parity
import oracles
from conftest import run_isolated, write_json
from dihedral_parity import cli, localarith, parity, tower
from dihedral_parity import delta as DELTA_MODULE, gamma as GAMMA_MODULE
from dihedral_parity.curves import DEFECTS, KV_REDUCTIONS, SingularCurveError, WeierstrassCurve
from dihedral_parity.cli import (
    ConfigError,
    EXIT_FAILURE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_STRICT_UNDETERMINED,
    build_parser,
    main,
    parse_config,
    parse_tower,
    report_to_dict,
    run_analyze,
    run_batch,
    run_validate,
)
from dihedral_parity.parity import (
    ARCHIMEDEAN_ROW,
    BLANKET_ROW,
    ParityReport,
    ParityRow,
    SelmerBound,
    SiteAudit,
    analyze,
)
from dihedral_parity.report import report_json, tower_json
from dihedral_parity.tower import PrimeSite, QuadraticFieldSpec, SiteOverrides, TowerSpec
from dihedral_parity.verdicts import ConstantVerdict, DeltaVerdict
from corpus import (CURVES, PARITY_CORPUS, SMALL_CURVES, SMALL_TOWERS, TWIST_11A1_7,
                    VALID_TOWERS, make_tower)

CSV_HEADER = "label,a1,a2,a3,a4,a6\n"


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


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_analyze_flagship_json(flagship_config, capsys):
    code, out = run_cli(capsys, ["analyze", str(flagship_config)])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["schema_version"] == 1
    row11 = next(r for r in report["rows"] if r["place"] == 11)
    assert row11["gamma"]["value"] == 1
    assert row11["delta_sum"] == 1
    assert row11["status"] == "Match"
    assert report["selmer_bound"]["bound"] == 4
    for row in report["rows"]:
        if row["gamma"] is not None:
            assert row["gamma"]["citation"]
        for entry in row["deltas"]:
            assert entry["citation"]


def test_analyze_text_format(flagship_config, capsys):
    code, out = run_cli(capsys, ["analyze", str(flagship_config),
                                 "--format", "text"])
    assert code == EXIT_OK
    assert "Match" in out and "Selmer growth bound" in out


def test_analyze_quiet(flagship_config, capsys):
    code, out = run_cli(capsys, ["analyze", str(flagship_config), "--quiet"])
    assert code == EXIT_OK and out == ""


def test_parser_is_built_once_and_parses_each_call_afresh(flagship_config, capsys):
    assert build_parser() is build_parser()
    code, out = run_cli(capsys, ["analyze", str(flagship_config), "--format", "text",
                                 "--strict"])
    assert code == EXIT_OK and "Selmer growth bound" in out
    # nothing of the first call's options carries over to the second
    code, out = run_cli(capsys, ["analyze", str(flagship_config)])
    assert code == EXIT_OK and json.loads(out)["schema_version"] == 1
    assert run_cli(capsys, ["validate", str(flagship_config), "--format", "text"]) \
        == (EXIT_OK, "valid\n")
    with pytest.raises(SystemExit):
        main(["analyze"])
    assert run_cli(capsys, ["validate", str(flagship_config), "--quiet"])[1] == ""


def test_analyze_rejects_p_3(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, -1, 1, -10, -20], "d": -1, "p": 3, "n": 1,
        "ramified_sites": [{"ell": 11}]})
    code, out = run_cli(capsys, ["analyze", str(cfg)])
    assert code == EXIT_INVALID
    assert "p > 3" in out


def test_analyze_without_dim_omits_bound(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, -1, 1, -10, -20], "d": -1, "p": 5, "n": 1,
        "ramified_sites": [{"ell": 11}]})
    code, out = run_cli(capsys, ["analyze", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out)["selmer_bound"] is None


def test_analyze_malformed_json_line_anchored(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "curve": [0,\n', encoding="utf-8")
    code, out = run_cli(capsys, ["analyze", str(path)])
    assert code == EXIT_INVALID
    assert "broken.json:" in out  # line:column anchor


def test_analyze_strict_undetermined(tmp_path, capsys):
    # x^3 + 1 with v_3 ramified: unknown defect at 3 -> Undetermined
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, 0, 0, 0, 1], "d": -1, "p": 5, "n": 1,
        "ramified_sites": [{"ell": 3}]})
    assert run_analyze(str(cfg), quiet=True) == EXIT_OK
    assert run_analyze(str(cfg), strict=True, quiet=True) == \
        EXIT_STRICT_UNDETERMINED
    _, out = run_cli(capsys, ["analyze", str(cfg), "--strict"])
    assert json.loads(out)["has_undetermined"]


def test_analyze_label_resolution(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text(CSV_HEADER + "11a1,0,-1,1,-10,-20\n", encoding="utf-8")
    cfg = write_json(tmp_path / "c.json", {
        "curve": "11a1", "curve_file": str(curves), "d": -1, "p": 5, "n": 1,
        "ramified_sites": [{"ell": 11}]})
    code, out = run_cli(capsys, ["analyze", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out)["curve"] == [0, -1, 1, -10, -20]


def test_overrides_parsed(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, 0, 0, 0, 1], "d": -1, "p": 5, "n": 1,
        "ramified_sites": [{"ell": 3}],
        "overrides": {"3": {"defect_override": 2}}})
    code, out = run_cli(capsys, ["analyze", str(cfg)])
    assert code == EXIT_OK
    report = json.loads(out)
    assert not report["has_undetermined"]
    assert report["tower"]["overrides"]["3"]["defect_override"] == 2
    bad = write_json(tmp_path / "bad.json", {
        "curve": [0, 0, 0, 0, 1], "d": -1, "p": 5, "n": 1,
        "ramified_sites": [{"ell": 3}],
        "overrides": {"3": {"reduction_over_Kv_override": "bogus"}}})
    code, out = run_cli(capsys, ["analyze", str(bad)])
    assert code == EXIT_INVALID
    assert out == ("overrides.3.reduction_over_Kv_override: "
                   "unknown value 'bogus'\n")


# p = 10**12 + 39 is prime and 3 mod 4, so inert in Q(i), and lies beyond the
# point-counting bound that delta at p needs
OVER_BOUND_P = 10**12 + 39


def test_analyze_error_is_one_line(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, 0, 0, 1, 0], "d": -1, "p": OVER_BOUND_P, "n": 1,
        "ramified_sites": [{"ell": OVER_BOUND_P}]})
    code, out = run_cli(capsys, ["analyze", str(cfg)])
    assert code == EXIT_INVALID
    assert out == "error: ell = 1000000000039 exceeds the counting bound 1000000000000\n"


def test_analyze_counts_points_at_the_old_bound(tmp_path, capsys):
    # p = 100003 lay beyond the old counting bound of 100000: x^3 + x is good
    # supersingular there (100003 = 3 mod 4), and 100003 is inert in Q(i)
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, 0, 0, 1, 0], "d": -1, "p": 100003, "n": 1,
        "ramified_sites": [{"ell": 100003}]})
    code, out = run_cli(capsys, ["analyze", str(cfg)])
    assert code == EXIT_OK
    row = next(r for r in json.loads(out)["rows"] if r["place"] == 100003)
    assert row["deltas"][0]["case_tag"] == "GoodSupersingularMR57"


FLAGSHIP_TOWER = {"d": -1, "p": 5, "n": 1, "ramified_sites": [{"ell": 11}]}


@pytest.mark.parametrize("fault", ["config-not-utf8", "config-long-int",
                                   "csv-not-utf8", "csv-long-field"])
@pytest.mark.parametrize("command", ["analyze", "validate", "batch"])
def test_unreadable_files_are_config_errors(tmp_path, capsys, command, fault):
    # analyze and validate reach the CSV through a curve label, batch directly
    curves, cfg = tmp_path / "curves.csv", tmp_path / "c.json"
    rows = CSV_HEADER.encode() + b"11a1,0,-1,1,-10,-20\n"
    curves.write_bytes({"csv-not-utf8": rows + b"\xff,0,0,0,0,1\n",
                        "csv-long-field": rows + b"x" * 200_000 + b",0,0,0,0,1\n",
                        }.get(fault, rows))
    raw = FLAGSHIP_TOWER if command == "batch" else {
        **FLAGSHIP_TOWER, "curve": "11a1", "curve_file": str(curves)}
    text = json.dumps(raw).encode()
    cfg.write_bytes({"config-not-utf8": b"\xff" + text,
                     "config-long-int": text.replace(b'"d": -1', b'"d": ' + b"1" * 5000),
                     }.get(fault, text))
    argv = [command, *([str(curves)] if command == "batch" else []), str(cfg)]
    code, out = run_cli(capsys, argv)
    bad = cfg if fault.startswith("config") else curves
    assert code == EXIT_INVALID
    assert out.startswith(f"{bad}: ") and out.count("\n") == 1, out


@pytest.mark.parametrize("command", ["analyze", "batch"])
def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path, capsys, command):
    # spreadsheet exports often begin a UTF-8 file with a byte-order mark: a
    # CSV and a config with one read as they do without it
    curves, cfg = tmp_path / "curves.csv", tmp_path / "c.json"
    raw = FLAGSHIP_TOWER if command == "batch" else {
        **FLAGSHIP_TOWER, "curve": "11a1", "curve_file": str(curves)}
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        curves.write_bytes(bom + (CSV_HEADER + "11a1,0,-1,1,-10,-20\n").encode())
        cfg.write_bytes(bom + json.dumps(raw).encode())
        code = run_batch(str(curves), str(cfg)) if command == "batch" else run_analyze(str(cfg))
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0][0] == EXIT_OK and outputs[1] == outputs[0]


SELMER_TOO_LONG = "n: the Selmer bound dim_Sp_E_K + p^n - 1 has more than 4300 digits\n"


@pytest.mark.parametrize("command", ["analyze", "validate", "batch"])
def test_a_selmer_bound_too_long_to_print_is_an_error_at_n(tmp_path, capsys, command):
    curves = tmp_path / "curves.csv"
    curves.write_text(CSV_HEADER + "11a1,0,-1,1,-10,-20\n", encoding="utf-8")

    def run(**fields):
        cfg = write_json(tmp_path / "c.json", {**FLAGSHIP_TOWER, **fields,
                                               "curve": [0, -1, 1, -10, -20]})
        argv = [command, *([str(curves)] if command == "batch" else []), str(cfg)]
        return run_cli(capsys, argv)

    # 5^6151 - 1 has 4300 digits and 5^6152 - 1 has 4301
    assert run(n=6152, dim_Sp_E_K=0) == (EXIT_INVALID, SELMER_TOO_LONG)
    assert run(n=10000, dim_Sp_E_K=0) == (EXIT_INVALID, SELMER_TOO_LONG)
    code, out = run(n=6151, dim_Sp_E_K=0)
    assert code == EXIT_OK
    if command == "analyze":
        assert json.loads(out)["selmer_bound"]["bound"] == 5 ** 6151 - 1
    # without dim_Sp_E_K no bound is printed, so n may be as large as it likes
    assert run(n=10000)[0] == EXIT_OK


def test_a_selmer_bound_too_long_to_print_is_rejected_at_once(tmp_path):
    # 5^(10^9) would take minutes and gigabytes: n alone must decide
    cfg = write_json(tmp_path / "c.json", {**FLAGSHIP_TOWER, "n": 10 ** 9, "dim_Sp_E_K": 0,
                                           "curve": [0, -1, 1, -10, -20]})
    proc = run_isolated(["-m", "dihedral_parity.cli", "analyze", str(cfg)], timeout=10)
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID, SELMER_TOO_LONG)


def test_analyze_refuses_a_selmer_bound_too_long_to_print_at_once():
    # the library refuses the bound a config cannot hold, from n alone
    code = "\n".join([
        "import time, dihedral_parity as dp",
        "K = dp.QuadraticFieldSpec(-1)",
        "T = dp.TowerSpec(K, 5, 10 ** 9, dp.sites_above(11, K))",
        "start = time.perf_counter()",
        "try:",
        "    dp.analyze(dp.WeierstrassCurve(0, -1, 1, -10, -20), T, dim_Sp_E_K=0)",
        "except ValueError as exc:",
        "    print(time.perf_counter() - start < 1, exc)"])
    proc = run_isolated(["-c", code], timeout=10)
    assert proc.stdout == "True " + SELMER_TOO_LONG[len("n: "):]


def test_the_digit_cap_follows_a_lower_interpreter_limit(tmp_path, monkeypatch):
    # 5^1500 has 1049 digits: printable by default, not under a limit of 640
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
    too_long = SELMER_TOO_LONG.replace("4300", "640")
    cfg = write_json(tmp_path / "c.json", {**FLAGSHIP_TOWER, "n": 1500, "dim_Sp_E_K": 0,
                                           "curve": [0, -1, 1, -10, -20]})
    curves = tmp_path / "big.csv"
    curves.write_text(CSV_HEADER + "big,0,0,0,0," + "1" * 700 + "\n", encoding="utf-8")
    code = "\n".join([
        "import sys, dihedral_parity as dp",
        "from dihedral_parity import cli",
        "print(cli.read_curve_csv(sys.argv[1])[1][0])",
        "K = dp.QuadraticFieldSpec(-1)",
        "T = dp.TowerSpec(K, 5, 1500, dp.sites_above(11, K))",
        "try:",
        "    dp.analyze(dp.WeierstrassCurve(0, -1, 1, -10, -20), T, dim_Sp_E_K=0)",
        "except ValueError as exc:",
        "    print(exc)",
        "sys.exit(cli.main(['analyze', sys.argv[2]]))"])
    proc = run_isolated(["-c", code, str(curves), str(cfg)])
    assert (proc.returncode, proc.stderr) == (EXIT_INVALID, "")
    assert proc.stdout == (f"{curves}:2: coefficient has more than 640 digits\n"
                           + too_long[len("n: "):] + too_long)


@pytest.mark.parametrize("limit, cap", [(640, 640), (4300, 4300), (10**5, 4300), (0, 4300),
                                        (None, 4300)])
def test_the_digit_cap_is_4300_or_a_lower_limit(monkeypatch, limit, cap):
    # 0 is no limit; Python before 3.10.7 has no sys.get_int_max_str_digits
    if limit is None:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    else:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    assert parity.max_digits() == cap


def test_analyze_gives_the_longest_selmer_bound_a_config_may_hold():
    E, T = CURVES["11a1"], make_tower(-1, 5, 6151, [11])
    assert analyze(E, T, dim_Sp_E_K=0).selmer_bound.bound == 5 ** 6151 - 1
    with pytest.raises(ValueError) as refused:
        analyze(E, T._replace(n=6152), dim_Sp_E_K=0)
    assert f"n: {refused.value}\n" == SELMER_TOO_LONG
    assert analyze(E, T._replace(n=6152)).selmer_bound is None  # no bound, no limit


# x^3 + 1 in Q(i), p = 5, ramified {3}: the row at 3 is Undetermined unless
# a defect is supplied, so a defect of true, read as 1, would make it Match.
X3P1_AT_3 = {"curve": [0, 0, 0, 0, 1], "d": -1, "p": 5, "n": 1,
             "ramified_sites": [{"ell": 3}]}
DEFECT_ERROR = 'overrides.3.defect_override: expected 1|2|3|4|6|"noncyclic"\n'


@pytest.mark.parametrize("field, value, message", [
    ("curve", [False, -1, True, -10, -20],
     "curve: expected [a1,a2,a3,a4,a6] (five integers) or a label string\n"),
    ("d", True, "d: required integer field\n"),
    ("p", True, "p: required integer field\n"),
    ("n", True, "n: required integer field\n"),
    ("ramified_sites", [{"ell": True}],
     'ramified_sites[0]: expected {"ell": prime, "which": "first"|"second"?}\n'),
    ("dim_Sp_E_K", True, "dim_Sp_E_K: expected a nonnegative integer\n"),
    ("dim_Sp_E_K", False, "dim_Sp_E_K: expected a nonnegative integer\n"),
    ("overrides", {"3": {"defect_override": True}}, DEFECT_ERROR),
    ("overrides", {"3": {"defect_override": 2.0}}, DEFECT_ERROR),
    ("overrides", {"3": {"defect_override": 5}}, DEFECT_ERROR),
], ids=["curve", "d", "p", "n", "ell", "dim-true", "dim-false", "defect-true",
        "defect-float", "defect-5"])
@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_booleans_and_floats_are_not_integers(tmp_path, capsys, command, field,
                                              value, message):
    cfg = write_json(tmp_path / "c.json", {**X3P1_AT_3, field: value})
    assert run_cli(capsys, [command, str(cfg)]) == (EXIT_INVALID, message)


# JSON scalars, with every value an override field holds and floats and
# booleans equal to some of them
OVERRIDE_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-8, max_value=8),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([*DEFECTS, *KV_REDUCTIONS, 1.0, 2.0, 6.0, "Good", ""]), st.text(max_size=8))


@settings(max_examples=100, deadline=None)
@given(OVERRIDE_VALUES)
def test_a_config_dim_is_refused_exactly_where_analyze_refuses_it(value):
    # one rule, parity.check_dim_Sp_E_K, which analyze raises and a config
    # names by its field
    try:
        analyze(CURVES["11a1"], make_tower(-1, 5, 1, [11]), dim_Sp_E_K=value)
    except (TypeError, ValueError) as exc:
        assert str(exc).startswith("dim_Sp_E_K ")
        with pytest.raises(ConfigError) as refused:
            parse_config({**X3P1_AT_3, "dim_Sp_E_K": value})
        assert refused.value.messages == ["dim_Sp_E_K: expected a nonnegative integer"]
    else:
        assert parse_config({**X3P1_AT_3, "dim_Sp_E_K": value})[2] == value


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SiteOverrides._fields), OVERRIDE_VALUES)
def test_a_config_override_is_refused_exactly_where_site_overrides_refuses_it(field, value):
    try:
        expected = SiteOverrides(**{field: value})
    except ValueError as exc:
        expected = exc
    raw = {**X3P1_AT_3, "overrides": {"3": {f"{field}_override": value}}}
    try:
        _, tower, _ = parse_config(raw)
    except ConfigError as exc:
        assert isinstance(expected, ValueError)
        name, _, expectation = str(expected).partition(": ")
        assert name == field
        assert exc.messages == [f"overrides.3.{field}_override: {expectation}"]
    else:
        assert isinstance(expected, SiteOverrides)
        assert list(tower.overrides) == [3]
        assert list(map(type, tower.overrides[3])) == list(map(type, expected))
        assert tower.overrides[3] == expected


# JSON scalars a site entry, an override key or a curve coefficient may
# hold: booleans, floats, digit strings, 0, negatives, composites and primes,
# one of them above 10**12
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-30, 30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([10**12 + 39, 10**12 + 41, 11.0, 2.0, "11", "", "bogus", "split",
                     "inert", "ramified", "first", "second"]))
ENTRY_SHAPE = 'ramified_sites[0]: expected {"ell": prime, "which": "first"|"second"?}'


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES, JSON_VALUES.filter(lambda v: v is not None), JSON_VALUES)
def test_a_config_site_is_refused_exactly_where_prime_site_refuses_it(ell, split_type, which):
    # the entry declares its split type, so K is not asked; with no which, a
    # split prime names both of its sites, and PrimeSite is asked of the first
    errors = []
    T = parse_tower({"d": -1, "p": 7, "n": 1, "ramified_sites": [
        {"ell": ell, "split_type": split_type, "which": which}]}, errors)
    try:
        expected = PrimeSite(ell, split_type, "first" if split_type == "split"
                             and which is None else which)
    except ValueError as exc:
        expected = str(exc)
    if isinstance(expected, PrimeSite):
        assert errors == [] and expected in T.ramified_sites
        assert {(s.ell, s.split_type) for s in T.ramified_sites} == {(ell, split_type)}
    elif type(ell) is not int:  # the JSON shape: ell is an integer
        assert errors == [ENTRY_SHAPE] and expected.startswith("ell: ")
    elif expected.partition(":")[0] in PrimeSite._fields:
        assert errors == [f"ramified_sites[0].{expected}"]
    else:  # which does not fit the declared split type
        assert errors == [f"ramified_sites[0]: no site {which!r} above {ell} "
                          f"(prime is declared {split_type})"]


def _refusal(build):
    """The message of the ValueError build() raises, or None if it builds."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES.filter(lambda v: not isinstance(v, str)))
def test_a_config_override_key_is_refused_exactly_where_check_override_refuses_it(key):
    # a config's key is the JSON text of key, so true, 11.0 and -3 are refused
    # as check_override refuses their values, and an int key by its message
    text, value = next(iter(json.loads(json.dumps({key: {}})))), SiteOverrides(defect=2)
    refusal = _refusal(lambda: tower.check_override(key, value))
    assert _refusal(lambda: TowerSpec(QuadraticFieldSpec(-1), 5, 1, (), {key: value})) == refusal
    try:
        _, T, _ = parse_config({**X3P1_AT_3, "overrides": {text: {"defect_override": 2}}})
    except ConfigError as exc:
        assert refusal is not None and len(exc.messages) == 1
        assert exc.messages == [refusal] or type(key) is not int
    else:
        assert refusal is None and T.overrides == {key: value}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(JSON_VALUES, st.integers(-3, 3)), min_size=5, max_size=5))
def test_a_config_curve_is_refused_exactly_where_weierstrass_curve_refuses_it(coefficients):
    errors = []
    curve = cli.parse_curve(coefficients, None, errors)
    try:
        expected = WeierstrassCurve(*coefficients)
    except SingularCurveError:
        assert errors == ["curve: discriminant is zero (singular model)"]
    except ValueError as exc:
        assert str(exc).partition(":")[0] in WeierstrassCurve._fields
        assert errors == ["curve: expected [a1,a2,a3,a4,a6] (five integers) "
                          "or a label string"]
    else:
        assert errors == [] and curve == expected
        assert list(map(type, curve)) == [int] * 5


OVERRIDE_ITEMS = st.dictionaries(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.builds(SiteOverrides, st.sampled_from([None, *DEFECTS]),
              st.sampled_from([None, False, True]), st.sampled_from([None, *KV_REDUCTIONS])),
    max_size=2)


@settings(max_examples=40, deadline=None)
@given(VALID_TOWERS, OVERRIDE_ITEMS, SMALL_CURVES, st.sampled_from([None, 0, 1]))
def test_a_valid_analysis_writes_a_curve_and_tower_the_cli_accepts(T, overrides, E, dim):
    T = T._replace(overrides=overrides)
    d = report_to_dict(analyze(E, T, dim))
    raw = {"curve": d["curve"], **d["tower"]}
    if dim is not None:
        raw["dim_Sp_E_K"] = dim
    curve, parsed, parsed_dim = parse_config(raw)
    assert (curve, parsed, parsed_dim) == (E, T, dim)
    assert parsed.overrides == T.overrides


def test_violation_without_citation_prints_no_brackets(tmp_path, capsys):
    cfg = write_json(tmp_path / "d4.json", {"d": 4, "p": 5, "n": 1,
                                            "ramified_sites": []})
    assert run_cli(capsys, ["validate", str(cfg), "--format", "text"]) == (
        EXIT_INVALID, "d_squarefree: d = 4 must be squarefree and not 0 or 1\n")
    assert json.loads(run_cli(capsys, ["validate", str(cfg)])[1])["violations"] == [
        {"code": "d_squarefree",
         "message": "d = 4 must be squarefree and not 0 or 1", "citation": ""}]
    tower = {"d": -1, "p": 7, "n": 1, "ramified_sites": [{"ell": 5, "which": "first"}]}
    line = "conjugation_closure: ramified site set not closed under conjugation at 5\n"
    cfg = write_json(tmp_path / "open.json", {**tower, "curve": [0, -1, 1, -10, -20]})
    assert run_cli(capsys, ["analyze", str(cfg)]) == (EXIT_INVALID, line)
    curves = tmp_path / "curves.csv"
    curves.write_text(CSV_HEADER + "11a1,0,-1,1,-10,-20\n", encoding="utf-8")
    assert run_cli(capsys, ["batch", str(curves), str(cfg)]) == (EXIT_INVALID, line)


def test_validate_ok_and_violations(flagship_config, tmp_path, capsys):
    assert run_validate(str(flagship_config), quiet=True) == EXIT_OK
    # ramified-in-K site not above p
    cfg = write_json(tmp_path / "bad.json", {
        "d": 11, "p": 5, "n": 1, "ramified_sites": [{"ell": 11}]})
    code, out = run_cli(capsys, ["validate", str(cfg)])
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert not payload["valid"]
    assert any("unramified" in v["citation"] for v in payload["violations"])
    # non-conjugation-closed set
    cfg2 = write_json(tmp_path / "bad2.json", {
        "d": -1, "p": 7, "n": 1,
        "ramified_sites": [{"ell": 5, "which": "first"}]})
    code2, out2 = run_cli(capsys, ["validate", str(cfg2)])
    assert code2 == EXIT_INVALID
    assert any(v["code"] == "conjugation_closure"
               for v in json.loads(out2)["violations"])


# A tower with overrides at two primes and a split site above p = 5 chosen
# by ``which``.
OVERRIDE_TOWER = make_tower(
    -1, 5, 1, [(5, "first"), (5, "second"), 11],
    overrides={2: SiteOverrides(defect=2),
               3: SiteOverrides(anomalous=False, reduction_over_Kv="additive")})

ROUND_TRIP_CASES = [
    pytest.param(E, make_tower(d, p, n, rams), dim, id=f"{label}-dim{dim}")
    for label, E, d, p, n, rams in PARITY_CORPUS for dim in (None, 1)
] + [
    pytest.param(CURVES["x3+1"], OVERRIDE_TOWER, 0, id="x3+1-overrides-dim0"),
]


@pytest.mark.parametrize("T", [
    pytest.param(make_tower(d, p, n, rams), id=label)
    for label, E, d, p, n, rams in PARITY_CORPUS
] + [pytest.param(OVERRIDE_TOWER, id="overrides")])
def test_a_report_tower_is_a_config(T):
    errors = []
    assert parse_tower(json.loads(tower_json(T)), errors) == T
    assert errors == []


def test_report_from_dict_rejects_an_invalid_tower():
    d = report_to_dict(analyze(CURVES["11a1"], OVERRIDE_TOWER))
    d["tower"]["overrides"]["4"] = d["tower"]["overrides"].pop("2")
    with pytest.raises(ValueError, match=r"^overrides\.4: key must be a prime$"):
        report_from_dict(d)


@pytest.mark.parametrize("E, T, dim", ROUND_TRIP_CASES)
def test_report_round_trip(E, T, dim):
    rep = analyze(E, T, dim_Sp_E_K=dim)
    d = report_to_dict(rep)
    assert report_from_dict(d) == rep
    assert report_from_dict(json.loads(json.dumps(d))) == rep


def _overwrite_every_level(x):
    """Replace every value and element of a decoded report, depth first."""
    if isinstance(x, dict):
        for key in x:
            _overwrite_every_level(x[key])
            x[key] = "overwritten"
    elif isinstance(x, list):
        for i, item in enumerate(x):
            _overwrite_every_level(item)
            x[i] = "overwritten"
        x.append("appended")


@pytest.mark.parametrize("E, T", [
    (CURVES["11a1"], OVERRIDE_TOWER),
    (TWIST_11A1_7, make_tower(-1, 5, 1, [7])),
], ids=["11a1-overrides", "tw11a1.7"])
def test_report_dict_shares_nothing_with_the_report(E, T):
    rep = analyze(E, T, dim_Sp_E_K=0)
    before = copy.deepcopy(rep)
    assert rep.notes and rep.relative_parity is not None
    d = report_to_dict(rep)
    _overwrite_every_level(d)
    assert rep == before
    # and the report read back from a dict does not hold that dict's parts
    d = report_to_dict(rep)
    back = report_from_dict(d)
    _overwrite_every_level(d)
    assert back == before


def test_report_key_order():
    rep = analyze(CURVES["11a1"], OVERRIDE_TOWER, dim_Sp_E_K=0)
    d = report_to_dict(rep)
    site_keys = ["ell", "split_type", "which"]
    assert list(d) == [
        "schema_version", "curve", "tower", "rows", "S", "mr64_sum", "S_frak",
        "S_m", "hypothesis_audit", "selmer_bound", "relative_parity", "failure",
        "has_undetermined", "notes"]
    assert list(d["tower"]) == ["d", "p", "n", "ramified_sites", "overrides"]
    assert list(d["tower"]["overrides"]) == ["2", "3"]
    for entry in d["tower"]["overrides"].values():
        assert list(entry) == ["defect_override", "anomalous_override",
                               "reduction_over_Kv_override"]
    sites = (d["tower"]["ramified_sites"] + d["S"] + d["S_frak"] + d["S_m"]
             + [e["site"] for r in d["rows"] for e in r["deltas"]]
             + [a["site"] for a in d["hypothesis_audit"]])
    assert {s["which"] for s in sites} == {None, "first", "second"}
    assert d["S_m"] and d["hypothesis_audit"]
    for s in sites:
        assert list(s) == site_keys
    for r in d["rows"]:
        assert list(r) == ["place", "gamma", "deltas", "delta_sum", "status", "note"]
        if r["gamma"] is not None:
            assert list(r["gamma"]) == ["value", "case_tag", "citation", "detail"]
        for e in r["deltas"]:
            assert list(e) == ["site", "value", "case_tag", "citation", "detail",
                               "pair_sum"]
    for a in d["hypothesis_audit"]:
        assert list(a) == ["site", "condition", "passes", "reason"]
    assert list(d["selmer_bound"]) == ["applicable", "bound", "dim_Sp_E_K",
                                       "s_m_size", "reasons"]
    assert list(d["relative_parity"]) == ["statement", "parity"]


BATCH_CSV = (CSV_HEADER
             + "11a1,0,-1,1,-10,-20\n"
             + "11a3,0,-1,1,0,0\n"
             + "19a1,0,1,1,-9,-15\n")


def test_batch_three_curves(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text(BATCH_CSV, encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", {
        "d": -1, "p": 5, "n": 1, "ramified_sites": [{"ell": 11}]})
    code, out = run_cli(capsys, ["batch", str(curves), str(cfg)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["reports"]) == 3
    assert payload["summary"]["curves"] == 3
    assert [r["label"] for r in payload["reports"]] == ["11a1", "11a3", "19a1"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("strict", [[], ["--strict"]])
def test_quiet_builds_no_output(tmp_path, capsys, monkeypatch, fmt, strict):
    # --quiet gives the exit code of the loud run and never formats a report
    curves = tmp_path / "curves.csv"
    curves.write_text(BATCH_CSV + "x3+1,0,0,0,0,1\n", encoding="utf-8")
    tower_cfg = {"d": -1, "p": 5, "n": 1, "ramified_sites": [{"ell": 3}]}
    cfg = write_json(tmp_path / "tower.json", tower_cfg)
    one = write_json(tmp_path / "one.json", {**tower_cfg, "curve": [0, 0, 0, 0, 1]})
    commands = [["batch", str(curves), str(cfg), "--format", fmt, *strict],
                ["analyze", str(one), "--format", fmt, *strict],
                ["validate", str(one), "--format", fmt]]
    loud = [run_cli(capsys, c)[0] for c in commands]
    assert loud == [EXIT_STRICT_UNDETERMINED if strict else EXIT_OK] * 2 + [EXIT_OK]

    def forbidden(*args):
        raise AssertionError("output formatted under --quiet")

    for writer in ("report_json", "tower_json", "validation_json", "batch_head",
                   "batch_entry", "batch_tail", "render_text", "report_to_dict"):
        monkeypatch.setattr(cli.report, writer, forbidden)
    monkeypatch.setattr(cli, "report_to_dict", forbidden)
    for c, code in zip(commands, loud):
        assert run_cli(capsys, [*c, "--quiet"]) == (code, "")


def test_batch_malformed_row_continues(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text(CSV_HEADER
                      + "11a1,0,-1,1,-10,-20\n"
                      + "oops,0,0,x,0,1\n"
                      + "11a3,0,-1,1,0,0\n", encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", {
        "d": -1, "p": 5, "n": 1, "ramified_sites": [{"ell": 11}]})
    code, out = run_cli(capsys, ["batch", str(curves), str(cfg)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["reports"]) == 2
    assert len(payload["errors"]) == 1
    assert payload["summary"]["row_errors"] == 1


MALFORMED_ROWS = "oops,0,0,x,0,1\nshort,1,2\nsing,0,0,0,0,0\n"
OVER_BOUND_TOWER = {"d": -1, "p": OVER_BOUND_P, "n": 1,
                    "ramified_sites": [{"ell": OVER_BOUND_P}]}


def batch_document(curves_path, config_path) -> str:
    """The batch JSON built whole, as run_batch built it before it streamed
    its reports, from the oracle dicts of the tower and each report: the
    oracle for the streamed bytes, sharing no text or memo with report.py."""
    _, T, dim = cli.parse_config(cli.load_config(config_path), need_curve=False)
    rows, row_errors = cli.read_curve_csv(curves_path)
    results = []
    for label, E in rows:
        try:
            results.append((label, analyze(E, T, dim_Sp_E_K=dim)))
        except Exception as exc:
            results.append((label, f"{type(exc).__name__}: {exc}"))
    reports = [r for _, r in results if not isinstance(r, str)]
    return json.dumps({
        "schema_version": 1,
        "tower": oracles.tower_dict(T),
        "reports": [{"label": label, "error": r} if isinstance(r, str)
                    else {**oracles.report_dict(r), "label": label}
                    for label, r in results],
        "errors": row_errors + [f"{label}: {r}" for label, r in results
                                if isinstance(r, str)],
        "summary": {
            "curves": len(rows),
            "row_errors": len(row_errors) + len(results) - len(reports),
            "failures": sum(r.failure for r in reports),
            "undetermined": sum(r.has_undetermined for r in reports),
            "clean": sum(not (r.failure or r.has_undetermined) for r in reports),
        },
    }, indent=2) + "\n"


@pytest.mark.parametrize("rows, tower", [
    ("", FLAGSHIP_TOWER),  # no rows: "reports": []
    (MALFORMED_ROWS + "cm,0,0,0,1,0\n", OVER_BOUND_TOWER),  # every row fails
    (BATCH_CSV[len(CSV_HEADER):] + MALFORMED_ROWS + "x3+1,0,0,0,0,1\n", FLAGSHIP_TOWER),
], ids=["empty", "all-errors", "mixed"])
def test_batch_streams_the_bytes_of_the_whole_document(tmp_path, capsys, rows, tower):
    curves = tmp_path / "curves.csv"
    curves.write_text(CSV_HEADER + rows, encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", tower)
    expected = batch_document(str(curves), str(cfg))
    assert run_cli(capsys, ["batch", str(curves), str(cfg)]) == (EXIT_OK, expected)
    payload = json.loads(expected)
    assert payload["summary"]["curves"] == len(payload["reports"])


def test_per_tower_texts_do_not_go_stale(tmp_path, capsys):
    # the tower's text and its sites' are kept per tower: a batch on A, then
    # B, then A again, then a tower equal to A read from another file, each
    # match the oracle, as does a tower that differs from A only in overrides
    curves = tmp_path / "curves.csv"
    curves.write_text(BATCH_CSV + "x3+1,0,0,0,0,1\n", encoding="utf-8")
    a = write_json(tmp_path / "a.json", FLAGSHIP_TOWER)
    b = write_json(tmp_path / "b.json", {"d": 5, "p": 7, "n": 1, "ramified_sites": [
        {"ell": 2}, {"ell": 3}, {"ell": 7}, {"ell": 13}]})
    a2 = write_json(tmp_path / "a2.json", {**FLAGSHIP_TOWER, "dim_Sp_E_K": None})
    a3 = write_json(tmp_path / "a3.json", {**FLAGSHIP_TOWER, "overrides": {
        "3": {"anomalous_override": True}}})
    for cfg in (a, b, a, a2, a3, a):
        expected = batch_document(str(curves), str(cfg))
        assert run_cli(capsys, ["batch", str(curves), str(cfg)]) == (EXIT_OK, expected)


def test_report_texts_follow_the_tower_object():
    # the same tower object, another tower, the first again, an equal tower
    # built anew, and one equal to it in hash but not in overrides; then
    # towers built and dropped in turn, so that a freed tower's id is free
    E = CURVES["11a1"]
    A = make_tower(-1, 5, 1, [11])
    towers = [A, make_tower(-3, 5, 1, [2, 5, 11]), A, make_tower(-1, 5, 1, [11]),
              make_tower(-1, 5, 1, [11], overrides={11: SiteOverrides(anomalous=True)})]
    for T in towers:
        rep = analyze(E, T)
        assert report_json(rep) == json.dumps(oracles.report_dict(rep), indent=2)
    for _ in range(3):
        for d, p, rams in SMALL_TOWERS:
            rep = analyze(E, make_tower(d, p, 1, rams))
            assert report_json(rep) == json.dumps(oracles.report_dict(rep), indent=2)
            del rep  # the report held the only reference to its tower


def test_batch_text_prints_row_errors(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text(CSV_HEADER + "11a1,0,-1,1,-10,-20\n" + MALFORMED_ROWS,
                      encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", FLAGSHIP_TOWER)
    code, out = run_cli(capsys, ["batch", str(curves), str(cfg), "--format", "text"])
    lines = out.splitlines()
    assert code == EXIT_OK and lines[0] == "== 11a1"
    assert lines[-4:] == [
        f"error: {curves}:3: non-integer coefficient",
        f"error: {curves}:4: expected 6 fields, got 3",
        f"error: {curves}:5: singular model (discriminant zero)",
        'summary: {"curves": 1, "row_errors": 3, "failures": 0, '
        '"undetermined": 0, "clean": 1}',
    ]


@pytest.mark.parametrize("field, message", [
    ("1" * 5000, "coefficient has more than 4300 digits"),
    ("-" + "1_1" * 2500, "coefficient has more than 4300 digits"),
    ("1x", "non-integer coefficient"),
    ("1" * 5000 + "x", "non-integer coefficient"),
])
def test_coefficient_errors_name_their_cause(tmp_path, capsys, field, message):
    # int() refuses more than 4300 digits; that is not a malformed integer
    curves = tmp_path / "big.csv"
    curves.write_text(CSV_HEADER + f"big,0,0,0,0,{field}\n11a1,0,-1,1,-10,-20\n",
                      encoding="utf-8")
    code, out = run_cli(capsys, ["batch", str(curves), str(write_json(
        tmp_path / "tower.json", FLAGSHIP_TOWER))])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["errors"] == [f"{curves}:2: {message}"]
    assert [r["label"] for r in payload["reports"]] == ["11a1"]
    cfg = write_json(tmp_path / "c.json", {
        **FLAGSHIP_TOWER, "curve": "big", "curve_file": str(curves)})
    assert run_cli(capsys, ["analyze", str(cfg)]) == (EXIT_INVALID, (
        f"curve: label 'big' not found in {curves}\n{curves}:2: {message}\n"))


def test_batch_invalid_tower_reported_once(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text(CSV_HEADER
                      + "11a1,0,-1,1,-10,-20\n"
                      + "11a3,0,-1,1,0,0\n", encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", {
        "d": -1, "p": 3, "n": 1, "ramified_sites": [{"ell": 11}]})
    for fmt in ("json", "text"):
        code, out = run_cli(capsys, ["batch", str(curves), str(cfg), "--format", fmt])
        assert code == EXIT_INVALID
        assert out.startswith("p_gt_3: ") and out.count("p_gt_3") == 1


def test_batch_deterministic_across_jobs(tmp_path):
    curves = tmp_path / "curves.csv"
    body = CSV_HEADER + "".join(
        f"c{i},0,-1,1,-10,{-20 - 11 * i}\n" for i in range(10))
    curves.write_text(body, encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", {
        "d": -1, "p": 5, "n": 1, "ramified_sites": [{"ell": 11}]})
    outputs = []
    for jobs in (1, 8, 1):
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run_batch(str(curves), str(cfg), jobs=jobs)
        assert code == EXIT_OK
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1] == outputs[2]


def test_bad_header_rejected(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text("name,a1,a2,a3,a4,a6\n", encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", {
        "d": -1, "p": 5, "n": 1, "ramified_sites": []})
    code, out = run_cli(capsys, ["batch", str(curves), str(cfg)])
    assert code == EXIT_INVALID
    assert "expected header" in out


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_non_prime_ell_is_config_error(tmp_path, capsys, command):
    base = {"curve": [0, -1, 1, -10, -20], "d": -1, "p": 5, "n": 1}
    cfg = write_json(tmp_path / "ell.json", {**base, "ramified_sites": [{"ell": 4}]})
    assert run_cli(capsys, [command, str(cfg)]) == (
        EXIT_INVALID, "ramified_sites[0].ell: 4 is not prime\n")
    cfg = write_json(tmp_path / "key.json", {
        **base, "ramified_sites": [{"ell": 11}], "overrides": {"4": {}}})
    assert run_cli(capsys, [command, str(cfg)]) == (
        EXIT_INVALID, "overrides.4: key must be a prime\n")


@pytest.mark.parametrize("key", ["1_1", "011", " 11", "11 ", "+11", "\u0661\u0661"],
                         ids=["underscore", "leading-zero", "leading-space",
                              "trailing-space", "plus", "arabic-indic"])
@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_override_key_must_be_plain_decimal(tmp_path, capsys, command, key):
    cfg = write_json(tmp_path / "c.json", {**X3P1_AT_3, "overrides": {key: {}}})
    assert run_cli(capsys, [command, str(cfg)]) == (
        EXIT_INVALID, f"overrides.{key}: key must be a prime in plain decimal "
                      f"('11', not {key!r})\n")


def test_two_override_keys_cannot_name_one_prime(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {
        **X3P1_AT_3, "overrides": {"11": {"defect_override": 2},
                                   "011": {"anomalous_override": True}}})
    code, out = run_cli(capsys, ["analyze", str(cfg)])
    assert code == EXIT_INVALID
    assert out == ("overrides.011: key must be a prime in plain decimal "
                   "('11', not '011')\n")


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_every_config_error_is_reported_in_one_run(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "c.json", {**X3P1_AT_3, "p": "5", "overrides": {"9": {}}})
    assert run_cli(capsys, [command, str(cfg)]) == (
        EXIT_INVALID, "p: required integer field\noverrides.9: key must be a prime\n")
    cfg = write_json(tmp_path / "c.json", {
        **X3P1_AT_3, "d": None, "n": "1",
        "ramified_sites": [{"ell": 4}, {"ell": 3, "which": "third"}, {"ell": 5}],
        "overrides": {"x": {}}})
    assert run_cli(capsys, [command, str(cfg)]) == (EXIT_INVALID, "".join(
        f"{line}\n" for line in [
            "d: required integer field",
            "n: required integer field",
            "ramified_sites[0].ell: 4 is not prime",
            'ramified_sites[1].which: expected "first" or "second"',
            "overrides.x: key must be a prime (integer)"]))
    cfg = write_json(tmp_path / "c.json", {
        **X3P1_AT_3, "ramified_sites": {"ell": 3}, "overrides": {"4": {}}})
    assert run_cli(capsys, [command, str(cfg)]) == (EXIT_INVALID, (
        "ramified_sites: required list of {ell, which?}\n"
        "overrides.4: key must be a prime\n"))


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_a_field_nothing_reads_is_a_config_error(tmp_path, capsys, command):
    # a misspelt field would otherwise be dropped: no bound, no override
    cfg = write_json(tmp_path / "c.json", {
        **X3P1_AT_3, "dim_Sp_E_k": 1, "label": "x",
        "ramified_sites": [{"ell": 3}, {"ell": 5, "whihc": "first"}],
        "overrides": {"3": {"defect_overide": 2, "anomalous_override": True},
                      "5": {"defect_override": 2}}})
    assert run_cli(capsys, [command, str(cfg)]) == (EXIT_INVALID, "".join(
        f"{line}\n" for line in [
            "dim_Sp_E_k: unknown field",
            "label: unknown field",
            "ramified_sites[1].whihc: unknown field",
            "overrides.3.defect_overide: unknown field"]))
    # a report's tower, whose sites carry split_type, stays a valid config
    tower = json.loads(tower_json(OVERRIDE_TOWER))
    assert tower["ramified_sites"][0]["split_type"] and tower["overrides"]
    cfg = write_json(tmp_path / "tower.json", {**tower, "curve": X3P1_AT_3["curve"]})
    assert run_cli(capsys, [command, str(cfg)])[0] == EXIT_OK


def _argv(tmp_path, command, cfg):
    """The command line of command on the config cfg: batch runs it over 11a1,
    and validate prints its violations one a line, as analyze and batch do."""
    if command == "batch":
        curves = tmp_path / "curves.csv"
        curves.write_text(CSV_HEADER + "11a1,0,-1,1,-10,-20\n", encoding="utf-8")
        return ["batch", str(curves), str(cfg)]
    return [command, str(cfg), *(["--format", "text"] if command == "validate" else [])]


@pytest.mark.parametrize("split_type, line", [
    ("ramified", "site_consistency: site above 11 declared ramified but 11 is inert "
                 "in Q(sqrt(-1))"),
    ("bogus", 'ramified_sites[0].split_type: expected "split", "inert" or "ramified"'),
])
@pytest.mark.parametrize("command", ["analyze", "batch", "validate"])
def test_a_declared_split_type_is_checked_against_K(tmp_path, capsys, flagship_config,
                                                     command, split_type, line):
    flagship = json.loads(flagship_config.read_text(encoding="utf-8"))
    cfg = write_json(tmp_path / "c.json", {
        **flagship, "ramified_sites": [{"ell": 11, "split_type": split_type}]})
    assert run_cli(capsys, _argv(tmp_path, command, cfg)) == (EXIT_INVALID, line + "\n")


@pytest.mark.parametrize("command", ["analyze", "batch", "validate"])
def test_a_flagship_report_tower_fed_back_is_a_valid_config(tmp_path, capsys,
                                                            flagship_config, command):
    code, out = run_cli(capsys, ["analyze", str(flagship_config)])
    tower = json.loads(out)["tower"]
    assert code == EXIT_OK
    assert tower["ramified_sites"] == [{"ell": 11, "split_type": "inert", "which": None}]
    flagship = json.loads(flagship_config.read_text(encoding="utf-8"))
    cfg = write_json(tmp_path / "c.json", {**flagship, **tower})
    assert run_cli(capsys, _argv(tmp_path, command, cfg))[0] == EXIT_OK


@pytest.mark.parametrize("entry, sites, consistent", [
    ({"ell": 5}, [("split", "first"), ("split", "second")], True),
    ({"ell": 5, "split_type": "split"}, [("split", "first"), ("split", "second")], True),
    ({"ell": 5, "which": "second"}, [("split", "second")], True),
    ({"ell": 5, "split_type": "split", "which": "first"}, [("split", "first")], True),
    ({"ell": 11, "split_type": "inert", "which": None}, [("inert", None)], True),
    # a declared split_type is taken as declared: validate_tower compares it with K
    ({"ell": 11, "split_type": "split"}, [("split", "first"), ("split", "second")], False),
    ({"ell": 5, "split_type": "inert"}, [("inert", None)], False),
])
def test_a_site_entry_is_the_site_it_names(entry, sites, consistent):
    errors = []
    T = parse_tower({"d": -1, "p": 7, "n": 1, "ramified_sites": [entry]}, errors)
    assert errors == []
    assert T.ramified_sites == {PrimeSite(entry["ell"], *s) for s in sites}
    # one site of a split pair also breaks conjugation closure
    assert ("site_consistency" in {v.code for v in T.violations}) != consistent


@pytest.mark.parametrize("entry, error", [
    ({"ell": 11, "which": "first"},
     "ramified_sites[0]: no site 'first' above 11 (prime is inert in K)"),
    ({"ell": 5, "split_type": "inert", "which": "second"},
     "ramified_sites[0]: no site 'second' above 5 (prime is declared inert)"),
    ({"ell": 11, "split_type": None, "which": "third"},
     'ramified_sites[0].which: expected "first" or "second"'),
    ({"ell": 11, "split_type": ["inert"]},
     'ramified_sites[0].split_type: expected "split", "inert" or "ramified"'),
])
def test_a_site_entry_that_names_no_site_is_a_field_error(entry, error):
    errors = []
    assert parse_tower({"d": -1, "p": 7, "n": 1, "ramified_sites": [entry]}, errors) is None
    assert errors == [error]


@pytest.mark.parametrize("command", ["analyze", "batch", "validate"])
def test_a_config_that_is_not_an_object_is_refused(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "c.json", [FLAGSHIP_TOWER])
    assert run_cli(capsys, _argv(tmp_path, command, cfg)) == (
        EXIT_INVALID, f"{cfg}: top-level value must be a JSON object\n")


def test_an_empty_csv_is_refused(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text("", encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", FLAGSHIP_TOWER)
    assert run_cli(capsys, ["batch", str(curves), str(cfg)]) == (
        EXIT_INVALID, f"{curves}: empty file\n")


def test_blank_csv_rows_are_skipped(tmp_path, capsys):
    cfg = write_json(tmp_path / "tower.json", FLAGSHIP_TOWER)
    outputs = []
    for blank in ("", "\n , ,\t,,,\n\n"):
        curves = tmp_path / "curves.csv"
        curves.write_text(CSV_HEADER + blank + BATCH_CSV[len(CSV_HEADER):] + blank,
                          encoding="utf-8")
        outputs.append(run_cli(capsys, ["batch", str(curves), str(cfg)]))
    assert outputs[1] == outputs[0]
    assert outputs[0][0] == EXIT_OK and json.loads(outputs[0][1])["errors"] == []


def test_analyze_factors_d_at_most_once(monkeypatch):
    # d is factored only by QuadraticFieldSpec.d_primes, evaluated at most
    # once per analysis; nothing calls prime_factors on d or K's discriminant
    evaluated, factored = [], []
    d_primes = QuadraticFieldSpec.__dict__["d_primes"].func

    def counted_d_primes(K):
        evaluated.append(K.d)
        return d_primes(K)

    def counted_prime_factors(n, _original=tower.prime_factors):
        factored.append(n)
        return _original(n)

    counted = cached_property(counted_d_primes)
    counted.__set_name__(QuadraticFieldSpec, "d_primes")
    monkeypatch.setattr(QuadraticFieldSpec, "d_primes", counted)
    monkeypatch.setattr(tower, "prime_factors", counted_prime_factors)
    for label, E, d, p, n, rams in PARITY_CORPUS:
        T = make_tower(d, p, n, rams)
        evaluated.clear()
        factored.clear()
        analyze(E, T)
        assert len(evaluated) <= 1, (label, evaluated)
        of_K = [m for m in factored if m in (d, d if d % 4 == 1 else 4 * d)]
        assert len(of_K) == len(evaluated), (label, factored)


def test_large_inputs_do_not_hang(tmp_path):
    # the discriminant is -5 times a 20-digit prime; d is a 20-digit prime
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, 0, 1, -7, 10**9 + 7], "d": 5, "p": 7, "n": 1,
        "ramified_sites": [{"ell": 7}]})
    proc = run_isolated(["-m", "dihedral_parity.cli", "analyze", str(cfg)])
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert [r["place"] for r in json.loads(proc.stdout)["rows"]] == [
        5, 7, 86400001252800000151, "infinity", "other"]
    cfg = write_json(tmp_path / "v.json", {
        "d": 10000000000000000051, "p": 7, "n": 1, "ramified_sites": []})
    proc = run_isolated(["-m", "dihedral_parity.cli", "validate", str(cfg)])
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["valid"]


# two primes of 25 and 26 digits: their product is beyond the rho budget
HARD = (10**24 + 7) * (10**25 + 13)


def test_factoring_budget_error_with_the_default_budget(tmp_path):
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, 0, 0, 0, HARD], "d": -1, "p": 5, "n": 1,
        "ramified_sites": [{"ell": 11}]})
    proc = run_isolated(["-m", "dihedral_parity.cli", "analyze", str(cfg)])
    disc = WeierstrassCurve(0, 0, 0, 0, HARD).discriminant()
    assert (proc.returncode, proc.stdout) == (
        EXIT_INVALID, f"error: cannot factor {disc}: beyond the factoring budget\n")


def test_primality_of_a_long_cofactor_is_within_the_budget(tmp_path):
    # the discriminant of [0,0,0,0,R], R the 1000-digit repunit, leaves a
    # cofactor of about 2000 digits: its primality test alone is charged
    # beyond the factoring budget, so analyze gives up before testing it
    R = (10**1000 - 1) // 9
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, 0, 0, 0, R], "d": -1, "p": 5, "n": 1,
        "ramified_sites": [{"ell": 11}]})
    before = _children_cpu_s()
    proc = run_isolated(["-m", "dihedral_parity.cli", "analyze", str(cfg)])
    disc = WeierstrassCurve(0, 0, 0, 0, R).discriminant()
    assert (proc.returncode, proc.stdout) == (
        EXIT_INVALID, f"error: cannot factor {disc}: beyond the factoring budget\n")
    assert _children_cpu_s() - before < 2  # CPU seconds: a busy machine cannot fail it


def test_an_unprintable_number_is_named_by_its_size(tmp_path):
    # R, the 4299-digit repunit, is a valid CSV coefficient, but the
    # discriminant of [0,0,0,0,R] has about 8600 digits, more than str() prints
    R = (10**4299 - 1) // 9
    curves = tmp_path / "big.csv"
    curves.write_text(CSV_HEADER + f"big,0,0,0,0,{R}\n", encoding="utf-8")
    cfg = write_json(tmp_path / "tower.json", FLAGSHIP_TOWER)
    proc = run_isolated(["-m", "dihedral_parity.cli", "batch", str(curves), str(cfg)])
    bits = abs(WeierstrassCurve(0, 0, 0, 0, R).discriminant()).bit_length()
    error = f"ValueError: cannot factor a {bits}-bit integer: beyond the factoring budget"
    payload = json.loads(proc.stdout)
    assert proc.returncode == EXIT_OK
    assert payload["reports"] == [{"label": "big", "error": error}]
    assert payload["errors"] == [f"big: {error}"]


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_unfactorable_inputs_are_one_line_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(localarith, "RHO_BUDGET", 1 << 12)
    tower = {"d": -1, "p": 5, "n": 1, "ramified_sites": [{"ell": 11}]}
    hard_d = write_json(tmp_path / "d.json", {
        **tower, "curve": [0, -1, 1, -10, -20], "d": HARD})
    for command in ("analyze", "validate"):
        assert run_cli(capsys, [command, str(hard_d)]) == (
            EXIT_INVALID, f"d: cannot factor {HARD}: beyond the factoring budget\n")
    disc = WeierstrassCurve(0, 0, 0, 0, HARD).discriminant()
    hard_curve = write_json(tmp_path / "e.json", {**tower, "curve": [0, 0, 0, 0, HARD]})
    assert run_cli(capsys, ["analyze", str(hard_curve)]) == (
        EXIT_INVALID, f"error: cannot factor {disc}: beyond the factoring budget\n")
    curves = tmp_path / "curves.csv"
    curves.write_text(CSV_HEADER + "11a1,0,-1,1,-10,-20\n" + f"hard,0,0,0,0,{HARD}\n",
                      encoding="utf-8")
    code, out = run_cli(capsys, ["batch", str(curves), str(write_json(
        tmp_path / "tower.json", tower))])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["summary"]["row_errors"] == 1
    assert payload["reports"][1] == {
        "label": "hard",
        "error": f"ValueError: cannot factor {disc}: beyond the factoring budget"}


def _package_tables() -> dict[str, int]:
    """The size of each table the package keeps from one analysis to the
    next: the module dicts of report.py, and each lru_cache's entries."""
    sizes = {f"report.{name}": len(value) for name, value in vars(cli.report).items()
             if isinstance(value, dict)}
    for info in pkgutil.iter_modules(dihedral_parity.__path__):
        module = importlib.import_module(f"dihedral_parity.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                sizes[f"{info.name}.{name}"] = value.cache_info().currsize
    return sizes


def _random_csv(path, seed: int, count: int = 200):
    rng, lines = random.Random(seed), [CSV_HEADER]
    while len(lines) <= count:
        ainvs = [rng.randint(-60, 60) for _ in range(5)]
        try:
            WeierstrassCurve(*ainvs)
        except SingularCurveError:
            continue
        lines.append(f"c{len(lines)}," + ",".join(map(str, ainvs)) + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_no_table_grows_with_the_curves_analyzed(tmp_path, capsys, monkeypatch):
    # batches of 200 different curves in one tower: what the package keeps
    # across analyses is the same size after each, and none of the towers
    # read, with the tables kept beside them, is still held
    cfg = write_json(tmp_path / "tower.json", {**FLAGSHIP_TOWER, "dim_Sp_E_K": 0,
                                               "ramified_sites": [{"ell": 3}, {"ell": 5},
                                                                  {"ell": 11}]})
    towers, parse = [], cli.parse_config

    class Probe:
        """Held by one tower's instance dict alone, so it lives as long as the
        tower: a named tuple takes no weak reference itself."""

    def parse_and_keep(*args, **kwargs):
        curve, T, dim = parse(*args, **kwargs)
        vars(T)["probe"] = probe = Probe()
        towers.append(weakref.ref(probe))
        return curve, T, dim

    monkeypatch.setattr(cli, "parse_config", parse_and_keep)
    sizes = []
    for seed in (1, 2, 3):
        assert run_batch(str(_random_csv(tmp_path / f"{seed}.csv", seed)), str(cfg)) in (
            EXIT_OK, EXIT_FAILURE)
        assert json.loads(capsys.readouterr().out)["summary"]["curves"] == 200
        sizes.append(_package_tables())
    assert sizes[0] == sizes[1] == sizes[2]
    gc.collect()
    assert len(towers) == 3 and sum(ref() is not None for ref in towers) == 0
    # a verdict constant or fixed row keeps, beside its fields, only its text
    # at each depth it was written at, under the depth's str key
    for record in (*GAMMA_MODULE.VOCABULARY, *DELTA_MODULE.VOCABULARY, ARCHIMEDEAN_ROW,
                   BLANKET_ROW):
        kept = set(vars(record)) - set(record._fields)
        assert kept <= {str(depth) for depth in range(1, 10)}, kept
