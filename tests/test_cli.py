import copy
import json
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_isolated, write_json
from dihedral_parity import cli, localarith, tower
from dihedral_parity.curves import WeierstrassCurve
from dihedral_parity.cli import (
    EXIT_FAILURE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_STRICT_UNDETERMINED,
    _tower_to_dict,
    build_parser,
    main,
    parse_tower,
    report_from_dict,
    report_to_dict,
    run_analyze,
    run_batch,
    run_validate,
    to_json,
)
from dihedral_parity.parity import analyze
from dihedral_parity.tower import QuadraticFieldSpec, SiteOverrides
from corpus import CURVES, PARITY_CORPUS, TWIST_11A1_7, make_tower

CSV_HEADER = "label,a1,a2,a3,a4,a6\n"


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


# Text with non-ASCII, control and lone surrogate characters, which the
# writer must escape exactly as json.dumps does.
JSON_TEXT = st.text(st.characters(exclude_categories=())
                    | st.sampled_from('\ud800\udfff\x00\x1f\x7f"\\/\u00e9\u2028'),
                    max_size=8)
JSON_SCALARS = (st.none() | st.booleans() | JSON_TEXT
                | st.integers(min_value=-2**80, max_value=2**80))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_to_json_matches_json_dumps_indent_2(value):
    assert to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, {1, 2}, object(), [0, 2.0], {"a": {"b": frozenset()}}, {3: "key"}],
    ids=["float", "set", "object", "nested-float", "nested-frozenset", "int-key"])
def test_to_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_analyze_error_is_one_line(tmp_path, capsys):
    # p = 100003 lies beyond the point-counting bound that delta at p needs
    cfg = write_json(tmp_path / "c.json", {
        "curve": [0, 0, 0, 1, 0], "d": -1, "p": 100003, "n": 1,
        "ramified_sites": [{"ell": 100003}]})
    code, out = run_cli(capsys, ["analyze", str(cfg)])
    assert code == EXIT_INVALID
    assert out == "error: ell = 100003 exceeds the counting bound 100000\n"


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
    assert parse_tower(_tower_to_dict(T), errors) == T
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

    monkeypatch.setattr(cli, "to_json", forbidden)
    monkeypatch.setattr(cli, "render_text", forbidden)
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
