"""Report bytes are pinned: the SHA-256 of what the command line prints for
every ``PARITY_CORPUS`` case (``analyze``, JSON and text) and for one
``batch`` run over the corpus curves in one tower (JSON and text) must match
``tests/report_digests.json``.  So is the error surface: what ``validate``
(JSON and text) and ``analyze`` print for each config in ``INVALID_CONFIGS``.

A digest that changes is a change of the report format, of a verdict or of
an error message, and is stated in CHANGES.md. To rewrite the file after such
a change, run

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from corpus import PARITY_CORPUS
from dihedral_parity.cli import main

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"

# The flagship tower with overrides at two primes, so that the tower's
# override entries are printed.  No corpus curve has bad reduction at 13 or
# 23, so the overrides change no verdict.
BATCH_TOWER = {
    "d": -1, "p": 5, "n": 1, "ramified_sites": [{"ell": 11}], "dim_Sp_E_K": 0,
    "overrides": {"23": {"anomalous_override": False},
                  "13": {"defect_override": 2,
                         "reduction_over_Kv_override": "additive"}},
}


# Each invalid config is the flagship config with these fields replaced: every
# violation code a config can reach (site_consistency cannot be reached from
# a config), every family of config error, and an analysis error.
FLAGSHIP = {"curve": [0, -1, 1, -10, -20], "d": -1, "p": 5, "n": 1,
            "ramified_sites": [{"ell": 11}], "dim_Sp_E_K": 0}
INVALID_CONFIGS = {
    # violations
    "p_gt_3": {"p": 3},
    "p not prime": {"p": 25},
    "d_squarefree": {"d": 4},
    "n_positive": {"n": 0},
    "conjugation_closure": {"p": 7, "ramified_sites": [{"ell": 5, "which": "first"}]},
    "ramified_site_above_p": {"d": 11},
    "three violations": {"p": 3, "d": 4, "n": 0},
    # config errors
    "d null": {"d": None},
    "ramified_sites not a list": {"ramified_sites": {"ell": 11}},
    "ell not prime": {"ramified_sites": [{"ell": 4}]},
    "ell a string": {"ramified_sites": [{"ell": "11"}]},
    "bad which": {"ramified_sites": [{"ell": 5, "which": "third"}]},
    "no such site": {"ramified_sites": [{"ell": 11, "which": "first"}]},
    "override key not prime": {"overrides": {"4": {}}},
    "override key not an integer": {"overrides": {"x": {}}},
    "overrides not an object": {"overrides": [3]},
    "override not an object": {"overrides": {"3": 2}},
    "defect 5": {"overrides": {"3": {"defect_override": 5}}},
    "defect a string": {"overrides": {"3": {"defect_override": "cyclic"}}},
    "anomalous not a boolean": {"overrides": {"3": {"anomalous_override": "yes"}}},
    "unknown K_v reduction": {"overrides": {"3": {"reduction_over_Kv_override": "bogus"}}},
    "curve of four": {"curve": [0, -1, 1, -10]},
    "singular curve": {"curve": [0, 0, 0, 0, 0]},
    "label without curve_file": {"curve": "11a1"},
    "negative dim": {"dim_Sp_E_K": -1},
    "two config errors": {"ramified_sites": [{"ell": 4}], "overrides": {"9": {}}},
    # booleans and floats are not integers
    "curve with booleans": {"curve": [False, -1, True, -10, -20]},
    "d true": {"d": True},
    "p true": {"p": True},
    "n true": {"n": True},
    "ell true": {"ramified_sites": [{"ell": True}]},
    "dim true": {"dim_Sp_E_K": True},
    "defect true": {"overrides": {"3": {"defect_override": True}}},
    "defect 2.0": {"overrides": {"3": {"defect_override": 2.0}}},
    # an analysis error: point counting at p lies beyond the counting bound
    "counting bound": {"curve": [0, 0, 0, 1, 0], "p": 100003,
                       "ramified_sites": [{"ell": 100003}]},
}


def _printed(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_digests() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        for label, E, d, p, n, rams in PARITY_CORPUS:
            config.write_text(json.dumps({
                "curve": list(E.ainvs()), "d": d, "p": p, "n": n,
                "ramified_sites": [{"ell": ell} for ell in rams],
                "dim_Sp_E_K": 0}), encoding="utf-8")
            for fmt in ("json", "text"):
                digests[f"analyze {label} {fmt}"] = _sha256(
                    _printed(["analyze", str(config), "--format", fmt]))
        curves = {label.split("/")[0]: E for label, E, *_ in PARITY_CORPUS}
        csv = Path(tmp) / "curves.csv"
        csv.write_text("label,a1,a2,a3,a4,a6\n" + "".join(
            f"{name},{','.join(map(str, E.ainvs()))}\n" for name, E in curves.items()),
            encoding="utf-8")
        config.write_text(json.dumps(BATCH_TOWER), encoding="utf-8")
        for fmt in ("json", "text"):
            digests[f"batch {fmt}"] = _sha256(
                _printed(["batch", str(csv), str(config), "--format", fmt]))
        for name, fields in INVALID_CONFIGS.items():
            config.write_text(json.dumps({**FLAGSHIP, **fields}), encoding="utf-8")
            for fmt in ("json", "text"):
                digests[f"validate {fmt} {name}"] = _sha256(
                    _printed(["validate", str(config), "--format", fmt]))
            digests[f"analyze {name}"] = _sha256(_printed(["analyze", str(config)]))
    return digests


def test_report_bytes_match_digests():
    assert compute_digests() == json.loads(DIGESTS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_digests(), indent=2) + "\n",
                       encoding="utf-8")
