"""Report bytes are pinned: the SHA-256 of what the command line prints for
every ``PARITY_CORPUS`` case (``analyze``, JSON and text) and for one
``batch`` run over the corpus curves in one tower (JSON and text) must match
``tests/report_digests.json``.

A digest that changes is a change of the report format or of a verdict, and
is stated in CHANGES.md. To rewrite the file after such a change, run

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
    return digests


def test_report_bytes_match_digests():
    assert compute_digests() == json.loads(DIGESTS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_digests(), indent=2) + "\n",
                       encoding="utf-8")
