import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import CURVES, make_tower  # noqa: F401


@pytest.fixture
def flagship_config(tmp_path):
    """The 11a1 flagship analysis config, on disk."""
    cfg = {
        "curve": [0, -1, 1, -10, -20],
        "d": -1,
        "p": 5,
        "n": 1,
        "ramified_sites": [{"ell": 11}],
        "dim_Sp_E_K": 0,
    }
    path = tmp_path / "flagship.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


SRC = Path(__file__).resolve().parent.parent / "src"


def run_isolated(args, timeout=30):
    """Run ``python args...`` with the package importable, in a subprocess
    that is killed after timeout seconds, so that a hang fails the test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path})
