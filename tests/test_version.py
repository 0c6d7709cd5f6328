import re
from pathlib import Path

import dihedral_parity


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
        encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"', text, re.MULTILINE)
    assert match and dihedral_parity.__version__ == match.group(1)
