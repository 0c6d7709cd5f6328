"""The import surface: the package root binds only the documented library,
each submodule is reachable by its own name, and the README's library
example runs as written."""

import contextlib
import io
import re
from pathlib import Path
from types import ModuleType

import dihedral_parity
from conftest import run_isolated

ROOT = Path(__file__).resolve().parent.parent

SURFACE = {
    # inputs
    "WeierstrassCurve", "QuadraticFieldSpec", "TowerSpec", "PrimeSite",
    "SiteOverrides", "sites_above", "LocalData",
    # analysis
    "analyze", "validate_tower", "parity_table", "mr64_sum", "selmer_growth_bound",
    # results
    "ParityReport", "ParityRow", "SelmerBound", "SiteAudit", "ConstantVerdict",
    "DeltaVerdict", "Violation",
}


def test_root_binds_only_the_library():
    bound = {name for name, value in vars(dihedral_parity).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert bound == SURFACE
    assert isinstance(dihedral_parity.__version__, str)


def test_gamma_and_delta_name_their_modules():
    import dihedral_parity.delta as D
    import dihedral_parity.gamma as G
    assert isinstance(G, ModuleType) and callable(G.gamma_at)
    assert isinstance(D, ModuleType) and callable(D.delta_at)


def test_cli_does_not_load_the_character_layer():
    proc = run_isolated(["-c", "import sys, dihedral_parity.cli; "
                         "print('dihedral_parity.dihedral' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library usage\s+```python\n(.*?)```", text, re.DOTALL).group(1)
    assert "print(report.mr64_sum)          # 1\n" in code
    assert "print(report.selmer_bound)      # applicable, bound = 4\n" in code
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.mr64_sum == 1
    assert report.selmer_bound.applicable and report.selmer_bound.bound == 4
