"""Design rules of the package, checked on its source with ``ast``.

Every fact the engine states is an identity between integers or rationals, so
no module needs a float or complex constant, a tolerance parameter or
``cmath``; no module imports another module's private (underscore)
helpers; the values a local fact or an override may take are stated
once, in ``curves``; and JSON is printed by ``cli.to_json``, never by an
``indent=`` call, which would put ``json``'s pure-Python encoder back.  A
square class of Q_ell is read only by ``localarith.local_square_class``.  The
oracles in ``tests/oracles.py`` take only ``WeierstrassCurve`` from the
package, so a bug in the code they check cannot move them too.
"""

import ast
from pathlib import Path

import pytest

from dihedral_parity.curves import DEFECTS, KV_REDUCTIONS, UNKNOWN

SRC = Path(__file__).resolve().parent.parent / "src" / "dihedral_parity"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "dihedral.py", "parity.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_or_complex_constant(path):
    bad = [node.lineno for node in ast.walk(_tree(path))
           if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))]
    assert not bad, f"{path.name}: float or complex constant at lines {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_parameter(path):
    bad = [node.arg for node in ast.walk(_tree(path))
           if isinstance(node, ast.arg) and "tol" in node.arg.lower()]
    assert not bad, f"{path.name}: tolerance parameters {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cmath_import(path):
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert "cmath" not in imported


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_from_sibling(path):
    bad = [f"{node.module}.{alias.name}" for node in ast.walk(_tree(path))
           if isinstance(node, ast.ImportFrom) and node.level > 0
           for alias in node.names if alias.name.startswith("_")]
    assert not bad, f"{path.name} imports private names {bad}"


def test_cli_states_no_local_fact_value():
    values = {v for v in (*DEFECTS, *KV_REDUCTIONS, UNKNOWN) if isinstance(v, str)}
    bad = [node.value for node in ast.walk(_tree(SRC / "cli.py"))
           if isinstance(node, ast.Constant) and node.value in values]
    assert not bad, f"cli.py spells out {bad}; read curves.DEFECTS and KV_REDUCTIONS"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_indent_keyword(path):
    bad = [node.lineno for node in ast.walk(_tree(path))
           if isinstance(node, ast.Call)
           and any(kw.arg == "indent" for kw in node.keywords)]
    assert not bad, f"{path.name}: indent= call at lines {bad}; use cli.to_json"


def test_oracles_take_only_the_curve_from_the_package():
    taken = set()
    for node in ast.walk(_tree(Path(__file__).resolve().parent / "oracles.py")):
        if isinstance(node, ast.Import):
            taken.update(alias.name for alias in node.names
                         if alias.name.partition(".")[0] == "dihedral_parity")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").partition(".")[0] == "dihedral_parity"):
            taken.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert taken == {"dihedral_parity.curves.WeierstrassCurve"}


def test_square_classes_are_read_in_one_place():
    """The quadratic questions over Q_ell read a class only through
    local_square_class: none of them takes a valuation or a residue itself."""
    readers = {"is_local_square", "check_extension", "is_square_in_quadratic_ext",
               "quadratic_character_type"}
    banned = {"kronecker_symbol", "padic_valuation", "_strip", "_ratio"}
    found = {}
    for node in ast.walk(_tree(SRC / "localarith.py")):
        if isinstance(node, ast.FunctionDef) and node.name in readers:
            found[node.name] = {
                call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, (ast.Name, ast.Attribute))}
    assert set(found) == readers
    assert all(calls & (readers | {"local_square_class"}) for calls in found.values())
    bad = {name: sorted(calls & banned) for name, calls in found.items() if calls & banned}
    assert not bad, f"read the class through local_square_class: {bad}"
