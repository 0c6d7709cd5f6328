"""Design rules of the package, checked on its source with ``ast``.

Every fact the engine states is an identity between integers or rationals, so
no module needs a float or complex constant, a tolerance parameter,
``cmath`` or ``fractions`` (every local question is asked of an integer);
no module imports another module's private (underscore)
helpers; the values a local fact or an override may take are stated
once, in ``curves``; and every JSON document is written from the record
templates in ``report``, never by an ``indent=`` call, which would put
``json``'s pure-Python encoder back, and ``cli`` spells out no JSON
bracket.  A square class of Q_ell is read only by ``localarith.local_square_class``.  The
oracles in ``tests/oracles.py`` take only ``WeierstrassCurve`` from the
package, so a bug in the code they check cannot move them too.  Every
function the benchmark's tracer names by string still exists, and every
function or class in ``src/`` has a user outside the tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

from dihedral_parity.curves import DEFECTS, KV_REDUCTIONS, UNKNOWN

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dihedral_parity"
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


def _imported(path):
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    return imported


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cmath_import(path):
    assert "cmath" not in _imported(path)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_fractions_import(path):
    assert "fractions" not in _imported(path), f"{path.name}: ask the question of an int"


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
    assert not bad, f"{path.name}: indent= call at lines {bad}; write JSON in report.py"


def test_cli_writes_no_json_bracket():
    bad = [node.lineno for node in ast.walk(_tree(SRC / "cli.py"))
           if isinstance(node, ast.Constant) and isinstance(node.value, str)
           and ("{\n" in node.value or "[\n" in node.value)]
    assert not bad, f"cli.py opens a JSON bracket at lines {bad}; write JSON in report.py"


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
    banned = {"kronecker_symbol", "padic_valuation", "_strip"}
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


def _traced_layers():
    """bench/tracing.py's LAYERS, read from its source, importing nothing
    from bench/."""
    tree = _tree(ROOT / "bench" / "tracing.py")
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))


def test_traced_layers_still_resolve():
    """bench/tracing.py names the functions it wraps by string, so a rename
    or a deletion here would break the traced benchmark and no import would
    fail."""
    layers = _traced_layers()
    assert layers
    missing = [f"{mod}.{name}" for mod, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"dihedral_parity.{mod}"),
                                       name, None))]
    assert not missing, f"bench/tracing.py traces names that no longer exist: {missing}"


def test_every_definition_in_src_has_a_user():
    """A top-level function or class in src/ is read by name elsewhere in
    src/ (outside its own definition and __init__.py), traced by the
    benchmark, imported by the acceptance suite, or part of the character
    layer of dihedral.py that criterion 6 checks.  A helper only the other
    tests call belongs in tests/."""
    read, defined = set(), []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for stmt in _tree(path).body:
            names = {n.attr if isinstance(n, ast.Attribute) else n.id
                     for n in ast.walk(stmt) if isinstance(n, ast.Attribute)
                     or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt.name))
                names.discard(stmt.name)
            read |= names
    traced = {name for names in _traced_layers().values() for name in names}
    accepted = {alias.name for node in ast.walk(_tree(ROOT / "tests" / "test_acceptance.py"))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").partition(".")[0] == "dihedral_parity"
                for alias in node.names}
    unused = [f"{module}.{name}" for module, name in defined
              if module != "dihedral" and name not in read | traced | accepted]
    assert not unused, f"defined in src/ but used only by tests, if at all: {unused}"
