"""Static checks over the package source: every imported name is read, and
the decision kernel stays a leaf of the import graph that no other module
reaches into."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "commtest"
MODULES = sorted(SOURCE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """Each name an import statement binds, with its line; `from __future__`
    imports bind nothing the code reads."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def from_module(node):
    """The module an `ast.ImportFrom` reads from, a relative one as "commtest...";
    the package sources sit one level deep, so any level is the package."""
    base = node.module or ""
    if node.level:
        base = "commtest" + (f".{base}" if base else "")
    return base


def package_imports(tree):
    """The package modules `tree` imports, as "commtest.<module>", however the
    import is spelled: relative or absolute, `from . import x` or `from .x`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = from_module(node)
            if base == "commtest":
                found.update(f"commtest.{alias.name}" for alias in node.names)
            else:
                found.add(base)
    return {name for name in found if name.split(".")[0] == "commtest"}


def private_reads(tree, module):
    """The `_`-prefixed names of `module` ("commtest.<name>") that `tree`
    reads: imported from it, or read off a name bound to it, however the
    import is spelled."""
    bound, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name for alias in node.names
                         if alias.name == module)
        elif isinstance(node, ast.ImportFrom):
            base = from_module(node)
            for alias in node.names:
                if base == module and alias.name.startswith("_"):
                    reads.add(alias.name)
                elif f"{base}.{alias.name}" == module:
                    bound.add(alias.asname or alias.name)
    reads.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and node.attr.startswith("_") and ast.unparse(node.value) in bound)
    return reads


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_imported_name_is_read(path):
    tree = parse(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert {name: line for name, line in imported_names(tree).items() if name not in read} == {}


def test_decision_kernel_is_a_leaf():
    imports = package_imports(parse(SOURCE / "decision.py"))
    assert "commtest.core" in imports
    assert imports <= {"commtest.core", "commtest.errors"}


def test_package_imports_reads_every_spelling():
    tree = ast.parse("from . import core, errors\nfrom .mary import x\nimport commtest.testing\n"
                     "from commtest import robust\nfrom commtest.verify import y\nimport numpy\n")
    assert package_imports(tree) == {f"commtest.{name}" for name in
                                     ("core", "errors", "mary", "testing", "robust", "verify")}


def test_no_module_reads_a_private_name_of_decision():
    """The kernel's tables and statistic are reached through its public names."""
    reads = {path.stem: private_reads(parse(path), "commtest.decision")
             for path in MODULES if path.stem != "decision"}
    assert {stem: names for stem, names in reads.items() if names} == {}


def test_private_reads_reads_every_spelling():
    tree = ast.parse("from . import decision\nfrom commtest import decision as d\n"
                     "import commtest.decision\nfrom .decision import _a, b\nimport numpy as np\n"
                     "decision._b\nd._c\ncommtest.decision._d\ndecision.e\nnp._f\n")
    assert private_reads(tree, "commtest.decision") == {"_a", "_b", "_c", "_d"}
