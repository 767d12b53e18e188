"""Static checks over the package source: every imported name is read, every
exported function has a reader, the decision kernel stays a leaf of the
import graph that no other module reaches into and whose decisions no caller
compares, and only the entry points catch a stochastic failure."""

import ast
import inspect
from pathlib import Path

import pytest

import commtest

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


# Exported functions no other code in the package reads, each kept on purpose.
UNREAD_EXPORTS = {
    "threshold_channel": "evaluates any ThresholdSet; the designers label ratios inline",
    "fdiv_ratio": "scores any channel; the designer scores its candidates inline",
    "revmarkov_objective": "evaluates any grid; the strategies score their rows inline",
    "robust_decide": "the robust referee, the LRT between the channel images of the LFD pair",
}


def test_every_exported_function_has_a_reader():
    """Each exported function is read, by name or as an attribute, somewhere
    in the package besides its own `def`, or is kept on purpose above."""
    read = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    functions = {name for name in commtest.__all__
                 if inspect.isfunction(getattr(commtest, name))}
    unread = functions - read
    assert sorted(unread - UNREAD_EXPORTS.keys()) == []
    assert sorted(UNREAD_EXPORTS.keys() - unread) == []  # the list stays current


# Parameters annotated `float` that are not read by `core._real`, each with its reason.
REAL_EXEMPT = {
    "FDivergenceSpec.at_zero": "f(0), any real or inf: f(x) = x - 1 has f(0) = -1",
    "FDivergenceSpec.slope_at_inf": "lim f(u)/u, any real or inf",
}


def written_in_source(function):
    """Whether `function` is defined in a package source file (a dataclass
    generates its `__init__` from a string)."""
    code = getattr(function, "__code__", None)
    return code is not None and Path(code.co_filename).parent == SOURCE


def float_parameters():
    """"<export>.<parameter>" for each parameter annotated `float`, alone or in a
    union, of an exported function, or of an exported class whose `__init__` or
    `__post_init__` is written in the package (not generated by dataclass)."""
    found = set()
    for name in commtest.__all__:
        obj = getattr(commtest, name)
        if inspect.isclass(obj) and not any(written_in_source(getattr(obj, method, None))
                                            for method in ("__init__", "__post_init__")):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            for p in inspect.signature(obj).parameters.values():
                annotation = getattr(p.annotation, "__name__", str(p.annotation))  # a type or text
                if "float" in (part.strip() for part in annotation.split("|")):
                    found.add(f"{name}.{p.name}")
    return found


def test_every_float_parameter_is_read_as_a_real():
    """Each real parameter has a row in `tests/test_values.py::REAL`, which
    feeds it non-numbers, bools, overflow, NaN, infinities and values past its
    range, or is exempt above."""
    from test_values import REAL

    params = float_parameters()
    assert sorted(params - REAL.keys() - REAL_EXEMPT.keys()) == []
    assert sorted(REAL_EXEMPT.keys() - params) == []  # the list stays current


def test_float_parameters_reads_annotations_and_written_constructors():
    params = float_parameters()
    assert {"DiscreteRV.beta", "HypothesisFamily.hadamard_eps", "FDivergenceSpec.c1",
            "ContaminationSetup.epsilon", "hadamard_instance.eps"} <= params
    # generated constructors of result records, and callables or arrays of floats
    assert not {"QuantizeResult.bound", "ThresholdGrid.achieved", "ThresholdGrid.nus",
                "FDivergenceSpec.f"} & params


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


def compared_calls(tree, module):
    """The lines where a call to a function of `module` ("commtest.<name>")
    sits inside a comparison: imported from it, or read off a name bound to
    it, however the import is spelled."""
    bound, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name for alias in node.names
                         if alias.name == module)
        elif isinstance(node, ast.ImportFrom):
            base = from_module(node)
            for alias in node.names:
                if base == module:
                    imported.add(alias.asname or alias.name)
                elif f"{base}.{alias.name}" == module:
                    bound.add(alias.asname or alias.name)
    return sorted({node.lineno for compare in ast.walk(tree) if isinstance(compare, ast.Compare)
                   for node in ast.walk(compare) if isinstance(node, ast.Call)
                   and ((isinstance(node.func, ast.Attribute)
                         and ast.unparse(node.func.value) in bound)
                        or (isinstance(node.func, ast.Name) and node.func.id in imported))})


def test_no_module_compares_a_decision():
    """The tie rule has one home: `decision` returns the decision, and no
    caller compares what it returns, with 0 or anything else."""
    found = {path.stem: compared_calls(parse(path), "commtest.decision")
             for path in MODULES if path.stem != "decision"}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def test_compared_calls_reads_every_spelling():
    tree = ast.parse("from . import decision\nfrom commtest import decision as d\n"
                     "import commtest.decision\nfrom .decision import f as g, h\n"
                     "decision.a(x) >= 0\nd.b(x) < 0\ncommtest.decision.c(x) == y\n"
                     "0 <= g(x)\nh(x) if decision.e(x) else 0\nother.f(x) >= 0\n"
                     "[h(x) for x in y] != z\n")
    assert compared_calls(tree, "commtest.decision") == [5, 6, 7, 8, 11]


def caught_names(tree):
    """The exception names the `except` clauses of `tree` catch, however they
    are spelled: bare, read off a module, or in a tuple."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(t.attr if isinstance(t, ast.Attribute) else ast.unparse(t)
                         for t in types)
    return names


def test_only_the_entry_points_catch_a_stochastic_failure():
    """A library function returns what it found; the CLI and the verify
    suites decide what a failed randomized construction means."""
    catching = {path.stem for path in MODULES
                if "StochasticFailureError" in caught_names(parse(path))}
    assert catching <= {"cli", "verify"}


def test_caught_names_reads_every_spelling():
    tree = ast.parse("try:\n    pass\nexcept A:\n    pass\nexcept errors.B as exc:\n    pass\n"
                     "except (C, mary.D):\n    pass\nexcept:\n    pass\n")
    assert caught_names(tree) == {"A", "B", "C", "D"}


def test_only_core_reads_the_fdiv_term():
    """`core._fdiv_terms` takes each I_f summand on Python floats; a per-term
    loop elsewhere would run `_fdiv_term` on numpy scalars, several times slower."""
    readers = {path.name for path in MODULES for node in ast.walk(parse(path))
               if "_fdiv_term" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None))
               and not isinstance(node, ast.FunctionDef)}
    assert readers <= {"core.py"}


def unique_calls(tree):
    """The lines that call numpy's `unique`, read off numpy or imported from it."""
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy"
                for alias in node.names if alias.name == "unique"}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ((isinstance(node.func, ast.Attribute) and node.func.attr == "unique"
                  and ast.unparse(node.func.value) in numpy_names)
                 or (isinstance(node.func, ast.Name) and node.func.id in imported))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_np_unique(path):
    """`np.unique` costs tens of microseconds a call on small arrays, most of
    the designer's near-one grid; `core._sorted_unique`, with searchsorted and
    bincount for the classes, gives the same bytes."""
    assert unique_calls(parse(path)) == []


def test_unique_calls_reads_every_spelling():
    tree = ast.parse("import numpy as np\nimport numpy\nfrom numpy import unique as u\n"
                     "np.unique(a)\nnumpy.unique(a, return_inverse=True)\nu(a)\n"
                     "other.unique(a)\n_sorted_unique(a)\n")
    assert unique_calls(tree) == [4, 5, 6]
