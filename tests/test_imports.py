"""The modules of tribos import each other in one direction only,

    specfun -> symbols -> ladder -> stm -> oracle/thomas -> cli,

a module importing only modules to its left.  Imports of the package root
(`from . import __version__`) are not edges of this order.  No module reads
a private name (`_x`) of another, but for the exceptions listed below."""

import ast
from pathlib import Path

import pytest

_ORDER = {"specfun": 0, "symbols": 1, "ladder": 2, "stm": 3, "oracle": 4, "thomas": 4,
          "cli": 5}
_SRC = Path(__file__).resolve().parents[1] / "src" / "tribos"
# (reader, "module._name"): why the reader may use that private name
_PRIVATE_READS = {
    ("oracle", "specfun._libm"): "its kernels keep libm's bits, which numpy's ufuncs lack",
    ("thomas", "specfun._libm"): "psi's pair term keeps libm's atan bits, as oracle's kernels do",
    ("cli", "symbols._scan"): "the symbol table is certify_positivity's samples and report",
    ("cli", "oracle._ABS_TOL"): "a transform row's verdict is 10 times the integrator's tolerance",
}


def _imported_modules(source: str) -> set[str]:
    """tribos modules imported anywhere in source, function bodies included."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[1] for a in node.names
                      if a.name.startswith("tribos.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level, module) in ((1, ""), (0, "tribos")):
                names += [a.name for a in node.names]  # from . import x
            elif node.level == 1:
                names.append(module.split(".")[0])  # from .x import y
            elif node.level == 0 and module.startswith("tribos."):
                names.append(module.split(".")[1])
    return {name for name in names if name in _ORDER}


def test_order_covers_every_module():
    assert {path.stem for path in _SRC.glob("*.py")} - {"__init__"} == set(_ORDER)


def test_import_scanner_sees_every_form():
    source = ("from . import ladder, __version__\nfrom .stm import assemble\n"
              "import tribos.cli\nfrom tribos import oracle\nfrom tribos.thomas import x\n"
              "def f():\n    from .symbols import eval_g\n")
    assert _imported_modules(source) == {"ladder", "stm", "cli", "oracle", "thomas", "symbols"}


@pytest.mark.parametrize("module", sorted(_ORDER))
def test_imports_follow_the_module_order(module):
    imported = _imported_modules((_SRC / f"{module}.py").read_text())
    against = sorted(name for name in imported if _ORDER[name] >= _ORDER[module])
    assert not against, f"{module} imports {against} against the module order"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(source: str) -> set[str]:
    """"module._name" for each private name of a tribos module that source
    imports or reads as an attribute of an imported module."""
    tree = ast.parse(source)
    modules, reads = {}, set()  # modules: local name -> tribos module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname, a.name.split(".")[1]) for a in node.names
                           if a.name.startswith("tribos.") and a.asname)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level, module) in ((1, ""), (0, "tribos")):  # from . import x [as y]
                modules.update((a.asname or a.name, a.name) for a in node.names
                               if a.name in _ORDER)
            elif node.level == 1 or module.startswith("tribos."):  # from .x import _y
                module = module.split(".")[node.level == 0]
                reads |= {f"{module}.{a.name}" for a in node.names if _private(a.name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            value = node.value
            if isinstance(value, ast.Name) and value.id in modules:
                reads.add(f"{modules[value.id]}.{node.attr}")
            elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
                  and value.value.id == "tribos" and value.attr in _ORDER):  # tribos.x._y
                reads.add(f"{value.attr}.{node.attr}")
    return reads


def test_private_read_scanner_sees_every_form():
    source = ("from . import ladder, __version__\nfrom . import oracle as om\n"
              "from .stm import _grid, assemble\nfrom tribos.specfun import _libm\n"
              "import tribos.cli\nimport tribos.symbols as sy\nfrom tribos import thomas\n"
              "def f(x):\n    return (ladder._a + om._b + tribos.cli._c + sy._d + thomas._e(x)\n"
              "            + thomas.psi + x._f + ladder.__doc__)\n")
    assert _private_reads(source) == {"stm._grid", "specfun._libm", "ladder._a", "oracle._b",
                                      "cli._c", "symbols._d", "thomas._e"}


@pytest.mark.parametrize("module", sorted(_ORDER))
def test_no_module_reads_another_modules_private_names(module):
    reads = _private_reads((_SRC / f"{module}.py").read_text())
    unlisted = sorted(read for read in reads if (module, read) not in _PRIVATE_READS)
    assert not unlisted, f"{module} reads private names of other modules: {unlisted}"


def test_every_listed_private_read_happens():
    assert all(read in _private_reads((_SRC / f"{module}.py").read_text())
               for module, read in _PRIVATE_READS)
