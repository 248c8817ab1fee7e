"""The modules of tribos import each other in one direction only,

    specfun -> symbols -> ladder -> stm -> oracle/thomas -> cli,

a module importing only modules to its left.  Imports of the package root
(`from . import __version__`) are not edges of this order."""

import ast
from pathlib import Path

import pytest

_ORDER = {"specfun": 0, "symbols": 1, "ladder": 2, "stm": 3, "oracle": 4, "thomas": 4,
          "cli": 5}
_SRC = Path(__file__).resolve().parents[1] / "src" / "tribos"


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
