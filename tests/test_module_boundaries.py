"""latsec modules import only public names from one another, read no other
object's private attributes, and keep `counting` a leaf."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "latsec"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"{path.name}:{node.lineno} imports {alias.name} from "
               f"{'.' * node.level}{node.module or ''}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "latsec")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_attributes_of_other_objects(path):
    # obj._name is private to obj's own class: only self and cls may read it
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"{path.name}:{node.lineno} reads {ast.unparse(node)}"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and not node.attr.startswith("__")
               and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    assert not private, private


def test_counting_imports_no_latsec_module():
    # lattice imports counting, so any latsec import here would close a cycle
    tree = ast.parse((SRC / "counting.py").read_text())
    imported = [ast.unparse(node) for node in ast.walk(tree)
                if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").split(".")[0] == "latsec"))
                or (isinstance(node, ast.Import)
                    and any(alias.name.split(".")[0] == "latsec" for alias in node.names))]
    assert not imported, imported


def _calls(node, name):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]


def test_only_the_system_builds_signal_tables():
    # receiver draws and ML decisions read SecrecySystem's tables
    outside = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        outside += [f"{path.name}:{call.lineno} calls mod_signals"
                    for top in tree.body
                    if not (isinstance(top, ast.ClassDef) and top.name == "SecrecySystem")
                    for call in _calls(top, "mod_signals")]
    assert not outside, outside


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py imports only to re-export, so it is left out
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name != "annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} imports {name}"
              for name, line in imported.items() if name not in used]
    assert not unused, unused
