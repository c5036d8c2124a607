"""latsec modules import only public names from one another."""
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
