"""latsec modules import only public names from one another, read no other
object's private attributes, keep `counting` a leaf and need nothing outside
the standard library but numpy."""
import ast
import re
import sys
from collections import Counter
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    # every import is numpy, the standard library or latsec itself, relatively
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [(node.lineno, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [(node.lineno, node.module) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    foreign = [f"{path.name}:{line} imports {name}" for line, name in modules
               if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not foreign, foreign


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


BENCH = SRC.parent.parent / "bench"
# names no library code calls, each kept for a reader outside src/ and bench/
UNCALLED_EXEMPT = {
    "channel.Transcript.to_json": "tests/golden/transcripts.jsonl locks its output",
    "extractor.KeyTranscript.to_json": "tests/golden/transcripts.jsonl locks its output",
}
# dataclass fields no code outside their own class reads, each kept for a
# reader outside src/ and bench/
UNREAD_EXEMPT = {
    **dict.fromkeys(
        [f"channel.HashSelection.{name}" for name in ("chosen_seed", "leakages", "full_ranks")],
        "tests check the per-candidate report against one exact_leakage call per candidate"),
    "channel.HashSelection.fallback": "the trace recorder (ROADMAP item 1) is meant to show it",
    "channel.ChannelConfig.n_uses": "bench/ passes it, so only a benchmark change can drop it",
}


def _definitions(trees):
    """(qualified name, name, node, class node or None) of every module-level
    function and class, and of every method of a module-level class; dunders
    such as __init__ are left out, private names are not."""
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("__"):
                yield f"{module}.{top.name}", top.name, top, None
            if isinstance(top, ast.ClassDef):
                yield from ((f"{module}.{top.name}.{node.name}", node.name, node, top)
                            for node in top.body if isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("__"))


def _references(node, skip) -> Counter:
    """Names and attributes read under node, not descending into the nodes in skip."""
    if node in skip:
        return Counter()
    found = Counter([node.id] if isinstance(node, ast.Name)
                    else [node.attr] if isinstance(node, ast.Attribute) else [])
    for child in ast.iter_child_nodes(node):
        found += _references(child, skip)
    return found


def _bench_references() -> set[str]:
    # bench/tracing.py wraps library callables by string name, so words in strings
    # count; a bare name that bench defines itself is not a library use
    used = set()
    for path in sorted(BENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        own = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name) and node.id not in own:
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= set(re.findall(r"[A-Za-z_]\w*", node.value))
    return used


def _fields(trees):
    """(qualified name, name, constructor position or None, default or None,
    class node) of every field of a module-level dataclass; a field(init=False)
    has neither position nor default."""
    for module, tree in trees.items():
        for top in tree.body:
            if not (isinstance(top, ast.ClassDef)
                    and any(ast.unparse(d).startswith("dataclass") for d in top.decorator_list)):
                continue
            position = 0
            for node in top.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    init = not any(kw.arg == "init" and ast.literal_eval(kw.value) is False
                                   for call in _calls(node, "field") for kw in call.keywords)
                    yield (f"{module}.{top.name}.{node.target.id}", node.target.id,
                           position if init else None, node.value if init else None, top)
                    position += init


def _attributes(trees, ctx, skip=()) -> Counter:
    """Attributes loaded (ctx ast.Load) or stored (ast.Store) under the given
    trees, not counting those under the nodes in skip, nor loads from a name
    `args`: those read argparse options, not dataclass fields."""
    hidden = {node for top in skip for node in ast.walk(top)}
    return Counter(node.attr for tree in trees for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)
                   and node not in hidden
                   and not (ctx is ast.Load and isinstance(node.value, ast.Name)
                            and node.value.id == "args"))


def _bench_trees() -> list[ast.AST]:
    return [ast.parse(path.read_text()) for path in sorted(BENCH.rglob("*.py"))]


def test_every_public_name_is_used():
    # every function, class and method (public, and private too) is referenced in
    # src/latsec outside its own definition (and __init__.py, which only
    # re-exports) or under bench/; references from unused definitions do not
    # count, so the scan repeats until no more are found.  Every dataclass field
    # is read as an attribute outside its own class, by such code or by bench/;
    # an exempt method reads for its caller outside, so its reads count too.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})}
    bench = _bench_references()
    definitions = list(_definitions(trees))

    def called(name, node, skip, refs):
        return name in bench or refs[name] > _references(node, skip)[name]

    unused: dict[str, ast.AST] = {}
    while True:
        skip = set(unused.values())
        refs = sum((_references(tree, skip) for tree in trees.values()), Counter())
        found = {qual: node for qual, name, node, cls in definitions
                 if qual not in unused and qual not in UNCALLED_EXEMPT
                 and (cls in skip or not called(name, node, skip, refs))}
        if not found:
            break
        unused |= found
    exempt = {qual: called(name, node, skip, refs)
              for qual, name, node, _ in definitions if qual in UNCALLED_EXEMPT}
    reads = _attributes(trees.values(), ast.Load, skip) + _attributes(_bench_trees(), ast.Load)
    readers = skip | {node for qual, _, node, _ in definitions if qual in UNCALLED_EXEMPT}
    read = {qual: reads[name] > _attributes([cls], ast.Load, readers)[name]
            for qual, name, _, _, cls in _fields(trees)}
    unused |= {qual: None for qual, was_read in read.items()
               if not was_read and qual not in UNREAD_EXEMPT}
    assert not unused, "\n".join(sorted(unused))
    stale = sorted(qual for qual in UNCALLED_EXEMPT if exempt.get(qual, True))
    stale += sorted(qual for qual in UNREAD_EXEMPT if read.get(qual, True))
    assert not stale, f"exempt names that are gone or now called or read: {stale}"


# defaulted parameters that no library or bench call sets, each kept for a
# caller outside src/ and bench/
DEFAULT_EXEMPT = {
    "cli.main(argv)": "the console script passes nothing; tests pass argv",
}


def _functions(trees):
    """(qualified name, name its callers use, node, whether calls skip a self
    argument) of every module-level function and every method of a
    module-level class."""
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                yield f"{module}.{top.name}", top.name, top, False
            elif isinstance(top, ast.ClassDef):
                yield from ((f"{module}.{top.name}.{node.name}",
                             top.name if node.name == "__init__" else node.name, node, True)
                            for node in top.body if isinstance(node, ast.FunctionDef))


def _defaults(fn: ast.FunctionDef):
    """(position or None for keyword-only, name, default) of each defaulted parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    yield from ((first + i, positional[first + i].arg, default)
                for i, default in enumerate(fn.args.defaults))
    yield from ((None, arg.arg, default)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None)


def _sets(call: ast.Call, position, name: str, default: ast.AST) -> bool:
    """Whether call passes the parameter with anything but a literal equal to its
    default; a * or ** argument that may cover it counts as passing it."""
    if any(kw.arg is None for kw in call.keywords):
        return True
    passed = [kw.value for kw in call.keywords if kw.arg == name]
    if position is not None:
        if any(isinstance(arg, ast.Starred) for arg in call.args[:position + 1]):
            return True
        passed += call.args[position:position + 1]
    for arg in passed:
        try:
            if ast.literal_eval(arg) != ast.literal_eval(default):
                return True
        except ValueError:
            return True
    return False


def test_every_default_is_set():
    # a defaulted parameter that no call in src/latsec (outside its own
    # function) or under bench/ sets is a constant in disguise; calls are
    # matched by bare callee name, and Cls(...) calls Cls.__init__.  So is a
    # defaulted dataclass field that no Cls(...) call and no attribute store
    # (tr.w_hat = ...) outside its own class sets.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})}
    bench = _bench_trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *bench]:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                calls.setdefault(callee, []).append(call)
    unset = set()
    for qual, callee, fn, skip_self in _functions(trees):
        own = set(ast.walk(fn))
        outside = [call for call in calls.get(callee, []) if call not in own]
        unset |= {f"{qual}({name})" for position, name, default in _defaults(fn)
                  if not any(_sets(call, None if position is None else position - skip_self,
                                   name, default) for call in outside)}
    stores = _attributes([*trees.values(), *bench], ast.Store)
    for qual, name, position, default, cls in _fields(trees):
        own = set(ast.walk(cls))
        if default is not None and stores[name] == _attributes([cls], ast.Store)[name] and not any(
                _sets(call, position, name, default)
                for call in calls.get(cls.name, []) if call not in own):
            unset.add(qual)
    assert not unset - set(DEFAULT_EXEMPT), "\n".join(sorted(unset - set(DEFAULT_EXEMPT)))
    stale = sorted(set(DEFAULT_EXEMPT) - unset)
    assert not stale, f"exempt parameters that are gone or now set: {stale}"
