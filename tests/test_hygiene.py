"""Source hygiene: every imported name is used by the module that imports it,
every parameter of a package function is read by that function, every
private function, class or method of the package has a reader, and so does
every field of a package dataclass.

The suite runs no linter, so these scans are what catch a stale import, a
parameter nothing reads, a helper nothing calls or a field nothing reads.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "orientcut").glob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))
PACKAGE_INIT = ROOT / "src" / "orientcut" / "__init__.py"
READERS = MODULES + sorted((ROOT / "benchmarks").glob("*.py"))


def _imported(tree: ast.Module):
    """(bound name, line) for every import except `__future__` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module):
    """Names the module reads, including inside string annotations."""
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def _exported(tree: ast.Module):
    """The names listed in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    if path == PACKAGE_INIT:
        used |= _exported(tree)
    unused = [(name, line) for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def _unread_parameters(tree: ast.Module):
    """(function, parameter, line) for every parameter its function never
    reads; the first parameter of a method (self or cls) is exempt."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not any(isinstance(x, ast.Name) and x.id == "staticmethod"
                           for x in f.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        if id(node) in methods:
            params = params[1:]
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p.arg not in read:
                yield getattr(node, "name", "<lambda>"), p.arg, node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = list(_unread_parameters(tree))
    assert not unread, f"{path.name}: parameters never read {unread}"


def _named(tree: ast.AST):
    """(name, node) for every name, attribute, imported name and string
    constant in a tree; monkeypatching names its target by string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.asname or node.name, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def test_every_private_definition_has_a_reader():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in READERS}
    named = {path: list(_named(tree)) for path, tree in trees.items()}
    unread = []
    for path in SOURCES:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(n == name and (other != path or id(ref) not in inside)
                       for other, refs in named.items() for n, ref in refs):
                unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, f"private definitions nothing reads: {unread}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(dec, ast.Name) and dec.id == "dataclass"
               or isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
               and dec.func.id == "dataclass" for dec in node.decorator_list)


def test_every_dataclass_field_is_read():
    """A field counts as read when some file reads an attribute of its name."""
    read = {node.attr for path in READERS
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                unread += [f"{path.name}:{field.lineno} {cls.name}.{field.target.id}"
                           for field in cls.body if isinstance(field, ast.AnnAssign)
                           and isinstance(field.target, ast.Name)
                           and field.target.id not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"
