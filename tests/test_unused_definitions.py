"""Every module-level function and class of the package has a reader: its
own module, another package module (the CLI among them), a re-export in
``headlearn/__init__.py``, or the benchmark under ``perfbench/``.  Tests
do not count: a definition only they call is dead library code."""

import ast
from pathlib import Path

import headlearn

PACKAGE = Path(headlearn.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def definitions(tree: ast.Module) -> list[ast.AST]:
    """The module-level function and class definitions of ``tree``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds)]


def names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name ``tree`` reads, imports by name or reaches as an
    attribute, outside the subtree ``skip``."""
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return found


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each module-level function or class in
    ``modules`` (name -> source) that no code reads: not its own module
    outside its own definition, not another module, not ``readers``."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    elsewhere = set().union(*(names_read(ast.parse(source)) for source in readers))
    unread = []
    for name, tree in trees.items():
        others = set().union(*(names_read(t) for n, t in trees.items() if n != name))
        for node in definitions(tree):
            if node.name not in elsewhere | others | names_read(tree, skip=node):
                unread.append(f"{name}.{node.name}")
    return unread


def test_every_definition_has_a_reader():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert readers, f"no benchmark sources under {PERFBENCH}"
    assert unread_definitions(modules, readers) == []


def test_scan_finds_an_unread_definition():
    modules = {
        "learn": "def fit(): pass\ndef dead(): dead()\ndef _helper(): pass\nfit = _helper\n",
        "cli": "from .learn import fit\nclass Parser: pass\n",
        "__init__": "from .cli import Parser\n",
    }
    assert unread_definitions(modules, []) == ["learn.dead"]
    assert unread_definitions(modules, ["import headlearn\nheadlearn.learn.dead()\n"]) == []
