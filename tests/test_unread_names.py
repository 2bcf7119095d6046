"""A tooling guard: every private module-level function, class or constant
and every method in ``src/cudlab`` is read somewhere in ``src/cudlab``.  A
helper that nothing in the program reads is deleted, not kept for the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cudlab"

# read from outside src/cudlab: argparse calls Parser.error
ALLOWED = {"Parser.error"}


def _defined(module: str, tree: ast.Module):
    """(qualified name, name) of each module-level function, class or
    constant whose name starts with ``_`` and is not a dunder, and of each
    non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    yield f"{module}.{name}", name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _unread(sources: dict[str, str]) -> list[str]:
    """The qualified names of what ``_defined`` finds in the modules
    ``sources`` (module name -> source) that no ``Name`` or ``Attribute``
    in any of them reads, outside ``ALLOWED``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return [
        qualified
        for module, tree in trees.items()
        for qualified, name in _defined(module, tree)
        if name not in read and qualified not in ALLOWED
    ]


def test_every_private_helper_and_method_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unread(sources) == []


def test_the_guard_flags_what_nothing_reads():
    source = '''
def _used(): pass
def _unused(): pass
def public(box): return _used(), box.kept()
class _Hidden: pass
class Box:
    def __len__(self): return 0
    def kept(self): return self.size()
    def size(self): return 1
    def orphan(self): return 2
class Parser:
    def error(self, message): pass
_SEEN, _UNSEEN = 1, 2
_TYPED: int = 3
__all__ = ["public"]
def reads(): return _SEEN
'''
    assert _unread({"m": source}) == [
        "m._unused", "m._Hidden", "Box.orphan", "m._UNSEEN", "m._TYPED"
    ]
