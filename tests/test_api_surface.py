"""Every public name of the library is read by production code.

A public module-level function, class method or property of ``src/ccml1``
must be referenced from ``src/ccml1`` outside its own definition, from the
benchmark harness (``perfbench/``) or from ``scripts/``.  A name only the
tests call is surface to maintain that no output depends on: the test
should carry it as a helper or a reference instead.

References are matched by name: a method or property must be read as an
attribute, a function as an attribute, a bare name or an import; a
``ccml1.module:Qualified.name`` target string (the harness's form) counts
for each of its parts.  Matching by name cannot tell two classes' methods
of the same name apart, so it misses a test-only method whose name another
class's production code reads.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "ccml1"
READERS = (ROOT / "perfbench", ROOT / "scripts")

# qualified name -> why it is public although production code never calls it
EXCEPTIONS = {
    "Scenario.dump": "documented in the README as the way to write a "
                     "scenario's canonical form",
}

_TARGET = re.compile(r"ccml1\.\w+:([\w.]+)")


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each public module-level
    function, and of each public method or property of a module-level
    class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if not node.name.startswith("_"):
                yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.AST, skip: ast.AST | None = None):
    """The attribute names and the bare or imported names ``tree`` reads,
    leaving out the subtree ``skip``.  A harness target string
    (``ccml1.module:Qualified.name``) counts as reading each of its parts
    as an attribute and as a name."""
    attrs: set[str] = set()
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for target in _TARGET.findall(node.value):
                attrs.update(target.split("."))
                names.update(target.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return attrs, names


def _read(name: str, method: bool, refs) -> bool:
    """Whether ``refs`` reads ``name``: a method or property only through
    an attribute, a module-level function also as a bare or imported
    name."""
    attrs, names = refs
    return name in attrs or (not method and name in names)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unreferenced() -> list[str]:
    library = {p: _parse(p) for p in sorted(LIBRARY.glob("*.py"))}
    outside: tuple[set[str], set[str]] = (set(), set())
    for folder in READERS:
        for path in sorted(folder.rglob("*.py")):
            if "tests" not in path.relative_to(folder).parts:
                for acc, got in zip(outside, _references(_parse(path))):
                    acc |= got
    missing = []
    for path, tree in library.items():
        for qual, name, node in _definitions(tree):
            method = "." in qual
            if qual in EXCEPTIONS or _read(name, method, outside):
                continue
            if not any(_read(name, method, _references(other, skip=node))
                       for other in library.values()):
                missing.append(f"{path.stem}.{qual}")
    return missing


def test_every_public_name_is_read_by_production_code():
    missing = _unreferenced()
    assert not missing, (
        "public names only tests reach (move them into the tests, or list "
        f"them in EXCEPTIONS with a reason): {missing}")


def test_every_exception_is_still_defined():
    defined = {qual for path in LIBRARY.glob("*.py")
               for qual, _, _ in _definitions(_parse(path))}
    assert set(EXCEPTIONS) <= defined
