"""The public API: the README's examples run, and every exported name has a caller.

The package exports what its own pipeline calls. A helper whose only
caller is a test does not belong in ``pszsim.__all__``: the second test
finds such a name by parsing the package source. The third keeps modules
free of re-export shims: every name a module imports is used in it. The
fourth finds leftover helpers: every private module-level name is used in
its own module.
"""

import ast
import re
from pathlib import Path

import pszsim

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(pszsim.__file__).resolve().parent


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})
    assert capsys.readouterr().out


def _uses(tree: ast.AST, name: str) -> int:
    """Number of ``name`` identifiers read in ``tree`` outside a def or class of that name."""
    own = {
        id(node)
        for d in ast.walk(tree)
        if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name == name
        for node in ast.walk(d)
    }
    return sum(
        isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
        and id(node) not in own
        for node in ast.walk(tree)
    )


def test_every_exported_name_is_used_inside_the_package():
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    exported = [name for name in pszsim.__all__ if name != "__version__"]
    unused = [name for name in exported if not any(_uses(tree, name) for tree in trees)]
    assert unused == []


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert unused == []


def _module_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define: defs, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_every_private_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private = [n for n in _module_names(tree) if n.startswith("_") and not n.endswith("__")]
        unused += [f"{path.stem}.{name}" for name in private if not _uses(tree, name)]
    assert unused == []
