"""No module in src/, tests/ or scripts/ imports a name it never reads.

No linter ships with the toolchain, so this walks each file's syntax
tree: a name bound by an import counts as read when it appears as a
name anywhere in the file or as a string in its __all__.  An import
whose line carries `# noqa: F401` is kept on purpose and not checked.
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path for part in ("src", "tests", "scripts")
    for path in (ROOT / part).rglob("*.py")
)


def unused_imports(path):
    """(line, name) for every imported name that the file never reads."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*":
                    bound.setdefault(name, alias.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize(
    "path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES]
)
def test_no_unused_import(path):
    assert unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "__all__ = ['dumps']\n"
    )
    assert unused_imports(path) == [(1, "os"), (5, "loads")]
