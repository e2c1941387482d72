"""Every attribute stored in src/ is read somewhere.

A field that nothing reads is dead state: it costs a store on every
construction and tells a reader something the code never uses.  This
walks the syntax trees: an attribute counts as stored where it is the
target of an assignment (x.name = ...), and as read where it is loaded
(x.name), augmented (x.name += ...) or named in a getattr call, in any
file of src/, tests/, scripts/ or perfbench/.  Names are matched alone,
without the owner's type, so the check can only miss a dead field whose
name some other object reads.
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
READERS = sorted(
    path for part in ("src", "tests", "scripts", "perfbench")
    for path in (ROOT / part).rglob("*.py")
)


def stored_attributes(tree):
    """(line, name) for every attribute assigned in the tree."""
    return {
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }


def read_attributes(tree):
    """The attribute names the tree loads, augments or names to getattr."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Attribute
        ):
            read.add(node.target.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            read.add(node.args[1].value)
    return read


def _tree(path):
    return ast.parse(path.read_text())


@pytest.fixture(scope="module")
def read_anywhere():
    read = set()
    for path in READERS:
        read |= read_attributes(_tree(path))
    return read


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_every_stored_attribute_is_read(path, read_anywhere):
    unread = sorted(
        (line, name) for line, name in stored_attributes(_tree(path))
        if name not in read_anywhere
    )
    assert unread == []


def test_unread_attribute_is_found():
    tree = ast.parse(
        "class K:\n"
        "    def __init__(self, a):\n"
        "        self.base = a\n"
        "        self.dims = a\n"
        "        self.n = 0\n"
        "        self.n += 1\n"
        "        self.kept = a\n"
        "k = K(1)\n"
        "print(k.dims, getattr(k, 'kept'))\n"
    )
    read = read_attributes(tree)
    unread = sorted(
        (line, name) for line, name in stored_attributes(tree)
        if name not in read
    )
    assert unread == [(3, "base")]
