"""Every name an import statement binds in src/subsym and tests/ is used in
the same file.

Neither pyflakes nor ruff is a dependency, so this is the check, on the
`ast` alone: a name counts as used when a Name node carries it, when a
quoted annotation names it, or when the module's `__all__` lists it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _annotation_names(node):
    """Names inside a string annotation such as -> "LaurentPoly"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def unused_imports(text, fname="<string>"):
    """(line, name) of every imported name that the source never uses."""
    tree = ast.parse(text, fname)
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in bound if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "subsym").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    flagged = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in files
        for line, name in unused_imports(path.read_text(), str(path))
    ]
    assert not flagged, "imported but unused: " + ", ".join(flagged)


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import comb, gcd\n"
        "from .scalars import accumulate, rat\n"
        "__all__ = ['gcd']\n"
        "\n"
        "\n"
        "def f(x: 'Sequence') -> \"rat\":\n"
        "    return os.sep, osp.join, comb(x, 2)\n"
    )
    assert unused_imports(source) == [(5, "accumulate")]
