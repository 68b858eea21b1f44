"""`src/` holds what the verifier runs: every public function, class and method
and every private module-level function and class defined under src/subsym
is named somewhere else in src/subsym.

Code that only the tests reach lives under tests/.  The exceptions are the
independent oracles kept in src/ by design, which src/ itself never calls, and
the predicted symmetry count that the direct completeness solve is to use.  A
suite check `_suite_<name>` is reached by name, through the module that
`cli._SUITE_MODULES` gives for the suite.
"""

import ast
from pathlib import Path

from subsym.cli import _SUITE_MODULES

SRC = Path(__file__).resolve().parents[1] / "src" / "subsym"

ALLOWED = {
    "tangential_op_operational",
    "hook_length_dim",
    "from_action",
    "symmetry_space_dim",
    "_extract_symbols_reference",
}


def unreferenced(sources):
    """(file, line, name) of every public function, class or method defined at
    module or class level in ``sources`` (file name -> source text), and of
    every private (not dunder) module-level function or class, whose name no
    node of any of the sources carries: a Name, Attribute or import node for
    a module-level definition, an Attribute node for a method (a local
    variable of the same name is not a use of it)."""
    defined, named, attributes = [], set(), set()
    for fname, text in sources.items():
        tree = ast.parse(text, fname)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    method = d is not node
                    if not d.name.startswith("_") or not (method or d.name.startswith("__")):
                        defined.append((fname, d.lineno, d.name, method))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [(f, line, name) for f, line, name, method in defined
            if name not in attributes and (method or name not in named)]


def test_every_public_src_name_is_used_in_src():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    suites = {(f"{module}.py", f"_suite_{suite}") for suite, module in _SUITE_MODULES.items()}
    flagged = [(f, line, name) for f, line, name in unreferenced(sources) if (f, name) not in suites]
    extra = [f"{f}:{line} {name}" for f, line, name in flagged if name not in ALLOWED]
    assert not extra, "defined in src/ but named nowhere else in src/: " + ", ".join(extra)
    # the allow-list names only oracles that are still defined and still unused
    assert {name for *_, name in flagged} == ALLOWED


def test_checker_flags_an_unreferenced_function():
    sources = {
        "a.py": (
            "def shared(x):\n"
            "    return x + 1\n"
            "\n"
            "\n"
            "def orphan(y):\n"
            "    return shared(y)\n"
            "\n"
            "\n"
            "class Box:\n"
            "    def get(self):\n"
            "        return 0\n"
        ),
        "b.py": "from a import Box, shared\n\nvalue = shared(Box().get())\n",
    }
    assert unreferenced(sources) == [("a.py", 5, "orphan")]


def test_checker_flags_a_method_named_elsewhere_only_as_a_local_variable():
    sources = {
        "a.py": (
            "class Op:\n"
            "    @property\n"
            "    def order(self):\n"
            "        return 1\n"
            "\n"
            "    def size(self):\n"
            "        return 2\n"
            "\n"
            "\n"
            "def moved(p):\n"
            "    order = sorted(p)\n"
            "    return order, Op().size()\n"
            "\n"
            "\n"
            "value = moved([2, 1])\n"
        ),
    }
    assert unreferenced(sources) == [("a.py", 3, "order")]


def test_checker_flags_an_unreferenced_private_function_or_class():
    sources = {
        "a.py": (
            "def _used(x):\n"
            "    return x\n"
            "\n"
            "\n"
            "def _orphan(y):\n"
            "    return y\n"
            "\n"
            "\n"
            "class _Cache(dict):\n"
            "    def _build(self):\n"
            "        return 0\n"
            "\n"
            "\n"
            "def __getattr__(name):\n"
            "    return name\n"
            "\n"
            "\n"
            "value = _used(1)\n"
        ),
    }
    # a private method and a dunder are not flagged
    assert unreferenced(sources) == [("a.py", 5, "_orphan"), ("a.py", 9, "_Cache")]
