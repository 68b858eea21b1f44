"""`src/` holds what the verifier runs: every public function, class and method
defined under src/subsym is named somewhere else in src/subsym.

Code that only the tests reach lives under tests/.  The exceptions are the
independent oracles kept in src/ by design, which src/ itself never calls, and
the predicted symmetry count that the direct completeness solve is to use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subsym"

ALLOWED = {
    "tangential_op_operational",
    "hook_length_dim",
    "from_action",
    "symmetry_space_dim",
}


def unreferenced(sources):
    """(file, line, name) of every public function, class or method defined at
    module or class level in ``sources`` (file name -> source text) whose name
    no Name, Attribute or import node of any of the sources carries."""
    defined, named = [], set()
    for fname, text in sources.items():
        tree = ast.parse(text, fname)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not d.name.startswith("_"):
                        defined.append((fname, d.lineno, d.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [(f, line, name) for f, line, name in defined if name not in named]


def test_every_public_src_name_is_used_in_src():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    flagged = unreferenced(sources)
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
