"""A request loads only the modules its checks use.

Each suite runs in a fresh interpreter, as a `subsym verify` request does;
the modules it loads are those in `sys.modules` after the request that were
not there before `import subsym`.  The class-algebra and tensor suites use
neither the Laurent ring nor the Weyl algebra nor the ambient, boundary and
symbol layers; the boundary and symbol suites read the ambient model from
`model` and load neither `ambient` nor `classalg`, and the ambient suites do
not load `classalg`.  `linalg` loads only where an elimination runs, so the
symbols, commutation and hwvectors suites do not load it.  No suite needs
`dataclasses` (which loads `inspect`, `ast`, `dis` and `tokenize`), and each
suite's check lives beside its layer, so `cli` compiles no suite body.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subsym.cli import SUITES

SRC = Path(__file__).resolve().parents[1] / "src"

TENSOR_SUITES = ("commutant", "decompose", "hwvectors", "classalg")
NOT_FOR_TENSOR_SUITES = {
    "subsym.rings",
    "subsym.weyl",
    "subsym.ambient",
    "subsym.boundary",
    "subsym.symbols",
}
NOT_LOADED = {suite: NOT_FOR_TENSOR_SUITES for suite in TENSOR_SUITES} | {
    "hwvectors": NOT_FOR_TENSOR_SUITES | {"subsym.linalg"},
    "symbols": {"subsym.ambient", "subsym.classalg", "subsym.linalg"},
    "prop1": {"subsym.ambient", "subsym.classalg"},
    "reduction": {"subsym.ambient", "subsym.classalg"},
    "commutation": {"subsym.classalg", "subsym.linalg"},
    "composition": {"subsym.classalg"},
}

CHILD = """
import contextlib, io, sys
before = set(sys.modules)
from subsym import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", {suite!r}, "--seed", "0"])
loaded = sorted(set(sys.modules) - before)
print(repr([code, loaded]))
"""


def loaded_by(suite):
    """(exit code, modules newly loaded) of a default request of `suite`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(suite=suite)], env=env, capture_output=True, text=True, check=True
    ).stdout
    code, loaded = ast.literal_eval(out)
    return code, set(loaded)


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_a_request_loads_only_what_its_checks_use(suite):
    code, loaded = loaded_by(suite)
    assert code == 0
    forbidden = {"dataclasses"} | NOT_LOADED[suite]
    assert not loaded & forbidden, sorted(loaded & forbidden)
    assert {"subsym", "subsym.cli", "subsym.report"} <= loaded


def test_cli_defines_no_suite_body():
    tree = ast.parse((SRC / "subsym" / "cli.py").read_text())
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert not [name for name in defined if name.startswith("_suite_")], defined
