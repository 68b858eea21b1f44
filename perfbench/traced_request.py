"""Run one `subsym` CLI request with every layer traced.

    python3 perfbench/traced_request.py SPANS_PATH verify <suite> [flags]

Imports every subsym module, installs the tracer, runs `subsym.cli.main` on
the remaining arguments, restores the originals, writes the spans to
SPANS_PATH and exits with the CLI's exit code.  `subsym` must be importable
(the benchmark sets PYTHONPATH to the checkout's `src`).
"""

import importlib
import sys

import spans


def main(argv):
    path, cli_args = argv[0], argv[1:]
    modules = {
        name: importlib.import_module("subsym." + name)
        for name in spans.LAYERS + ("report", "cli")
    }
    modules["subsym"] = sys.modules["subsym"]
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        code = modules["cli"].main(cli_args)
    finally:
        tracer.restore()
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
