"""Run the cosine-audit CLI with the benchmark's span tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARGS...

Runs `cosine_audit.cli.main(CLI_ARGS)`, writes the spans and the package's
import time to SPANS_JSON, and exits with the CLI's exit code. The package
must be importable (the benchmark puts `src` on PYTHONPATH).
"""

import sys
from time import perf_counter

start = perf_counter()

import cosine_audit.cli  # noqa: E402

import_s = perf_counter() - start

from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return cosine_audit.cli.main(cli_args)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
