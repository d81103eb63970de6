"""Run one ``intentcf`` CLI command in this process with its data and
checkpoint loads traced, then write the spans to a file.

    python3 benchmarks/cli_traced.py TRACE_OUT recommend --checkpoint ... --json

The package must be importable (PYTHONPATH pointing at the source tree).
The command's own output goes to stdout unchanged; the exit code is the
command's.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    trace_out, command = argv[0], argv[1:]
    from intentcf import cli, data, training

    tracer = Tracer()
    tracer.wrap(data, "load_split", f"cli.{command[0]}.load_split")
    tracer.wrap(training, "load_checkpoint", f"cli.{command[0]}.load_checkpoint")
    try:
        return cli.main(command)
    finally:
        tracer.uninstall()
        tracer.write(trace_out, command=command[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
