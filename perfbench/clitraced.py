"""Run one subsumlab CLI command with the benchmark's tracer installed.

    python3 perfbench/clitraced.py AGGREGATES.json ARGS...

Runs `subsumlab ARGS...` in this process, writes the tracer's aggregates
(calls, self time, failures, quotient-cache misses) to AGGREGATES.json and
exits with the command's exit code.  Used by the traced half of cli_cold.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from subsumlab import cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv: list) -> int:
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.start_request()
    try:
        code = cli.run(args)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
