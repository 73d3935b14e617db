"""Run one permlat CLI command in this fresh interpreter.

    python3 perfbench/cli_child.py [--trace OUT.json] LABEL ARGS...

Without ``--trace`` this does what the ``permlat`` console script does:
import ``permlat.cli`` and exit with ``main(ARGS)``. With ``--trace`` it
also records spans for the import and the command (named after LABEL)
and writes their summary to OUT.json before exiting.
"""

import sys
from time import perf_counter


def main(argv) -> int:
    trace_out = None
    if argv[0] == "--trace":
        trace_out, argv = argv[1], argv[2:]
    label, args = argv[0], argv[1:]
    started = perf_counter()
    import permlat.cli

    imported = perf_counter()
    if trace_out is None:
        return permlat.cli.main(args)

    import json

    from layers import cli_span
    from tracer import Tracer

    tracer = Tracer()
    tracer.spans.append(["cli.import", started, imported, -1, 0])
    with tracer:
        tracer.op = 1
        code = tracer.wrap(cli_span(label), permlat.cli.main)(args)
    with open(trace_out, "w") as fh:
        json.dump(tracer.collect(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
