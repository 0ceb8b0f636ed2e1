"""Run one ``majent`` command under the layer tracer.

    python3 perfbench/traced_cli.py COMMAND [ARGS...]

with majent's ``src`` on ``PYTHONPATH``.  The command's output and exit
status are its own; the last line on standard error is ``TRACE_MARK``
followed by the trace as JSON: per-layer [calls, total ns, child ns] for
the numpy and majent imports, ``cli.main`` and every layer it reaches.
"""
import importlib
import json
import sys

import tracer as tr

TRACE_MARK = "@@perfbench-trace "


def main() -> int:
    tracer = tr.Tracer(span_cap=200)
    tracer.time_import("numpy", "import.numpy")
    cli = tracer.call("import.majent", importlib.import_module, "majent.cli")
    tracer.install(tr.CLI_TARGETS + tr.PIPELINE_TARGETS)
    try:
        code = tracer.call("cli.main", cli.main, sys.argv[1:])
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    payload = {"layers": tracer.snapshot(), "repairs": tracer.repairs, "spans": tracer.spans}
    print(TRACE_MARK + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
