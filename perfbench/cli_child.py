"""`spin7 verify` under the span tracer, for the traced run of the cli workload.

Usage (with src/ on PYTHONPATH): python3 perfbench/cli_child.py verify ARGS...

Times `import spin7.cli`, installs the tracer, runs the CLI's main with the
given arguments (its report goes to stdout as usual) and writes the spans to
stderr on one line that starts with TRACE_MARK.  Exits with the CLI's code.
"""

import json
import sys
import time

TRACE_MARK = "PERFBENCH_TRACE "


def main(argv) -> int:
    t0 = time.perf_counter()
    import spin7.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = spin7.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps({"import_s": import_s,
                                              "trace": tracer.export()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
