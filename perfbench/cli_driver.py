"""Traced CLI run: `python3 cli_driver.py SPANS_OUT OP_ID ARGS...`.

Imports the CLI, installs the benchmark's wrappers in this interpreter,
calls `improper.cli.main(ARGS)` as one op, writes the spans and counters
to SPANS_OUT and exits with the CLI's exit code. Used only for the traced
half of the cli-cold workload; its untraced timing runs the real entry
point.
"""

import json
import sys

import improper.cli

import tracer as tr


def main():
    spans_out, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tr.Tracer().install()
    try:
        with tracer.op(op_id):
            code = improper.cli.main(args)
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        dump["op"] = op_id
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
