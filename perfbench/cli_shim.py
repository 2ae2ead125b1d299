"""``python -m hogmt.cli`` with the benchmark's tracing installed.

Usage: ``python cli_shim.py SPANS.json SUBCOMMAND [hogmt cli arguments...]``.
Runs the CLI exactly as its module entry point does, with the public
functions and ``hogmt.cli.main`` (as span ``cli.<subcommand>``) wrapped, then
writes the span summary and counters to SPANS.json and exits with the CLI's
exit code.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install(extra={f"cli.{argv[0]}": ("hogmt.cli", "main")})
    import hogmt.cli

    try:
        code = hogmt.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.summary(), "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
