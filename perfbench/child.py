"""Run one prefractal CLI command as the `prefractal` console script does.

    python3 child.py STAMP_FILE [--trace SPAN_FILE] -- CLI_ARGS...

Writes the CLOCK_MONOTONIC time at which `prefractal.cli` finished
importing to STAMP_FILE, so the parent can split set-up from the rest of
the command. With --trace, the public functions are wrapped (see
spans.py) and the spans are written to SPAN_FILE after the command,
followed by the time writing ended; from then on the process only
tears down, which the parent times as the exit phase.
"""

import sys
import time


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    stamp_file, options, cli_argv = args[0], args[1:split], args[split + 1:]

    import prefractal.cli

    imported = time.monotonic()
    with open(stamp_file, "w") as fh:
        fh.write(repr(imported))
    if not options:
        return prefractal.cli.main(cli_argv)

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return prefractal.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.write(options[1])


if __name__ == "__main__":
    sys.exit(main())
