"""Run one aeromrac CLI command in this process, as the console script does,
and record when the package finished importing and when the reduced model
was ready.

Usage: python3 launch.py MARKS_JSON TRACE CLI_ARG...

TRACE is 1 to wrap every public aeromrac function in a timing span (see
tracer.py).  The marks (monotonic-clock times, plus the trace when enabled)
are written to MARKS_JSON when the command returns; the exit code is the
command's own.
"""

import json
import sys
import time


def main():
    marks_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    marks = {"import_start": time.monotonic()}
    import aeromrac.cli as cli

    marks["import_end"] = time.monotonic()
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    build_plant = cli.build_plant

    def build_plant_marked(cfg):
        result = build_plant(cfg)
        marks.setdefault("rom_ready", time.monotonic())
        return result

    cli.build_plant = build_plant_marked
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            marks["trace"] = tracer.dump()
        with open(marks_path, "w") as fh:
            json.dump(marks, fh)


if __name__ == "__main__":
    sys.exit(main())
