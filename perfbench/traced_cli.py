"""Run one pdmlab command with boundary tracing and write the trace summary.

    python perfbench/traced_cli.py SUMMARY_PATH PDMLAB_ARGS...

The command's output, report and exit code are those of `python -m pdmlab
PDMLAB_ARGS...`; the summary (perfbench/tracer.py) covers the time spent in
pdmlab.cli.main.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from pdmlab import cli

    t0 = time.perf_counter()
    rc = cli.main(argv)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    with open(summary_path, "w") as fh:
        json.dump(tracer.summary(main_s), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
