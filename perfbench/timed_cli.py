"""Run one pdmlab command while probing the machine's speed.

    python perfbench/timed_cli.py PROBES_PATH PDMLAB_ARGS...

The command's output, report and exit code are those of `python -m pdmlab
PDMLAB_ARGS...`; the probe times (perfbench/speed.py) go to PROBES_PATH as a
JSON list.
"""

import json
import sys

import speed


def main() -> int:
    probes_path, argv = sys.argv[1], sys.argv[2:]
    sampler = speed.Sampler()
    sampler.start()
    from pdmlab import cli

    rc = cli.main(argv)
    sampler.stop()
    sys.stdout.flush()
    with open(probes_path, "w") as fh:
        json.dump(sampler.probes, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
