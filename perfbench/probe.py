"""Set one workload up in a fresh interpreter, then print ``ready``.

``run.py`` starts this script several times, one at a time, and times each
start from launch to the ``ready`` line: importing hbbqss, writing the
workload's generated inputs and one untimed warm-up op.

    python3 perfbench/probe.py --workload session --seed 1 --dir perfbench/out/tmp
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import common

common.pin_threads()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)

    cli = common.import_cli()
    import speed
    import workloads

    workloads.prepare(cli, args.workload, args.seed, args.dir)
    print("ready", flush=True)
    # The parent scales this set-up by the machine speed seen from here.
    print(statistics.median(speed.sample(5)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
