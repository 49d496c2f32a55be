#!/usr/bin/env python3
"""perfbench: the repository's benchmark, one workload per run.

Run it from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program runs from ``src/`` as it is; there is nothing to build.  The
last line of standard output is the JSON result.  ``README.md`` next to
this file describes the workloads and the metrics.
"""

import time

T_START = time.perf_counter()  # a run's set-up time counts from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import measure  # noqa: E402

#: workload -> the module that drives it
WORKLOADS = {
    "pipeline-suite": "wl_pipeline",
    "serve-repeat": "wl_serve",
    "serve-unique": "wl_serve",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench",
        description="Run one perfbench workload; the JSON result is the "
                    "last line of standard output.",
    )
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(measure.SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {measure.SRC}; run "
              f"from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, measure.SRC)
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_probe:
        print(module.setup_probe(args, T_START))
    else:
        module.run(args, T_START)
    return 0


if __name__ == "__main__":
    sys.exit(main())
