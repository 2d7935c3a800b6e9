"""Time one set-up in a fresh interpreter: import the CLI, build the ready state.

Usage: ``python3 perfbench/setup_probe.py <workload>``; prints
``{"setup_s": seconds}``.  ``run.py`` launches it several times per run
and reports the median as ``setup_s``.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import repro.cli  # noqa: E402,F401

from workloads import WORKLOADS, build_ready  # noqa: E402

if __name__ == "__main__":
    build_ready(WORKLOADS[sys.argv[1]])
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
