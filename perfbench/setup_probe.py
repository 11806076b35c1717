"""Time one workload set-up in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports gsketch from src/, builds the workload's inputs, and prints, once
the first timed operation could begin, the CPU time this process has used
so far (``time.process_time``, which counts the interpreter's start-up) and
the system-wide monotonic clock (``time.perf_counter``).  run.py starts it
and subtracts the clock reading it took just before starting the process to
get the set-up's wall time.
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from workloads import WORKLOADS, gsketch_modules  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup(gsketch_modules(), int(sys.argv[2]))
    print(repr(time.process_time()), repr(time.perf_counter()))
