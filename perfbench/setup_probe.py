"""The steps a fatpoints command takes before its first case or target.

usage: python perfbench/setup_probe.py DEGREE

Imports the CLI (and with it every module), enumerates the degree's
algorithm-B cases and bootstraps the known results, which is the rank check
of L(3; 2^5).  run.py times this process from spawn to exit.
"""

import sys

import fatpoints.cli  # noqa: F401  (the CLI's imports are part of set-up)
from fatpoints.enumeration import algorithm_b_cases
from fatpoints.reduction import KnownResults

if __name__ == "__main__":
    algorithm_b_cases(int(sys.argv[1]))
    KnownResults.bootstrap()
