"""One fresh interpreter's set-up for a workload: imports, dictionary, ready engine.

``run.py`` starts this script once per set-up sample and times it from
process start until the ``ready`` line; thread pins and the program's source
path come from the environment it passes down.

    python3 bench/setup_probe.py study-p15
"""

import sys

if __name__ == "__main__":
    import workloads

    workloads.set_up(sys.argv[1])
    print("ready", flush=True)
