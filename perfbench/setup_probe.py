"""Import mlplr and build one workload's inputs, then exit.

The benchmark times this process from start to exit for ``setup_s``:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]]().inputs(int(sys.argv[2]))
