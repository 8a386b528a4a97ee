"""One cold start of a workload: a fresh interpreter imports the layers
the workload uses and completes one operation on a small input.

``run.py`` times this script end to end, several times per run, for the
``setup_s`` metric (``PYTHONPATH`` must name the repository's ``src``).
"""

import sys

from workloads import IN_PROCESS, Layers

if __name__ == "__main__":
    workload = IN_PROCESS[sys.argv[1]]
    workload.run(workload.make(0, -1), Layers())
