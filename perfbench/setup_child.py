"""Time one set-up in a fresh interpreter: ``import blc``, then fill the
shared count table to the workload's warm size.

Usage: python3 setup_child.py SRC_DIR WARM_N
Prints one JSON object: import_s, setup_s (import plus warm state).
Nothing else is imported before ``blc`` so its import is timed cold.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
warm_n = int(sys.argv[2])
start = time.perf_counter()
import blc  # noqa: E402

imported = time.perf_counter()
if warm_n:
    blc.counting.shared_table().ensure(warm_n)
done = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
