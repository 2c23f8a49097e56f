"""One set-up as a user pays it, in a fresh interpreter: import cfrk, build
the tableau catalog, build the named problems.  Prints the phase timings
and a host-speed probe taken right after, as JSON.  Run with the
repository's ``src`` on PYTHONPATH:

    PYTHONPATH=src python3 benchmark/setup_child.py rigid-body
"""

import json
import sys
import time

t0 = time.perf_counter()
import cfrk  # noqa: E402

t1 = time.perf_counter()
cfrk.catalog()
t2 = time.perf_counter()
for name in sys.argv[1:]:
    cfrk.build_problem(name)
t3 = time.perf_counter()

from probe import probe_sample_us  # noqa: E402

samples = [probe_sample_us() for _ in range(100)]
print(json.dumps({"import_s": t1 - t0, "catalog_s": t2 - t1,
                  "problems_s": t3 - t2,
                  "probe_us": sum(samples) / len(samples)}))
