"""Fresh-process probe: time ``import povmsim`` and the first frame searches.

Usage: ``python probe_cold.py '<JSON list of POVM documents>'`` with
``src`` on ``PYTHONPATH``.  Prints one JSON object.
"""

import json
import sys
import time

t0 = time.perf_counter()
import povmsim  # noqa: E402

t1 = time.perf_counter()
times = []
for doc in json.loads(sys.argv[1]):
    povm = povmsim.povm_from_dict(doc)
    start = time.perf_counter()
    povmsim.find_frame(povm)
    times.append(time.perf_counter() - start)
print(json.dumps({"import_s": t1 - t0, "find_frame_s": times}))
