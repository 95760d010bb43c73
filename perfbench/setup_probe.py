"""Time what every CLI command pays first: import sparca, read the input CSV.

Usage: python3 setup_probe.py SRC_DIR CSV_PATH [--labels]
Prints the elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sparca  # noqa: E402

if "--labels" in sys.argv[3:]:
    sparca.load_csv(sys.argv[2], label_col=-1)
else:
    sparca.load_csv(sys.argv[2])
print(repr(time.perf_counter() - start))
