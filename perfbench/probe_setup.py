"""Set-up time of a fresh interpreter: import bankscan and its CLI, scan one small APK.

usage: python3 probe_setup.py APK

The clock starts before the first bankscan import and stops when the CLI
has returned, so it covers module import, the knowledge-base load and any
other lazy state the first scan fills. A reference loop is timed right
after, in the same interpreter (see reference.py). Prints
"<seconds> <reference seconds> <exit code>" and then the scan's report.
"""

import time

from reference import reference_loop

start = time.perf_counter()

import io  # noqa: E402
import sys  # noqa: E402

import bankscan  # noqa: E402,F401
import bankscan.cli  # noqa: E402

out = io.BytesIO()
wrapper = io.TextIOWrapper(out, encoding="utf-8")
saved, sys.stdout = sys.stdout, wrapper
try:
    code = bankscan.cli.main(["-f", sys.argv[1]])
    wrapper.flush()
finally:
    sys.stdout = saved
elapsed = time.perf_counter() - start
reference = (reference_loop() + reference_loop()) / 2
report = out.getvalue().decode("utf-8")
print(f"{elapsed!r} {reference!r} {code}\n{report}", end="")
