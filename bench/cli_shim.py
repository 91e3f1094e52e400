"""Traced stand-in for ``python3 -m qbruhat.cli ARGV...``.

Imports ``qbruhat.cli`` (timing the import), installs the tracer's
wrappers, runs ``qbruhat.cli.run(argv)`` as the ``cli`` span and exits with
its code.  The CLI's own output goes to stdout unchanged, followed by the
spans as one line starting with ``BENCHSPANS``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import qbruhat.cli  # noqa: E402

startup_s = time.perf_counter() - t0

import tracer as tracing  # noqa: E402

tracer = tracing.Tracer()
originals = tracing.install(tracer)
code = tracer.wrap("cli", qbruhat.cli.run)(sys.argv[1:])
sys.stdout.flush()
dump = tracer.snapshot()
dump["state"] = tracing.layer_state(originals)
dump["startup_s"] = startup_s
print("BENCHSPANS " + json.dumps(dump), flush=True)
sys.exit(code)
