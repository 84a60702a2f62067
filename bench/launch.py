"""Run the `rrlab` command line in this process, optionally traced.

    python3 bench/launch.py STAMP [--trace] -- RRLAB-ARGS...

Behaves as `rrlab RRLAB-ARGS...` (same output and exit code).  Writes to
STAMP, as JSON, the monotonic time at which rrlab was imported and, when
traced, the span totals.  Tracing is installed here, from outside the
package, so the program itself carries no tracing flag.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main():
    stamp_path = sys.argv[1]
    split = sys.argv.index("--")
    traced = "--trace" in sys.argv[2:split]
    import rrlab.cli
    stamp = {"ready": time.monotonic()}
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        code = sys.modules["rrlab.cli"].main(sys.argv[split + 1:])
    finally:
        if tracer is not None:
            stamp["trace"] = tracer.dump()
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump(stamp, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
