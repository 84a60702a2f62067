"""One pass of an in-process workload, in a fresh interpreter.

    python3 bench/worker.py --workload gb-chain --seed 0 [--trace] [--passes N]
    python3 bench/worker.py --workload gb-chain --seed 0 --setup-only

Prints one JSON object: the monotonic time at which rrlab was imported and
the inputs were built, one row per corpus item, and the span totals when
traced.  `--passes 2` runs the items twice in this one process and reports
how many PowerLadder powers the second pass found already cached; the timed
passes never do this.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

ITEM_CAP_S = 30.0

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class ItemTimeout(BaseException):
    """Raised by the item timer; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def run_items(run_corpus, items, seed, case_digest):
    rows = []
    for case_id, overrides in items:
        row = {"id": case_id, "ok": False, "why": "", "digest": ""}
        signal.setitimer(signal.ITIMER_REAL, ITEM_CAP_S)
        start = time.perf_counter()
        try:
            report = run_corpus(case_id, seed=seed, overrides=overrides)
        except ItemTimeout:
            row["why"] = f"time cap {ITEM_CAP_S:g} s"
        except Exception as exc:  # an item that crashes fails; the pass goes on
            row["why"] = f"{type(exc).__name__}: {exc}"
        else:
            cases = report["cases"]
            if len(cases) != 1:
                row["why"] = f"{len(cases)} cases matched"
            else:
                case = cases[0]
                row["digest"] = case_digest(case)
                row["verdict"] = case["verdict"]
                if case["resource_cap"]:
                    row["why"] = "resource cap"
                elif case["verdict"] == "fail":
                    row["why"] = "fail verdict"
                else:
                    row["ok"] = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        row["start"] = start
        row["end"] = time.perf_counter()
        rows.append(row)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import rrlab.cli  # noqa: F401  (loads every rrlab submodule)
    from rrlab.corpus import run_corpus
    from workloads import IN_PROCESS, case_digest
    items = IN_PROCESS[args.workload]
    ready = time.monotonic()
    out = {"ready": ready}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        run_corpus = sys.modules["rrlab.corpus"].run_corpus
    signal.signal(signal.SIGALRM, _on_alarm)

    from rrlab.monomial import PowerLadder
    passes = []
    for _ in range(args.passes):
        cache = getattr(PowerLadder, "_cache", None)
        cached = None if cache is None else sum(
            len(getattr(ladder, "_powers", ())) for ladder in cache.values())
        rows = run_items(run_corpus, items, args.seed, case_digest)
        passes.append({"rows": rows, "cached_powers_at_start": cached,
                       "wall_s": rows[-1]["end"] - rows[0]["start"]})
    out["passes"] = passes
    if tracer is not None:
        out["trace"] = tracer.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
