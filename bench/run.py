"""rrlab benchmark: end-to-end metrics per workload, or a traced layer breakdown.

    python3 bench/run.py --workload {gb-chain,mono-chain,cli-probes}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program under test is the
`rrlab` package in ./src.  A run repeats whole passes of the workload for
about S seconds (at least three), each pass in fresh interpreters, because
`PowerLadder._cache` is process-global and every `rrlab` invocation a user
makes starts cold.  It prints one line per pass and per item, then, as the
last line, a JSON object with `correct`, `attempted`, `failed` and
`metrics`: with --trace 0 the end-to-end metrics, their times scaled to a
reference host speed; with --trace 1 the per-layer metrics.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
HARD_STOP_S = 130.0      # start no pass that would end after this
PASS_CAP_S = 120.0       # kill an in-process pass after this
CLI_ITEM_CAP_S = 30.0    # kill one cli-probes process after this
RUN_CAP_S = 150.0        # kill any process still running this long after
                         # the run started, so a hung program fails in time
SETUP_PROBES = 5         # extra set-up-only spawns per in-process run

# The gated times are scaled to a host on which one reference block takes
# REFERENCE_S seconds.  The shared 2-core machine the bounds were set on
# changes speed by up to a quarter over minutes, for all code alike; timing
# the block between passes tracks that speed, and scaling by it cut the
# run-to-run spread of gb-chain's wall_s there from 0.18 to 0.08.
REFERENCE_S = 0.2
REFERENCE_BLOCKS = 2


# -- processes -----------------------------------------------------------------

class Spawned:
    """One child process: exit code, wall time from spawn to exit, and its
    own resource usage as reported by wait4."""

    def __init__(self, argv, out_path, cap_s, deadline):
        cap_s = max(0.1, min(cap_s, deadline - time.monotonic()))
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.out_path = out_path
        self.timed_out = False
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    self.timed_out = True
                    os.kill(proc.pid, signal.SIGKILL)

        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            start = time.perf_counter()
            self.t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                                    env=env, stdout=out, stderr=err)
            timer = threading.Timer(cap_s, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                with lock:
                    reaped = True
                timer.cancel()
                timer.join()
            self.wall_s = time.perf_counter() - start
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0

    def stdout(self):
        with open(self.out_path, encoding="utf-8") as fh:
            return fh.read()

    def failure(self):
        if self.timed_out:
            return "time cap"
        with open(self.out_path + ".err", encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        return f"exit {self.code}: {tail[0][:160]}"


def _digest(payload):
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# -- passes --------------------------------------------------------------------

def in_process_pass(workload, seed, traced, work, deadline, extra=()):
    """One worker process; a list of pass records (one unless `extra` asks
    the worker for more passes in the same process)."""
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed)] + (["--trace"] if traced else []) + list(extra)
    load_start = os.getloadavg()[0]
    p = Spawned(argv, os.path.join(work, "worker.out"), PASS_CAP_S, deadline)
    load_end = os.getloadavg()[0]
    items = workloads.IN_PROCESS[workload]
    base = {"traced": traced, "cpu_s": p.cpu_s, "rss_mb": p.rss_mb,
            "load": (load_start, load_end)}
    try:
        out = json.loads(p.stdout().strip().splitlines()[-1]) \
            if p.code == 0 else None
    except (ValueError, IndexError):
        out = None
    if out is None:
        why = p.failure() if p.code else "no worker output"
        rows = [{"id": cid, "ok": False, "why": why, "digest": "",
                 "wall_s": 0.0} for cid, _ in items]
        return [dict(base, rows=rows, wall_s=p.wall_s, setup_s=None,
                     trace=None, cached=None)]
    records = []
    for i, ps in enumerate(out["passes"]):
        rows = [dict(r, wall_s=r["end"] - r["start"]) for r in ps["rows"]]
        records.append(dict(base, rows=rows, wall_s=ps["wall_s"],
                            setup_s=out["ready"] - p.t_spawn if i == 0
                            else None,
                            trace=out.get("trace"),
                            cached=ps["cached_powers_at_start"]))
    return records


def setup_probe(workload, seed, work, deadline):
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    p = Spawned(argv, os.path.join(work, "setup.out"), PASS_CAP_S, deadline)
    if p.code != 0:
        return None
    return json.loads(p.stdout())["ready"] - p.t_spawn


def cli_item(name, rrlab_argv, traced, work, deadline):
    stamp = os.path.join(work, "stamp.json")
    if os.path.exists(stamp):
        os.remove(stamp)
    argv = [os.path.join(HERE, "launch.py"), stamp] + \
        (["--trace"] if traced else []) + ["--"] + rrlab_argv
    p = Spawned(argv, os.path.join(work, "item.out"), CLI_ITEM_CAP_S,
                deadline)
    row = {"id": name, "ok": False, "why": "", "digest": "",
           "wall_s": p.wall_s, "cpu_s": p.cpu_s, "rss_mb": p.rss_mb,
           "setup_s": None, "trace": None}
    if os.path.exists(stamp):
        with open(stamp, encoding="utf-8") as fh:
            st = json.load(fh)
        row["setup_s"] = st["ready"] - p.t_spawn
        row["trace"] = st.get("trace")
    if p.code != 0:
        row["why"] = p.failure()
        return row, None
    try:
        payload = json.loads(p.stdout())
    except ValueError:
        row["why"] = "output is not JSON"
        return row, None
    return row, payload


def cli_pass(seed, traced, work, deadline, progs):
    load_start = os.getloadavg()[0]
    rows = []
    for case_id, overrides in workloads.CLI_CORPUS:
        row, report = cli_item(case_id, workloads.corpus_argv(
            case_id, overrides, seed), traced, work, deadline)
        if report is not None:
            cases = report.get("cases", [])
            if len(cases) != 1:
                row["why"] = f"{len(cases)} cases matched"
            else:
                row["digest"] = workloads.case_digest(cases[0])
                row["verdict"] = cases[0]["verdict"]
                if cases[0]["resource_cap"]:
                    row["why"] = "resource cap"
                elif cases[0]["verdict"] == "fail":
                    row["why"] = "fail verdict"
                else:
                    row["ok"] = True
        rows.append(row)
    for name, path, names, expected in progs:
        row, payload = cli_item(name, ["compute", path, "--format", "json"],
                                traced, work, deadline)
        if payload is not None:
            row["digest"] = _digest(payload)
            row["why"] = workloads.check_program(names, expected,
                                                 payload) or ""
            row["ok"] = not row["why"]
        rows.append(row)
    dumps = [r["trace"] for r in rows if r["trace"]]
    return [{"traced": traced, "rows": rows,
             "wall_s": sum(r["wall_s"] for r in rows),
             "cpu_s": sum(r["cpu_s"] for r in rows),
             "rss_mb": max(r["rss_mb"] for r in rows),
             "setup_samples": [r["setup_s"] for r in rows
                               if r["setup_s"] is not None],
             "trace": tracer.merge(dumps) if traced else None,
             "load": (load_start, os.getloadavg()[0])}]


# -- one run -------------------------------------------------------------------

def reference_block():
    """Seconds taken by a fixed block of pure-Python work that uses no rrlab.

    The work mimics the engine's hot loops: taking the smallest of a set of
    pairs by a computed key, and pruning exponent tuples by divisibility.
    """
    rng = random.Random(1)
    pts = [tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(60)]
    start = time.perf_counter()
    for _ in range(3):
        pairs = {(i, j) for i in range(60) for j in range(i + 1, 60)
                 if (i * 7 + j) % 5 == 0}
        while len(pairs) > 100:
            pairs.discard(min(pairs, key=lambda p: (
                sum(map(max, pts[p[0]], pts[p[1]])), p)))
        kept = []
        for e in sorted(pts, key=lambda e: (sum(e), e)):
            if not any(all(a <= b for a, b in zip(k, e)) for k in kept):
                kept.append(e)
    return time.perf_counter() - start


def measure(run_pass, start, seconds, kinds):
    """Run passes, cycling through `kinds` (traced or not), until about
    `seconds` after `start`: at least one full cycle and MIN_PASSES passes.
    Times REFERENCE_BLOCKS reference blocks before each pass and after the
    last; returns the passes and the reference times."""
    passes, durations, refs = [], [], []
    while True:
        refs += [reference_block() for _ in range(REFERENCE_BLOCKS)]
        t = time.perf_counter()
        passes += run_pass(kinds[len(durations) % len(kinds)])
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(durations)
        enough = len(durations) >= max(MIN_PASSES, len(kinds))
        if next_end > HARD_STOP_S or (enough and next_end > seconds):
            refs += [reference_block() for _ in range(REFERENCE_BLOCKS)]
            return passes, refs


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def layer_shares(metrics):
    by_layer = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + value
    total = sum(by_layer.values()) or 1.0
    return ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in
                     sorted(by_layer.items(), key=lambda kv: -kv[1]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rrlab", "__init__.py")):
        sys.stderr.write(f"bench: no rrlab package under {SRC}\n")
        return 2
    compileall.compile_dir(os.path.join(SRC, "rrlab"), quiet=1)

    os.makedirs(os.path.join(ROOT, ".bench-work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench-work"))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench-work"))
        except OSError:
            pass


def run(args, work):
    start = time.perf_counter()
    deadline = time.monotonic() + RUN_CAP_S
    w, seed, traced_run = args.workload, args.seed, bool(args.trace)
    print(f"# rrlab bench: workload={w} seed={seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"# env: nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} "
          f"platform={platform.platform()} commit={git_commit()}")

    setup_samples = []
    warm = []
    if w == "cli-probes":
        progs = []
        for name, text, names, expected in workloads.programs(seed):
            path = os.path.join(work, name + ".rr")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            progs.append((name, path, names, expected))

        def run_pass(traced):
            return cli_pass(seed, traced, work, deadline, progs)
    else:
        def run_pass(traced):
            return in_process_pass(w, seed, traced, work, deadline)
        if traced_run:
            # Two passes in one process: the second reads the first one's
            # cached powers, which is why timed passes never share a process.
            warm = in_process_pass(w, seed, False, work, deadline,
                                   ["--passes", "2"])
        else:
            for _ in range(SETUP_PROBES):
                s = setup_probe(w, seed, work, deadline)
                if s is not None:
                    setup_samples.append(s)

    passes, refs = measure(run_pass, start, args.seconds,
                           (False, True) if traced_run else (False,))
    speed = statistics.median(refs) / REFERENCE_S

    for i, p in enumerate(passes, 1):
        setup_samples += p.get("setup_samples", [])
        if p.get("setup_s") is not None:
            setup_samples.append(p["setup_s"])
        print(f"# pass {i}{' traced' if p['traced'] else ''}: "
              f"wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
              f"peak rss {p['rss_mb']:.1f} MB, "
              f"load {p['load'][0]:.2f} -> {p['load'][1]:.2f}")

    # Correctness: every item ok, and each item's output identical in every
    # pass, traced or not, cold or warm.
    all_rows = [r for p in passes + warm for r in p["rows"]]
    attempted = len(all_rows)
    failed = sum(1 for r in all_rows if not r["ok"])
    digests = {}
    for r in all_rows:
        if r["ok"]:
            digests.setdefault(r["id"], set()).add(r["digest"])
    unstable = sorted(k for k, v in digests.items() if len(v) > 1)

    untraced = [p for p in passes if not p["traced"]]
    corpus_ids = {cid for cid, _ in workloads.IN_PROCESS.get(
        w, workloads.CLI_CORPUS)}
    corpus_sum = 0.0
    for item in dict.fromkeys(r["id"] for r in untraced[0]["rows"]):
        times = [r["wall_s"] for p in untraced for r in p["rows"]
                 if r["id"] == item]
        rows = [r for p in passes + warm for r in p["rows"] if r["id"] == item]
        bad = [r["why"] for r in rows if not r["ok"]]
        med = statistics.median(times)
        if item in corpus_ids:
            corpus_sum += med
        print(f"# item {item}: median {med:.4f} s over {len(times)} "
              f"untraced passes, {len(rows) - len(bad)}/{len(rows)} ok"
              + (f" [{bad[0]}]" if bad else ""))
    print(f"# corpus items: {corpus_sum:.3f} s per pass (median per item); "
          f"tier-1 budget for the whole corpus: "
          f"{workloads.CORPUS_BUDGET_S:g} s")
    print(f"# fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    if unstable:
        print(f"# outputs differ between passes: {', '.join(unstable)}")
    for i, p in enumerate(warm, 1):
        print(f"# warm check, same-process pass {i}: wall "
              f"{p['wall_s']:.3f} s, cached powers at start: {p['cached']}")

    if traced_run:
        traced = [p for p in passes if p["traced"]]
        per_pass = [tracer.layer_metrics(p["trace"]) for p in traced
                    if p["trace"]]
        values = {k: statistics.median(m[k] for m in per_pass)
                  for k in per_pass[0]} if per_pass else {}
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in untraced))
        missing = traced[0]["trace"]["missing"] if traced[0]["trace"] else []
        for label, why in missing:
            print(f"# missing boundary {label}: {why} (reported as 0)")
        print(f"# self time by layer: {layer_shares(values)}")
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in values.items()}
    else:
        # No setup sample means every process failed; `correct` is false.
        raw = {"wall_s": statistics.median(p["wall_s"] for p in untraced),
               "setup_s": statistics.median(setup_samples or [0.0]),
               "cpu_s": statistics.median(p["cpu_s"] for p in untraced)}
        print("# measured (not scaled): " + ", ".join(
            f"{k} {v:.4f} s" for k, v in raw.items()))
        print(f"# reference block: median {statistics.median(refs):.4f} s "
              f"over {len(refs)}; times below are scaled by "
              f"{REFERENCE_S:g} / that")
        metrics = {k: {"value": v / speed, "unit": "s"}
                   for k, v in raw.items()}
        metrics["peak_rss_mb"] = {"value": statistics.median(
            p["rss_mb"] for p in untraced), "unit": "MB"}
    print(json.dumps({"correct": failed == 0 and not unstable,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(metric):
    stat = metric.rsplit(".", 1)[1]
    return {"self_s": "s", "calls": "count", "basis_len": "count",
            "steps": "count"}.get(stat, "ratio")


if __name__ == "__main__":
    sys.exit(main())
