"""Run one workload in this process and print the results as JSON.

run.py starts this script once per workload, in a fresh interpreter, so
ru_maxrss is the high-water mark of that workload alone. The script runs
whole passes over the workload's pool, each in an order drawn from the
seed, as many as fill --seconds best (at least one), and then writes one
JSON object to standard output.

Without --trace, a timer signal runs a fixed pure-Python loop (the probe)
every PROBE_EVERY_S seconds while the calls run, and each call's record
carries the median time of the probes that fell inside it. The host of a
shared VM changes its speed by up to half within seconds; the probe
slows with it, so a call's time over its probe time is steady where its
wall time is not. With --trace, the span tracer runs instead.

    python3 perfbench/child.py --workload scan-wide --seed 1 --seconds 5 [--trace]

with the repository's src directory on PYTHONPATH.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time

from workloads import POOLS

PROBE_EVERY_S = 0.02
_MERSENNE61 = (1 << 61) - 1


class Probe:
    """Times a fixed loop of about 80 us from a SIGALRM handler."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        x = 3
        for _ in range(300):
            x = x * x % _MERSENNE61
        self.samples.append(time.perf_counter() - t0)

    def install(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """Median probe time since the last take, or None without a sample.

        The median, not the mean: a probe that a page fault or a collection
        stretches says nothing about the call around it."""
        median = statistics.median(self.samples) if self.samples else None
        self.samples.clear()
        return median


def run_one(run, argv):
    """Call run(argv) as the CLI would and describe what happened.

    The report on standard output is captured, hashed and its "pass" field
    read; an exception escaping run is recorded, never raised."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    try:
        passed = json.loads(text).get("pass")
    except (ValueError, AttributeError):
        passed = None
    return {"argv": argv, "seconds": seconds, "exit": code, "error": error,
            "pass": passed,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "stderr": err.getvalue()[-400:]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(POOLS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import padicheights.cli as cli
    tracer = probe = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        probe = Probe()

    pool = POOLS[args.workload]
    rng = random.Random(args.seed)
    passes = []
    if probe:
        probe.install()
    start = time.perf_counter()
    try:
        # run the whole number of passes nearest to --seconds: start another
        # only while at least half of it should fit
        while not passes or ((time.perf_counter() - start)
                             * (len(passes) + 0.5) / len(passes)
                             <= args.seconds):
            records = []
            for argv in rng.sample(pool, len(pool)):
                if probe:
                    probe.take()
                records.append(run_one(cli.run, argv))
                if probe:
                    records[-1]["probe_s"] = probe.take()
                # a context holds reference cycles, and a CLI process frees
                # its banks at exit: collect them so no call runs beside the
                # last one's memory
                gc.collect()
                if tracer:
                    tracer.end_invocation()
            passes.append({"records": records,
                           "layers": tracer.take() if tracer else None})
    finally:
        # an alarm after the handler is gone would kill the interpreter
        if probe:
            probe.uninstall()
    json.dump({"passes": passes,
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024},
              sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
