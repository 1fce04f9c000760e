"""padicheights benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload crosscheck-sigma --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

The program is imported from the src directory of the checkout that holds
this script. A run times SETUP_SAMPLES fresh imports of padicheights.cli,
half before and half after the workload, which runs in one fresh child
process (child.py) with the speed probe on. With --trace 1 the workload
runs twice instead, for half the time each: with the probe, then with the
span tracer installed; the run reports the per-layer split of one pass
and the tracer's overhead. The last line of standard output is one JSON
object; the exit code is 1 when any report fails the output gate.
"--workload all" runs every workload and prints a table. README.md
describes the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import POOLS, key

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 10

COUNT_METRICS = ("quadfield.calls", "padic.log_calls", "heights.scan_calls",
                 "heights.sigma_calls", "heights.sigma_distinct")


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed report)."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(args, timeout):
    proc = subprocess.run([sys.executable, *args], env=_env(), timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}")
    return proc.stdout


def setup_samples(n):
    """Seconds to import padicheights.cli, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import padicheights.cli; "
            "print(time.perf_counter() - t)")
    return [float(_python(["-c", code], 20)) for _ in range(n)]


def run_child(workload, seed, seconds, trace):
    args = [str(HERE / "child.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    # a pass may overrun --seconds by half, and a slow moment of a shared
    # machine stretches it further
    return json.loads(_python(args, 50 + 2 * seconds).splitlines()[-1])


def gate(record, digests):
    """True when one CLI call certified and printed the recorded bytes."""
    return (record["error"] is None and record["exit"] == 0
            and record["pass"] is True
            and record["sha256"] == digests.get(key(record["argv"])))


def failures(result, digests):
    """All calls in a child's result, and the ones that failed the gate."""
    records = [r for p in result["passes"] for r in p["records"]]
    return records, [r for r in records if not gate(r, digests)]


def _pass_s(p):
    return sum(r["seconds"] for r in p["records"])


def _member_mean(records, value):
    """The mean over pool members of each member's median value.

    Every member weighs the same and every call counts: a median over all
    calls of a mixed pool would rest on the one or two calls of whichever
    member sits in the middle."""
    by_member = {}
    for r in records:
        by_member.setdefault(key(r["argv"]), []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_member.values())


def wall_s(records):
    """Mean over members of the median wall time of a call."""
    return _member_mean(records, lambda r: r["seconds"])


def wall_probes(records):
    """Mean over members of the median call time in probe units."""
    if any(r["probe_s"] is None for r in records):
        raise BenchError("a call ended before the speed probe ran")
    return _member_mean(records, lambda r: r["seconds"] / r["probe_s"])


def end_to_end(plain, setup_s, digests):
    """The end-to-end metrics of an untraced child's result."""
    records, failed = failures(plain, digests)
    return {"wall_probes": wall_probes(records),
            "setup_s": setup_s,
            "peak_rss_mb": plain["peak_rss_mb"],
            "ok_ratio": 1 - len(failed) / len(records)}


def layer_metrics(plain, traced):
    """Median of each per-layer value over the traced passes, with the
    tracer's overhead on one pass."""
    layers = [p["layers"] for p in traced["passes"]]
    out = {name: (statistics.median_low if name in COUNT_METRICS
                  else statistics.median)(lay[name] for lay in layers)
           for name in layers[0]}
    out["trace.pass_s"] = statistics.median(map(_pass_s, traced["passes"]))
    out["trace.overhead_s"] = out["trace.pass_s"] - statistics.median(
        map(_pass_s, plain["passes"]))
    return out


def bench(workload, seed, seconds, trace, digests, units):
    """Run one workload; return (result line, records, failed records)."""
    if trace:
        plain = run_child(workload, seed, seconds / 2, False)
        traced = run_child(workload, seed, seconds / 2, True)
        results = [plain, traced]
        metrics = layer_metrics(plain, traced)
    else:
        # one untimed import warms the bytecode cache; the timed ones are
        # split around the workload so that they see more than one moment
        # of a shared machine
        setup_samples(1)
        before = setup_samples(SETUP_SAMPLES // 2)
        plain = run_child(workload, seed, seconds, False)
        setup_s = statistics.median(
            before + setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2))
        results = [plain]
        metrics = end_to_end(plain, setup_s, digests)
    records, failed = [], []
    for res in results:
        rec, bad = failures(res, digests)
        records += rec
        failed += bad
    line = {"correct": not failed, "attempted": len(records),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
    return line, records, failed


def _report_failures(workload, failed):
    for r in failed:
        why = (r["error"] or (f"exit {r['exit']}" if r["exit"] != 0 else None)
               or ("pass is not true" if r["pass"] is not True else None)
               or "report bytes differ from the recorded digest")
        sys.stderr.write(f"{workload}: FAILED {key(r['argv'])}: {why}\n")
        if r["stderr"]:
            sys.stderr.write(r["stderr"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(POOLS) + ["all"],
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "padicheights" / "cli.py").is_file():
        sys.exit(f"no program to measure: {SRC}/padicheights is missing")
    digests = json.loads((HERE / "digests.json").read_text())
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    names = sorted(POOLS) if args.workload == "all" else [args.workload]
    ok = True
    try:
        for name in names:
            line, records, failed = bench(name, args.seed, args.seconds,
                                          bool(args.trace), digests, units)
            _report_failures(name, failed)
            ok = ok and line["correct"]
            m = line["metrics"]
            if args.workload == "all" and not args.trace:
                print(f"{name:17s} wall_probes "
                      f"{m['wall_probes']['value']:.0f} probe  "
                      f"wall_s {wall_s(records):.4f} s "
                      f"({len(records)} calls)  "
                      f"setup_s {m['setup_s']['value']:.4f} s  "
                      f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MiB  "
                      f"fail_ratio {len(failed)}/{len(records)}", flush=True)
            else:
                print(f"# {name}: {len(records)} calls, seed {args.seed}")
                print(json.dumps(line))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.exit(f"benchmark could not measure: {exc}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
