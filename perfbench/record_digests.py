"""Write digests.json: the sha256 of every pool member's report.

Run it only at a commit whose reports are known to be right, since the
benchmark counts every later report that differs as a failure:

    PYTHONPATH=src python3 perfbench/record_digests.py
"""

import json
import sys
from pathlib import Path

import padicheights.cli as cli
from child import run_one
from workloads import POOLS, key


def main():
    table = {}
    for name, pool in POOLS.items():
        for argv in pool:
            rec = run_one(cli.run, argv)
            if rec["error"] or rec["exit"] != 0 or rec["pass"] is not True:
                sys.exit(f"{key(argv)} does not certify: {rec}")
            table[key(argv)] = rec["sha256"]
            print(f"{name}: {rec['seconds']:.2f} s  {key(argv)}", flush=True)
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
