"""Run the benchmark untraced once per seed and summarise each metric's spread.

    python3 bench/spread.py --workload decide-mix --seeds 1-10 --seconds 35 > spread.json

Runs are sequential, each in its own process.  For every metric it
prints the median and the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, beside every run's record and result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="a seed or a range such as 1-10")
    parser.add_argument("--seconds", required=True)
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                "--seconds", args.seconds]
        lines = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.splitlines()
        runs.append({"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])})
        print(f"seed {seed}: {lines[-1]}", file=sys.stderr)
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {
            "median": median,
            "iqr_share": (q3 - q1) / median,
            "values": values,
        }
    json.dump({"workload": args.workload, "seeds": args.seeds, "summary": summary, "runs": runs},
              sys.stdout, indent=1, sort_keys=True)
    print()
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
