"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workload chain-n256 --seeds 0-9 --seconds 20 --out perfbench/.work/chain.json

Runs are sequential, from the checkout root. For each metric it prints the
median of the per-run values, the quartiles from
statistics.quantiles(values, n=4), and the spread (Q3 - Q1) / median,
which is the figure the benchmark's bounds are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    out = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit status {proc.returncode}", file=sys.stderr)
            return 1
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(run)
        print(f"seed {seed}: attempted {run['attempted']} failed {run['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in list(run["metrics"].items())[:4]), flush=True)
    summary = summarise(runs)
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                        "trace": args.trace, "runs": runs, "summary": summary}, indent=1))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
