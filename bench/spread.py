"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload c1_switch --seeds 1 2 3 4 5 --seconds 20

For each end-to-end metric this prints the median of the runs, the first
and third quartiles as statistics.quantiles(values, n=4) gives them, and
their distance as a share of the median: the run-to-run spread a bound
must cover.  ``--json FILE`` also writes the values and summaries.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from stats import spread

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digests"] = dict(
        line.split()[1::2] for line in lines if line.startswith("  sha256 ")
    )
    return result


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) >= 2 and all(isinstance(v, float) for v in values):
            med, q1, q3, share = spread(values)
            if not med:
                continue  # a layer this workload never calls
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                             "unit": runs[0]["metrics"][name]["unit"]}
            print(f"{name:32s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.2%}", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "machine": machine(),
                       "runs": runs, "summary": summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
