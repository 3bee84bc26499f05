"""qnet benchmark: one seeded workload, checked outputs, one JSON result line.

    python3 bench/run.py --workload sweep_switch --seed 1 --seconds 30 --trace 0

Run from the repository root.  qnet is imported from ``src/`` next to
this directory and nowhere else.  ``--trace 0`` measures the end-to-end
metrics, with every timed call rescaled to reference seconds (clock.py);
``--trace 1`` runs every op untraced and then traced and reports
per-layer metrics from the spans of the traced runs.  The last
line of standard output is the JSON result; the lines before it give the
same figures in wall-clock terms under the workload's own names, with
sample counts, failure reasons and the digests of the seeded outputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from clock import REF_S, Stopwatch
from stats import min_samples, percentile
from workloads import SRC, WORKLOADS, OpResult

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
HARD_CAP_S = 120.0   # an untraced run stops here even without enough samples

END_TO_END = {
    "work_per_ref_s": "1/ref_s",
    "op_ref_ms_p50": "ref_ms",
    "op_ref_ms_p90": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qnet; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import qnet in a fresh interpreter, startup excluded."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Totals:
    def __init__(self):
        self.wall_ms, self.ref_ms = [], []
        self.wall_rates, self.ref_rates = [], []
        self.attempted = self.failed = 0
        self.reasons = []

    def add(self, res: OpResult) -> None:
        self.wall_ms += res.wall_ms
        self.ref_ms += res.ref_ms
        if res.work:
            self.wall_rates.append(res.work / res.wall_s)
            self.ref_rates.append(res.work / res.ref_s)
        self.attempted += res.attempted
        self.failed += res.failed
        self.reasons += res.reasons


class Runner:
    """Runs a workload's ops round after round and checks every output
    against the same op's output in the first round."""

    def __init__(self, workload, watch: Stopwatch):
        self.wl = workload
        self.watch = watch
        self.totals = Totals()
        self.first = []          # outputs of round 0, by op index

    def op(self, j: int) -> None:
        try:
            res = self.wl.ops[j].run(self.watch)
        except Exception:
            res = OpResult([], [], 0, 0.0, 0.0, 1, 1, b"", [traceback.format_exc()])
        if len(self.first) == j:
            self.first.append(res.output)
        elif res.output != self.first[j]:
            res = res._replace(failed=res.attempted,
                               reasons=res.reasons + [f"op {j} output differs from round 0"])
        self.totals.add(res)

    def digests(self) -> dict:
        by_kind = {}
        for op, out in zip(self.wl.ops, self.first):
            by_kind.setdefault(op.kind, hashlib.sha256()).update(out)
        return {kind: h.hexdigest() for kind, h in by_kind.items()}


def run_untraced(runner: Runner, seconds: float) -> None:
    """Ops back to back until ``seconds`` have passed, the first round is
    complete and there are enough samples for a p90."""
    need = min_samples(90)
    ops = len(runner.wl.ops)
    t0 = time.perf_counter()
    j = 0
    while True:
        runner.op(j % ops)
        j += 1
        elapsed = time.perf_counter() - t0
        if j >= ops and (elapsed >= HARD_CAP_S or
                         elapsed >= seconds and len(runner.totals.ref_ms) >= need):
            return


def run_traced(runner: Runner, tracer, seconds: float):
    """Rounds until ``seconds`` have passed, each op run untraced and then
    traced, so that the pair sees the same machine speed."""
    targets = tracing.layer_targets()
    sums, plain_s, traced_s, rounds = {}, 0.0, 0.0, 0
    t0 = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        tracer.clear()
        for j in range(len(runner.wl.ops)):
            t1 = time.perf_counter()
            runner.op(j)
            t2 = time.perf_counter()
            with tracer.installed(targets):
                runner.op(j)
            plain_s += t2 - t1
            traced_s += time.perf_counter() - t2
        for key, value in tracing.summarize(tracer).items():
            sums[key] = sums.get(key, 0) + value
        rounds += 1
    return sums, rounds, (traced_s - plain_s) / plain_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, workdir)
            wl.warmup()
            setups.append(imported + time.perf_counter() - t0)
        runner = Runner(wl, Stopwatch(calibrated=not args.trace))
        if args.trace:
            tracer = tracing.Tracer()
            sums, rounds, overhead = run_traced(runner, tracer, args.seconds)
            metrics = tracing.layer_metrics(sums, rounds, overhead)
            spans = out_dir / f"spans-{args.workload}.npz"
            np.savez_compressed(spans, **tracer.arrays())
            print(f"{rounds} rounds, each op untraced then traced; spans of the "
                  f"last round in {spans.relative_to(BENCH.parent)}")
        else:
            run_untraced(runner, args.seconds)
            t = runner.totals
            values = {
                "work_per_ref_s": statistics.median(t.ref_rates),
                "op_ref_ms_p50": percentile(t.ref_ms, 50),
                "op_ref_ms_p90": percentile(t.ref_ms, 90),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    t = runner.totals
    print(f"workload {args.workload} seed {args.seed}: {t.attempted} ops attempted, "
          f"{t.failed} failed, failed_frac = {t.failed / t.attempted!r}")
    for reason in t.reasons[:20]:
        print("  failure:", reason.rstrip())
    for kind, digest in runner.digests().items():
        print(f"  sha256 {kind} = {digest}")
    if not args.trace:
        rate, p50, p90 = wl.labels
        probes = runner.watch.probes
        print(f"  wall clock: {rate} = {statistics.median(t.wall_rates)!r} 1/s "
              f"(median of {len(t.wall_rates)} ops), "
              f"{p50} = {percentile(t.wall_ms, 50)!r} ms, "
              f"{p90} = {percentile(t.wall_ms, 90)!r} ms (n={len(t.wall_ms)})")
        print(f"  calibration probe: median {statistics.median(probes)!r} s over "
              f"{len(probes)} probes; reference {REF_S} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
