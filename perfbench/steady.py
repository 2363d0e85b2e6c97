"""Run the benchmark several times per workload, one seed per run, and
report each end-to-end metric's median and quartile spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --label set_a --seeds 1-10
    python3 perfbench/steady.py --label set_b --seeds 1-10 --workloads subject_model

The spread is (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``; it is checked against a third of
each metric's bound in ``BENCHMARK.json``. Each run is a separate process,
as the benchmark is run. The summary is written to
``perfbench/steadiness/<label>.json``; the exit code is 1 when any spread
is wider than a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"label": args.label, "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for name in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            line["wall_s"] = time.perf_counter() - t0
            runs.append(line)
            print(f"{name} seed {seed}: {json.dumps(line)}", flush=True)
        metrics = {}
        for metric in bounds:
            metrics[metric] = summarize([r["metrics"][metric]["value"] for r in runs])
            ok = metrics[metric]["spread"] < bounds[metric] / 3
            steady &= ok
            print(
                f"  {name:<15} {metric:<14} median {metrics[metric]['median']:<12.6g} "
                f"spread {metrics[metric]['spread']:.4f} (bound {bounds[metric]}) {'ok' if ok else 'WIDE'}"
            )
        summary["workloads"][name] = {
            "seeds": parse_seeds(args.seeds),
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "wall_s_max": max(r["wall_s"] for r in runs),
            "metrics": metrics,
        }
    out = HERE / "steadiness" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
