"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workload robin_ladder --seeds 1-10 [--trace 1]

Each run is a separate process, one after the other.  For every metric
this prints the median, the quartiles and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json, and writes all runs to
perfbench/out/collect-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = list(bench["command"]) + ["--workload", args.workload, "--seed", str(seed),
                                        "--seconds", str(bench["run_seconds"]),
                                        "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
        s = summary[name]
        bound = bounds.get(name)
        print(f"{name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}" + (f"  bound {bound}" if bound else ""))
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"collect-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
