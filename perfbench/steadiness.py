#!/usr/bin/env python3
"""Steadiness and determinism evidence for the benchmark.

Runs every workload of BENCHMARK.json for its run_seconds:

- once on each of the seeds 1001 to 1010 (the seed set), and
- four more times on seed 1001, so five runs share one request list (the
  same-seed set).

For each end-to-end metric and each set it records two figures, both as a
share of the set's median:

- spread: the distance between the first and third quartile
  (statistics.quantiles, n=4), the statistic the bounds are held to;
- range: maximum minus minimum, the worst difference between two single
  runs.

The same-seed runs must give the same request list, queries_per_op and
recovery_rate (the determinism check).

The script exits 1 when the determinism check fails or when a seed-set
spread exceeds its bound, setup_s included. Spreads above a third of their
bound are flagged. Run it from the repository root:

    python3 perfbench/steadiness.py --out perfbench/steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = list(range(1001, 1011))
REPEATS = 4  # extra runs of SEEDS[0]


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(next(l for l in lines if l.startswith("stamp: "))[len("stamp: "):])
    host = next((l.split(": ", 1)[1] for l in lines if l.startswith("host CPU time")), "")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result:\n{proc.stdout}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(metrics.items()))
          + f" [{host}]", flush=True)
    return stamp, host, metrics


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "spread": (q3 - q1) / q2, "range": (max(values) - min(values)) / med,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="", help="write the report to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": seconds, "seeds": SEEDS, "same_seed_runs": 1 + REPEATS, "workloads": {}}
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        runs = [(seed, *run_once(w, seed, seconds)) for seed in SEEDS]
        runs += [(SEEDS[0], *run_once(w, SEEDS[0], seconds)) for _ in range(REPEATS)]
        seed_set, same_seed = runs[:len(SEEDS)], [r for r in runs if r[0] == SEEDS[0]]

        rows = {}
        for k in sorted(bounds):
            row = {"bound": bounds[k],
                   "seeds": summary([r[3][k] for r in seed_set]),
                   "same_seed": summary([r[3][k] for r in same_seed])}
            s = row["seeds"]["spread"]
            row["within_bound"] = s <= bounds[k]
            row["within_third_of_bound"] = s <= bounds[k] / 3
            ok &= row["within_bound"]
            rows[k] = row
            print(f"  {k:18s} median {row['seeds']['median']:12.6g}  spread {s:7.4f}"
                  f"  range {row['seeds']['range']:7.4f}  same-seed spread {row['same_seed']['spread']:7.4f}"
                  f"  range {row['same_seed']['range']:7.4f}  bound {bounds[k]:.2f}"
                  + ("" if row["within_bound"] else "  <-- ABOVE THE BOUND")
                  + ("" if row["within_third_of_bound"] else "  <-- above a third of the bound"), flush=True)

        lists = sorted({r[1]["request_list_sha256"] for r in same_seed})
        det = {k: sorted({r[3][k] for r in same_seed}) for k in ("queries_per_op", "recovery_rate")}
        same = len(lists) == 1 and all(len(v) == 1 for v in det.values())
        ok &= same
        print(f"  determinism ({1 + REPEATS} runs of seed {SEEDS[0]}): {'identical' if same else 'DIFFERENT'}",
              flush=True)

        stamp = {k: v for k, v in runs[0][1].items() if k not in ("seed", "request_list_sha256")}
        report["workloads"][w] = {
            "stamp": stamp,
            "host_cpu_per_run": [{"seed": r[0], "host": r[2]} for r in runs],
            "metrics": rows,
            "determinism": {"seed": SEEDS[0], "request_list_sha256": lists, **det, "identical": same},
        }

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
