"""Run the benchmark on several seeds per workload, twice, and summarise.

Each set visits the workloads round-robin, one run at a time, so slow drift
of the machine reaches every workload alike.  For each end-to-end metric a
set gives the median, the quartiles and their distance as a share of the
median, the figure the acceptance check uses.  The second set runs on fresh
seeds; its medians are compared with the first set's against the metric's
bound in BENCHMARK.json.  The unscaled medians of each run (``raw_wall_s``,
``raw_cpu_s``, ``raw_setup_s``) are kept beside the scaled ones for
comparison.  Two traced runs per workload follow; their per-layer counts
must be equal.

    python3 perfbench/baseline.py --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
import tracing  # noqa: E402

RUNS = 10          # seeds per set; the acceptance check uses ten
FIRST_SEED = 101   # set k uses seeds FIRST_SEED + 100 k + (0 .. RUNS - 1)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def run_set(seeds: list[int], seconds: int) -> tuple[dict, dict, dict]:
    values = {w: {} for w in spec.WORKLOADS}
    failed = {w: 0 for w in spec.WORKLOADS}
    machine = None
    for seed in seeds:
        for w in spec.WORKLOADS:
            r = run(w, seed, seconds, 0)
            machine = r["report"]["machine"]
            failed[w] += r["result"]["failed"]
            for name, m in r["result"]["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for name in ("wall_s", "cpu_s", "setup_s"):  # unscaled, for comparison
                values[w].setdefault("raw_" + name, []).append(r["report"][name]["median"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values[w].items()}, flush=True)
    return ({w: {k: spread(v) for k, v in d.items()} for w, d in values.items()},
            failed, machine)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    seconds = doc["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}

    sets = []
    for k in range(2):
        seeds = [FIRST_SEED + 100 * k + i for i in range(RUNS)]
        summary, failed, machine = run_set(seeds, seconds)
        sets.append({"seeds": seeds, "summary": summary, "failed": failed})

    out = {"machine": machine, "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for w in spec.WORKLOADS:
        traced = [run(w, FIRST_SEED, seconds, 1) for _ in range(2)]
        layers = [t["report"]["per_layer"] for t in traced]
        counts_equal = all(layers[0][k] == layers[1][k] for k in layers[0] if tracing.is_count(k))
        first, second = (s["summary"][w] for s in sets)
        # The second median may be worse than the first by at most the bound.
        agree = {k: second[k]["median"] / first[k]["median"] - 1 <= bounds[k] for k in bounds}
        out["workloads"][w] = {
            "sets": [{"seeds": s["seeds"], "end_to_end": s["summary"][w],
                      "failed": s["failed"][w]} for s in sets],
            "medians_agree": agree,
            "traced": {"per_layer": layers[0], "counts_repeat": counts_equal,
                       "overhead_s": [layer["trace.overhead_s"] for layer in layers]},
        }
        print(w, "traced; counts repeat:", counts_equal, flush=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for w, d in out["workloads"].items():
        for k in d["sets"][0]["end_to_end"]:
            a, b = (s["end_to_end"][k] for s in d["sets"])
            print(f"{w:15s} {k:12s} median {a['median']:.4f} / {b['median']:.4f} "
                  f"spread {a['spread']:.4f} / {b['spread']:.4f} "
                  f"agree {d['medians_agree'].get(k, '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
