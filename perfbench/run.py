#!/usr/bin/env python3
"""spinflip benchmark: two workloads of the paper's commands end to end, plus a
traced run.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere; the package is imported from ``src/`` next to this
directory, so nothing is installed.  Each run:

1. records the machine (CPUs, affinity, caches, Python and numpy versions,
   kernel path) and refuses to run if the CLI's default sweep worker count
   (``os.cpu_count()``) exceeds the CPUs this process may use;
2. measures ``setup_s``: the median time for a fresh interpreter to import
   ``spinflip.cli``, at the reference host speed (see ``speed.py``), over
   several interpreters after one warm-up, half of them before the workload
   and half after it;
3. starts ``workload.py`` in a fresh interpreter (so its peak RSS is its
   own) with ``SPINFLIP_JOBS`` and ``SPINFLIP_NO_NUMBA`` cleared, which runs
   timed passes for ``--seconds`` and checks every output;
4. prints a report line and then the result line: ``--trace 0`` gives the
   end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer ones.
   ``norm_wall_s`` and ``norm_cpu_s`` are the median pass's times at the
   reference host speed (see ``speed.py``); the report also gives the raw
   ``wall_s`` and ``cpu_s``.

``--self-test`` runs every workload at a tiny size, traced and untraced,
and checks the harness itself: outputs pass, per-layer counts repeat
exactly, no wrapper outlives a traced pass, and a corrupted reference value
is counted as a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
sys.path.insert(0, HERE)

import spec  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 6  # before the workload, and as many again after it
RUN_LIMIT_S = 170.0
SELF_TEST_LIMIT_S = 120.0
# A fresh interpreter times the import, with speed.sample's loop run inline
# just before and after it: importing speed.py would load modules that
# spinflip.cli then finds already loaded.
IMPORT_PROBE = f"""
import time
def sample():
    t0 = time.perf_counter()
    s = 0
    for i in range({speed.LOOP}):
        s += i * i
    return time.perf_counter() - t0
samples = [sample() for _ in range({speed.NEARBY})]
t0 = time.perf_counter()
import spinflip.cli
seconds = time.perf_counter() - t0
samples += [sample() for _ in range({speed.NEARBY})]
print(repr(seconds), *map(repr, samples))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPINFLIP_JOBS", "SPINFLIP_NO_NUMBA")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same string hashing, hence dict layout, in every run
    return env


def run_child(argv: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run([sys.executable] + argv, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            path = os.path.join(base, index)
            if not index.startswith("index"):
                continue
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                sizes[f"L{level}"] = size
            elif kind == "Data":
                sizes["L1d"] = size
    except OSError:
        pass
    return sizes


def machine() -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    # With SPINFLIP_JOBS cleared and no --jobs, the CLI resolves its sweep
    # pool to os.cpu_count() or 1 workers.
    return {"nproc": len(affinity), "os_cpu_count": os.cpu_count(), "affinity": affinity,
            "sweep_workers": os.cpu_count() or 1,
            "caches": cache_sizes(), "python": platform.python_version(),
            "machine": platform.machine()}


def check_workers(record: dict) -> None:
    if record["sweep_workers"] > record["nproc"]:
        raise BenchError(
            f"the CLI's default sweep worker count ({record['sweep_workers']}, "
            f"os.cpu_count()) exceeds the {record['nproc']} CPUs this process may use; "
            "refusing to oversubscribe")


def measure_setup(warm_up: bool) -> list[list[float]]:
    """[import seconds, scale to the reference speed] per fresh interpreter."""
    times = []
    for i in range(SETUP_PROBES + warm_up):
        out = run_child(["-c", IMPORT_PROBE], timeout=60)
        if i or not warm_up:  # the first interpreter also writes bytecode caches
            seconds, *samples = map(float, out.split())
            times.append([seconds, speed.scale(samples)])
    return times


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it, n."""
    out = {"median": statistics.median(values), "n": len(values), "p_hi": None}
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            out["p_hi"] = [p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]]
            break
    return out


def workload_argv(workload: str, seed: int, seconds: float, trace: int,
                  size: str = "full", min_passes: int = 1, extra=()) -> list[str]:
    return [os.path.join(HERE, "workload.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace), "--size", size,
            "--min-passes", str(min_passes), *extra]


def run_workload(workload: str, seed: int, seconds: float, trace: int, timeout: float,
                 **kw) -> dict:
    out = run_child(workload_argv(workload, seed, seconds, trace, **kw), timeout)
    return json.loads(out.strip().splitlines()[-1])


def declared_metrics() -> dict:
    with open(BENCHMARK) as fh:
        doc = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]}}


def bench(args) -> int:
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "spinflip", "cli.py")):
        raise BenchError(f"no spinflip package under {SRC}")
    declared = declared_metrics()
    record = machine()
    check_workers(record)
    setup = measure_setup(warm_up=True)
    res = run_workload(args.workload, args.seed, args.seconds, args.trace,
                       RUN_LIMIT_S - (time.perf_counter() - started))
    record.update(numpy=res["numpy"], spinflip=res["spinflip"],
                  numba_enabled=res["numba_enabled"])
    # Probes on both sides of the workload see more of the host's load swings.
    setup += measure_setup(warm_up=False)

    plain = [p for p in res["passes"] if not p["traced"]]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": record,
        **{k: summary([p[k] for p in plain])
           for k in ("wall_s", "cpu_s", "norm_wall_s", "norm_cpu_s")},
        "setup_s": summary([t for t, _ in setup]),
        "norm_setup_s": summary([t * k for t, k in setup]),
        "peak_rss_mb": res["peak_rss_mb"],
        "passes": res["passes"],
        "failed_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
    }
    correct = res["failed"] == 0
    if args.trace:
        names = declared["per_layer"]
        layer = res["per_layer"]
        missing = sorted(set(names) - set(layer))
        report.update(per_layer=layer, count_mismatch=res["count_mismatch"],
                      wrappers_left=res["wrappers_left"], missing_layers=missing)
        correct = correct and not (missing or res["count_mismatch"] or res["wrappers_left"])
        metrics = {n: {"value": layer.get(n, 0), "unit": u} for n, u in names.items()}
    else:
        values = {"norm_wall_s": report["norm_wall_s"]["median"],
                  "norm_cpu_s": report["norm_cpu_s"]["median"],
                  "peak_rss_mb": res["peak_rss_mb"], "setup_s": report["norm_setup_s"]["median"]}
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in declared["end_to_end"].items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def self_test() -> int:
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "spinflip", "cli.py")):
        raise BenchError(f"no spinflip package under {SRC}")
    names = declared_metrics()["per_layer"]
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for w in spec.WORKLOADS:
        plain = run_workload(w, 1, 0, 0, SELF_TEST_LIMIT_S, size="tiny", min_passes=2)
        expect(plain["failed"] == 0 and plain["attempted"] == 2 * len(spec.commands(w, "tiny", 1)),
               f"{w}: two tiny passes, every output correct and byte-identical "
               f"({plain['failures'][:1]})")
        runs = [run_workload(w, 1, 0, 1, SELF_TEST_LIMIT_S, size="tiny") for _ in range(2)]
        for i, r in enumerate(runs):
            expect(r["failed"] == 0, f"{w}: traced run {i + 1} outputs correct {r['failures'][:1]}")
            expect(not r["wrappers_left"], f"{w}: traced run {i + 1} left no wrapper "
                                           f"{r['wrappers_left']}")
            expect(not set(names) - set(r["per_layer"]),
                   f"{w}: traced run {i + 1} reports every per-layer metric")
            expect(r["per_layer"]["_probe_errors"] == 0, f"{w}: every probe read its arguments")
        counts = [{k: v for k, v in r["per_layer"].items() if tracing.is_count(k)} for r in runs]
        expect(counts[0] == counts[1], f"{w}: per-layer counts repeat between two traced runs")
    for w, key in (("design_validate", "reduce_four_level"), ("sweeps", "noise_mc"),
                   ("design_validate", "closed_system")):
        bad = run_workload(w, 1, 0, 0, SELF_TEST_LIMIT_S, size="tiny", extra=("--corrupt", key))
        expect(bad["failed"] >= 1 and any(key in f for f in bad["failures"]),
               f"{w}: a corrupted reference for {key} is counted as failed "
               f"({bad['failed']}/{bad['attempted']})")
    print(f"self-test: {len(problems)} problem(s), {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="spinflip benchmark")
    p.add_argument("--workload", choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            p.error("--workload is required")
        return bench(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
