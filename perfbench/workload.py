"""One workload in one fresh interpreter: the process that ``run.py`` starts.

It imports spinflip, runs one untimed tiny pass to finish lazy set-up, then
timed passes of the workload's commands until ``--seconds`` would be
exceeded (at least one).  With ``--trace 1`` passes alternate untraced and
traced, so the tracing overhead is measured in the same process.  Every
command's output is checked against the stored reference, and every pass's
outputs must equal the first pass's byte for byte.  Each command's time is
also scaled to the reference host speed sampled while it ran (``speed.py``).

The last line of standard output is one JSON object for ``run.py``.

    PYTHONPATH=src python3 perfbench/workload.py --workload design_validate \
        --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import resource
import statistics
import sys
import time

import spec
import speed
import tracing


def load_reference(size: str, corrupt: str | None) -> dict:
    with open(spec.REFERENCE) as fh:
        ref = json.load(fh)[size]
    if corrupt is not None:
        # Self-test only: move one stored value far outside its tolerance.
        ref = copy.deepcopy(ref)
        entry = ref[corrupt]
        name = "master_F" if "master_F" in entry else sorted(entry)[0]
        if isinstance(entry[name], list):
            entry[name][0] += 1.0
        else:
            entry[name] += 1.0
    return ref


def one_pass(cmds, cli, ref, first_digests, check=True) -> dict:
    walls, cpus, scales = [], [], []
    failures, digests = [], {}
    for cmd in cmds:
        if cmd.uses_pool:
            with speed.Probe() as probe:
                o = spec.run(cmd, cli)
            samples = probe.samples
        else:
            samples = speed.nearby()
            o = spec.run(cmd, cli)
            samples += speed.nearby()
        walls.append(o.seconds)
        cpus.append(o.cpu_seconds)
        scales.append(speed.scale(samples))
        if not check:
            continue
        problems = spec.check(cmd, o, ref[cmd.key])
        digests[cmd.key] = o.digest()
        if not problems and first_digests and first_digests.get(cmd.key) != digests[cmd.key]:
            problems = [f"{cmd.key}: output differs from the first pass (not byte-identical)"]
        failures.append(problems)
    return {"wall_s": sum(walls), "cpu_s": sum(cpus),
            "norm_wall_s": sum(w * k for w, k in zip(walls, scales)),
            "norm_cpu_s": sum(c * k for c, k in zip(cpus, scales)),
            "cmd_wall_s": walls, "cmd_cpu_s": cpus, "cmd_scale": scales,
            "failures": failures, "digests": digests}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--min-passes", type=int, default=1)
    p.add_argument("--corrupt", help="self-test: corrupt this reference entry")
    args = p.parse_args(argv)

    import numpy
    import spinflip
    import spinflip._kernels
    import spinflip.cli as cli

    ref = load_reference(args.size, args.corrupt)
    cmds = spec.commands(args.workload, args.size, args.seed)
    one_pass(spec.commands(args.workload, "tiny", args.seed), cli, None, None, check=False)

    tracer = tracing.Tracer() if args.trace else None
    passes, failures, first = [], [], None
    layers, leftovers = [], []
    start = time.perf_counter()
    while True:
        modes = (False, True) if tracer else (False,)
        t_round = time.perf_counter()
        for traced in modes:
            gc.collect()
            if not traced:
                res = one_pass(cmds, cli, ref, first)
            else:
                tracer.reset()
                tracer.install()
                pool = tracing.PoolObserver(cli, tracer)
                try:
                    res = one_pass(cmds, cli, ref, first)
                finally:
                    pool.restore()
                    tracer.restore()
                leftovers += tracing.leftover_wrappers()
                layers.append(tracing.layer_metrics(tracer.spans, tracer.errors, pool.sizes,
                                                    res["wall_s"]))
                layers[-1]["_probe_errors"] = tracer.probe_errors
            first = first or res["digests"]
            failures += res["failures"]
            passes.append({k: v for k, v in res.items() if k not in ("failures", "digests")}
                          | {"traced": traced})
        n_rounds = len(passes) // len(modes)
        elapsed = time.perf_counter() - start
        if n_rounds >= args.min_passes and elapsed + (time.perf_counter() - t_round) > args.seconds:
            break

    result = {
        "passes": passes,
        "attempted": len(failures),
        "failed": sum(1 for f in failures if f),
        "failures": [msg for f in failures for msg in f][:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "spinflip": getattr(spinflip, "__version__", "unknown"),
        "numba_enabled": bool(getattr(spinflip._kernels, "NUMBA_ENABLED", False)),
    }
    if tracer:
        per_layer, mismatched = {}, []
        for name in layers[0]:
            values = [m[name] for m in layers]
            if tracing.is_count(name) or name == "_probe_errors":
                per_layer[name] = values[0]
                if any(v != values[0] for v in values):
                    mismatched.append(name)
            else:
                per_layer[name] = statistics.median(values)
        traced_wall = statistics.median(q["wall_s"] for q in passes if q["traced"])
        plain_wall = statistics.median(q["wall_s"] for q in passes if not q["traced"])
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - plain_wall
        result.update(per_layer=per_layer, count_mismatch=mismatched,
                      wrappers_left=sorted(set(leftovers)))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
