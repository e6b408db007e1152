"""Write ``reference.json``: the checked values of every benchmark command.

Run it only on a commit whose outputs are trusted; the stored values are
what every later run is compared with.  The Monte Carlo workload stores the
x-only master-equation fidelity at each grid point instead of its own
(seed-dependent) estimate.

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import math
import sys

import spec


def master_fidelity(argv: tuple) -> list[float]:
    import spinflip as sf

    opts = {flag: value for flag, value in zip(argv, argv[1:])
            if flag.startswith("--") and not value.startswith("--")}
    design = sf.TrajectoryDesign.design(float(opts["--tf"]), float(opts["--b0"]), sf.gaas())
    steps = int(opts["--steps"])
    return [sf.propagate_density(design, lambda0=math.sqrt(float(v)), channel="x-only",
                                 steps=steps).final_fidelity
            for v in opts["--grid"].split(",")]


def main() -> int:
    import spinflip.cli as cli

    out = {"note": "Checked values of each command, recorded by perfbench/record.py "
                   "on spinflip " + cli.__version__ + "; see spec.py for tolerances."}
    for size in ("full", "tiny"):
        entries = {}
        for workload in spec.WORKLOADS:
            for cmd in spec.commands(workload, size, seed=0):
                o = spec.run(cmd, cli)
                if o.error is not None or (cmd.kind != "library" and o.rc != cmd.rc):
                    sys.stderr.write(f"{cmd.key}: rc={o.rc} {o.error or o.stderr}\n")
                    return 1
                values = spec.extract(cmd, o)
                if cmd.kind == "mc":
                    values = {"axis": values["axis"], "master_F": master_fidelity(cmd.argv)}
                entries[cmd.key] = values
                print(f"{size} {cmd.key}: {o.seconds:.2f} s", file=sys.stderr)
        out[size] = entries
    with open(spec.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
