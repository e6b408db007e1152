"""The host's speed, so that times can be given at one reference speed.

Each vCPU of a shared host switches between a fast and a slow speed, about
1.5 times apart, every few seconds, and the share of slow time changes over
minutes.  Raw wall times of one workload then spread 0.15-0.25 of their
median between runs.  The benchmark times a fixed pure-Python loop on the
same CPUs as each command, while it runs, and scales the command's time by
``REF_S`` over the loop's time.  A program change moves the command's time
but not the loop's, so it shows in full.

Two ways of sampling, by how a command uses the CPUs:
- A single-threaded command runs on one CPU for at most about a second.
  ``nearby()`` times the loop on the calling thread just before and just
  after it, on the CPU it ran on.
- A sweep keeps a worker on every CPU for seconds.  ``Probe`` runs this file
  as a separate process that, every ``PERIOD_S``, pins itself to the next
  CPU in turn and times the loop there, until the command returns.  This
  costs the sweep about 2% of one CPU.

    python3 perfbench/speed.py      # the probe process; stop it with SIGTERM
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

LOOP = 20000        # iterations of the timed loop, about 2 ms
REF_S = 0.0018      # the loop's time at the reference speed (see README.md)
PERIOD_S = 0.1      # the probe's pause between samples
NEARBY = 3          # samples before and after a single-threaded command
PROBE_LIMIT_S = 180.0


def sample() -> float:
    """Seconds for the fixed loop on the calling thread."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    return time.perf_counter() - t0


def nearby() -> list[float]:
    return [sample() for _ in range(NEARBY)]


def scale(samples: list[float]) -> float:
    """``REF_S`` over the loop's mean time: below 1 on a slow host.

    A sample over twice the median was preempted part-way and is dropped.
    """
    med = statistics.median(samples)
    kept = [s for s in samples if s <= 2.0 * med]
    return REF_S / statistics.fmean(kept)


class Probe:
    """Samples the loop on every CPU, from a separate process, while the
    ``with`` block runs; ``samples`` holds the times afterwards."""

    def __enter__(self) -> "Probe":
        self.samples: list[float] = []
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self._stop()
            raise RuntimeError("the speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        out = self._stop()
        if exc[0] is None:
            self.samples = json.loads(out)

    def _stop(self) -> str:
        self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent, cpus = os.getppid(), sorted(os.sched_getaffinity(0))
    end = time.monotonic() + PROBE_LIMIT_S
    samples = []
    print("ready", flush=True)
    while not stop and os.getppid() == parent and time.monotonic() < end:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            time.sleep(PERIOD_S)
            if stop:
                break
            samples.append(sample())
    if not samples:  # a command shorter than one period
        samples.append(sample())
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
