"""Machine-speed sampling, so that CPU-bound timings compare across runs.

The cores of a shared host slow down by up to 2x for seconds to minutes
at a time, with the load of other tenants: far more than a change worth
measuring. While a CPU-bound workload runs, a ``SpeedSampler`` thread
wakes every ``INTERVAL_S``, takes the interpreter lock and times a fixed
pure-Python computation (an edit-distance DP over two fixed strings; no
library code, so it does not change with the program under test) on the
core the work runs on. The main thread is blocked meanwhile, so
``clock`` (wall time minus the time spent in samples) times the
program's work alone, and the mean sample time of a round over
``REFERENCE_S`` is how much slower than the reference the machine ran
during that round. Timings are reported divided by that slowdown.

On the 2-vCPU Xeon host the benchmark was tuned on, whose speed swung
by up to 2x, the spread of ``run_s`` over ten runs (interquartile range
over median) was 0.30 on eval-retrieval and 0.39 on corpus-build
unscaled, and 0.10 and 0.03 scaled.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# one sample takes about a millisecond, well inside the interpreter's
# 5 ms switch interval, so the main thread never runs during one
INTERVAL_S = 0.02
REFERENCE_S = 0.001  # about one sample on the tuning host when it was quiet
_A = "contrastive retrieval"
_B = "retrieval by contrast"


def _sample() -> None:
    for _ in range(5):
        prev = list(range(len(_B) + 1))
        for i, ca in enumerate(_A, 1):
            cur = [i]
            for j, cb in enumerate(_B, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur


class SpeedSampler:
    """Samples the machine's speed from a background thread until closed."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self):
        # the samples must run on the core the work runs on: pin the
        # calling thread to one allowed core; the sampler inherits it
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            _sample()
            took = time.perf_counter() - start
            self.samples.append(took)
            self.busy += took

    def clock(self) -> float:
        """Seconds of wall time not spent in samples."""
        return time.perf_counter() - self.busy

    def slowdown(self, since: int) -> float:
        """Mean sample time from sample ``since`` on, over the reference."""
        recent = self.samples[since:] or self.samples
        return statistics.fmean(recent) / REFERENCE_S
